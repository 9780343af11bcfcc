"""Stratified k-fold splitting, confusion-matrix metrics, AUC, and the
cross-validated experiment driver.

Metric conventions: accuracy = (tp+tn)/total, precision = tp/(tp+fp),
recall = tp/(tp+fn), f-measure = harmonic mean of precision and recall,
BSR = mean of per-class recall, AUC = Mann-Whitney U (ties count half).  A
zero-denominator ratio is reported as absent with a cause code rather than
silently zero; aggregates average the defined folds only and say how many
they were.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelMatrix
from .svm import KKT_TOL, MAX_PASSES, SvmParams, decision_value, train_svm


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise EvaluationError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: float | None = None
    precision: float | None = None
    recall: float | None = None
    f_measure: float | None = None
    auc: float | None = None
    bsr: float | None = None
    causes: dict[str, str] = field(default_factory=dict)

    FIELDS = ("accuracy", "precision", "recall", "f_measure", "auc", "bsr")


def confusion(predicted, truth) -> ConfusionMatrix:
    """Counts with the positive class encoded as 1, negative as 0."""
    predicted = list(predicted)
    truth = list(truth)
    if len(predicted) != len(truth):
        raise EvaluationError(
            f"length mismatch: {len(predicted)} predictions, {len(truth)} truths")
    _check01(predicted + truth)
    tp = sum(1 for p, t in zip(predicted, truth) if p == 1 and t == 1)
    tn = sum(1 for p, t in zip(predicted, truth) if p == 0 and t == 0)
    fp = sum(1 for p, t in zip(predicted, truth) if p == 1 and t == 0)
    fn = sum(1 for p, t in zip(predicted, truth) if p == 0 and t == 1)
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


def metrics(cm: ConfusionMatrix, auc: float | None = None,
            auc_cause: str | None = None) -> EvalMetrics:
    """Accuracy, precision, recall, f-measure and BSR from one matrix, with
    ``auc`` as given, or absent with ``auc_cause``."""
    if cm.total == 0:
        raise EvaluationError("empty confusion matrix")
    causes: dict[str, str] = {}

    def ratio(name: str, num, den, cause: str) -> float | None:
        """``num / den``, or absent with ``cause`` recorded under ``name``."""
        if den > 0:
            return num / den
        causes[name] = cause
        return None

    accuracy = (cm.tp + cm.tn) / cm.total
    precision = ratio("precision", cm.tp, cm.tp + cm.fp, "no positive predictions (tp+fp=0)")
    recall = ratio("recall", cm.tp, cm.tp + cm.fn, "no positive samples (tp+fn=0)")
    if precision is None or recall is None:
        f_measure = None
        causes["f_measure"] = "precision or recall undefined"
    else:
        f_measure = ratio("f_measure", 2.0 * precision * recall, precision + recall,
                          "precision and recall both zero")
    recall_neg = ratio("bsr", cm.tn, cm.tn + cm.fp, "no negative samples (tn+fp=0)")
    bsr = None if recall is None or recall_neg is None else (recall + recall_neg) / 2.0
    if recall is None:
        causes.setdefault("bsr", "no positive samples (tp+fn=0)")
    if auc_cause is not None:
        causes["auc"] = auc_cause

    return EvalMetrics(accuracy=accuracy, precision=precision, recall=recall,
                       f_measure=f_measure, auc=auc, bsr=bsr, causes=causes)


def _check01(labels: list) -> None:
    for v in labels:
        if v not in (0, 1):
            raise EvaluationError(f"labels must be 0/1, got {v!r}")


def auc(decision_values, truth) -> float:
    """Mann-Whitney AUC of decision values against 0/1 truth: the share of
    positive-negative pairs the positive wins, a tie counting one half.  U
    is a half-integer, exact in float64."""
    values = [float(v) for v in decision_values]
    labels = list(truth)
    if len(values) != len(labels):
        raise EvaluationError("decision values and truth differ in length")
    _check01(labels)
    pos = [v for v, t in zip(values, labels) if t == 1]
    neg = [v for v, t in zip(values, labels) if t == 0]
    if not pos or not neg:
        raise EvaluationError("AUC needs both classes present")
    wins = sum(p > q for p in pos for q in neg)
    ties = sum(p == q for p in pos for q in neg)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: tuple[int, ...]
    seed: int
    warnings: tuple[str, ...] = ()

    def fold_indices(self, fold: int) -> list[int]:
        return [i for i, f in enumerate(self.assignments) if f == fold]


def stratified_kfold(labels, k: int, seed: int) -> FoldPlan:
    """Deal each class round-robin (one continuous cursor) after a seeded
    shuffle: fold sizes differ by at most one overall and per class."""
    labels = list(labels)
    _check01(labels)
    n = len(labels)
    if k < 2:
        raise EvaluationError("k must be >= 2")
    if k > n:
        raise EvaluationError(f"k={k} exceeds sample count {n}")
    warnings = []
    rng = random.Random(seed)
    assignments = [0] * n
    cursor = 0
    for cls in (1, 0):
        members = [i for i, lab in enumerate(labels) if lab == cls]
        if 0 < len(members) < k:
            warnings.append(
                f"class {cls} has only {len(members)} members for {k} folds")
        rng.shuffle(members)
        for idx in members:
            assignments[idx] = cursor % k
            cursor += 1
    return FoldPlan(k=k, assignments=tuple(assignments), seed=seed,
                    warnings=tuple(warnings))


@dataclass(frozen=True)
class FoldResult:
    fold: int
    confusion: ConfusionMatrix | None
    metrics: EvalMetrics | None
    diagnostics: tuple[str, ...] = ()


@dataclass(frozen=True)
class EvalReport:
    mr: str
    featurization: str
    config: dict
    folds: tuple[FoldResult, ...]
    aggregate: EvalMetrics
    defined_counts: dict[str, int]
    diagnostics: tuple[str, ...] = ()

    def csv_row(self) -> tuple[str, ...]:
        """The ``results.csv`` cells: an undefined metric is an empty cell."""
        values = (getattr(self.aggregate, name) for name in EvalMetrics.FIELDS)
        return (self.mr, self.featurization,
                *("" if v is None else repr(float(v)) for v in values))


def training_rows(labels01, folds: FoldPlan) -> list:
    """Per fold, the label row ``train_svm`` takes for the fold's training
    split (+1 where the MR applies, -1 where not, 0 on the fold's test
    samples), or the reason the fold is skipped."""
    labels01 = list(labels01)
    if len(folds.assignments) != len(labels01):
        raise EvaluationError("fold plan does not match label count")
    y = np.where(np.asarray(labels01) == 1, 1.0, -1.0)
    tested = np.asarray(folds.assignments) == np.arange(folds.k)[:, None]
    rows = np.where(tested, 0.0, y)
    filled = tested.any(axis=1)
    both = (rows > 0.0).any(axis=1) & (rows < 0.0).any(axis=1)
    out: list = list(rows)
    for fold in np.flatnonzero(~(filled & both)).tolist():
        out[fold] = ("single-class training data; fold aborted" if filled[fold]
                     else "empty test fold")
    return out


def cross_validate(gram: KernelMatrix, labels01, folds: FoldPlan,
                   svm_params: SvmParams = SvmParams(),
                   mr: str = "", featurization: str = "",
                   models=None) -> EvalReport:
    """Train and evaluate one binary problem across all folds.

    Each fold trains on the training block of ``gram`` and scores a test
    sample from its column against the training split; ``labels01`` uses 1
    for "MR applies".  Folds whose training split is single-class are
    skipped with a diagnostic; a fit that stops at ``MAX_PASSES`` short of
    ``KKT_TOL`` is kept and its fold carries the model's ``stop`` text.
    Aggregates are means over folds where each metric is defined.
    ``models`` holds the fits of the folds that ``training_rows`` does not
    skip, in fold order; None trains them here, in one ``train_svm`` call.
    """
    labels01 = list(labels01)
    rows = training_rows(labels01, folds)
    trained = [row for row in rows if not isinstance(row, str)]
    if models is None:
        models = train_svm(gram.values, np.reshape(trained, (len(trained), len(labels01))),
                           svm_params)
    if len(models) != len(trained):
        raise EvaluationError(f"{len(models)} models for {len(trained)} trained folds")
    models = iter(models)

    fold_results: list[FoldResult] = []
    report_diags: list[str] = []
    for fold, row in enumerate(rows):
        if isinstance(row, str):
            fold_results.append(FoldResult(fold, None, None, (row,)))
            continue
        model = next(models)
        train_idx, test_idx = np.flatnonzero(row), np.flatnonzero(row == 0.0)
        # row r: test sample r's kernel column over the training split
        decisions = decision_value(model, gram.values[np.ix_(train_idx, test_idx)].T)
        predicted01 = [1 if d >= 0 else 0 for d in decisions]
        truth01 = [labels01[t] for t in test_idx.tolist()]
        cm = confusion(predicted01, truth01)
        if len(set(truth01)) == 2:
            fold_metrics = metrics(cm, auc(decisions, truth01))
        else:
            fold_metrics = metrics(cm, auc_cause="single-class test fold")
        diags = () if model.stop is None else (model.stop,)
        fold_results.append(FoldResult(fold, cm, fold_metrics, diags))

    aggregate_values: dict[str, float | None] = {}
    defined_counts: dict[str, int] = {}
    for name in EvalMetrics.FIELDS:
        vals = [getattr(fr.metrics, name) for fr in fold_results
                if fr.metrics is not None and getattr(fr.metrics, name) is not None]
        defined_counts[name] = len(vals)
        aggregate_values[name] = float(np.mean(vals)) if vals else None
    aggregate = EvalMetrics(causes={}, **aggregate_values)

    skipped = sum(1 for fr in fold_results if fr.confusion is None)
    if skipped:
        report_diags.append(f"{skipped} of {folds.k} folds skipped")

    config = {
        "k": folds.k,
        "fold_seed": folds.seed,
        "svm": {"C": svm_params.C, "kkt_tol": KKT_TOL, "max_passes": MAX_PASSES},
    }
    return EvalReport(
        mr=mr, featurization=featurization, config=config,
        folds=tuple(fold_results), aggregate=aggregate,
        defined_counts=defined_counts, diagnostics=tuple(report_diags),
    )
