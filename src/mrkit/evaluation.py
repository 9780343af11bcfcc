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

import json
import random
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .kernels import KernelMatrix
from .svm import SvmParams, decision_value, short_stop, train_svm


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

    def as_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self.FIELDS}
        out["causes"] = dict(sorted(self.causes.items()))
        return out


def confusion(predicted, truth) -> ConfusionMatrix:
    """Counts with the positive class encoded as 1, negative as 0."""
    predicted = list(predicted)
    truth = list(truth)
    if len(predicted) != len(truth):
        raise EvaluationError(
            f"length mismatch: {len(predicted)} predictions, {len(truth)} truths")
    for v in predicted + truth:
        if v not in (0, 1):
            raise EvaluationError(f"labels must be 0/1, got {v!r}")
    tp = sum(1 for p, t in zip(predicted, truth) if p == 1 and t == 1)
    tn = sum(1 for p, t in zip(predicted, truth) if p == 0 and t == 0)
    fp = sum(1 for p, t in zip(predicted, truth) if p == 1 and t == 0)
    fn = sum(1 for p, t in zip(predicted, truth) if p == 0 and t == 1)
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


def metrics(cm: ConfusionMatrix) -> EvalMetrics:
    """Accuracy, precision, recall, f-measure and BSR from one matrix."""
    if cm.total == 0:
        raise EvaluationError("empty confusion matrix")
    causes: dict[str, str] = {}
    accuracy = (cm.tp + cm.tn) / cm.total

    if cm.tp + cm.fp > 0:
        precision = cm.tp / (cm.tp + cm.fp)
    else:
        precision = None
        causes["precision"] = "no positive predictions (tp+fp=0)"
    if cm.tp + cm.fn > 0:
        recall = cm.tp / (cm.tp + cm.fn)
    else:
        recall = None
        causes["recall"] = "no positive samples (tp+fn=0)"
    if precision is None or recall is None:
        f_measure = None
        causes["f_measure"] = "precision or recall undefined"
    elif precision + recall == 0:
        f_measure = None
        causes["f_measure"] = "precision and recall both zero"
    else:
        f_measure = 2.0 * precision * recall / (precision + recall)
    if cm.tn + cm.fp > 0:
        recall_neg = cm.tn / (cm.tn + cm.fp)
    else:
        recall_neg = None
        causes["bsr"] = "no negative samples (tn+fp=0)"
    if recall is None:
        bsr = None
        causes.setdefault("bsr", "no positive samples (tp+fn=0)")
    elif recall_neg is None:
        bsr = None
    else:
        bsr = (recall + recall_neg) / 2.0

    return EvalMetrics(accuracy=accuracy, precision=precision, recall=recall,
                       f_measure=f_measure, bsr=bsr, causes=causes)


def auc(decision_values, truth) -> float:
    """Mann-Whitney AUC of decision values against 0/1 truth: the share of
    positive-negative pairs the positive wins, a tie counting one half.  U
    is a half-integer, exact in float64."""
    values = np.asarray(list(decision_values), dtype=float)
    labels = np.asarray(list(truth))
    if values.shape != labels.shape:
        raise EvaluationError("decision values and truth differ in length")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("AUC needs both classes present")
    pos = values[labels == 1][:, None]
    neg = values[labels == 0]
    u = float((pos > neg).sum()) + 0.5 * float((pos == neg).sum())
    return u / (n_pos * n_neg)


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
    cm: ConfusionMatrix | None
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

    def to_dict(self) -> dict:
        return {
            "mr": self.mr,
            "featurization": self.featurization,
            "config": self.config,
            "folds": [
                {
                    "fold": fr.fold,
                    "confusion": None if fr.cm is None else asdict(fr.cm),
                    "metrics": None if fr.metrics is None else fr.metrics.as_dict(),
                    "diagnostics": list(fr.diagnostics),
                }
                for fr in self.folds
            ],
            "aggregate": self.aggregate.as_dict(),
            "defined_counts": dict(sorted(self.defined_counts.items())),
            "diagnostics": list(self.diagnostics),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def csv_row(self) -> str:
        def cell(v):
            return "" if v is None else repr(float(v))

        m = self.aggregate
        return ",".join([
            self.mr, self.featurization, cell(m.accuracy), cell(m.precision),
            cell(m.recall), cell(m.f_measure), cell(m.auc), cell(m.bsr),
        ])


RESULTS_CSV_HEADER = "mr,featurization,accuracy,precision,recall,f_measure,auc,bsr"


def cross_validate(gram: KernelMatrix, labels01, folds: FoldPlan,
                   svm_params: SvmParams = SvmParams(),
                   mr: str = "", featurization: str = "") -> EvalReport:
    """Train and evaluate one binary problem across all folds.

    Each fold trains on the training block of ``gram`` and scores a test
    sample from its column against the training split; ``labels01`` uses 1
    for "MR applies".  Folds whose training split is single-class are
    skipped with a diagnostic; a fit that stops at ``max_passes`` short of
    ``kkt_tol`` is kept and carries ``short_stop``'s.  Aggregates are means
    over folds where each metric is defined.
    """
    labels01 = list(labels01)
    n = len(labels01)
    if len(folds.assignments) != n:
        raise EvaluationError("fold plan does not match label count")
    y = np.asarray([1.0 if lab == 1 else -1.0 for lab in labels01])

    fold_results: list[FoldResult] = []
    report_diags: list[str] = []
    for fold in range(folds.k):
        test_idx = folds.fold_indices(fold)
        train_idx = [i for i in range(n) if folds.assignments[i] != fold]
        if not test_idx:
            fold_results.append(FoldResult(fold, None, None,
                                           ("empty test fold",)))
            continue
        train_y = y[train_idx]
        if len(set(train_y.tolist())) < 2:
            fold_results.append(FoldResult(
                fold, None, None, ("single-class training data; fold aborted",)))
            continue
        train_gram = gram.submatrix(train_idx, train_idx)
        model = train_svm(train_gram, train_y, svm_params)
        stop = short_stop(train_gram, train_y, model, svm_params)
        diags = [] if stop is None else [stop]
        decisions = [decision_value(model, gram.values[train_idx, t])
                     for t in test_idx]
        predicted01 = [1 if d >= 0 else 0 for d in decisions]
        truth01 = [labels01[t] for t in test_idx]
        cm = confusion(predicted01, truth01)
        fold_metrics = metrics(cm)
        causes = fold_metrics.causes
        if len(set(truth01)) == 2:
            fold_auc = auc(decisions, truth01)
        else:
            fold_auc, causes = None, {**causes, "auc": "single-class test fold"}
        fold_metrics = replace(fold_metrics, auc=fold_auc, causes=causes)
        fold_results.append(FoldResult(fold, cm, fold_metrics, tuple(diags)))

    aggregate_values: dict[str, float | None] = {}
    defined_counts: dict[str, int] = {}
    for name in EvalMetrics.FIELDS:
        vals = [getattr(fr.metrics, name) for fr in fold_results
                if fr.metrics is not None and getattr(fr.metrics, name) is not None]
        defined_counts[name] = len(vals)
        aggregate_values[name] = float(np.mean(vals)) if vals else None
    aggregate = EvalMetrics(causes={}, **aggregate_values)

    skipped = sum(1 for fr in fold_results if fr.cm is None)
    if skipped:
        report_diags.append(f"{skipped} of {folds.k} folds skipped")

    config = {
        "k": folds.k,
        "fold_seed": folds.seed,
        "svm": {
            "C": svm_params.C,
            "kkt_tol": svm_params.kkt_tol,
            "max_passes": svm_params.max_passes,
        },
    }
    return EvalReport(
        mr=mr, featurization=featurization, config=config,
        folds=tuple(fold_results), aggregate=aggregate,
        defined_counts=defined_counts, diagnostics=tuple(report_diags),
    )
