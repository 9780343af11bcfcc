import argparse
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrkit.cli import _corpus_features
from mrkit.corpus import json_text
from mrkit.evaluation import (
    ConfusionMatrix,
    EvaluationError,
    FoldPlan,
    auc,
    confusion,
    cross_validate,
    metrics,
    stratified_kfold,
    training_rows,
)
from mrkit import svm
from mrkit.features import FeatureVector
from mrkit.kernels import build_design_matrix
from mrkit.svm import SvmParams, train_svm

HAND_CM = ConfusionMatrix(tp=3, fn=2, fp=1, tn=4)


def test_stratified_exact_divisibility():
    labels = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
    plan = stratified_kfold(labels, 5, seed=1)
    for fold in range(5):
        members = plan.fold_indices(fold)
        assert len(members) == 2
        assert sum(labels[i] for i in members) == 1


def test_stratified_paper_add_distribution():
    # 100 labels with 56 positives, ten folds: 5 or 6 positives per fold
    labels = [1] * 56 + [0] * 44
    plan = stratified_kfold(labels, 10, seed=42)
    for fold in range(10):
        members = plan.fold_indices(fold)
        positives = sum(labels[i] for i in members)
        assert positives in (5, 6)
        assert len(members) == 10


def test_stratified_deterministic():
    labels = [random.Random(5).randint(0, 1) for _ in range(30)]
    a = stratified_kfold(labels, 4, seed=99)
    b = stratified_kfold(labels, 4, seed=99)
    assert a.assignments == b.assignments


def test_stratified_small_class_warns():
    plan = stratified_kfold([1] + [0] * 9, 5, seed=0)
    assert plan.warnings


def test_stratified_k_larger_than_n():
    with pytest.raises(EvaluationError):
        stratified_kfold([0, 1], 3, seed=0)
    with pytest.raises(EvaluationError):
        stratified_kfold([0, 1], 1, seed=0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=60),
       st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=2**16))
def test_stratified_fold_properties(labels, k, seed):
    if k > len(labels):
        return
    plan = stratified_kfold(labels, k, seed)
    sizes = [len(plan.fold_indices(f)) for f in range(k)]
    assert sum(sizes) == len(labels)                     # union = dataset
    assert max(sizes) - min(sizes) <= 1
    seen = [i for f in range(k) for i in plan.fold_indices(f)]
    assert sorted(seen) == list(range(len(labels)))      # pairwise disjoint
    for cls in (0, 1):
        counts = [sum(1 for i in plan.fold_indices(f) if labels[i] == cls)
                  for f in range(k)]
        if counts:
            assert max(counts) - min(counts) <= 1


def test_confusion_all_correct_positive():
    cm = confusion([1, 1, 1, 1], [1, 1, 1, 1])
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (4, 0, 0, 0)


def test_confusion_complement():
    cm = confusion([0, 1, 0], [1, 0, 1])
    assert cm.tp == 0 and cm.tn == 0 and cm.fp == 1 and cm.fn == 2


def test_confusion_hand_case():
    truth = [1, 1, 1, 1, 0, 0, 0, 0, 0, 1]
    predicted = [1, 1, 1, 0, 1, 0, 0, 0, 0, 0]
    cm = confusion(predicted, truth)
    assert (cm.tp, cm.fn, cm.fp, cm.tn) == (3, 2, 1, 4)


def test_confusion_length_mismatch():
    with pytest.raises(EvaluationError, match="length"):
        confusion([1], [1, 0])


def test_metrics_hand_case_exact():
    m = metrics(HAND_CM)
    assert abs(m.accuracy - 0.7) <= 1e-12
    assert abs(m.precision - 0.75) <= 1e-12
    assert abs(m.recall - 0.6) <= 1e-12
    assert abs(m.f_measure - 2.0 / 3.0) <= 1e-12
    assert abs(m.bsr - 0.7) <= 1e-12


def test_metrics_perfect():
    m = metrics(ConfusionMatrix(tp=5, tn=5, fp=0, fn=0))
    assert (m.accuracy, m.precision, m.recall, m.f_measure, m.bsr) == (
        1.0, 1.0, 1.0, 1.0, 1.0)


def test_metrics_absent_precision_flagged():
    m = metrics(ConfusionMatrix(tp=0, tn=5, fp=0, fn=2))
    assert m.precision is None
    assert "precision" in m.causes
    assert m.f_measure is None


def test_metrics_empty_matrix():
    with pytest.raises(EvaluationError):
        metrics(ConfusionMatrix(0, 0, 0, 0))


NO_PRED_POS = {"precision": "no positive predictions (tp+fp=0)"}
NO_POS = {"recall": "no positive samples (tp+fn=0)"}
NO_NEG_BSR = {"bsr": "no negative samples (tn+fp=0)"}
NO_POS_BSR = {"bsr": "no positive samples (tp+fn=0)"}
F_UNDEFINED = {"f_measure": "precision or recall undefined"}
F_BOTH_ZERO = {"f_measure": "precision and recall both zero"}


@pytest.mark.parametrize("counts,values,causes", [
    # every pattern of zero cells in (tp, tn, fp, fn) = (1, 2, 3, 4) but the
    # empty matrix: (accuracy, precision, recall, f_measure, bsr) and causes
    ((1, 2, 3, 4), (0.3, 0.25, 0.2, 0.22222222222222224, 0.30000000000000004), {}),
    ((1, 2, 3, 0), (0.5, 0.25, 1.0, 0.4, 0.7), {}),
    ((1, 2, 0, 4), (0.42857142857142855, 1.0, 0.2, 0.33333333333333337, 0.6), {}),
    ((1, 2, 0, 0), (1.0, 1.0, 1.0, 1.0, 1.0), {}),
    ((1, 0, 3, 4), (0.125, 0.25, 0.2, 0.22222222222222224, 0.1), {}),
    ((1, 0, 3, 0), (0.25, 0.25, 1.0, 0.4, 0.5), {}),
    ((1, 0, 0, 4), (0.2, 1.0, 0.2, 0.33333333333333337, None), NO_NEG_BSR),
    ((1, 0, 0, 0), (1.0, 1.0, 1.0, 1.0, None), NO_NEG_BSR),
    ((0, 2, 3, 4), (0.2222222222222222, 0.0, 0.0, None, 0.2), F_BOTH_ZERO),
    ((0, 2, 3, 0), (0.4, 0.0, None, None, None), {**NO_POS, **F_UNDEFINED, **NO_POS_BSR}),
    ((0, 2, 0, 4), (0.3333333333333333, None, 0.0, None, 0.5), {**NO_PRED_POS, **F_UNDEFINED}),
    ((0, 2, 0, 0), (1.0, None, None, None, None),
     {**NO_PRED_POS, **NO_POS, **F_UNDEFINED, **NO_POS_BSR}),
    ((0, 0, 3, 4), (0.0, 0.0, 0.0, None, 0.0), F_BOTH_ZERO),
    ((0, 0, 3, 0), (0.0, 0.0, None, None, None), {**NO_POS, **F_UNDEFINED, **NO_POS_BSR}),
    ((0, 0, 0, 4), (0.0, None, 0.0, None, None), {**NO_PRED_POS, **F_UNDEFINED, **NO_NEG_BSR}),
    # tp = 0 with fp, fn > 0: precision and recall are both a defined 0
    ((0, 5, 1, 1), (0.7142857142857143, 0.0, 0.0, None, 0.4166666666666667), F_BOTH_ZERO),
])
def test_metrics_pin_every_value_and_cause(counts, values, causes):
    m = metrics(ConfusionMatrix(*counts))
    assert (m.accuracy, m.precision, m.recall, m.f_measure, m.bsr) == values
    assert m.auc is None
    assert m.causes == causes


def _metrics_per_sample_oracle(predicted, truth):
    """Direct per-sample recomputation, no ConfusionMatrix in sight."""
    n = len(truth)
    correct = sum(p == t for p, t in zip(predicted, truth))
    pos_pred = [t for p, t in zip(predicted, truth) if p == 1]
    pos_true = [p for p, t in zip(predicted, truth) if t == 1]
    neg_true = [p for p, t in zip(predicted, truth) if t == 0]
    out = {"accuracy": correct / n}
    out["precision"] = (sum(pos_pred) / len(pos_pred)) if pos_pred else None
    out["recall"] = (sum(pos_true) / len(pos_true)) if pos_true else None
    if out["precision"] is None or out["recall"] is None or \
            out["precision"] + out["recall"] == 0:
        out["f"] = None
    else:
        out["f"] = 2 * out["precision"] * out["recall"] / (out["precision"] + out["recall"])
    rec_neg = (sum(1 for p in neg_true if p == 0) / len(neg_true)) if neg_true else None
    out["bsr"] = None if (out["recall"] is None or rec_neg is None) \
        else (out["recall"] + rec_neg) / 2
    return out


def test_metrics_match_per_sample_oracle_on_random_data():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, 40)
        truth = [rng.randint(0, 1) for _ in range(n)]
        predicted = [rng.randint(0, 1) for _ in range(n)]
        m = metrics(confusion(predicted, truth))
        oracle = _metrics_per_sample_oracle(predicted, truth)
        for got, want in ((m.accuracy, oracle["accuracy"]),
                          (m.precision, oracle["precision"]),
                          (m.recall, oracle["recall"]),
                          (m.f_measure, oracle["f"]),
                          (m.bsr, oracle["bsr"])):
            if want is None:
                assert got is None
            else:
                assert abs(got - want) <= 1e-12


def brute_force_auc(values, truth):
    pos = [v for v, t in zip(values, truth) if t == 1]
    neg = [v for v, t in zip(values, truth) if t == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
               for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_auc_strict_ordering():
    assert auc([5.0, 4.0, 1.0, 0.5], [1, 1, 0, 0]) == 1.0


def test_auc_all_ties():
    assert auc([2.0, 2.0, 2.0, 2.0], [1, 0, 1, 0]) == 0.5


def test_auc_worked_example():
    values = [0.9, 0.4, 0.6, 0.1]
    truth = [1, 1, 0, 0]
    assert auc(values, truth) == brute_force_auc(values, truth) == 0.75


def test_auc_single_class_rejected():
    with pytest.raises(EvaluationError):
        auc([1.0, 2.0], [1, 1])


def test_auc_refuses_truth_that_is_not_0_or_1():
    # the numpy count kept the one pair of a 1 and a 0 and read 0.0
    with pytest.raises(EvaluationError, match="labels must be 0/1, got 2"):
        auc([.1, .2, .3, .4], [1, 0, 2, 5])


def test_stratified_kfold_refuses_labels_that_are_not_0_or_1():
    # the class-by-class deal left both 2s in fold 0, never dealt
    with pytest.raises(EvaluationError, match="labels must be 0/1, got 2"):
        stratified_kfold([1, 0, 2, 2, 1, 0], 2, seed=1)


def test_auc_matches_brute_force_with_ties():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 30)
        truth = [rng.randint(0, 1) for _ in range(n)]
        if len(set(truth)) < 2:
            continue
        values = [float(rng.randint(0, 5)) for _ in range(n)]  # many ties
        assert abs(auc(values, truth) - brute_force_auc(values, truth)) <= 1e-12


def test_auc_monotone_transform_invariance():
    rng = random.Random(3)
    values = [rng.uniform(-2, 2) for _ in range(40)]
    truth = [rng.randint(0, 1) for _ in range(40)]
    if len(set(truth)) < 2:
        truth[0], truth[1] = 0, 1
    base = auc(values, truth)
    assert auc([2 * v + 1 for v in values], truth) == pytest.approx(base, abs=1e-12)
    assert auc([v ** 3 for v in values], truth) == pytest.approx(base, abs=1e-12)


def _synthetic_gram(n, rng, informative=True):
    """Corpus where the presence of one key decides the label."""
    rows = []
    labels = []
    for i in range(n):
        label = rng.randint(0, 1)
        entries = {"assi-1-1": rng.randint(1, 9)}
        if label and informative:
            entries["div-1-1"] = 1
        rows.append((f"m{i}", FeatureVector("NF", entries)))
        labels.append(label)
    # guarantee both classes
    if len(set(labels)) < 2:
        labels[0] = 1 - labels[0]
        if informative and labels[0]:
            rows[0] = ("m0", FeatureVector("NF", {"assi-1-1": 1, "div-1-1": 1}))
    return build_design_matrix(rows), labels


def test_cross_validate_learnable_corpus():
    rng = random.Random(0)
    gram, labels = _synthetic_gram(60, rng)
    folds = stratified_kfold(labels, 10, seed=42)
    report = cross_validate(gram, labels, folds, SvmParams(),
                            mr="SYN", featurization="nf-pf")
    assert report.aggregate.accuracy >= 0.95


def test_cross_validate_permutation_null():
    rng = random.Random(1)
    gram, labels = _synthetic_gram(60, rng, informative=True)
    shuffled = list(labels)
    random.Random(123).shuffle(shuffled)
    folds = stratified_kfold(shuffled, 10, seed=42)
    report = cross_validate(gram, shuffled, folds, SvmParams())
    assert 0.3 <= report.aggregate.auc <= 0.7


def test_cross_validate_leave_one_out():
    rng = random.Random(2)
    gram, labels = _synthetic_gram(12, rng)
    folds = stratified_kfold(labels, len(labels), seed=0)
    report = cross_validate(gram, labels, folds, SvmParams())
    assert len(report.folds) == len(labels)


def test_cross_validate_single_class_training_fold_aborts():
    # one positive in two folds: the fold holding it out trains single-class
    labels = [1, 0, 0, 0]
    rows = [(f"m{i}", FeatureVector("NF", {"assi-1-1": i + 1})) for i in range(4)]
    gram = build_design_matrix(rows)
    plan = FoldPlan(k=2, assignments=(0, 0, 1, 1), seed=0)
    report = cross_validate(gram, labels, plan, SvmParams())
    aborted = [fr for fr in report.folds if fr.confusion is None]
    assert len(aborted) == 1
    assert any("single-class" in d for d in aborted[0].diagnostics)
    assert any("skipped" in d for d in report.diagnostics)


def report_json(report) -> str:
    """One report as ``report.json`` spells it: ``corpus.json_text``."""
    return json_text(report) + "\n"


def test_cross_validate_reports_a_max_passes_stop(dataset, monkeypatch):
    # an nf-pf fit takes about 150 pair updates, more than one pass of n
    args = argparse.Namespace(omit_exit_nf=False)
    entries, _, gram, _ = _corpus_features(dataset, "nf-pf", args)
    labels = [1 if e.labels["PER"] else 0 for e in entries]
    folds = stratified_kfold(labels, 10, seed=42)
    with monkeypatch.context() as m:
        m.setattr(svm, "MAX_PASSES", 1)
        short = cross_validate(gram, labels, folds, SvmParams())
    stops = [d for fr in short.folds for d in fr.diagnostics]
    assert stops
    for d in stops:
        head, violation = d.rsplit(" ", 1)
        assert head == "SMO stopped at max_passes: KKT gap"
        assert float(violation) > svm.KKT_TOL
    written = json.loads(report_json(short))
    assert [d for fold in written["folds"] for d in fold["diagnostics"]] == stops
    full = cross_validate(gram, labels, folds, SvmParams())
    assert not any(fr.diagnostics for fr in full.folds)


def test_training_rows_mark_each_fold_or_say_why_it_is_skipped():
    plan = FoldPlan(k=3, assignments=(0, 0, 1, 1), seed=0)
    rows = training_rows([1, 0, 0, 0], plan)
    assert rows[0] == "single-class training data; fold aborted"
    assert rows[1].tolist() == [1.0, -1.0, 0.0, 0.0]
    assert rows[2] == "empty test fold"


@pytest.mark.parametrize("case", ["stratified", "skipped fold"])
def test_cross_validate_given_models_matches_its_own_batch(case):
    """Models precomputed from ``training_rows`` give the report that
    ``cross_validate`` trains for itself; a skipped fold takes none."""
    if case == "stratified":
        gram, labels = _synthetic_gram(30, random.Random(7))
        plan = stratified_kfold(labels, 5, seed=3)
    else:  # fold 0's training split holds only negatives
        labels = [1, 1, 0, 0, 0, 0]
        gram = build_design_matrix([(f"m{i}", FeatureVector("NF", {"assi-1-1": i + 1}))
                                    for i in range(6)])
        plan = FoldPlan(k=3, assignments=(0, 0, 1, 1, 2, 2), seed=0)
    params = SvmParams(C=0.5)
    fits = [row for row in training_rows(labels, plan) if not isinstance(row, str)]
    models = train_svm(gram.values, np.asarray(fits), params)
    given = cross_validate(gram, labels, plan, params, mr="ADD", models=models)
    assert report_json(given) == report_json(
        cross_validate(gram, labels, plan, params, mr="ADD"))
    assert (given.folds[0].confusion is None) == (case == "skipped fold")
    with pytest.raises(EvaluationError, match="models for"):
        cross_validate(gram, labels, plan, params, models=models[1:])


def test_report_json_and_csv_row_deterministic():
    rng = random.Random(5)
    gram, labels = _synthetic_gram(20, rng)
    folds = stratified_kfold(labels, 4, seed=4)
    r1 = cross_validate(gram, labels, folds, SvmParams(), mr="ADD",
                        featurization="nf-pf")
    r2 = cross_validate(gram, labels, folds, SvmParams(), mr="ADD",
                        featurization="nf-pf")
    assert report_json(r1) == report_json(r2)
    row = r1.csv_row()
    assert row[:2] == ("ADD", "nf-pf")
    assert len(row) == 8
