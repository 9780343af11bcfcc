import json

import numpy as np
import pytest

from mrkit.svm import (
    SvmError,
    SvmModel,
    SvmParams,
    decision_value,
    kkt_report,
    predict,
    train_svm,
)

# linear kernel in Gram form: K = X @ X.T, a new point x scores by X @ x
X_SEP = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 3.0], [3.0, 4.0]])
K_SEP = X_SEP @ X_SEP.T
Y_SEP = [-1, -1, 1, 1]


def brute_force_dual(K, y, C, grid=401):
    """Exhaustive oracle for 3-point problems: two free duals on a grid,
    the third fixed by the equality constraint."""
    y = np.asarray(y, dtype=float)
    assert len(y) == 3 and y[0] == -1.0
    best_obj, best_alpha = -np.inf, None
    for a2 in np.linspace(0, C, grid):
        for a3 in np.linspace(0, C, grid):
            a1 = a2 + a3
            if a1 > C:
                continue
            alpha = np.array([a1, a2, a3])
            obj = alpha.sum() - 0.5 * (alpha * y) @ K @ (alpha * y)
            if obj > best_obj:
                best_obj, best_alpha = obj, alpha
    f = (best_alpha * y) @ K
    margin = [i for i in range(3) if 1e-6 < best_alpha[i] < C - 1e-6]
    if margin:
        bias = float(np.mean([y[i] - f[i] for i in margin]))
    else:  # every dual at a bound only brackets b: take the midpoint
        on_margin = y - f  # the bias that puts each sample on its margin
        from_below = (best_alpha <= 1e-6) == (y > 0)
        bias = float(on_margin[from_below].max() + on_margin[~from_below].min()) / 2
    return f + bias


def test_separable_clouds_perfect_training_accuracy():
    model = train_svm(K_SEP, Y_SEP, SvmParams())
    preds = [predict(model, X_SEP @ row) for row in X_SEP]
    assert preds == Y_SEP
    assert kkt_report(K_SEP, Y_SEP, model, SvmParams()) <= 1e-3


def test_xor_not_separable_by_linear_kernel():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = [1, 1, -1, -1]
    model = train_svm(X @ X.T, y, SvmParams())
    acc = np.mean([predict(model, X @ r) == t for r, t in zip(X, y)])
    assert acc <= 0.75


def test_identity_gram_every_sample_supports_itself():
    K = np.eye(6)
    y = [1, 1, 1, -1, -1, -1]
    model = train_svm(K, y, SvmParams())
    assert model.support == (0, 1, 2, 3, 4, 5)
    preds = [predict(model, K[:, j]) for j in range(6)]
    assert preds == y


def test_three_point_decisions_match_brute_force_dual():
    X = np.array([[0.0], [2.0], [3.0]])
    y = [-1, 1, 1]
    K = X @ X.T
    oracle = brute_force_dual(K, y, C=1.0)
    model = train_svm(K, y, SvmParams())
    ours = [decision_value(model, K[:, j]) for j in range(3)]
    assert np.max(np.abs(np.asarray(ours) - oracle)) <= 1e-4


def test_identical_rows_with_opposite_labels_converge():
    # samples 0 and 1 are one point under both labels, so the pair's
    # curvature K_00 + K_11 - 2 K_01 is 0 and the step uses tau instead
    X = np.array([[1.0], [1.0], [3.0]])
    y = [-1, 1, 1]
    K = X @ X.T
    params = SvmParams()
    model = train_svm(K, y, params)
    assert kkt_report(K, y, model, params) <= params.kkt_tol
    ours = [decision_value(model, K[:, j]) for j in range(3)]
    assert np.max(np.abs(np.asarray(ours) - brute_force_dual(K, y, C=1.0))) <= 1e-4


def test_kkt_invariants_and_dual_balance():
    model = train_svm(K_SEP, Y_SEP, SvmParams())
    # sum of alpha_i y_i vanishes and every alpha is inside the box
    assert abs(sum(model.coef)) <= 1e-6
    for c in model.coef:
        assert 0.0 < abs(c) <= 1.0 + 1e-9


def test_midpoint_of_symmetric_pair_is_on_the_boundary():
    X = np.array([[-1.0, 0.0], [1.0, 0.0]])
    y = [-1, 1]
    model = train_svm(X @ X.T, y, SvmParams())
    assert abs(decision_value(model, X @ np.zeros(2))) <= 1e-6


def test_sign_zero_is_positive():
    model = SvmModel(coef=(), support=(), bias=0.0, n_train=2)
    assert decision_value(model, np.zeros(2)) == 0.0
    assert predict(model, np.zeros(2)) == 1


def test_tiny_perturbation_keeps_prediction():
    model = train_svm(K_SEP, Y_SEP, SvmParams())
    base = X_SEP[2]
    wiggled = base + 1e-12
    assert predict(model, X_SEP @ base) == predict(model, X_SEP @ wiggled)


def test_single_class_rejected():
    with pytest.raises(SvmError, match="single class"):
        train_svm(K_SEP, [1, 1, 1, 1], SvmParams())


def test_bad_labels_rejected():
    with pytest.raises(SvmError, match=r"\+1/-1"):
        train_svm(K_SEP, [0, 1, 0, 1], SvmParams())


def test_dimension_mismatch_rejected():
    # a design matrix is not a Gram matrix: train_svm takes only square input
    with pytest.raises(SvmError, match="square"):
        train_svm(X_SEP, Y_SEP, SvmParams())
    with pytest.raises(SvmError, match="square"):
        kkt_report(X_SEP, Y_SEP, SvmModel((), (), 0.0, 4), SvmParams())
    kmodel = train_svm(np.eye(4), [1, -1, 1, -1], SvmParams())
    with pytest.raises(SvmError, match="length"):
        decision_value(kmodel, np.zeros(7))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_gram_rejected(bad):
    gram = [[1.0, bad], [bad, 1.0]]
    with pytest.raises(SvmError, match="non-finite"):
        train_svm(gram, [1, -1], SvmParams())
    with pytest.raises(SvmError, match="non-finite"):
        kkt_report(gram, [1, -1], SvmModel((), (), 0.0, 2), SvmParams())


def test_empty_model_checks_column_length():
    # no support vectors: the value is the bias, but only for a valid column
    model = SvmModel(coef=(), support=(), bias=0.5, n_train=3)
    assert decision_value(model, np.zeros(3)) == 0.5
    with pytest.raises(SvmError, match="length"):
        decision_value(model, np.zeros(2))


@pytest.mark.parametrize("labels, match", [
    ([[1, 1, 0, 1], [-1, 1, 1, 0]], "single class"),   # one row lacks -1
    ([[-1, -1, 1, 1], [0, 0, 0, 0]], "single class"),  # an all-zero row
    ([[-1, -1, 1, 1, 0]], "label count 5 does not match 4"),
    ([[-1, 2, 1, 1]], r"\+1/-1/0"),
    ([0, -1, 1, 1], r"labels must be \+1/-1, got"),   # 0 only in a batch row
    ([[[-1, -1, 1, 1]]], "one row or a batch"),
])
def test_batch_labels_rejected(labels, match):
    with pytest.raises(SvmError, match=match):
        train_svm(K_SEP, labels, SvmParams())


def test_batch_of_one_row_is_the_one_dimensional_fit():
    (batched,) = train_svm(K_SEP, [Y_SEP], SvmParams())
    assert batched == train_svm(K_SEP, Y_SEP, SvmParams())
    assert train_svm(K_SEP, np.zeros((0, 4)), SvmParams()) == []


def test_label_count_mismatch_rejected():
    with pytest.raises(SvmError, match="label count"):
        train_svm(K_SEP, [1, -1], SvmParams())


def test_deterministic_serialization():
    a = json.dumps(train_svm(K_SEP, Y_SEP, SvmParams()).to_dict())
    b = json.dumps(train_svm(K_SEP, Y_SEP, SvmParams()).to_dict())
    assert a == b
    restored = SvmModel.from_dict(json.loads(a))
    assert json.dumps(restored.to_dict()) == a


def test_model_decoder_rejects_bad_fields():
    good = train_svm(K_SEP, Y_SEP, SvmParams()).to_dict()
    with pytest.raises(KeyError):
        SvmModel.from_dict({k: v for k, v in good.items() if k != "bias"})
    with pytest.raises(SvmError, match="numbers"):
        SvmModel.from_dict({**good, "coef": good["coef"][:-1]})
    with pytest.raises(SvmError, match="support index"):
        SvmModel.from_dict({**good, "support": [4] * len(good["support"])})
    for bad in ("NaN", "Infinity", "-Infinity"):
        # the spellings json.loads reads as floats
        with pytest.raises(SvmError, match="non-finite"):
            SvmModel.from_dict({**good, "bias": json.loads(bad)})
        with pytest.raises(SvmError, match="non-finite"):
            SvmModel.from_dict({**good, "coef": [json.loads(bad)] + good["coef"][1:]})
    # an integer that no float holds: math.isfinite raises OverflowError on it
    huge = json.loads("9" * 400)
    with pytest.raises(SvmError, match="non-finite"):
        SvmModel.from_dict({**good, "bias": huge})
    with pytest.raises(SvmError, match="non-finite"):
        SvmModel.from_dict({**good, "coef": [huge] + good["coef"][1:]})
    first, rest = good["support"][0], good["support"][1:]
    for key, value, message in [
            ("coef", ["0.5"] + good["coef"][1:], "not a number"),
            ("bias", True, "not a number"),
            ("support", [True] + rest, "not an integer"),
            ("support", [2.7] + rest, "not an integer"),
            ("n_train", str(good["n_train"]), "not an integer"),
            ("support", [first, first] + rest[1:], "repeats a support index")]:
        with pytest.raises(SvmError, match=message):
            SvmModel.from_dict({**good, key: value})


def test_scaling_property_preserves_predictions():
    base = train_svm(K_SEP, Y_SEP, SvmParams(C=1.0))
    preds = [predict(base, X_SEP @ r) for r in X_SEP]
    X2 = X_SEP * 2.0
    scaled = train_svm(X2 @ X2.T, Y_SEP, SvmParams(C=0.25))
    assert [predict(scaled, X2 @ r) for r in X2] == preds


def test_params_validation():
    with pytest.raises(SvmError):
        SvmParams(C=0.0)
    with pytest.raises(SvmError):
        SvmParams(kkt_tol=0.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(SvmError, match="finite"):
            SvmParams(C=bad)
    with pytest.raises(SvmError, match="max_passes"):
        SvmParams(max_passes=0)
    SvmParams(C=1e300, max_passes=1)
