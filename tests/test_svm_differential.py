"""``mrkit.svm`` against the solver it replaced (``svm_reference.py``).

The WSS2 solver takes other working pairs than the reference, so its
alphas differ in the last digits; a converged fit must instead reach at
least the reference's dual objective, up to a relative 1e-4, and stop
within ``kkt_tol`` of the KKT conditions.  A fit that ``max_passes`` cut
short must say so through ``short_stop`` and keep its coefficients in the
box.
"""

import argparse

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import svm_reference as ref
from mrkit import svm
from mrkit.cli import _corpus_features, stage_seed
from mrkit.evaluation import stratified_kfold
from mrkit.oracle import MR_IDS


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([1.0, 0.5, 2e-12, 1e-12]), st.data())
def test_kkt_violations_match_mask_reference(C, data):
    """Alphas on, near and between the bounds; at C <= 2e-12 a sample is
    at both bounds and the upper one decides."""
    n = data.draw(st.integers(1, 8))
    alpha = np.asarray(data.draw(st.lists(st.sampled_from(
        [0.0, 1e-12, 2e-12, C - 1e-12, C, C / 2, 5e-13]), min_size=n, max_size=n)))
    yf = np.asarray(data.draw(st.lists(st.floats(-3.0, 3.0) | st.just(1.0),
                                       min_size=n, max_size=n)))
    tol = data.draw(st.sampled_from([0.0, 1e-3]))
    ours = svm._kkt_violations(alpha, yf, C, tol)
    theirs = ref._kkt_violations(alpha, yf, C, tol)
    assert ours.tobytes() == theirs.tobytes()


def _dual(model: svm.SvmModel, gram: np.ndarray) -> float:
    """sum(alpha) - c' K c / 2 over the support, with c = alpha * y."""
    coef, support = np.asarray(model.coef), list(model.support)
    return float(np.abs(coef).sum() - coef @ gram[np.ix_(support, support)] @ coef / 2)


def _same_fit(gram, y, params: svm.SvmParams, seed: int) -> None:
    """``seed`` seeds the reference solver's tie shuffles."""
    gram = np.asarray(gram, dtype=float)
    ours = svm.train_svm(gram, y, params)
    assert all(0.0 < abs(c) <= params.C for c in ours.coef)
    stop = svm.short_stop(gram, y, ours, params)
    if stop is not None:
        # only a small budget may run out on these problems of <= 12 samples
        assert stop.startswith("SMO stopped at max_passes") and params.max_passes < 100
        return
    theirs = _dual(ref.train_svm(gram, y, params, seed), gram)
    assert _dual(ours, gram) >= theirs - 1e-4 * max(1.0, abs(theirs))
    assert svm.kkt_report(gram, y, ours, params) <= params.kkt_tol


@st.composite
def duplicate_row_problems(draw):
    """Small linear Grams whose rows repeat a few distinct points, so many
    pairs have eta <= 1e-12, as duplicate graphlet distributions give."""
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 3))
    coord = st.one_of(st.integers(-4, 4).map(lambda v: v / 4), st.floats(-2.0, 2.0))
    pool = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=4))
    X = np.array([pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)])
    if draw(st.booleans()):  # distributions: rows scaled to unit sum
        sums = np.abs(X).sum(axis=1, keepdims=True)
        X = np.divide(np.abs(X), sums, out=np.zeros_like(X), where=sums > 0)
    y = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    if len(set(y)) < 2:
        y[draw(st.integers(0, n - 1))] *= -1
    params = svm.SvmParams(C=draw(st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0])),
                           max_passes=draw(st.sampled_from([1, 2, 100])))
    return X @ X.T, y, params, draw(st.integers(0, 2**32 - 1))


# One pass of pair updates leaves both pinned fits short of kkt_tol, with
# KKT violations 0.33 and 1.5; at max_passes=2 both converge.
_ONE_PASS = svm.SvmParams(C=10.0, max_passes=1)
_CROSSED = np.array([[0.25, 0, 0, -0.25], [0, 0, 0, 0], [0, 0, 0, 0],
                     [-0.25, 0, 0, 0.25]])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(duplicate_row_problems())
@example((np.diag([0.25, 0, 0, 0.25]), [-1, 1, 1, -1], _ONE_PASS, 0))
@example((_CROSSED, [-1, 1, 1, -1], _ONE_PASS, 0))
def test_train_svm_matches_reference_on_duplicate_rows(problem):
    _same_fit(*problem)


def test_train_svm_matches_reference_on_corpus_folds(dataset):
    """Every fold's training Gram of every MR, for nf-pf, rwk and gk k=3
    and k=4, at the seed-42 fold plan that ``mrkit evaluate`` uses, with
    the reference's ties shuffled at the seed-42 ``svm`` stage seed; the
    reference stops short of ``kkt_tol`` on 16 of the gk folds."""
    params = svm.SvmParams()
    for featurization, k in (("nf-pf", 3), ("rwk", 3), ("gk", 3), ("gk", 4)):
        args = argparse.Namespace(omit_exit_nf=False, graphlet_k=k, walk_len=10,
                                  **{"lambda": 0.5})
        entries, _, gram, _ = _corpus_features(dataset, featurization, args)
        for mr in MR_IDS:
            labels = [1 if e.labels[mr] else 0 for e in entries]
            folds = stratified_kfold(labels, 10, seed=stage_seed(42, "folds"))
            for fold in range(folds.k):
                train = [i for i, f in enumerate(folds.assignments) if f != fold]
                _same_fit(gram.submatrix(train, train),
                          [1 if labels[i] else -1 for i in train], params,
                          stage_seed(42, "svm"))
