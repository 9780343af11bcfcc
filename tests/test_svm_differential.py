"""``mrkit.svm`` against the solver it replaced (``svm_reference.py``).

The WSS2 solver takes other working pairs than the reference, so its
alphas differ in the last digits; a converged fit must instead reach at
least the reference's dual objective, up to a relative 1e-4, and stop
within ``KKT_TOL`` of the KKT conditions.  A fit that ``MAX_PASSES`` cut
short must say so in its model's ``stop`` text and keep its coefficients
in the box.  ``kkt_report`` recomputes the KKT violations from the Gram,
apart from the solver's own gap, so a fit whose ``stop`` is None must
stay within ``KKT_TOL`` there too.  A test that draws the pass limit patches
``svm.MAX_PASSES`` and hands the same limit to the reference.
"""

import argparse
import warnings
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import svm_reference as ref
from mrkit import svm
from mrkit.cli import _corpus_features, stage_seed
from mrkit.corpus import MR_IDS
from mrkit.evaluation import stratified_kfold


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([1.0, 0.5, 2e-12, 1e-12]), st.data())
def test_kkt_report_matches_the_mask_reference(C, data):
    """Alphas on, near and between the bounds; at C <= 2e-12 a sample is
    at both bounds and the upper one decides.  A diagonal Gram and a bias
    of +-1 give a lower-bound sample y f = 1 exactly, where the report must
    still read 0.0, not -0.0."""
    n = data.draw(st.integers(1, 8))
    alpha = np.asarray(data.draw(st.lists(st.sampled_from(
        [0.0, 1e-12, 2e-12, C - 1e-12, C, C / 2, 5e-13]), min_size=n, max_size=n)))
    y = np.asarray(data.draw(st.lists(st.sampled_from([1.0, -1.0]),
                                      min_size=n, max_size=n)))
    gram = np.diag(data.draw(st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n)))
    bias = data.draw(st.sampled_from([1.0, -1.0, 0.0]) | st.floats(-3.0, 3.0))
    support = np.flatnonzero(alpha)
    model = svm.SvmModel(coef=tuple((alpha * y)[support].tolist()),
                         support=tuple(support.tolist()), bias=bias, n_train=n)
    yf = y * (gram @ (alpha * y) + bias)
    expected = float(ref._kkt_violations(alpha, yf, C, 0.0).max(initial=0.0))
    assert repr(svm.kkt_report(gram, y, model, svm.SvmParams(C=C))) == repr(expected)


def _dual(model: svm.SvmModel, gram: np.ndarray) -> float:
    """sum(alpha) - c' K c / 2 over the support, with c = alpha * y."""
    coef, support = np.asarray(model.coef), list(model.support)
    return float(np.abs(coef).sum() - coef @ gram[np.ix_(support, support)] @ coef / 2)


def _same_fit(gram, y, params: svm.SvmParams, max_passes: int, seed: int) -> None:
    """``seed`` seeds the reference solver's tie shuffles."""
    gram = np.asarray(gram, dtype=float)
    with patch.object(svm, "MAX_PASSES", max_passes):
        ours = svm.train_svm(gram, y, params)
    assert all(0.0 < abs(c) <= params.C for c in ours.coef)
    _stop_agrees_with_kkt(gram, y, ours, params)
    if ours.stop is not None:
        # only a small budget may run out on these problems of <= 12 samples
        assert max_passes < 100
        return
    theirs = _dual(ref.train_svm(gram, y, params, seed, max_passes), gram)
    assert _dual(ours, gram) >= theirs - 1e-4 * max(1.0, abs(theirs))


def _stop_agrees_with_kkt(gram, y, model: svm.SvmModel, params: svm.SvmParams) -> None:
    """A converged fit (``stop`` None) is within ``KKT_TOL`` by the Gram's
    own recomputation; a short one names the gap it stopped at, above
    ``KKT_TOL``."""
    if model.stop is None:
        assert svm.kkt_report(gram, y, model, params) <= svm.KKT_TOL
    else:
        head, gap = model.stop.rsplit(" ", 1)
        assert head == "SMO stopped at max_passes: KKT gap"
        assert float(gap) > svm.KKT_TOL


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
    params = svm.SvmParams(C=draw(st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0])))
    return (X @ X.T, y, params, draw(st.sampled_from([1, 2, 100])),
            draw(st.integers(0, 2**32 - 1)))


# One pass of pair updates leaves both pinned fits short of KKT_TOL, with
# KKT violations 0.33 and 1.5; at two passes both converge.
_C10 = svm.SvmParams(C=10.0)
_CROSSED = np.array([[0.25, 0, 0, -0.25], [0, 0, 0, 0], [0, 0, 0, 0],
                     [-0.25, 0, 0, 0.25]])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(duplicate_row_problems())
@example((np.diag([0.25, 0, 0, 0.25]), [-1, 1, 1, -1], _C10, 1, 0))
@example((_CROSSED, [-1, 1, 1, -1], _C10, 1, 0))
def test_train_svm_matches_reference_on_duplicate_rows(problem):
    _same_fit(*problem)


def test_train_svm_matches_reference_on_corpus_folds(dataset):
    """Every fold's training Gram of every MR, for nf-pf, rwk and gk k=3
    and k=4, at the seed-42 fold plan that ``mrkit evaluate`` uses, with
    the reference's ties shuffled at the seed-42 ``svm`` stage seed; the
    reference stops short of ``KKT_TOL`` on 16 of the gk folds."""
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
                _same_fit(gram.values[np.ix_(train, train)],
                          [1 if labels[i] else -1 for i in train], params,
                          svm.MAX_PASSES, stage_seed(42, "svm"))


def _bits(model: svm.SvmModel) -> tuple:
    """A model's fields with every float as ``float.hex``, so a -0.0 or a
    last-digit difference fails where ``==`` would not."""
    return ([c.hex() for c in model.coef], model.support, model.bias.hex(),
            model.n_train)


def _batch_matches_rows(gram, rows, params: svm.SvmParams, max_passes: int) -> None:
    """Each batched model is the one-fit WSS2 loop's model on its row's
    training split, bit for bit, and so is the 1-D call on that split."""
    gram = np.asarray(gram, dtype=float)
    with patch.object(svm, "MAX_PASSES", max_passes):
        models = svm.train_svm(gram, rows, params)
        assert len(models) == len(rows)
        for row, model in zip(np.asarray(rows, dtype=float), models):
            split = np.flatnonzero(row)
            sub, y = gram[np.ix_(split, split)], row[split]
            expected = ref.train_svm_wss2(sub, y, params, max_passes)
            assert model == expected and _bits(model) == _bits(expected)
            alone = svm.train_svm(sub, y, params)
            assert _bits(alone) == _bits(expected) and alone.stop == model.stop
            _stop_agrees_with_kkt(sub, y, model, params)


def _draw_splits(data, n: int) -> list[list[int]]:
    """1 to 8 label rows of +1/-1/0, each with both classes."""
    rows = []
    for _ in range(data.draw(st.integers(1, 8))):
        row = data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
        p, q = data.draw(st.permutations(range(n)))[:2]
        if not (1 in row and -1 in row):
            row[p], row[q] = 1, -1
        rows.append(row)
    return rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(2, 14), st.integers(1, 4),
       st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]), st.sampled_from([1, 2, 100]),
       st.data())
def test_batch_matches_one_fit_loop_on_random_psd_grams(n, d, C, max_passes, data):
    X = np.array(data.draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d),
                                    min_size=n, max_size=n)))
    _batch_matches_rows(X @ X.T, _draw_splits(data, n), svm.SvmParams(C=C), max_passes)


def test_a_subnormal_pair_curvature_takes_tau_without_overflow():
    """The Gram of ``X = [[0], [2.18e-158]]`` has the subnormal entry
    4.74e-316, so the pair's curvature is positive but subnormal; that of
    ``X = [[0], [2**-511]]`` has exactly the smallest normal float, whose
    first step's score 4 / 2**-1022 is already inf.  Both solvers take
    tau for either curvature, and neither divides into an overflow."""
    for x in (2.1776975267860967e-158, 2.0 ** -511):
        X = np.array([[0.0], [x]])
        gram = X @ X.T
        assert 0.0 < gram[1, 1] <= np.finfo(float).tiny
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _batch_matches_rows(gram, [[1, -1], [-1, 1]], svm.SvmParams(C=0.01), 100)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(duplicate_row_problems(), st.data())
def test_batch_matches_one_fit_loop_on_duplicate_rows(problem, data):
    gram, y, params, max_passes, _ = problem
    _batch_matches_rows(gram, [y] + _draw_splits(data, len(y)), params, max_passes)


def test_batch_rows_stop_at_their_own_limit(monkeypatch):
    """At one pass the full row runs out of its 4 updates short of
    KKT_TOL while the two-sample row converges; both match the one-fit
    loop."""
    rows = [[-1, 1, 1, -1], [-1, 1, 0, 0], [0, 1, 0, -1]]
    gram = np.diag([0.25, 0, 0, 0.25])
    _batch_matches_rows(gram, rows, _C10, 1)
    monkeypatch.setattr(svm, "MAX_PASSES", 1)
    models = svm.train_svm(gram, rows, _C10)
    assert [m.stop is None for m in models] == [False, True, True]
    full = np.asarray(rows[0])
    assert svm.kkt_report(gram, full, models[0], _C10) > svm.KKT_TOL
