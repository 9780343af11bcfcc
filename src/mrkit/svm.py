"""Binary soft-margin SVM trained with SMO.

Trains on a square Gram matrix of kernel values and scores a new sample
from its kernel column against the training set.  Every featurization is
a kernel: NF/PF counts give the linear Gram ``X @ X.T``, the graph kernels
give theirs directly.

The solver is LIBSVM's (Chang & Lin, ACM TIST 2011): second-order
working-set selection (WSS2; Fan, Chen & Lin, JMLR 2005) on a cached
gradient that each pair update refreshes in O(n), and a bias averaged over
the free support vectors (Keerthi et al., Neural Computation 2001).  It
stops KKT-converged or at ``max_passes``, and says which on the model:
``SvmModel.stop`` carries the maximal violating-pair gap of a fit that ran
out of updates and is None for a converged one.  The gap comes from
elementwise operations only, so the text is the same on any CPU.  It
draws no random numbers and breaks ties by lowest index, so one Gram and
one configuration give byte-identical models.

All the fits of one Gram (every fold of every MR in ``evaluate``, every MR
in ``train``) are solved in lockstep, as rows of one batch, the batched
working-set idea of ThunderSVM (Wen et al., JMLR 2018) applied across
problems; each row's model is the one its own fit would give, and a 1-D
call is the one-row case.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np


class SvmError(ValueError):
    pass


@dataclass(frozen=True)
class SvmParams:
    C: float = 1.0
    kkt_tol: float = 1e-3
    max_passes: int = 100

    def __post_init__(self) -> None:
        if not 0 < self.C < math.inf:  # NaN fails too
            raise SvmError(f"C must be positive and finite, got {self.C!r}")
        if self.kkt_tol <= 0:
            raise SvmError("kkt_tol must be positive")
        if self.max_passes < 1:
            raise SvmError(f"max_passes must be at least 1, got {self.max_passes!r}")


@dataclass(frozen=True)
class SvmModel:
    coef: tuple[float, ...]            # alpha_i * y_i per support sample
    support: tuple[int, ...]           # training-set indices
    bias: float
    n_train: int
    # why the solver stopped short of kkt_tol, or None; never saved or compared
    stop: str | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        return {
            "coef": list(self.coef),
            "support": list(self.support),
            "bias": self.bias,
            "n_train": self.n_train,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SvmModel":
        """Decode ``to_dict`` output (for instance, parsed from JSON) without
        converting a field; missing fields raise KeyError, ill-typed (a bool
        too) or inconsistent ones TypeError or SvmError."""
        model = cls(coef=tuple(payload["coef"]), support=tuple(payload["support"]),
                    bias=payload["bias"], n_train=payload["n_train"])
        if not all(type(x) in (int, float) for x in model.coef + (model.bias,)):
            raise SvmError("model has a coefficient or bias that is not a number")
        if not all(type(i) is int for i in model.support + (model.n_train,)):
            raise SvmError("model has a support index or n_train that is not an integer")
        # NaN fails the test, and so does an int too large for any float
        if not all(abs(x) <= sys.float_info.max for x in model.coef + (model.bias,)):
            raise SvmError("model has a non-finite coefficient or bias")
        if len(model.coef) != len(model.support):
            raise SvmError("model has different numbers of coefficients "
                           "and support indices")
        if any(not 0 <= i < model.n_train for i in model.support):
            raise SvmError(f"support index outside 0..{model.n_train - 1}")
        if len(set(model.support)) != len(model.support):
            raise SvmError("model repeats a support index")
        return model


def _square(gram) -> np.ndarray:
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise SvmError(f"Gram matrix must be square, got shape {gram.shape}")
    if not np.isfinite(gram).all():
        raise SvmError("Gram matrix has non-finite entries")
    return gram


def kkt_report(gram, labels, model: SvmModel, params: SvmParams) -> float:
    """Maximum raw KKT violation of a trained model on its training Gram,
    recomputed from the Gram apart from the solver's own stop test.  No
    command calls it; it is the tests' independent check of a fit.  With
    d = y f - 1 a sample violates by d at the upper bound, which decides at
    both (C <= 2e-12), by -d, IEEE-exactly 1 - y f, at the lower one and by
    |d| when free; only positive entries count, so a fit without violations
    reports 0.0, never -0.0."""
    gram = _square(gram)
    y = np.asarray(labels, dtype=float)
    alpha = np.zeros(len(y))
    for idx, c in zip(model.support, model.coef):
        alpha[idx] = c * y[idx]
    d = y * (gram @ (alpha * y) + model.bias) - 1.0
    C = params.C
    viol = np.where(alpha >= C - 1e-12, d, np.where(alpha <= 1e-12, -d, np.abs(d)))
    return float(viol[viol > 0.0].max(initial=0.0))


_TAU = 1e-12  # LIBSVM's stand-in for a pair curvature a_it <= 0


def _finish(coef: np.ndarray, v: np.ndarray, hi: np.ndarray, lo: np.ndarray,
            split: np.ndarray, stop: str | None) -> SvmModel:
    """The model of one solved row, over the row's training split.  Entries
    outside the split are never free, in I_up or in I_low, so the bias
    masks pick the split's entries in order."""
    free = (lo < coef) & (coef < hi)
    if free.any():
        b = float(v[free].mean())
    else:
        b = float(v[coef < hi].max() + v[coef > lo].min()) / 2.0
    coef = coef[split]
    support = np.flatnonzero(coef)
    return SvmModel(coef=tuple(coef[support].tolist()),
                    support=tuple(support.tolist()), bias=b, n_train=len(coef),
                    stop=stop)


def train_svm(gram, labels,
              params: SvmParams = SvmParams()) -> SvmModel | list[SvmModel]:
    """Train binary SVMs on one square, finite Gram matrix.

    1-D ``labels`` of +1/-1, both classes present, give one SvmModel.  2-D
    labels give a list with one model per row: a row marks its training
    split with +1/-1 and every other sample with 0, and must hold both
    classes.  Each model is the one the split's submatrix would give: its
    ``n_train`` is the row's nonzero count and its support indices count
    within the split.

    Maximizes the dual sum(alpha) - c' K c / 2, with c = alpha * y, over
    0 <= alpha <= C and sum(c) = 0 by LIBSVM's SMO with second-order
    working-set selection (WSS2).  The gradient is cached as v = -y * G,
    G = Q alpha - 1 (Q = yy' * K); it starts at v = y and each pair update
    refreshes it from two Gram rows, v -= K_i dc_i + K_j dc_j.  A step takes
    i = argmax v over I_up, the t whose c_t may still rise, and j = argmax
    (v_i - v_t)^2 / a_it over the t in I_low, whose c_t may still fall,
    with v_t < v_i; a_it = K_ii + K_tt - 2 K_it, or tau where that is <= 0.
    c_i then rises and c_j falls by the same amount, to the best point of
    that segment inside the box, as LIBSVM clips it.

    Every row takes its step at once on (rows, n) arrays.  A sample outside
    a row's split has the box [0, 0], so it never enters I_up or I_low, and
    its score for j is -1, below any in-split score, so ties still go to
    the lowest index of the split.  A row leaves the batch at one of two
    exits: KKT converged, when the gap max v(I_up) - min v(I_low) <= kkt_tol,
    or ``max_passes * n_train`` pair updates with the gap still above it,
    which the model's ``stop`` reports with that gap.  The bias is the mean
    of v over the free support vectors, or with none the midpoint of
    max v(I_up) and min v(I_low).  No random numbers are drawn, so one Gram and one
    configuration give one model per row.
    """
    gram = _square(gram)
    y = np.asarray(labels, dtype=float)
    if y.ndim not in (1, 2):
        raise SvmError(f"labels must be one row or a batch of rows, got shape {y.shape}")
    n = gram.shape[0]
    if y.shape[-1] != n:
        raise SvmError(f"label count {y.shape[-1]} does not match {n} samples")
    rows = y.reshape(-1, n)
    classes = set(np.unique(rows))
    if not classes <= ({-1.0, 1.0} if y.ndim == 1 else {-1.0, 0.0, 1.0}):
        allowed = "+1/-1" if y.ndim == 1 else "+1/-1/0"
        raise SvmError(f"labels must be {allowed}, got {sorted(classes)}")
    if not ((rows > 0.0).any(axis=1) & (rows < 0.0).any(axis=1)).all():
        raise SvmError("training data contains a single class")

    C = float(params.C)
    hi = np.where(rows > 0.0, C, 0.0)  # c_t ranges over [lo_t, hi_t]
    lo = np.where(rows < 0.0, -C, 0.0)
    split = rows != 0.0
    budget = params.max_passes * split.sum(axis=1)
    diag = np.diag(gram)
    curvature = diag[:, None] + diag[None, :] - 2.0 * gram
    curvature[curvature <= 0.0] = _TAU
    coef = np.zeros(rows.shape)
    v = rows.copy()
    models: list = [None] * len(rows)
    live = at = np.arange(len(rows))  # the rows still stepping; each took `step` updates
    step = 0
    while live.size:
        i = np.where(coef < hi, v, -np.inf).argmax(axis=1)
        gap = v[at, i][:, None] - np.where(coef > lo, v, np.inf)  # -inf outside I_low
        top = gap.max(axis=1)
        going = (top > params.kkt_tol) & (step < budget)
        if not going.all():  # KKT converged or out of updates
            for k in np.flatnonzero(~going):
                stop = (f"SMO stopped at max_passes: KKT gap {float(top[k])!r}"
                        if top[k] > params.kkt_tol else None)
                models[live[k]] = _finish(coef[k], v[k], hi[k], lo[k], split[k], stop)
            live, coef, v, hi, lo, split, budget, i, gap = (
                a[going] for a in (live, coef, v, hi, lo, split, budget, i, gap))
            at = np.arange(live.size)
        score = np.where(split, np.maximum(gap, 0.0) ** 2 / curvature[i], -1.0)
        j = score.argmax(axis=1)
        hi_i, coef_i, coef_j = hi[at, i], coef[at, i], coef[at, j]
        room_i, room_j = hi_i - coef_i, coef_j - lo[at, j]
        t = np.minimum(np.minimum(gap[at, j] / curvature[i, j], room_i), room_j)
        coef[at, i] = np.where(t == room_i, hi_i, coef_i + t)
        coef[at, j] = np.where(t == room_j, lo[at, j], coef_j - t)
        v -= t[:, None] * (gram[i] - gram[j])
        step += 1
    return models if y.ndim == 2 else models[0]


def decision_value(model: SvmModel, column) -> float:
    """f(x) = sum_i alpha_i y_i k(x_i, x) + b, where ``column`` is the
    kernel column k(x_i, x) over the full training set."""
    column = np.asarray(column, dtype=float)
    if column.shape != (model.n_train,):
        raise SvmError(
            f"kernel column has length {column.shape}, expected ({model.n_train},)")
    if not model.coef:
        return float(model.bias)
    return float(np.asarray(model.coef) @ column[list(model.support)] + model.bias)


def predict(model: SvmModel, column) -> int:
    """Sign of the decision value, with sign(0) = +1."""
    return 1 if decision_value(model, column) >= 0.0 else -1
