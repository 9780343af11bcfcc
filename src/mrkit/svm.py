"""Binary soft-margin SVM trained with SMO.

Trains on a square Gram matrix of kernel values and scores a new sample
from its kernel column against the training set.  Every featurization is
a kernel: NF/PF counts give the linear Gram ``X @ X.T``, the graph kernels
give theirs directly.

The solver is LIBSVM's (Chang & Lin, ACM TIST 2011): second-order
working-set selection (WSS2; Fan, Chen & Lin, JMLR 2005) on a cached
gradient that each pair update refreshes in O(n), and a bias averaged over
the free support vectors (Keerthi et al., Neural Computation 2001).  It
stops KKT-converged or at ``max_passes``, and a fit that ends above
``kkt_tol`` can only be the second, which ``short_stop`` reports.  It
draws no random numbers and breaks ties by lowest index, so one Gram and
one configuration give byte-identical models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def to_dict(self) -> dict:
        return {
            "coef": list(self.coef),
            "support": list(self.support),
            "bias": self.bias,
            "n_train": self.n_train,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SvmModel":
        """Decode ``to_dict`` output (for instance, parsed from JSON);
        missing fields raise KeyError, ill-typed or inconsistent ones
        TypeError or ValueError."""
        model = cls(
            coef=tuple(float(c) for c in payload["coef"]),
            support=tuple(int(i) for i in payload["support"]),
            bias=float(payload["bias"]),
            n_train=int(payload["n_train"]),
        )
        if len(model.coef) != len(model.support):
            raise SvmError("model has different numbers of coefficients "
                           "and support indices")
        if any(not 0 <= i < model.n_train for i in model.support):
            raise SvmError(f"support index outside 0..{model.n_train - 1}")
        return model


def _square(gram) -> np.ndarray:
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise SvmError(f"Gram matrix must be square, got shape {gram.shape}")
    if not np.isfinite(gram).all():
        raise SvmError("Gram matrix has non-finite entries")
    return gram


def _kkt_violations(alpha: np.ndarray, yf: np.ndarray, C: float,
                    tol: float) -> np.ndarray:
    """Per-sample violation magnitude of the KKT case analysis; entries at
    or below tol are zeroed.  A sample at both bounds (C <= 2e-12) counts
    as at the upper one.  At the lower bound the violation is 1 - yf, which
    IEEE subtraction makes exactly -(yf - 1); a side that does not violate
    comes out negative and the tol filter zeroes it."""
    d = yf - 1.0
    viol = np.where(alpha >= C - 1e-12, d,
                    np.where(alpha <= 1e-12, -d, np.abs(d)))
    return np.where(viol > tol, viol, 0.0)


def kkt_report(gram, labels, model: SvmModel, params: SvmParams) -> float:
    """Maximum raw KKT violation of a trained model on its training Gram."""
    gram = _square(gram)
    y = np.asarray(labels, dtype=float)
    alpha = np.zeros(len(y))
    for idx, c in zip(model.support, model.coef):
        alpha[idx] = c * y[idx]
    f = gram @ (alpha * y) + model.bias
    viol = _kkt_violations(alpha, y * f, params.C, 0.0)
    return float(viol.max(initial=0.0))


def short_stop(gram, labels, model: SvmModel, params: SvmParams) -> str | None:
    """The diagnostic for a fit that ``train_svm`` left above ``kkt_tol``,
    which only its ``max_passes`` exit can do; None for a converged fit."""
    violation = kkt_report(gram, labels, model, params)
    if violation <= params.kkt_tol:
        return None
    return f"SMO stopped at max_passes: KKT violation {violation!r}"


_TAU = 1e-12  # LIBSVM's stand-in for a pair curvature a_it <= 0


def train_svm(gram, labels, params: SvmParams = SvmParams()) -> SvmModel:
    """Train a binary SVM on a square, finite Gram matrix; labels are +1/-1
    and both classes must appear.

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

    Two exits: KKT converged, when max v(I_up) - min v(I_low) <= kkt_tol,
    or ``max_passes * n`` pair updates.  Only the second can leave
    ``kkt_report`` above ``kkt_tol``.  The bias is the mean of v over the
    free support vectors, or with none the midpoint of max v(I_up) and
    min v(I_low).  No random numbers are drawn and ties go to the lowest
    index, so one Gram and one configuration give one model.
    """
    gram = _square(gram)
    y = np.asarray(labels, dtype=float)
    n = len(y)
    if gram.shape[0] != n:
        raise SvmError(f"label count {n} does not match {gram.shape[0]} samples")
    classes = set(np.unique(y))
    if not classes <= {-1.0, 1.0}:
        raise SvmError(f"labels must be +1/-1, got {sorted(classes)}")
    if len(classes) < 2:
        raise SvmError("training data contains a single class")

    C = float(params.C)
    hi = np.where(y > 0.0, C, 0.0)  # c_t ranges over [lo_t, hi_t]
    lo = hi - C
    diag = np.diag(gram)
    curvature = diag[:, None] + diag[None, :] - 2.0 * gram
    curvature[curvature <= 0.0] = _TAU
    coef = np.zeros(n)
    v = y.copy()
    for _ in range(params.max_passes * n):
        i = int(np.where(coef < hi, v, -np.inf).argmax())
        gap = v[i] - np.where(coef > lo, v, np.inf)  # -inf outside I_low
        if gap.max() <= params.kkt_tol:
            break  # KKT converged
        j = int((np.maximum(gap, 0.0) ** 2 / curvature[i]).argmax())
        room_i, room_j = hi[i] - coef[i], coef[j] - lo[j]
        t = min(gap[j] / curvature[i, j], room_i, room_j)
        coef[i] = hi[i] if t == room_i else coef[i] + t
        coef[j] = lo[j] if t == room_j else coef[j] - t
        v -= t * (gram[i] - gram[j])

    free = (lo < coef) & (coef < hi)
    if free.any():
        b = float(v[free].mean())
    else:
        b = float(v[coef < hi].max() + v[coef > lo].min()) / 2.0
    support = np.flatnonzero(coef)
    return SvmModel(coef=tuple(coef[support].tolist()),
                    support=tuple(support.tolist()), bias=b, n_train=n)


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
