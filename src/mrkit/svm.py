"""Binary soft-margin SVM trained with SMO.

Trains on a square Gram matrix of kernel values and scores a new sample
from its kernel column against the training set.  Every featurization is
a kernel: NF/PF counts give the linear Gram ``X @ X.T``, the graph kernels
give theirs directly.  The working pair is the maximum KKT violator paired
with the sample maximizing |E_i - E_j|; ties are broken by a seeded RNG, so
a fixed seed gives byte-identical serialized models.

The pair update runs on Python floats taken from the numpy arrays.  Both
are IEEE doubles, and scalar +, -, *, / and comparisons round the same way
in either type, so this is bit-exact with the same arithmetic on numpy
scalars; only the interpreter's cost per operation is lower.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

import numpy as np


class SvmError(ValueError):
    pass


@dataclass(frozen=True)
class SvmParams:
    C: float = 1.0
    kkt_tol: float = 1e-3
    max_passes: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.C <= 0:
            raise SvmError("C must be positive")
        if self.kkt_tol <= 0:
            raise SvmError("kkt_tol must be positive")


@dataclass(frozen=True)
class SvmModel:
    coef: tuple[float, ...]            # alpha_i * y_i per support sample
    support: tuple[int, ...]           # training-set indices
    bias: float
    n_train: int
    params_hash: str = ""

    def to_dict(self) -> dict:
        return {
            "coef": list(self.coef),
            "support": list(self.support),
            "bias": self.bias,
            "n_train": self.n_train,
            "params_hash": self.params_hash,
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
            params_hash=str(payload["params_hash"]),
        )
        if len(model.coef) != len(model.support):
            raise SvmError("model has different numbers of coefficients "
                           "and support indices")
        if any(not 0 <= i < model.n_train for i in model.support):
            raise SvmError(f"support index outside 0..{model.n_train - 1}")
        return model


def params_hash(params: SvmParams) -> str:
    """Stable fingerprint of the SVM training configuration (predict checks
    the model file's ``context_hash`` instead); the empty ``context`` entry
    keeps existing fingerprints unchanged."""
    payload = {
        "C": params.C,
        "kkt_tol": params.kkt_tol,
        "max_passes": params.max_passes,
        "seed": params.seed,
        "context": {},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


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


def _seeded_order(rng: random.Random, scores: np.ndarray,
                  exclude: int | None = None) -> list[int]:
    """Indices by descending score; the ones within 1e-12 of the top are
    shuffled with the seeded RNG, the remainder stays in stable order.  A
    NaN score is left out."""
    order = (-scores).argsort(kind="stable")
    if exclude is not None:
        order = order[order != exclude]
    if not len(order):
        return []
    ranked = scores[order]
    cut = ranked[0] - 1e-12
    head = order[ranked >= cut].tolist()
    rng.shuffle(head)
    return head + order[ranked < cut].tolist()


def _update_pair(gram: list, y: list, alpha: np.ndarray, i: int, j: int,
                 C: float, e: list, b: float) -> float | None:
    """One SMO step on (i, j) over ``gram``, ``y`` and ``e`` as Python
    lists; mutates alpha and returns the new bias, or None if the pair
    cannot make progress."""
    ai, aj = float(alpha[i]), float(alpha[j])
    if y[i] != y[j]:
        low, high = max(0.0, aj - ai), min(C, C + aj - ai)
    else:
        low, high = max(0.0, ai + aj - C), min(C, ai + aj)
    if high - low < 1e-12:
        return None
    gi, gj = gram[i], gram[j]
    eta = gi[i] + gj[j] - 2.0 * gi[j]
    if eta <= 1e-12:
        return None
    aj_new = aj + y[j] * (e[i] - e[j]) / eta
    aj_new = min(high, max(low, aj_new))
    if abs(aj_new - aj) < 1e-10:
        return None
    ai_new = ai + y[i] * y[j] * (aj - aj_new)
    alpha[i], alpha[j] = ai_new, aj_new

    b1 = b - e[i] - y[i] * (ai_new - ai) * gi[i] - y[j] * (aj_new - aj) * gi[j]
    b2 = b - e[j] - y[i] * (ai_new - ai) * gi[j] - y[j] * (aj_new - aj) * gj[j]
    if 1e-12 < ai_new < C - 1e-12:
        return b1
    if 1e-12 < aj_new < C - 1e-12:
        return b2
    return (b1 + b2) / 2.0


def _step(rng: random.Random, gram: list, y: list, alpha: np.ndarray,
          viol: np.ndarray, e: np.ndarray, C: float, b: float) -> float | None:
    """Update the first movable pair: violators by descending violation,
    each paired with partners by descending |E_i - E_j|.  Returns the new
    bias, or None if no pair can move."""
    e_list = e.tolist()
    for i in _seeded_order(rng, viol):
        if viol[i] <= 0.0:
            return None
        for j in _seeded_order(rng, np.abs(e[i] - e), exclude=i):
            new_b = _update_pair(gram, y, alpha, i, j, C, e_list, b)
            if new_b is not None:
                return new_b
    return None


def train_svm(gram, labels, params: SvmParams = SvmParams()) -> SvmModel:
    """Train a binary SVM on a square, finite Gram matrix; labels are +1/-1
    and both classes must appear.

    Runs at most ``max_passes`` sweeps of n pair updates each, and stops
    early when no sample violates the KKT conditions beyond ``kkt_tol`` or
    when no pair of samples can move.
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

    rng = random.Random(params.seed)
    C = float(params.C)
    gram_list, y_list = gram.tolist(), y.tolist()
    alpha = np.zeros(n)
    b = 0.0
    for _ in range(params.max_passes * n):
        e = gram @ (alpha * y) + b - y
        viol = _kkt_violations(alpha, y * (e + y), C, params.kkt_tol)
        if viol.max(initial=0.0) <= 0.0:
            break  # KKT converged
        new_b = _step(rng, gram_list, y_list, alpha, viol, e, C, b)
        if new_b is None:
            break  # no movable pair
        b = new_b

    support = tuple(idx for idx in range(n) if alpha[idx] > 1e-12)
    return SvmModel(coef=tuple(float(alpha[idx] * y[idx]) for idx in support),
                    support=support, bias=b, n_train=n,
                    params_hash=params_hash(params))


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
