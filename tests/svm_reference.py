"""Two earlier SMO solvers of mrkit, kept as references.

``train_svm`` is the solver of mrkit 0.1: the maximum KKT violator paired
with the partner of largest |E_i - E_j|, ties shuffled by a seeded RNG, and
Platt's bias.  ``test_svm_differential.py`` requires ``mrkit.svm`` to reach
at least this solver's dual objective.

``train_svm_wss2`` is the one-fit WSS2 loop that ``mrkit.svm.train_svm``
ran before it stepped a batch of fits in lockstep; the batched solver must
give, for each row, the model this loop gives on the row's training split,
bit for bit.

Only the solver loop lives here; the model type and the Gram validation
are shared with ``mrkit.svm``.  The tie-shuffling RNG's seed is this
solver's own argument: ``mrkit.svm`` draws no random numbers, so its
``SvmParams`` carries none.
"""

from __future__ import annotations

import random

import numpy as np

from mrkit.svm import _TAU, SvmError, SvmModel, SvmParams, _square


def _kkt_violations(alpha: np.ndarray, yf: np.ndarray, C: float,
                    tol: float) -> np.ndarray:
    """Per-sample violation magnitude of the KKT case analysis; entries at
    or below tol are zeroed."""
    viol = np.zeros(len(alpha))
    at_lower = alpha <= 1e-12
    at_upper = alpha >= C - 1e-12
    interior = ~(at_lower | at_upper)
    viol[at_lower] = np.maximum(0.0, 1.0 - yf[at_lower])
    viol[at_upper] = np.maximum(0.0, yf[at_upper] - 1.0)
    viol[interior] = np.abs(yf[interior] - 1.0)
    return np.where(viol > tol, viol, 0.0)



def _seeded_order(rng: random.Random, scores: np.ndarray,
                  exclude: int | None = None) -> list[int]:
    """Indices by descending score; exact ties at the top are shuffled with
    the seeded RNG, the remainder stays in stable order."""
    order = [int(t) for t in np.argsort(-scores, kind="stable")
             if exclude is None or int(t) != exclude]
    if not order:
        return order
    top = scores[order[0]]
    head = [t for t in order if scores[t] >= top - 1e-12]
    tail = [t for t in order if scores[t] < top - 1e-12]
    rng.shuffle(head)
    return head + tail


def _update_pair(gram, y, alpha, i: int, j: int, C: float, e, b: float) -> float | None:
    """One SMO step on (i, j); mutates alpha and returns the new bias, or
    None if the pair cannot make progress."""
    ai, aj = alpha[i], alpha[j]
    if y[i] != y[j]:
        low, high = max(0.0, aj - ai), min(C, C + aj - ai)
    else:
        low, high = max(0.0, ai + aj - C), min(C, ai + aj)
    if high - low < 1e-12:
        return None
    eta = gram[i, i] + gram[j, j] - 2.0 * gram[i, j]
    if eta <= 1e-12:
        return None
    aj_new = aj + y[j] * (e[i] - e[j]) / eta
    aj_new = min(high, max(low, aj_new))
    if abs(aj_new - aj) < 1e-10:
        return None
    ai_new = ai + y[i] * y[j] * (aj - aj_new)
    alpha[i], alpha[j] = ai_new, aj_new

    b1 = b - e[i] - y[i] * (ai_new - ai) * gram[i, i] - y[j] * (aj_new - aj) * gram[i, j]
    b2 = b - e[j] - y[i] * (ai_new - ai) * gram[i, j] - y[j] * (aj_new - aj) * gram[j, j]
    if 1e-12 < ai_new < C - 1e-12:
        return float(b1)
    if 1e-12 < aj_new < C - 1e-12:
        return float(b2)
    return float((b1 + b2) / 2.0)


def train_svm(gram, labels, params: SvmParams = SvmParams(),
              seed: int = 0) -> SvmModel:
    """Train a binary SVM on a square Gram matrix; labels are +1/-1 and both
    classes must appear; ``seed`` seeds the tie shuffles.

    Terminates when no sample violates the KKT conditions beyond
    ``kkt_tol`` or after ``max_passes`` sweeps of pair updates.
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

    rng = random.Random(seed)
    C = float(params.C)
    tol = params.kkt_tol
    alpha = np.zeros(n)
    b = 0.0

    done = False
    for _ in range(params.max_passes):
        progressed = False
        for _ in range(n):
            e = gram @ (alpha * y) + b - y
            viol = _kkt_violations(alpha, y * (e + y), C, tol)
            if viol.max(initial=0.0) <= 0.0:
                done = True
                break
            updated = False
            for i in _seeded_order(rng, viol):
                if viol[i] <= 0.0:
                    break
                gaps = np.abs(e[i] - e)
                for j in _seeded_order(rng, gaps, exclude=i):
                    new_b = _update_pair(gram, y, alpha, i, j, C, e, b)
                    if new_b is not None:
                        b = new_b
                        updated = True
                        break
                if updated:
                    break
            if not updated:
                done = True  # no pair can move; fixed point reached
                break
            progressed = True
        if done or not progressed:
            break

    coef = []
    support = []
    for idx in range(n):
        if alpha[idx] > 1e-12:
            support.append(idx)
            coef.append(float(alpha[idx] * y[idx]))
    return SvmModel(
        coef=tuple(coef),
        support=tuple(support),
        bias=float(b),
        n_train=n,
    )


def train_svm_wss2(gram, labels, params: SvmParams = SvmParams()) -> SvmModel:
    """One WSS2 fit on a square Gram with +1/-1 labels, as described in
    ``mrkit.svm.train_svm``."""
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
