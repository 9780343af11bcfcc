"""The graphlet kernel of mrkit before it took the count-block path: each
graph's relative type frequencies as a dict, one dot product per pair of
graphs in a Python loop, and the cosine of those dot products.
``test_kernels.py`` requires ``mrkit.kernels``' count kernel to lie within
1e-15 of it: a cosine over counts equals one over frequencies, so only the
rounding differs.

Types are counted by ``mrkit.kernels.graphlet_distribution``, which
``test_kernels.py`` checks against a brute-force count of its own.
"""

from __future__ import annotations

import numpy as np

from mrkit.cfg import AnnotatedCfg
from mrkit.kernels import GkParams, graphlet_distribution


def frequencies(g: AnnotatedCfg, p: GkParams) -> dict[int, float]:
    """Relative type frequencies, keys in the order of the counts."""
    counts = graphlet_distribution(g, p).entries
    total = sum(counts.values())
    return {t: c / total for t, c in counts.items()}


def _dot(f1: dict[int, float], f2: dict[int, float]) -> float:
    return sum(f1[t] * f2.get(t, 0.0) for t in f1)


def _cosine(raw, rows_self, cols_self):
    scale = np.sqrt(rows_self) * np.sqrt(cols_self)
    positive = (rows_self > 0.0) & (cols_self > 0.0)
    return np.divide(raw, scale, out=np.zeros(np.shape(raw)), where=positive)


def gram(graphs: list[AnnotatedCfg], p: GkParams = GkParams()) -> np.ndarray:
    """The per-pair Gram loop: each unordered pair once, the earlier graph
    first, then the cosine over the diagonal."""
    dists = [frequencies(g, p) for g in graphs]
    raw = np.zeros((len(graphs), len(graphs)))
    for j, f in enumerate(dists):
        for i in range(j + 1):
            raw[i, j] = raw[j, i] = _dot(dists[i], f)
    own = np.diagonal(raw)
    return _cosine(raw, own[:, None], own)


def column(train: list[AnnotatedCfg], g: AnnotatedCfg,
           p: GkParams = GkParams()) -> list[float]:
    """k(train[i], g) for every training graph, as predict scored it: each
    dot product over the training graph's types."""
    dists = [frequencies(t, p) for t in train]
    f = frequencies(g, p)
    raw = np.array([_dot(t, f) for t in dists])
    own = np.array([_dot(t, t) for t in dists])
    return _cosine(raw, own, _dot(f, f)).tolist()
