"""The dense reference for mrkit's count blocks: the count matrix of a
tuple of count vectors over the lexicographically sorted key union, one
row per vector, as mrkit 0.1's design matrix laid it out.  Its Gram is
``X @ X.T``, a kernel column ``X @ x``.  ``mrkit.kernels.CountBlock``
keeps the same counts sparse, in first-seen key order; the tests require
both to give the same floats, bit for bit.
"""

from __future__ import annotations

import numpy as np

from mrkit.features import FeatureVector


def dense_counts(vectors) -> tuple[tuple, np.ndarray]:
    """The sorted key union of ``vectors`` and their dense count rows over it."""
    keys = tuple(sorted({key for v in vectors for key in v.entries}))
    rows = np.zeros((len(vectors), len(keys)))
    for row, v in zip(rows, vectors):
        row[:] = [v.entries.get(key, 0) for key in keys]
    return keys, rows


def gram(vectors) -> np.ndarray:
    """Every pair of rows' dot product, ``X @ X.T``."""
    rows = dense_counts(vectors)[1]
    return rows @ rows.T


def column(vectors, vector: FeatureVector) -> np.ndarray:
    """``X @ x``: the rows' dot products with ``vector`` over their keys;
    its keys that no row has drop out."""
    keys, rows = dense_counts(vectors)
    return rows @ np.array([float(vector.entries.get(key, 0)) for key in keys])
