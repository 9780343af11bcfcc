"""The random-walk kernel of mrkit 0.1: for each pair of graphs, the
label-matched direct-product graph, whose adjacency's l-th power sums to
the number of pairs of l-edge walks with equal label sequences.
``test_kernels.py`` and ``test_cli.py`` require ``mrkit.kernels``' walk
counts to give the same floats, bit for bit.

Only the per-pair kernel lives here, with the per-pair Gram loop and
kernel column that used it; the parameters are ``mrkit.kernels.RwkParams``.

Beside it are the feature map's earlier forms: ``walk_features`` counted
walks by ``-``-joined label strings, and a count block was first built
dense, as a ``DesignMatrix``, and then reduced to its nonzero cells.
``walk_key_labels`` decodes mrkit's integer walk keys into such strings.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from mrkit.cfg import AnnotatedCfg, NodeOp
from mrkit.features import MAX_WALK_ENDS, FeatureError, FeatureVector, build_design_matrix
from mrkit.kernels import RwkParams

_LABELS = [op.value for op in NodeOp]  # code c is _LABELS[c - 1]


def walk_key_labels(key: int) -> str:
    """The ``-``-joined labels of an integer walk key: 5 bits per label,
    the last label lowest, codes 1..20 in NodeOp declaration order."""
    labels = []
    while key:
        labels.append(_LABELS[(key & 31) - 1])
        key >>= 5
    return "-".join(reversed(labels))


def walk_features(cfg: AnnotatedCfg, walk_len: int) -> Iterator[FeatureVector]:
    """For each length l = 1..walk_len in turn, every walk of l edges
    counted by its node-label sequence, keyed like PF.

    The count is kept per (sequence, last node), which can grow
    exponentially with l on a graph where most nodes branch; past
    MAX_WALK_ENDS such pairs at one length this raises FeatureError.
    """
    ends = {(op.value, v): 1 for v, op in enumerate(cfg.ops)}  # by (sequence, last node)
    for length in range(1, walk_len + 1):
        grown: dict[tuple[str, int], int] = {}
        for (seq, u), n in ends.items():
            for v in cfg.successors[u]:
                key = (f"{seq}-{cfg.ops[v].value}", v)
                grown[key] = grown.get(key, 0) + n
            if len(grown) > MAX_WALK_ENDS:
                raise FeatureError(
                    f"{cfg.name}: walks of length {length} end in more than "
                    f"{MAX_WALK_ENDS} distinct (label sequence, node) pairs; "
                    "use a smaller walk length")
        ends, total = grown, {}
        for (seq, _), n in ends.items():
            total[seq] = total.get(seq, 0) + n
        yield FeatureVector("RW", total)


def sparse_and_gram(vectors: tuple[FeatureVector, ...]):
    """A block of ``vectors`` built dense over the sorted key union, as its
    key index and nonzero counts, and its Gram."""
    matrix = build_design_matrix([(str(i), v) for i, v in enumerate(vectors)])
    rows, cols = np.nonzero(matrix.rows)
    return (matrix.key_index, rows, cols, matrix.rows[rows, cols]), matrix.gram().values


def _product_adjacency(g1: AnnotatedCfg, g2: AnnotatedCfg) -> np.ndarray | None:
    """Adjacency of the label-matched direct product, or None if empty."""
    pairs = [(u, v)
             for u in range(g1.node_count)
             for v in range(g2.node_count)
             if g1.ops[u] is g2.ops[v]]
    if not pairs:
        return None
    index = {p: i for i, p in enumerate(pairs)}
    adj = np.zeros((len(pairs), len(pairs)))
    for (u, v) in pairs:
        i = index[(u, v)]
        for u2 in g1.successors[u]:
            for v2 in g2.successors[v]:
                j = index.get((u2, v2))
                if j is not None:
                    adj[i, j] = 1.0
    return adj


def _rwk_raw(g1: AnnotatedCfg, g2: AnnotatedCfg, p: RwkParams) -> float:
    adj = _product_adjacency(g1, g2)
    if adj is None:
        return 0.0
    vec = np.ones(adj.shape[0])
    value = 0.0
    weight = 1.0
    for _ in range(p.walk_len):
        vec = adj @ vec
        weight *= p.decay
        value += weight * float(vec.sum())
        if not vec.any():
            break
    return value


def _normalized(raw: float, k11: float, k22: float, p: RwkParams) -> float:
    if not p.normalize:
        return raw
    if k11 <= 0.0 or k22 <= 0.0:
        return 0.0
    return raw / float(np.sqrt(k11) * np.sqrt(k22))


def random_walk_kernel(g1: AnnotatedCfg, g2: AnnotatedCfg,
                       p: RwkParams = RwkParams()) -> float:
    return _normalized(_rwk_raw(g1, g2, p), _rwk_raw(g1, g1, p),
                       _rwk_raw(g2, g2, p), p)


def gram(graphs: list[AnnotatedCfg], p: RwkParams = RwkParams()) -> np.ndarray:
    """The per-pair Gram loop: each unordered pair once, the earlier graph
    first."""
    own = [_rwk_raw(g, g, p) for g in graphs]
    values = np.zeros((len(graphs), len(graphs)))
    for j, g in enumerate(graphs):
        values[j, j] = _normalized(own[j], own[j], own[j], p)
        for i in range(j):
            values[i, j] = values[j, i] = _normalized(
                _rwk_raw(graphs[i], g, p), own[i], own[j], p)
    return values


def column(train: list[AnnotatedCfg], g: AnnotatedCfg,
           p: RwkParams = RwkParams()) -> list[float]:
    """k(train[i], g) for every training graph, as predict scored it."""
    return [random_walk_kernel(t, g, p) for t in train]
