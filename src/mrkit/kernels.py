"""Graph similarity for annotated CFGs: random-walk and graphlet kernels.

The random-walk kernel counts pairs of walks with identical node-label
sequences, one walk per graph, weighted decay^length and truncated at a
maximum length.  It is built from its explicit feature map, not from a
product graph (Kriege et al., DMKD 2019): per length l, an integer count
row per graph over the label sequences of l-edge walks, so the Gram is
``sum_l decay^l Phi_l Phi_l^T``.  The map grows exponentially with the
length (16,789 counts over the bundled corpus at length 10, 478,984 at 40),
so ``walk_len`` is capped at MAX_WALK_LEN, and ``features.walk_features``
refuses a graph whose count outgrows ``features.MAX_WALK_ENDS``.  The
graphlet kernel compares relative frequency distributions of weakly
connected induced k-node subgraphs (k = 3 or 4) classified by directed
isomorphism type, ignoring labels.  The count is exact: ESU enumeration
yields exactly the connected node subsets, and each subset's type is the
minimum adjacency bitmask over node permutations, memoised per bitmask.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .cfg import AnnotatedCfg
from .features import (DesignMatrix, FeatureVector, KernelMatrix,
                       build_design_matrix, project, walk_features)

MAX_WALK_LEN = 20


@dataclass(frozen=True)
class RwkParams:
    walk_len: int = 10
    decay: float = 0.5
    normalize: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.walk_len <= MAX_WALK_LEN:
            raise ValueError(f"walk_len must lie in 1..{MAX_WALK_LEN}")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")


@dataclass(frozen=True)
class GkParams:
    k: int = 3
    mode: str = "exhaustive"  # the only mode; recorded in the gk context
    normalize: bool = True

    def __post_init__(self) -> None:
        if self.k not in (3, 4):
            raise ValueError("graphlet size must be 3 or 4")
        if self.mode != "exhaustive":
            raise ValueError(f"unknown graphlet mode {self.mode!r}")


def _cosine(raw: np.ndarray, rows_self, cols_self) -> np.ndarray:
    """``raw / (sqrt(rows_self) * sqrt(cols_self))`` as numpy broadcasts
    it, and 0 where either self-value is not positive."""
    scale = np.sqrt(rows_self) * np.sqrt(cols_self)
    positive = (rows_self > 0.0) & (cols_self > 0.0)
    return np.divide(raw, scale, out=np.zeros(raw.shape), where=positive)


def _decayed_sum(decay: float, terms):
    """``sum_l decay^l * terms[l - 1]`` in the float steps of the tests'
    product-graph reference, which rwk must match bit for bit."""
    value, weight = 0.0, 1.0
    for term in terms:
        weight *= decay
        value = value + weight * term
    return value


def _sparse_and_gram(matrix: DesignMatrix):
    """A block as its key index and nonzero counts, and its Gram."""
    rows, cols = np.nonzero(matrix.rows)
    return (matrix.key_index, rows, cols, matrix.rows[rows, cols]), matrix.gram().values


class CountKernel:
    """``sum_l decay^l * <x_l, y_l>`` over count blocks l = 1, 2, ... of the
    training graphs, cosine-normalised if ``normalize``: rwk has one block
    per walk length, nf-pf one unnormalised block with decay 1.  A block
    keeps only its nonzero counts, as most of a walk block is zeros.  Counts
    are integers, so a block's sums below 2^53 are exact in any order."""

    def __init__(self, matrices: Iterable[DesignMatrix], decay: float, normalize: bool):
        # map lets each dense block go before the next is built
        self.blocks, grams = zip(*map(_sparse_and_gram, matrices))
        self.decay, self.normalize = decay, normalize
        self.raw_gram = _decayed_sum(decay, grams)

    def column(self, vectors: list[FeatureVector]) -> tuple[np.ndarray, int]:
        """The kernel values of the training graphs against a new method's
        count vectors, one per block, and the number of its keys that no
        training graph has.  The cross terms drop those keys; the method's
        self-value counts them."""
        projected = [project(v, block[0]) for block, v in zip(self.blocks, vectors)]
        raw = _decayed_sum(self.decay, (
            np.bincount(rows, counts * x[cols], minlength=len(self.raw_gram))
            for (_, rows, cols, counts), (x, _) in zip(self.blocks, projected)))
        if self.normalize:
            own = _decayed_sum(self.decay, (float(sum(c * c for c in v.entries.values()))
                                            for v in vectors))
            raw = _cosine(raw, np.diagonal(self.raw_gram), own)
        return raw, sum(unseen for _, unseen in projected)


def _count_block(vectors: tuple[FeatureVector, ...]) -> DesignMatrix:
    return build_design_matrix([(str(i), v) for i, v in enumerate(vectors)])


def _walk_blocks(graphs: list[AnnotatedCfg], walk_len: int) -> Iterator[DesignMatrix]:
    """The walk-count block of ``graphs`` for each length 1..walk_len in
    turn.  map, unlike a generator expression, holds no item while it builds
    the next, so a consumer that also maps keeps one block alive at a time."""
    return map(_count_block, zip(*(walk_features(g, walk_len) for g in graphs)))


def walk_kernel(graphs: list[AnnotatedCfg], p: RwkParams) -> CountKernel:
    """rwk against ``graphs``, one count block per walk length."""
    return CountKernel(_walk_blocks(graphs, p.walk_len), p.decay, p.normalize)


def _rwk_raw(g1: AnnotatedCfg, g2: AnnotatedCfg, p: RwkParams) -> float:
    """Unnormalised rwk: sum_l decay^l * #(l-edge walk pairs, equal labels)."""
    return random_walk_kernel(g1, g2, replace(p, normalize=False))


def random_walk_kernel(g1: AnnotatedCfg, g2: AnnotatedCfg,
                       p: RwkParams = RwkParams()) -> float:
    """Truncated geometric count of label-matched common walks."""
    return float(walk_kernel([g1], p).column(list(walk_features(g2, p.walk_len)))[0][0])


@functools.cache
def _canonical_type(mask: int, k: int) -> int:
    """Canonical form of a k-node directed graph given by its adjacency
    bitmask (bit ``a * k + b`` set for edge a -> b): the minimum bitmask
    over all node permutations.  The cache holds at most 2^(k(k-1)) ints."""
    positions = [(a, b) for a in range(k) for b in range(k)
                 if mask >> (a * k + b) & 1]
    return min(sum(1 << (perm[a] * k + perm[b]) for a, b in positions)
               for perm in itertools.permutations(range(k)))


def _connected_subsets(neighbours: list[set[int]], k: int):
    """Every connected k-node subset of an undirected graph, once each, by
    ESU (Wernicke, "Efficient detection of network motifs", TCBB 2006).

    A subset grown from its smallest node ``v`` is extended only by nodes
    above ``v`` that neighbour the newest member and no earlier one, so no
    subset is reached twice and none that is disconnected is built."""

    def extend(subset, closed, extension, v):
        if len(subset) == k:
            yield subset
            return
        while extension:
            w = extension.pop()
            grown = extension | {u for u in neighbours[w] if u > v and u not in closed}
            yield from extend(subset + (w,), closed | neighbours[w], grown, v)

    for v, around in enumerate(neighbours):
        yield from extend((v,), around | {v}, {u for u in around if u > v}, v)


def graphlet_distribution(g: AnnotatedCfg, p: GkParams = GkParams()) -> dict[int, float]:
    """Relative frequencies of weakly connected induced k-subgraph types.

    Subsets are counted in lexicographic node order, so the dict's keys
    appear in the order of their first occurrence among
    ``itertools.combinations(range(n), k)``."""
    k = p.k
    edge_set = {(a, b) for a, b in g.edges if a != b}
    neighbours: list[set[int]] = [set() for _ in g.ops]
    for a, b in edge_set:
        neighbours[a].add(b)
        neighbours[b].add(a)
    counts: dict[int, int] = {}
    for nodes in sorted(tuple(sorted(s)) for s in _connected_subsets(neighbours, k)):
        mask = sum(1 << (a * k + b) for a, na in enumerate(nodes)
                   for b, nb in enumerate(nodes) if (na, nb) in edge_set)
        t = _canonical_type(mask, k)
        counts[t] = counts.get(t, 0) + 1
    total = sum(counts.values())
    return {t: c / total for t, c in counts.items()}


def _graphlet_dot(f1: dict[int, float], f2: dict[int, float]) -> float:
    return sum(f1[t] * f2.get(t, 0.0) for t in f1)


def graphlet_columns(graphs: list[AnnotatedCfg], p: GkParams = GkParams()) -> Callable:
    """CFG -> the graphlet kernel values of ``graphs`` against it, each dot
    product over the training graph's types as in the Gram."""
    train = [graphlet_distribution(g, p) for g in graphs]
    train_self = np.array([_graphlet_dot(f, f) for f in train])

    def column(g: AnnotatedCfg) -> np.ndarray:
        f = graphlet_distribution(g, p)
        raw = np.array([_graphlet_dot(t, f) for t in train], dtype=float)
        return _cosine(raw, train_self, _graphlet_dot(f, f)) if p.normalize else raw
    return column


def graphlet_kernel(g1: AnnotatedCfg, g2: AnnotatedCfg,
                    p: GkParams = GkParams()) -> float:
    """Dot product of graphlet frequency vectors (cosine when normalized)."""
    return float(graphlet_columns([g1], p)(g2)[0])


PSD_TOLERANCE = -1e-8


def gram_matrix(graphs: list[AnnotatedCfg], kernel: str = "rwk",
                rwk: RwkParams = RwkParams(),
                gk: GkParams = GkParams()) -> KernelMatrix:
    """Pairwise kernel values, symmetric by construction: rwk from its count
    blocks, gk from one dot product per unordered pair.  A PSD violation
    beyond tolerance is reported as a diagnostic, never repaired."""
    if len(graphs) < 2:
        raise ValueError("gram matrix needs at least two graphs")
    if kernel == "rwk":
        # only the Gram: the blocks' key indexes and counts serve predict
        raw = _decayed_sum(rwk.decay, map(lambda block: block.gram().values,
                                          _walk_blocks(graphs, rwk.walk_len)))
        normalize = rwk.normalize
    elif kernel == "gk":
        dists = [graphlet_distribution(g, gk) for g in graphs]
        raw, normalize = np.zeros((len(graphs), len(graphs))), gk.normalize
        for j, f in enumerate(dists):
            for i in range(j + 1):
                raw[i, j] = raw[j, i] = _graphlet_dot(dists[i], f)
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    own = np.diagonal(raw)
    matrix = KernelMatrix(method_ids=tuple(g.name for g in graphs),
                          values=_cosine(raw, own[:, None], own) if normalize else raw)
    min_eig = matrix.min_eigenvalue()
    if min_eig < PSD_TOLERANCE:
        return replace(matrix, diagnostics=(
            f"gram matrix is not PSD within tolerance: min eigenvalue {min_eig:.3e}",))
    return matrix
