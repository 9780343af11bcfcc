"""Graph similarity for annotated CFGs: random-walk and graphlet kernels.

Both are built from their explicit feature maps, integer count blocks, not
from product graphs or per-pair loops (Kriege et al., DMKD 2019):
``gram_matrix`` sums the blocks' products and ``CountKernel`` scores a new
graph against training ones.  A per-pair kernel is its pair's Gram entry.
nf-pf's linear kernel, ``build_design_matrix``, is the product of one
block of node and path feature counts.
The random-walk kernel counts pairs of walks with identical node-label
sequences, one walk per graph, weighted decay^length and truncated at a
maximum length: per length l, an integer count row per graph over the label
sequences of l-edge walks, so the Gram is ``sum_l decay^l Phi_l Phi_l^T``.
A sequence is keyed by its integer coding (``features.walk_features``); the
keys never leave memory.  The map grows exponentially with the length
(16,789 counts over the bundled corpus at length 10, 478,984 at 40), so
``walk_len`` is capped at MAX_WALK_LEN, and ``features.walk_features``
refuses a graph whose count outgrows ``features.MAX_WALK_ENDS``.  The
graphlet kernel is one cosine-normalised block of type counts (the cosine
of relative frequencies, too): weakly connected induced k-node subgraphs
(k = 3 or 4) typed by directed isomorphism, ignoring labels.  The count is
exact: the connected node subsets grow a node at a time as bitmasks, each
kept once, and each subset's type is the minimum adjacency bitmask over
node permutations, memoised per bitmask.  A dense graph has about n^k
such subsets, so a graph with more than ``features.MAX_GRAPHLET_SUBSETS``
connected subsets of one size is refused.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from typing import ClassVar, NamedTuple

import numpy as np

from .cfg import AnnotatedCfg
from .corpus import csv_text
from .features import MAX_GRAPHLET_SUBSETS, FeatureError, FeatureVector, walk_features

MAX_WALK_LEN = 20


class CountBlock(NamedTuple):
    """The count vectors of ``size`` methods as one count matrix, kept
    sparse, as most of a walk block is zeros: its key index and the row,
    column and count of each nonzero cell.  Counts are integers, so every
    sum below 2^53 is exact in any order, and the key order (first seen)
    cannot change a value."""

    index: dict  # key -> column
    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray
    size: int

    @classmethod
    def of(cls, vectors: tuple[FeatureVector, ...]) -> "CountBlock":
        """The block with one row per vector, straight from its counts."""
        index: dict = {}
        cols: list[int] = []
        counts: list[int] = []
        for v in vectors:
            cols += [index.setdefault(key, len(index)) for key in v.entries]
            counts += v.entries.values()
        rows = np.repeat(np.arange(len(vectors)), [len(v) for v in vectors])
        return cls(index, rows, np.array(cols, dtype=np.intp),
                   np.array(counts, dtype=float), len(vectors))

    def dot(self, vector: FeatureVector) -> tuple[np.ndarray, int]:
        """Each row's dot product with ``vector`` and the number of its keys
        that no row has, which the products drop (all-zero columns)."""
        x = np.zeros(len(self.index))
        unseen = 0
        for key, count in vector.entries.items():
            col = self.index.get(key)
            if col is None:
                unseen += 1
            else:
                x[col] = count
        return np.bincount(self.rows, self.counts * x[self.cols], minlength=self.size), unseen

    def self_values(self) -> np.ndarray:
        """Each row's dot product with itself, the diagonal of ``gram``."""
        return np.bincount(self.rows, self.counts * self.counts, minlength=self.size)

    def gram(self) -> np.ndarray:
        """Every pair of rows' dot product, through the dense block."""
        dense = np.zeros((self.size, len(self.index)))
        dense[self.rows, self.cols] = self.counts
        return np.matmul(dense, dense.T)


@dataclass(frozen=True)
class KernelMatrix:
    method_ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def min_eigenvalue(self) -> float:
        sym = (self.values + self.values.T) / 2.0
        return float(np.linalg.eigvalsh(sym).min())

    def to_csv(self) -> str:
        return csv_text([("method_id", *self.method_ids),
                         *((mid, *map(repr, row)) for mid, row in
                           zip(self.method_ids, self.values.tolist()))])


def build_design_matrix(features: list[tuple[str, FeatureVector]]) -> KernelMatrix:
    """nf-pf's linear-kernel Gram ``X X^T``, where X is the count block of
    the named vectors, the block predict builds its columns from.  The
    counts are integers, so every entry is exact in float64 and a fold's
    block equals its own ``X X^T``."""
    if not features:
        raise FeatureError("no feature vectors given")
    kinds = {vec.kind for _, vec in features}
    if len(kinds) != 1:
        raise FeatureError(f"mixed feature kinds: {sorted(kinds)}")
    ids = [mid for mid, _ in features]
    if len(set(ids)) != len(ids):
        dupes = sorted({m for m in ids if ids.count(m) > 1})
        raise FeatureError(f"duplicate method ids: {dupes}")
    block = CountBlock.of(tuple(vec for _, vec in features))
    return KernelMatrix(method_ids=tuple(ids), values=block.gram())


@dataclass(frozen=True)
class RwkParams:
    walk_len: int = 10
    decay: float = 0.5
    normalize: bool = True

    def __post_init__(self) -> None:
        if type(self.walk_len) is not int or not 1 <= self.walk_len <= MAX_WALK_LEN:
            raise ValueError(f"walk_len must lie in 1..{MAX_WALK_LEN}")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")


@dataclass(frozen=True)
class GkParams:
    k: int = 3
    mode: ClassVar[str] = "exhaustive"  # the only mode; recorded in the gk context

    def __post_init__(self) -> None:
        if type(self.k) is not int or self.k not in (3, 4):
            raise ValueError("graphlet size must be 3 or 4")


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


class CountKernel:
    """``sum_l decay^l * <x_l, y_l>`` over count blocks l = 1, 2, ... of the
    training graphs, cosine-normalised if ``normalize``: rwk has one block
    per walk length, gk one cosine-normalised block of graphlet type counts
    and nf-pf one unnormalised block, both with decay 1.  Only the training
    self-values are computed, never their Gram."""

    def __init__(self, blocks: Iterable[tuple[FeatureVector, ...]], decay: float,
                 normalize: bool):
        # one tuple of the training graphs' count vectors per block
        self.blocks = tuple(map(CountBlock.of, blocks))
        self.decay, self.normalize = decay, normalize
        self.self_values = _decayed_sum(decay, (b.self_values() for b in self.blocks))

    def column(self, vectors: list[FeatureVector]) -> tuple[np.ndarray, int]:
        """The kernel values of the training graphs against a new method's
        count vectors, one per block, and the number of its keys that no
        training graph has.  The cross terms drop those keys; the method's
        self-value counts them."""
        dots = [block.dot(v) for block, v in zip(self.blocks, vectors)]
        raw = _decayed_sum(self.decay, (dot for dot, _ in dots))
        if self.normalize:
            own = _decayed_sum(self.decay, (float(sum(c * c for c in v.entries.values()))
                                            for v in vectors))
            raw = _cosine(raw, self.self_values, own)
        return raw, sum(unseen for _, unseen in dots)


def _rwk_raw(g1: AnnotatedCfg, g2: AnnotatedCfg, p: RwkParams) -> float:
    """Unnormalised rwk: sum_l decay^l * #(l-edge walk pairs, equal labels)."""
    return random_walk_kernel(g1, g2, replace(p, normalize=False))


def random_walk_kernel(g1: AnnotatedCfg, g2: AnnotatedCfg,
                       p: RwkParams = RwkParams()) -> float:
    """Truncated geometric count of label-matched common walks."""
    return float(gram_matrix([g1, g2], "rwk", rwk=p).values[0, 1])


@functools.cache
def _canonical_type(mask: int, k: int) -> int:
    """Canonical form of a k-node directed graph given by its adjacency
    bitmask (bit ``a * k + b`` set for edge a -> b): the minimum bitmask
    over all node permutations.  The cache holds at most 2^(k(k-1)) ints."""
    positions = [(a, b) for a in range(k) for b in range(k)
                 if mask >> (a * k + b) & 1]
    return min(sum(1 << (perm[a] * k + perm[b]) for a, b in positions)
               for perm in itertools.permutations(range(k)))


def _connected_subsets(neighbours: list[int], k: int, name: str) -> dict[int, int]:
    """Every connected k-node subset of an undirected graph, given by its
    neighbour bitmasks, as a dict from the subset's node bitmask to its
    neighbourhood mask: the nodes outside it adjacent to a member.  Subsets
    grow a level at a time from single nodes, each by one neighbourhood
    node, so none is disconnected; every connected subset has a connected
    one a node smaller (drop a spanning-tree leaf), so each is reached, and
    the dict keeps it once.  A level of more than MAX_GRAPHLET_SUBSETS
    subsets raises FeatureError naming the graph ``name``."""
    level = {1 << v: around & ~(1 << v) for v, around in enumerate(neighbours)}
    for size in range(2, k + 1):
        grown: dict[int, int] = {}
        for subset, around in level.items():
            rest = around
            while rest:
                bit = rest & -rest
                rest ^= bit
                mask = subset | bit
                if mask not in grown:
                    grown[mask] = (around | neighbours[bit.bit_length() - 1]) & ~mask
            if len(grown) > MAX_GRAPHLET_SUBSETS:
                raise FeatureError(
                    f"{name}: more than {MAX_GRAPHLET_SUBSETS} connected "
                    f"{size}-node subsets; the graphlet kernel refuses a graph this dense")
        level = grown
    return level


def graphlet_distribution(g: AnnotatedCfg, p: GkParams = GkParams()) -> FeatureVector:
    """Counts of weakly connected induced k-subgraph types.

    Subsets are counted in lexicographic node order, so the keys appear in
    the order of their first occurrence among
    ``itertools.combinations(range(n), k)``."""
    k = p.k
    out, neighbours = [0] * len(g.ops), [0] * len(g.ops)  # bitmasks, self-loops dropped
    for a, b in g.edges:
        if a != b:
            out[a] |= 1 << b
            neighbours[a] |= 1 << b
            neighbours[b] |= 1 << a
    typed = []
    for subset in _connected_subsets(neighbours, k, g.name):
        nodes, mask, rest = [], 0, subset
        while rest:
            low = rest & -rest
            rest ^= low
            heads = out[low.bit_length() - 1] & subset
            while heads:
                head = heads & -heads
                heads ^= head
                # a head's position is the number of subset nodes below it
                mask |= 1 << (len(nodes) * k + (subset & (head - 1)).bit_count())
            nodes.append(low.bit_length() - 1)
        typed.append((nodes, mask))
    counts: dict[int, int] = {}
    for _, mask in sorted(typed):
        t = _canonical_type(mask, k)
        counts[t] = counts.get(t, 0) + 1
    return FeatureVector("GK", counts)


def graphlet_kernel(g1: AnnotatedCfg, g2: AnnotatedCfg,
                    p: GkParams = GkParams()) -> float:
    """Cosine of the two graphs' graphlet type counts."""
    return float(gram_matrix([g1, g2], "gk", gk=p).values[0, 1])


def gram_matrix(graphs: list[AnnotatedCfg], kernel: str = "rwk",
                rwk: RwkParams = RwkParams(),
                gk: GkParams = GkParams()) -> KernelMatrix:
    """Pairwise kernel values from the kernel's count blocks: a
    positive-weighted sum of block products ``Phi Phi^T``, cosine-normalised
    or not, so symmetric and positive semidefinite by construction."""
    if len(graphs) < 2:
        raise ValueError("gram matrix needs at least two graphs")
    if kernel == "rwk":
        blocks = zip(*(walk_features(g, rwk.walk_len) for g in graphs))  # one per length
        decay, normalize = rwk.decay, rwk.normalize
    elif kernel == "gk":
        blocks, decay, normalize = [tuple(graphlet_distribution(g, gk) for g in graphs)], 1.0, True
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    # map, unlike a generator expression, holds no block while it builds
    # the next, so one block is alive at a time
    raw = _decayed_sum(decay, map(lambda vectors: CountBlock.of(vectors).gram(), blocks))
    own = np.diagonal(raw)
    return KernelMatrix(method_ids=tuple(g.name for g in graphs),
                        values=_cosine(raw, own[:, None], own) if normalize else raw)
