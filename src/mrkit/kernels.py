"""Graph similarity for annotated CFGs: random-walk and graphlet kernels.

Both are built from their explicit feature maps, integer count blocks on
``CountKernel``, not from product graphs or per-pair loops (Kriege et al.,
DMKD 2019).  The random-walk kernel counts pairs of walks with identical
node-label sequences, one walk per graph, weighted decay^length and
truncated at a maximum length: per length l, an integer count row per graph
over the label sequences of l-edge walks, so the Gram is
``sum_l decay^l Phi_l Phi_l^T``.  A sequence is keyed by its integer
coding (``features.walk_features``); the keys never leave memory.  The map
grows exponentially with the length (16,789 counts over the bundled corpus
at length 10, 478,984 at 40), so ``walk_len`` is capped at MAX_WALK_LEN,
and ``features.walk_features`` refuses a graph whose count outgrows
``features.MAX_WALK_ENDS``.  The graphlet kernel is one cosine-normalised
block of type counts (the cosine of relative frequencies, too): weakly
connected induced k-node subgraphs (k = 3 or 4) typed by directed
isomorphism, ignoring labels.  The count is exact: ESU enumeration yields
exactly the connected node subsets, and each subset's type is the minimum
adjacency bitmask over node permutations, memoised per bitmask.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .cfg import AnnotatedCfg
from .features import CountBlock, FeatureVector, KernelMatrix, walk_features

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


def _walk_vectors(graphs: list[AnnotatedCfg], walk_len: int) -> Iterator[tuple]:
    """The walk-count vectors of ``graphs`` for each length 1..walk_len in
    turn, one tuple per length."""
    return zip(*(walk_features(g, walk_len) for g in graphs))


def _rwk_raw(g1: AnnotatedCfg, g2: AnnotatedCfg, p: RwkParams) -> float:
    """Unnormalised rwk: sum_l decay^l * #(l-edge walk pairs, equal labels)."""
    return random_walk_kernel(g1, g2, replace(p, normalize=False))


def random_walk_kernel(g1: AnnotatedCfg, g2: AnnotatedCfg,
                       p: RwkParams = RwkParams()) -> float:
    """Truncated geometric count of label-matched common walks."""
    kernel = CountKernel(_walk_vectors([g1], p.walk_len), p.decay, p.normalize)
    return float(kernel.column(list(walk_features(g2, p.walk_len)))[0][0])


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


def graphlet_distribution(g: AnnotatedCfg, p: GkParams = GkParams()) -> FeatureVector:
    """Counts of weakly connected induced k-subgraph types.

    Subsets are counted in lexicographic node order, so the keys appear in
    the order of their first occurrence among
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
    return FeatureVector("GK", counts)


def graphlet_kernel(g1: AnnotatedCfg, g2: AnnotatedCfg,
                    p: GkParams = GkParams()) -> float:
    """Cosine of the two graphs' graphlet type counts."""
    kernel = CountKernel([(graphlet_distribution(g1, p),)], 1.0, True)
    return float(kernel.column([graphlet_distribution(g2, p)])[0][0])


PSD_TOLERANCE = -1e-8


def gram_matrix(graphs: list[AnnotatedCfg], kernel: str = "rwk",
                rwk: RwkParams = RwkParams(),
                gk: GkParams = GkParams()) -> KernelMatrix:
    """Pairwise kernel values from the kernel's count blocks, symmetric by
    construction.  A PSD violation beyond tolerance is reported as a
    diagnostic, never repaired."""
    if len(graphs) < 2:
        raise ValueError("gram matrix needs at least two graphs")
    if kernel == "rwk":
        blocks, decay, normalize = _walk_vectors(graphs, rwk.walk_len), rwk.decay, rwk.normalize
    elif kernel == "gk":
        blocks, decay, normalize = [tuple(graphlet_distribution(g, gk) for g in graphs)], 1.0, True
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    # map, unlike a generator expression, holds no block while it builds
    # the next, so one block is alive at a time
    raw = _decayed_sum(decay, map(lambda vectors: CountBlock.of(vectors).gram(), blocks))
    own = np.diagonal(raw)
    matrix = KernelMatrix(method_ids=tuple(g.name for g in graphs),
                          values=_cosine(raw, own[:, None], own) if normalize else raw)
    min_eig = matrix.min_eigenvalue()
    if min_eig < PSD_TOLERANCE:
        return replace(matrix, diagnostics=(
            f"gram matrix is not PSD within tolerance: min eigenvalue {min_eig:.3e}",))
    return matrix
