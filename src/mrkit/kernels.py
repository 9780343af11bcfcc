"""Graph similarity for annotated CFGs: random-walk and graphlet kernels.

The random-walk kernel counts pairs of walks with identical label
sequences, one walk per graph, weighted lambda^length and truncated at a
maximum length; it is evaluated on the label-matched direct-product graph,
so the count for length l is the sum of the l-th power of the product
adjacency.  The graphlet kernel compares relative frequency distributions
of weakly connected induced k-node subgraphs (k = 3 or 4) classified by
directed isomorphism type, ignoring labels.  The count is exact: ESU
enumeration yields exactly the connected node subsets, and each subset's
type is the minimum adjacency bitmask over node permutations, memoised per
bitmask.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .cfg import AnnotatedCfg


@dataclass(frozen=True)
class RwkParams:
    walk_len: int = 10
    decay: float = 0.5
    normalize: bool = True

    def __post_init__(self) -> None:
        if self.walk_len < 1:
            raise ValueError("walk_len must be >= 1")
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


def random_walk_kernel(g1: AnnotatedCfg, g2: AnnotatedCfg,
                       p: RwkParams = RwkParams()) -> float:
    """Truncated geometric count of label-matched common walks."""
    value = _rwk_raw(g1, g2, p)
    if not p.normalize:
        return value
    k11 = _rwk_raw(g1, g1, p)
    k22 = _rwk_raw(g2, g2, p)
    if k11 <= 0.0 or k22 <= 0.0:
        return 0.0
    return value / float(np.sqrt(k11) * np.sqrt(k22))


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


def graphlet_kernel(g1: AnnotatedCfg, g2: AnnotatedCfg,
                    p: GkParams = GkParams()) -> float:
    """Dot product of graphlet frequency vectors (cosine when normalized)."""
    f1 = graphlet_distribution(g1, p)
    f2 = graphlet_distribution(g2, p)
    value = sum(f1[t] * f2.get(t, 0.0) for t in f1)
    if not p.normalize:
        return value
    n1 = sum(v * v for v in f1.values())
    n2 = sum(v * v for v in f2.values())
    if n1 <= 0.0 or n2 <= 0.0:
        return 0.0
    return value / float(np.sqrt(n1) * np.sqrt(n2))


PSD_TOLERANCE = -1e-8


@dataclass(frozen=True)
class KernelMatrix:
    method_ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)
    kernel: str = ""
    diagnostics: tuple[str, ...] = ()

    def min_eigenvalue(self) -> float:
        sym = (self.values + self.values.T) / 2.0
        return float(np.linalg.eigvalsh(sym).min())

    def submatrix(self, rows, cols) -> np.ndarray:
        return self.values[np.ix_(rows, cols)]

    def to_csv(self) -> str:
        lines = ["method_id," + ",".join(self.method_ids)]
        for mid, row in zip(self.method_ids, self.values):
            lines.append(mid + "," + ",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


class KernelColumns:
    """Kernel columns of new graphs against fixed training graphs.

    The training side, each graph's self-value k(g, g) and, for the graphlet
    kernel, its distribution, is computed once here; a column then costs only
    the new graph's own terms plus one cross term per training graph.  Entry
    i equals ``random_walk_kernel(graphs[i], g)`` or
    ``graphlet_kernel(graphs[i], g)`` bit for bit: the same float
    expressions in the same summation order.
    """

    def __init__(self, graphs: list[AnnotatedCfg], kernel: str,
                 rwk: RwkParams = RwkParams(), gk: GkParams = GkParams()) -> None:
        if kernel not in ("rwk", "gk"):
            raise ValueError(f"unknown kernel {kernel!r}")
        self.graphs = list(graphs)
        self.kernel = kernel
        self.params = rwk if kernel == "rwk" else gk
        self.terms = [self.own_terms(g) for g in self.graphs]

    def own_terms(self, g: AnnotatedCfg) -> tuple[dict[int, float] | None, float]:
        """(graphlet distribution or None, unnormalised self-value k(g, g))."""
        if self.kernel == "rwk":
            return None, _rwk_raw(g, g, self.params)
        dist = graphlet_distribution(g, self.params)
        return dist, sum(v * v for v in dist.values())

    def normalized(self, raw: float, k11: float, k22: float) -> float:
        """``raw`` scaled by the two self-values, if the kernel normalises."""
        if not self.params.normalize:
            return raw
        if k11 <= 0.0 or k22 <= 0.0:
            return 0.0
        return raw / float(np.sqrt(k11) * np.sqrt(k22))

    def value(self, i: int, g: AnnotatedCfg, terms) -> float:
        """k(graphs[i], g) given ``terms = own_terms(g)``."""
        if self.kernel == "rwk":
            raw = _rwk_raw(self.graphs[i], g, self.params)
        else:
            f1, f2 = self.terms[i][0], terms[0]
            raw = sum(f1[t] * f2.get(t, 0.0) for t in f1)
        return self.normalized(raw, self.terms[i][1], terms[1])

    def column(self, g: AnnotatedCfg) -> np.ndarray:
        """k(graphs[i], g) for every training graph i."""
        terms = self.own_terms(g)
        return np.array([self.value(i, g, terms) for i in range(len(self.graphs))])


def gram_matrix(graphs: list[AnnotatedCfg], kernel: str = "rwk",
                rwk: RwkParams = RwkParams(),
                gk: GkParams = GkParams()) -> KernelMatrix:
    """Pairwise kernel values; each unordered pair computed once, so the
    result is symmetric by construction.  A PSD violation beyond tolerance
    is reported as a diagnostic, never repaired."""
    if len(graphs) < 2:
        raise ValueError("gram matrix needs at least two graphs")
    columns = KernelColumns(graphs, kernel, rwk=rwk, gk=gk)
    n = len(graphs)
    values = np.zeros((n, n))
    for j, (g, terms) in enumerate(zip(graphs, columns.terms)):
        values[j, j] = columns.normalized(terms[1], terms[1], terms[1])
        for i in range(j):
            values[i, j] = values[j, i] = columns.value(i, g, terms)

    matrix = KernelMatrix(method_ids=tuple(g.name for g in graphs),
                          values=values, kernel=kernel)
    min_eig = matrix.min_eigenvalue()
    if min_eig < PSD_TOLERANCE:
        return replace(matrix, diagnostics=(
            f"gram matrix is not PSD within tolerance: min eigenvalue {min_eig:.3e}",))
    return matrix
