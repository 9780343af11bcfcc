"""Graph similarity for annotated CFGs: random-walk and graphlet kernels.

The random-walk kernel counts pairs of walks with identical label
sequences, one walk per graph, weighted lambda^length and truncated at a
maximum length; it is evaluated on the label-matched direct-product graph,
so the count for length l is the sum of the l-th power of the product
adjacency.  The graphlet kernel compares relative frequency distributions
of weakly connected induced k-node subgraphs classified by directed
isomorphism type, ignoring labels.
"""

from __future__ import annotations

import itertools
import random
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
    mode: str = "exhaustive"  # or "sampled"
    sample_count: int = 5000
    seed: int = 0
    normalize: bool = True

    def __post_init__(self) -> None:
        if self.k not in (3, 4):
            raise ValueError("graphlet size must be 3 or 4")
        if self.mode not in ("exhaustive", "sampled"):
            raise ValueError(f"unknown graphlet mode {self.mode!r}")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


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


def _canonical_type(positions: list[tuple[int, int]], k: int) -> int:
    """Canonical form of a k-node directed graph given by position edges:
    the minimum adjacency bitmask over all node permutations."""
    best = None
    for perm in itertools.permutations(range(k)):
        mask = 0
        for a, b in positions:
            mask |= 1 << (perm[a] * k + perm[b])
        if best is None or mask < best:
            best = mask
    return best if best is not None else 0


def _is_weakly_connected(nodes: tuple[int, ...],
                         positions: list[tuple[int, int]]) -> bool:
    k = len(nodes)
    seen = {0}
    frontier = [0]
    undirected = {(a, b) for a, b in positions} | {(b, a) for a, b in positions}
    while frontier:
        u = frontier.pop()
        for v in range(k):
            if v not in seen and (u, v) in undirected:
                seen.add(v)
                frontier.append(v)
    return len(seen) == k


def _induced_positions(nodes: tuple[int, ...], edge_set: set) -> list[tuple[int, int]]:
    out = []
    for a, na in enumerate(nodes):
        for b, nb in enumerate(nodes):
            if a != b and (na, nb) in edge_set:
                out.append((a, b))
    return out


def graphlet_distribution(g: AnnotatedCfg, p: GkParams = GkParams()) -> dict[int, float]:
    """Relative frequencies of connected induced k-subgraph types."""
    n = g.node_count
    if n < p.k:
        return {}
    edge_set = set(g.edges)
    counts: dict[int, int] = {}
    total = 0
    if p.mode == "exhaustive":
        for nodes in itertools.combinations(range(n), p.k):
            positions = _induced_positions(nodes, edge_set)
            if not _is_weakly_connected(nodes, positions):
                continue
            t = _canonical_type(positions, p.k)
            counts[t] = counts.get(t, 0) + 1
            total += 1
    else:
        rng = random.Random(p.seed)
        attempts = 0
        max_attempts = 50 * p.sample_count
        while total < p.sample_count and attempts < max_attempts:
            attempts += 1
            nodes = tuple(sorted(rng.sample(range(n), p.k)))
            positions = _induced_positions(nodes, edge_set)
            if not _is_weakly_connected(nodes, positions):
                continue
            t = _canonical_type(positions, p.k)
            counts[t] = counts.get(t, 0) + 1
            total += 1
    if total == 0:
        return {}
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
