"""Node and path features over annotated CFGs, plus design-matrix assembly.

Node features (NF) count nodes sharing an ``<op>-<din>-<dout>`` signature.
Path features (PF) take, for every node, one canonical shortest path from
the start node to it and one from it to the exit node, and count the label
sequences.  Canonical means BFS order with neighbors expanded in ascending
node id; the first discovered parent defines the path, so extraction is
deterministic and id-renaming that preserves declaration order cannot
change the result.  Walk features (RW), the random-walk kernel's explicit
feature map, count every walk of a given length by its label sequence,
keyed by an integer coding of that sequence.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .cfg import AnnotatedCfg, NodeOp


# walk_features' bound on one length's (label sequence, last node) pairs;
# the bundled corpus peaks at 746 (shell_sort, length 20)
MAX_WALK_ENDS = 30_000

# walk_features' 5-bit label codes, 1..20 in NodeOp declaration order; no
# code is 0, so a key's leading label is its highest nonzero 5 bits
_WALK_CODES = {op.value: code for code, op in enumerate(NodeOp, start=1)}


class FeatureError(ValueError):
    pass


@dataclass(frozen=True)
class FeatureVector:
    kind: str  # "NF" | "PF" | "NF-PF" | "RW" | "GK"
    entries: dict[str, int] | dict[int, int]  # RW: int-coded label sequences; GK: types

    def __post_init__(self) -> None:
        if self.kind not in ("NF", "PF", "NF-PF", "RW", "GK"):
            raise FeatureError(f"unknown feature kind {self.kind!r}")
        for key, count in self.entries.items():
            if count < 1:
                raise FeatureError(f"stored count for {key!r} must be >= 1")

    def total(self) -> int:
        return sum(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)


def node_features(cfg: AnnotatedCfg, omit_exit: bool = False) -> FeatureVector:
    """Tally ``op-din-dout`` signatures; one entry per distinct triple.

    ``omit_exit`` drops exit-labelled nodes to replicate published NF
    tables that leave the exit node out; by default it is counted so that
    the totals partition the node set.
    """
    counts: dict[str, int] = {}
    pred, succ = cfg.predecessors, cfg.successors
    for i, label in enumerate(cfg.labels):
        if omit_exit and label == "exit":
            continue
        key = f"{label}-{len(pred[i])}-{len(succ[i])}"
        counts[key] = counts.get(key, 0) + 1
    return FeatureVector("NF", counts)


def path_features(cfg: AnnotatedCfg) -> FeatureVector:
    """One forward and one backward canonical shortest-path signature per
    node; identical signatures accumulate, so the total tally is 2*|nodes|.

    Paths exist only on a valid CFG: this raises FeatureError with the
    first :func:`~mrkit.cfg.validate` diagnostic of any other graph.  The
    check and the two BFS trees are the graph's cached ones, which a graph
    from ``parse_dot`` or the mini-IR lowering has already built.
    """
    for diag in cfg.diagnostics:
        raise FeatureError(str(diag))
    start, exit_node = cfg.ops.index(NodeOp.START), cfg.ops.index(NodeOp.EXIT)
    fwd_parent, bwd_parent = cfg.start_parents, cfg.exit_parents

    labels = cfg.labels
    counts: dict[str, int] = {}
    for v in range(cfg.node_count):
        chain = [v]
        while chain[-1] != start:
            chain.append(fwd_parent[chain[-1]])
        key = "-".join([labels[u] for u in reversed(chain)])
        counts[key] = counts.get(key, 0) + 1

        chain = [v]
        while chain[-1] != exit_node:
            chain.append(bwd_parent[chain[-1]])
        key = "-".join([labels[u] for u in chain])
        counts[key] = counts.get(key, 0) + 1
    return FeatureVector("PF", counts)


def walk_features(cfg: AnnotatedCfg, walk_len: int) -> Iterator[FeatureVector]:
    """For each length l = 1..walk_len in turn, every walk of l edges
    counted by its node-label sequence.

    A sequence is keyed by an integer, ``seq << 5 | code`` per label, so
    it decodes back to its labels; these keys never leave memory (the rwk
    context stores graphs, not keys).  The count is kept per (sequence,
    last node), which can grow exponentially with l on a graph where most
    nodes branch; past MAX_WALK_ENDS such pairs at one length this raises
    FeatureError.
    """
    codes = [_WALK_CODES[label] for label in cfg.labels]
    successors = cfg.successors
    ends = {(code, v): 1 for v, code in enumerate(codes)}  # by (sequence, last node)
    for length in range(1, walk_len + 1):
        grown: dict[tuple[int, int], int] = {}
        for (seq, u), n in ends.items():
            seq <<= 5
            for v in successors[u]:
                key = (seq | codes[v], v)
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


def combine(nf: FeatureVector, pf: FeatureVector) -> FeatureVector:
    """Disjoint union of an NF and a PF vector (key spaces never collide:
    NF keys end in two degree fields)."""
    if nf.kind != "NF" or pf.kind != "PF":
        raise FeatureError(f"combine needs kinds NF and PF, got {nf.kind} and {pf.kind}")
    merged = dict(nf.entries)
    for key, count in pf.entries.items():
        if key in merged:
            raise FeatureError(f"feature key collision on {key!r}")
        merged[key] = count
    return FeatureVector("NF-PF", merged)


def project(vector: FeatureVector,
            key_index: dict[str, int]) -> tuple[np.ndarray, int]:
    """The count row of ``vector`` over ``key_index`` and the number of its
    keys missing from the index, which are dropped (they correspond to
    all-zero columns)."""
    row = np.zeros(len(key_index))
    unseen = 0
    for key, count in vector.entries.items():
        if key in key_index:
            row[key_index[key]] = count
        else:
            unseen += 1
    return row, unseen


@dataclass(frozen=True)
class KernelMatrix:
    method_ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)
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


@dataclass(frozen=True)
class DesignMatrix:
    """Dense count matrix over the lexicographically sorted key union."""

    feature_index: tuple[str, ...]
    method_ids: tuple[str, ...]
    rows: np.ndarray = field(repr=False)
    key_index: dict[str, int] = field(repr=False)  # key -> column

    def gram(self) -> KernelMatrix:
        """Linear-kernel Gram ``rows @ rows.T``; the rows are integer
        counts, so every entry is exact in float64 and a fold's block
        equals its own ``x @ x.T``."""
        return KernelMatrix(method_ids=self.method_ids,
                            values=np.matmul(self.rows, self.rows.T))


def build_design_matrix(features: list[tuple[str, FeatureVector]]) -> DesignMatrix:
    if not features:
        raise FeatureError("no feature vectors given")
    kinds = {vec.kind for _, vec in features}
    if len(kinds) != 1:
        raise FeatureError(f"mixed feature kinds: {sorted(kinds)}")
    ids = [mid for mid, _ in features]
    if len(set(ids)) != len(ids):
        dupes = sorted({m for m in ids if ids.count(m) > 1})
        raise FeatureError(f"duplicate method ids: {dupes}")

    keys = sorted({key for _, vec in features for key in vec.entries})
    index = {key: i for i, key in enumerate(keys)}
    rows = np.empty((len(features), len(keys)))
    for row, (_, vec) in zip(rows, features):
        row[:] = project(vec, index)[0]
    return DesignMatrix(tuple(keys), tuple(ids), rows, index)


def features_to_csv(method_id: str, vectors: list[FeatureVector]) -> str:
    """Flat dump: one ``method_id,kind,feature_key,count`` row per entry,
    keys sorted within each vector."""
    lines = ["method_id,kind,feature_key,count"]
    for vec in vectors:
        for key in sorted(vec.entries):
            lines.append(f"{method_id},{vec.kind},{key},{vec.entries[key]}")
    return "\n".join(lines) + "\n"


def design_matrix_to_csv(matrix: DesignMatrix) -> str:
    lines = ["method_id," + ",".join(matrix.feature_index)]
    for mid, row in zip(matrix.method_ids, matrix.rows):
        cells = ",".join(str(int(v)) for v in row)
        lines.append(f"{mid},{cells}")
    return "\n".join(lines) + "\n"
