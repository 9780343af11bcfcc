"""Node, path and walk features over annotated CFGs, as count vectors.

Node features (NF) count nodes sharing an ``<op>-<din>-<dout>`` signature.
Path features (PF) take, for every node, one canonical shortest path from
the start node to it and one from it to the exit node, and count the label
sequences.  Canonical means BFS order with neighbors expanded in ascending
node id; the first discovered parent defines the path, so extraction is
deterministic and id-renaming that preserves declaration order cannot
change the result.  Walk features (RW), the random-walk kernel's explicit
feature map, count every walk of a given length by its label sequence,
keyed by an integer coding of that sequence.

The module imports no numpy: ``extract`` runs on it alone.  The count
blocks and kernel matrices that the learning commands build from these
vectors are ``kernels``'s; ``build_design_matrix`` is still read from
here, importing ``kernels`` on first read.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .cfg import AnnotatedCfg, NodeOp
from .corpus import csv_text


# walk_features' bound on one length's (label sequence, last node) pairs;
# the bundled corpus peaks at 746 (shell_sort, length 20)
MAX_WALK_ENDS = 30_000

# kernels.graphlet_distribution's bound on one size's connected node
# subsets; the bundled corpus peaks at 84 (pooledVariance, 4 nodes)
MAX_GRAPHLET_SUBSETS = 30_000

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


def _tree_paths(parent: tuple[int, ...], root: int, labels: tuple[str, ...],
                forward: bool) -> list[str]:
    """Each node's label sequence along its BFS-tree chain to ``root``,
    joined by "-": from ``root`` to the node if ``forward``, else from the
    node to ``root``.  Each is built once, from its parent's."""
    paths: list[str | None] = [None] * len(parent)
    paths[root] = labels[root]
    for v in range(len(parent)):
        chain = []
        while paths[v] is None:
            chain.append(v)
            v = parent[v]
        for u in reversed(chain):  # v is u's parent
            paths[u] = paths[v] + "-" + labels[u] if forward else labels[u] + "-" + paths[v]
            v = u
    return paths


def path_features(cfg: AnnotatedCfg) -> FeatureVector:
    """One forward and one backward canonical shortest-path signature per
    node; identical signatures accumulate, so the total tally is 2*|nodes|.
    Keys are inserted in node order, each node's forward signature first.

    Paths exist only on a valid CFG: this raises FeatureError with the
    first :func:`~mrkit.cfg.validate` diagnostic of any other graph.  The
    check and the two BFS trees are the graph's cached ones, which a graph
    from ``parse_dot`` or the mini-IR lowering has already built; each
    node's signature extends its BFS parent's.
    """
    for diag in cfg.diagnostics:
        raise FeatureError(str(diag))
    labels = cfg.labels
    forward = _tree_paths(cfg.start_parents, cfg.ops.index(NodeOp.START), labels, True)
    backward = _tree_paths(cfg.exit_parents, cfg.ops.index(NodeOp.EXIT), labels, False)
    counts: dict[str, int] = {}
    for pair in zip(forward, backward):
        for key in pair:
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


def features_to_csv(method_id: str, vectors: list[FeatureVector]) -> str:
    """Flat dump: one ``method_id,kind,feature_key,count`` row per entry,
    keys sorted within each vector."""
    return csv_text([("method_id", "kind", "feature_key", "count"),
                     *((method_id, vec.kind, key, vec.entries[key])
                       for vec in vectors for key in sorted(vec.entries))])


def __getattr__(name: str):
    # moved to kernels, so that this module imports no numpy
    if name == "build_design_matrix":
        from .kernels import build_design_matrix

        return build_design_matrix
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
