"""PF as mrkit built it before each signature extended its BFS parent's:
for every node, its whole BFS-parent chain walked back to the start node,
then again to the exit node, and each chain's labels joined by "-".
``test_features.py`` requires ``mrkit.features.path_features`` to give the
same keys, counts and key order, and the same FeatureError text on a graph
that ``validate`` flags.
"""

from __future__ import annotations

from mrkit.cfg import AnnotatedCfg, NodeOp, validate
from mrkit.features import FeatureError, FeatureVector


def path_features(cfg: AnnotatedCfg) -> FeatureVector:
    """One forward and one backward chain per node, in node order."""
    for diag in validate(cfg):
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
