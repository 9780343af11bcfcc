import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrkit.cfg
import pf_reference
from mrkit.cfg import AnnotatedCfg, NodeOp, bfs_parents, parse_dot, validate
from mrkit.corpus import data_dir
from mrkit.features import (
    MAX_WALK_ENDS,
    FeatureError,
    FeatureVector,
    combine,
    features_to_csv,
    node_features,
    path_features,
    walk_features,
)
from mrkit.kernels import CountBlock, build_design_matrix
from mrkit.mir import parse_program

TABLE_NF = {
    "start-0-1": 1, "assi-1-1": 7, "goto-1-1": 1,
    "if-2-2": 1, "add-1-1": 2, "div-1-1": 1,
}

TABLE_PF = {
    "start": 1,
    "start-assi": 1,
    "start-assi-assi": 1,
    "start-assi-assi-goto": 1,
    "start-assi-assi-goto-assi": 1,
    "start-assi-assi-goto-assi-if": 1,
    "start-assi-assi-goto-assi-if-assi": 2,
    "start-assi-assi-goto-assi-if-assi-assi": 2,
    "start-assi-assi-goto-assi-if-assi-assi-add": 1,
    "start-assi-assi-goto-assi-if-assi-assi-div": 1,
    "start-assi-assi-goto-assi-if-assi-assi-add-add": 1,
    # listed once in the published table; here the full start-to-exit
    # signature is counted once per direction, so 2 in the merged vector
    "start-assi-assi-goto-assi-if-assi-assi-div-exit": 2,
    "assi-assi-goto-assi-if-assi-assi-div-exit": 1,
    "assi-goto-assi-if-assi-assi-div-exit": 1,
    "goto-assi-if-assi-assi-div-exit": 1,
    "assi-if-assi-assi-div-exit": 1,
    "if-assi-assi-div-exit": 1,
    "assi-assi-div-exit": 1,
    "assi-div-exit": 1,
    "div-exit": 1,
    "exit": 1,
    "assi-assi-add-add-if-assi-assi-div-exit": 1,
    "assi-add-add-if-assi-assi-div-exit": 1,
    "add-add-if-assi-assi-div-exit": 1,
    "add-if-assi-assi-div-exit": 1,
}


@pytest.fixture(scope="module")
def worked_example(corpus_graphs):
    return corpus_graphs["average"]


def test_nf_worked_example_with_and_without_exit(worked_example):
    nf = node_features(worked_example, omit_exit=True)
    assert nf.entries == TABLE_NF
    full = node_features(worked_example)
    assert full.entries == {**TABLE_NF, "exit-1-0": 1}
    assert full.total() == worked_example.node_count


def test_nf_trivial_graph():
    cfg = AnnotatedCfg("t", (NodeOp.START, NodeOp.EXIT), ((0, 1),))
    assert node_features(cfg).entries == {"start-0-1": 1, "exit-1-0": 1}


def test_nf_counts_partition_nodes(corpus_graphs):
    for cfg in corpus_graphs.values():
        assert node_features(cfg).total() == cfg.node_count


def test_pf_worked_example_exact(worked_example):
    pf = path_features(worked_example)
    assert pf.entries == TABLE_PF
    assert len(pf) == 25
    assert pf.entries["start-assi-assi-goto-assi-if-assi"] == 2
    assert pf.entries["div-exit"] == 1
    assert pf.entries["exit"] == 1


def test_pf_straight_line_merged_counts():
    cfg = AnnotatedCfg("s", (NodeOp.START, NodeOp.ASSI, NodeOp.EXIT),
                       ((0, 1), (1, 2)))
    pf = path_features(cfg)
    # forward: start, start-assi, start-assi-exit
    # backward: start-assi-exit, assi-exit, exit
    assert pf.entries == {
        "start": 1, "start-assi": 1, "start-assi-exit": 2,
        "assi-exit": 1, "exit": 1,
    }
    assert pf.total() == 2 * cfg.node_count


def test_pf_total_is_twice_node_count(corpus_graphs):
    for cfg in corpus_graphs.values():
        assert path_features(cfg).total() == 2 * cfg.node_count


def test_pf_refuses_an_invalid_cfg_with_its_first_diagnostic():
    two_starts = AnnotatedCfg("g", (NodeOp.START, NodeOp.START, NodeOp.EXIT),
                              ((0, 2), (1, 2)))
    with pytest.raises(FeatureError, match=r"^expected exactly one start node, found 2$"):
        path_features(two_starts)
    dead_end = AnnotatedCfg("g", (NodeOp.START, NodeOp.ASSI, NodeOp.EXIT),
                            ((0, 1), (0, 2)))
    with pytest.raises(FeatureError, match=r"^exit unreachable from node \(node 1\)$"):
        path_features(dead_end)


def test_pf_matches_the_chain_walk_reference_on_the_corpus(corpus_graphs):
    # same keys, same counts, same insertion order
    for cfg in corpus_graphs.values():
        assert list(path_features(cfg).entries.items()) \
            == list(pf_reference.path_features(cfg).entries.items())


@st.composite
def cfg_shapes(draw):
    """A graph on 2..10 nodes, with a start and an exit at drawn positions
    and a chain from the start through every node to the exit, plus up to
    2n drawn edges; and whether it was drawn valid.  A valid draw keeps the
    chain and adds no edge into the start, out of the exit or twice.  The
    others may drop chain edges, add any edge and draw a further start or
    exit, so most of them fail one of validate's checks."""
    valid = draw(st.booleans())
    n = draw(st.integers(2, 10))
    order = draw(st.permutations(range(n)))
    start, exit_node = order[0], order[-1]
    inner = [op for op in NodeOp if op not in (NodeOp.START, NodeOp.EXIT)]
    ops = [draw(st.sampled_from(inner if valid else list(NodeOp))) for _ in range(n)]
    ops[start], ops[exit_node] = NodeOp.START, NodeOp.EXIT
    edges = [(a, b) for a, b in zip(order, order[1:]) if valid or draw(st.integers(0, 5))]
    node = st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(node, node), max_size=2 * n)):
        if not valid or (a != exit_node and b != start and (a, b) not in edges):
            edges.append((a, b))
    return AnnotatedCfg("h", tuple(ops), tuple(edges)), valid


@settings(max_examples=300, deadline=None)
@given(cfg_shapes())
def test_pf_matches_the_chain_walk_reference_on_drawn_graphs(shape):
    cfg, valid = shape
    assert validate(cfg) == [] or not valid
    try:
        expected = pf_reference.path_features(cfg)
    except FeatureError as refused:
        with pytest.raises(FeatureError) as info:
            path_features(cfg)
        assert str(info.value) == str(refused)
    else:
        assert list(path_features(cfg).entries.items()) == list(expected.entries.items())


def counted_bfs_runs(monkeypatch) -> list[int]:
    """The root of every ``bfs_parents`` run from now on, wherever it is
    called from: ``validate`` and ``path_features`` share the graph's
    cached runs."""
    roots: list[int] = []

    def counted(adjacency, root):
        roots.append(root)
        return bfs_parents(adjacency, root)
    monkeypatch.setattr(mrkit.cfg, "bfs_parents", counted)
    return roots


def _average_from_dot():
    return parse_dot((data_dir() / "cfg" / "average.dot").read_text())


def _average_from_mir():
    return parse_program((data_dir() / "corpus" / "average.mir").read_text()).functions[0].cfg


@pytest.mark.parametrize("enter", [_average_from_dot, _average_from_mir])
def test_pf_reuses_the_check_run_where_the_graph_entered(monkeypatch, enter):
    runs = counted_bfs_runs(monkeypatch)
    cfg = enter()
    assert len(runs) == 2  # validate: from start, and back from exit
    assert path_features(cfg).entries == TABLE_PF
    assert len(runs) == 2  # path_features reads validate's two searches
    # an equal graph built by hand carries no check yet, and runs it once
    again = AnnotatedCfg(cfg.name, cfg.ops, cfg.edges)
    path_features(again)
    path_features(again)
    assert len(runs) == 2 + 2


def _path_exists(cfg, labels):
    """DFS replay: is there a walk through cfg with this label sequence?"""
    frontier = [i for i in range(cfg.node_count)
                if cfg.ops[i].value == labels[0]]
    for want in labels[1:]:
        frontier = [v for u in frontier for v in cfg.successors[u]
                    if cfg.ops[v].value == want]
        if not frontier:
            return False
    return True


def test_pf_keys_replay_as_real_paths(corpus_graphs):
    for name in ("average", "sum", "insertion_sort", "safeNorm"):
        cfg = corpus_graphs[name]
        for key in path_features(cfg).entries:
            assert _path_exists(cfg, key.split("-")), (name, key)


def test_pf_deterministic_under_order_preserving_renaming(worked_example):
    from mrkit.cfg import emit_dot

    renamed = parse_dot(emit_dot(worked_example).replace("n1", "x1"))
    assert path_features(renamed).entries == path_features(worked_example).entries


def test_nf_sensitive_to_any_single_relabel(worked_example):
    base = node_features(worked_example).entries
    for idx in range(worked_example.node_count):
        ops = list(worked_example.ops)
        ops[idx] = NodeOp.SUB if ops[idx] is not NodeOp.SUB else NodeOp.MUL
        changed = AnnotatedCfg(worked_example.name, tuple(ops),
                               worked_example.edges)
        assert node_features(changed).entries != base


def test_combine_worked_example(worked_example):
    # full NF (Table count + the exit node) plus the 25 path features
    nf = node_features(worked_example)
    pf = path_features(worked_example)
    both = combine(nf, pf)
    assert both.kind == "NF-PF"
    assert len(nf) == 7 and len(pf) == 25
    assert len(both) == len(nf) + len(pf) == 32
    assert combine(nf, FeatureVector("PF", {})).entries == nf.entries


def test_combine_kind_mismatch():
    nf = FeatureVector("NF", {"assi-1-1": 1})
    with pytest.raises(FeatureError, match="kinds"):
        combine(nf, nf)


def test_design_matrix_single_method(worked_example):
    nf = node_features(worked_example)
    gram = build_design_matrix([("average", nf)])
    assert gram.method_ids == ("average",)
    assert gram.values.tolist() == [[float(sum(c * c for c in nf.entries.values()))]]
    block = CountBlock.of((nf,))
    assert len(block.index) == len(nf)
    assert block.counts.sum() == worked_example.node_count == 14


def test_design_matrix_disjoint_rows_orthogonal():
    a = FeatureVector("NF", {"add-1-1": 2})
    b = FeatureVector("NF", {"sub-1-1": 3})
    gram = build_design_matrix([("a", a), ("b", b)])
    assert gram.method_ids == ("a", "b")
    assert gram.values.tolist() == [[4.0, 0.0], [0.0, 9.0]]


def test_design_matrix_duplicate_id():
    v = FeatureVector("NF", {"add-1-1": 1})
    with pytest.raises(FeatureError, match="duplicate"):
        build_design_matrix([("m", v), ("m", v)])


def test_design_matrix_mixed_kinds():
    with pytest.raises(FeatureError, match="mixed"):
        build_design_matrix([
            ("a", FeatureVector("NF", {"add-1-1": 1})),
            ("b", FeatureVector("PF", {"start": 1})),
        ])


def test_count_block_dot_counts_unseen_keys(worked_example):
    nf = node_features(worked_example)
    block = CountBlock.of((nf, FeatureVector("NF", {"add-1-1": 1})))
    other = FeatureVector("NF", {"add-1-1": 2, "xor-9-9": 5})
    values, unseen = block.dot(other)
    assert values.tolist() == [2.0 * nf.entries["add-1-1"], 2.0]
    assert unseen == 1


def test_csv_dumps(worked_example):
    nf = node_features(worked_example, omit_exit=True)
    text = features_to_csv("average", [nf])
    assert text.splitlines()[0] == "method_id,kind,feature_key,count"
    assert "average,NF,assi-1-1,7" in text


def branching_ring() -> AnnotatedCfg:
    """Six nodes, ``i -> i+1, i+2 (mod 6)``, three labels: the distinct
    (label sequence, end node) pairs of its walks double with each length."""
    return AnnotatedCfg("ring", (NodeOp.ASSI, NodeOp.IF, NodeOp.ADD) * 2,
                        tuple((i, (i + d) % 6) for i in range(6) for d in (1, 2)))


def test_walk_features_refuse_an_exploding_count_at_the_first_length_past_the_bound():
    vectors = walk_features(branching_ring(), 20)
    for _ in range(12):
        next(vectors)
    with pytest.raises(FeatureError) as info:
        next(vectors)
    assert str(info.value) == (
        f"ring: walks of length 13 end in more than {MAX_WALK_ENDS} distinct "
        "(label sequence, node) pairs; use a smaller walk length")
