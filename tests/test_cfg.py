import itertools
import random
from dataclasses import replace

import pytest

from mrkit.cfg import (
    AnnotatedCfg,
    DotParseError,
    NodeOp,
    emit_dot,
    parse_dot,
    validate,
)
from mrkit.features import FeatureError, path_features

TRIVIAL = 'digraph t {\n  a [label="start"];\n  b [label="exit"];\n  a -> b;\n}\n'


def fig2_text():
    from mrkit.corpus import data_dir

    return (data_dir() / "cfg" / "average.dot").read_text()


def test_parse_trivial():
    cfg = parse_dot(TRIVIAL)
    assert cfg.node_count == 2
    assert cfg.edge_count == 1
    assert cfg.ops == (NodeOp.START, NodeOp.EXIT)
    assert cfg.name == "t"


def test_parse_worked_example_label_multiset():
    cfg = parse_dot(fig2_text())
    counts = {op.value: n for op, n in cfg.label_multiset().items()}
    assert counts == {"start": 1, "assi": 7, "goto": 1, "if": 1,
                      "add": 2, "div": 1, "exit": 1}
    assert cfg.node_count == 14


def test_unknown_label_names_token():
    text = 'digraph g {\n  a [label="foo"];\n}\n'
    with pytest.raises(DotParseError) as info:
        parse_dot(text)
    assert str(info.value) == "line 2: unknown node label 'foo'"


def test_every_node_op_value_parses_as_its_label():
    ops = [NodeOp.START] + [op for op in NodeOp
                            if op not in (NodeOp.START, NodeOp.EXIT)] + [NodeOp.EXIT]
    text = ("digraph g {\n"
            + "".join(f'  n{i} [label="{op.value}"];\n' for i, op in enumerate(ops))
            + "".join(f"  n{i} -> n{i + 1};\n" for i in range(len(ops) - 1)) + "}\n")
    cfg = parse_dot(text)
    assert cfg.ops == tuple(ops) and set(cfg.ops) == set(NodeOp)
    assert parse_dot(emit_dot(cfg)).ops == cfg.ops


def test_duplicate_node_id_rejected():
    text = 'digraph g {\n  a [label="start"];\n  a [label="exit"];\n}\n'
    with pytest.raises(DotParseError, match="duplicate node id"):
        parse_dot(text)


def test_duplicate_edge_rejected():
    text = ('digraph g {\n  a [label="start"];\n  b [label="exit"];\n'
            '  a -> b;\n  a -> b;\n}\n')
    with pytest.raises(DotParseError, match="duplicate edge"):
        parse_dot(text)


def test_syntax_error_reports_line():
    text = 'digraph g {\n  a [label="start"];\n  what is this\n}\n'
    with pytest.raises(DotParseError, match="line 3"):
        parse_dot(text)


def test_edge_to_undeclared_node():
    text = 'digraph g {\n  a [label="start"];\n  a -> zzz;\n}\n'
    with pytest.raises(DotParseError, match="zzz"):
        parse_dot(text)


def test_structural_error_reports_the_line_declaring_its_node():
    text = ('digraph g {\n  s [label="start"];\n  x [label="exit"];\n'
            '  a [label="assi"];\n  s -> x;\n  a -> x;\n}\n')
    with pytest.raises(DotParseError, match=r"^line 4: node unreachable from start$"):
        parse_dot(text)


def test_structural_error_about_no_one_node_has_no_line():
    text = 'digraph g {\n  s [label="start"];\n  r [label="return"];\n  s -> r;\n}\n'
    with pytest.raises(DotParseError, match=r"^expected exactly one exit node, found 0$") as info:
        parse_dot(text)
    assert info.value.line is None


def test_roundtrip_trivial_and_worked_example():
    for text in (TRIVIAL, fig2_text()):
        cfg = parse_dot(text)
        again = parse_dot(emit_dot(cfg))
        assert again.ops == cfg.ops
        assert again.edges == cfg.edges
        assert again.name == cfg.name


@pytest.mark.parametrize("name", ["my avg", "util.mean", "", "tab\there", "{x}"])
def test_roundtrip_keeps_a_name_that_needs_quoting(name):
    cfg = replace(parse_dot(fig2_text()), name=name)
    text = emit_dot(cfg)
    assert parse_dot(text) == cfg
    assert text.splitlines()[0] == (f"digraph {name} {{" if name == "util.mean"
                                    else f'digraph "{name}" {{')


def test_emit_keeps_a_bare_name_unquoted():
    assert emit_dot(parse_dot(fig2_text())).startswith("digraph average {\n")


@pytest.mark.parametrize("name", ['say "hi"', "two\nlines", "cr\r", "ls\u2028"])
def test_emit_refuses_a_name_no_quoting_can_carry(name):
    with pytest.raises(ValueError, match="cannot be written to DOT"):
        emit_dot(replace(parse_dot(fig2_text()), name=name))


def test_emit_deterministic_bytes():
    cfg = parse_dot(fig2_text())
    assert emit_dot(cfg) == emit_dot(cfg)


def test_validate_worked_example_clean():
    assert validate(parse_dot(fig2_text())) == []


def test_validate_two_starts():
    cfg = AnnotatedCfg("g", (NodeOp.START, NodeOp.START, NodeOp.EXIT),
                       ((0, 2), (1, 2)))
    messages = [d.message for d in validate(cfg)]
    assert any("exactly one start" in m for m in messages)


def test_validate_unreachable_node():
    cfg = AnnotatedCfg("g", (NodeOp.START, NodeOp.EXIT, NodeOp.ASSI),
                       ((0, 1), (2, 1)))
    diags = validate(cfg)
    assert any(d.node == 2 and "unreachable from start" in d.message for d in diags)


def test_validate_dead_end():
    cfg = AnnotatedCfg("g", (NodeOp.START, NodeOp.ASSI, NodeOp.EXIT),
                       ((0, 1), (0, 2)))
    diags = validate(cfg)
    assert any(d.node == 1 and "exit unreachable" in d.message for d in diags)


def test_degree_bookkeeping(corpus_graphs):
    for cfg in corpus_graphs.values():
        total_in = sum(cfg.in_degree(i) for i in range(cfg.node_count))
        total_out = sum(cfg.out_degree(i) for i in range(cfg.node_count))
        assert total_in == total_out == cfg.edge_count


def _validate_brute_force(cfg: AnnotatedCfg) -> bool:
    """Independent re-statement of the three invariants."""
    n = cfg.node_count
    edges = list(cfg.edges)
    if len(set(edges)) != len(edges):
        return False
    starts = [i for i in range(n) if cfg.ops[i] is NodeOp.START]
    exits = [i for i in range(n) if cfg.ops[i] is NodeOp.EXIT]
    if len(starts) != 1 or len(exits) != 1:
        return False
    if any(b == starts[0] for _, b in edges):
        return False
    if any(a == exits[0] for a, _ in edges):
        return False

    def closure(root, flip):
        seen = {root}
        changed = True
        while changed:
            changed = False
            for a, b in edges:
                if flip:
                    a, b = b, a
                if a in seen and b not in seen:
                    seen.add(b)
                    changed = True
        return seen

    return (closure(starts[0], False) == set(range(n))
            and closure(exits[0], True) == set(range(n)))


def random_graphs():
    """Seeded random digraphs without self-loops or duplicate edges, about
    half their nodes start or exit, so most are not valid CFGs."""
    ops_pool = list(NodeOp)
    rng = random.Random(20240817)
    for _ in range(400):
        n = rng.randint(1, 12)
        ops = []
        for i in range(n):
            roll = rng.random()
            if roll < 0.25:
                ops.append(NodeOp.START)
            elif roll < 0.5:
                ops.append(NodeOp.EXIT)
            else:
                ops.append(rng.choice(ops_pool))
        possible = [(a, b) for a in range(n) for b in range(n) if a != b]
        rng.shuffle(possible)
        edges = tuple(possible[: rng.randint(0, len(possible))])
        yield AnnotatedCfg("r", tuple(ops), edges)


def random_cfg_shapes():
    """Seeded random digraphs with one start and one exit, neither entered
    nor left the wrong way: a quarter of them are valid CFGs, and the rest
    fail only on reachability."""
    inner = [op for op in NodeOp if op not in (NodeOp.START, NodeOp.EXIT)]
    rng = random.Random(20261019)
    for _ in range(400):
        n = rng.randint(2, 12)
        ops = [NodeOp.START, NodeOp.EXIT] + [rng.choice(inner) for _ in range(n - 2)]
        rng.shuffle(ops)
        start, exit_node = ops.index(NodeOp.START), ops.index(NodeOp.EXIT)
        possible = [(a, b) for a in range(n) for b in range(n)
                    if a != b and a != exit_node and b != start]
        rng.shuffle(possible)
        edges = tuple(possible[: rng.randint(0, 2 * n)])
        yield AnnotatedCfg("r", tuple(ops), edges)


def test_validate_matches_brute_force_on_random_graphs():
    for cfg in itertools.chain(random_graphs(), random_cfg_shapes()):
        assert (validate(cfg) == []) == _validate_brute_force(cfg)


def test_parse_dot_and_path_features_refuse_exactly_the_graphs_validate_flags():
    valid = 0
    for cfg in itertools.chain(random_graphs(), random_cfg_shapes()):
        diags = validate(cfg)
        if diags:
            with pytest.raises(DotParseError):
                parse_dot(emit_dot(cfg))
            with pytest.raises(FeatureError):
                path_features(cfg)
        else:
            valid += 1
            assert parse_dot(emit_dot(cfg)) == cfg
            assert path_features(cfg).total() == 2 * cfg.node_count
    assert valid >= 100
