import random

import pytest

from mrkit.cfg import NodeOp, validate
from mrkit.mir import MirError, Trap, interpret, lower_to_cfg, parse_program

AVG_SOURCE = """
fn avg(input) {
  sum = 0
  for i = 0; i < len(input); i = i + 1 {
    t = input[i]
    t2 = t
    sum = sum + t2
  }
  m = len(input)
  m2 = m
  return sum / m2
}
"""


def test_parse_avg_single_function():
    prog = parse_program(AVG_SOURCE)
    assert len(prog.functions) == 1
    assert prog.functions[0].name == "avg"
    assert prog.functions[0].param == "input"


def test_empty_file_is_empty_program():
    assert parse_program("").functions == []
    assert parse_program("# just a comment\n").functions == []


def test_undefined_label():
    with pytest.raises(MirError, match="L99"):
        parse_program("fn f(a) {\n  goto L99\n  return 0\n}\n")


def test_duplicate_function_name():
    src = "fn f(a) {\n  return 0\n}\nfn f(b) {\n  return 1\n}\n"
    with pytest.raises(MirError, match="duplicate function"):
        parse_program(src)


def test_duplicate_label():
    src = "fn f(a) {\nL:\n  x = 1\nL:\n  return x\n}\n"
    with pytest.raises(MirError, match="duplicate label"):
        parse_program(src)


def test_unreachable_statement_rejected():
    src = "fn f(a) {\n  return 0\n  x = 1\n  return x\n}\n"
    with pytest.raises(MirError, match="unreachable"):
        parse_program(src)


def test_falls_off_end_rejected():
    with pytest.raises(MirError, match="fall off the end"):
        parse_program("fn f(a) {\n  x = 1\n}\n")


def test_never_assigned_variable_rejected():
    with pytest.raises(MirError, match="never assigned"):
        parse_program("fn f(a) {\n  return y\n}\n")


def test_array_as_scalar_rejected():
    with pytest.raises(MirError, match="used as a scalar"):
        parse_program("fn f(a) {\n  return a\n}\n")


def test_unknown_array_rejected():
    with pytest.raises(MirError, match="unknown array"):
        parse_program("fn f(a) {\n  x = b[0]\n  return x\n}\n")


def test_lower_avg_label_multiset():
    fn = parse_program(AVG_SOURCE).functions[0]
    cfg = lower_to_cfg(fn)
    counts = {op.value: n for op, n in cfg.label_multiset().items()}
    assert counts == {"start": 1, "assi": 7, "goto": 1, "if": 1,
                      "add": 2, "div": 1, "exit": 1}
    assert validate(cfg) == []


def test_lower_return_chain():
    fn = parse_program("fn f(a) {\n  x = a[0]\n  return x\n}\n").functions[0]
    cfg = lower_to_cfg(fn)
    assert [op.value for op in cfg.ops] == ["start", "assi", "return", "exit"]


def test_lower_bare_return_is_three_nodes():
    # single-statement function: start -> return -> exit
    fn = parse_program("fn f(a) {\n  return 1\n}\n").functions[0]
    cfg = lower_to_cfg(fn)
    assert [op.value for op in cfg.ops] == ["start", "return", "exit"]
    assert cfg.edges == ((0, 1), (1, 2))


def test_lower_straight_line_is_path_graph():
    src = "fn f(a) {\n  x = 1\n  y = 2\n  z = 3\n  return z\n}\n"
    cfg = lower_to_cfg(parse_program(src).functions[0])
    assert all(cfg.out_degree(i) <= 1 for i in range(cfg.node_count))
    assert cfg.edge_count == cfg.node_count - 1


def test_node_count_is_statements_plus_two():
    # sugar-free function: one node per statement plus start and exit
    src = ("fn f(a) {\n  x = 0\n  i = 0\n  n = len(a)\n"
           "L:\n  if i >= n goto D\n  v = a[i]\n  x = x + v\n  i = i + 1\n"
           "  goto L\nD:\n  return x\n}\n")
    fn = parse_program(src).functions[0]
    cfg = lower_to_cfg(fn)
    assert cfg.node_count == 9 + 2


def test_conditional_jump_to_fall_through_rejected():
    src = "fn f(a) {\n  x = 1\n  if x > 0 goto L\nL:\n  return x\n}\n"
    with pytest.raises(MirError, match="fall-through"):
        parse_program(src)


def test_interpret_avg_and_sum():
    fn = parse_program(AVG_SOURCE).functions[0]
    assert interpret(fn, [2, 4]) == 3.0
    src = ("fn total(v) {\n  s = 0\n  for i = 0; i < len(v); i = i + 1 {\n"
           "    x = v[i]\n    s = s + x\n  }\n  return s\n}\n")
    fn = parse_program(src).functions[0]
    assert interpret(fn, [1, 2, 3]) == 6.0


def test_interpret_empty_input_traps():
    fn = parse_program(AVG_SOURCE).functions[0]
    with pytest.raises(Trap, match="division-by-zero"):
        interpret(fn, [])


def test_interpret_bad_index_traps():
    src = "fn f(a) {\n  x = a[5]\n  return x\n}\n"
    fn = parse_program(src).functions[0]
    with pytest.raises(Trap, match="out of range"):
        interpret(fn, [1, 2])


def test_interpret_step_budget():
    src = "fn f(a) {\n  i = 0\nL:\n  if i >= 0 goto L\n  return i\n}\n"
    fn = parse_program(src).functions[0]
    with pytest.raises(Trap, match="step-budget"):
        interpret(fn, [1], step_budget=1000)


def test_interpret_math_traps():
    fn = parse_program("fn f(a) {\n  x = a[0]\n  r = log(x)\n  return r\n}\n").functions[0]
    with pytest.raises(Trap, match="math-domain"):
        interpret(fn, [0])
    fn = parse_program("fn f(a) {\n  x = a[0]\n  r = sqrt(x)\n  return r\n}\n").functions[0]
    with pytest.raises(Trap, match="math-domain"):
        interpret(fn, [-4])


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("body,x,kind,line", [
    (["y = exp(x)", "z = exp(y)", "return z"], 400.0, "overflow", 4),
    (["y = exp(x)", "return y"], 800.0, "overflow", 3),
    (["y = pow(x, 400)", "return y"], 10.0, "overflow", 3),
    (["y = floor(x)", "return y"], INF, "overflow", 3),
    (["y = floor(x)", "return y"], NAN, "math-domain", 3),
    (["y = x % 3", "return y"], INF, "math-domain", 3),
    (["return x % 3"], INF, "math-domain", 3),
    (["y = a[x]", "return y"], INF, "bad-index", 3),
    (["y = a[x]", "return y"], NAN, "bad-index", 3),
    (["a[x] = 1", "return x"], INF, "bad-index", 3),
    (["a[x] = 1", "return x"], NAN, "bad-index", 3),
])
def test_interpret_float_faults_trap_with_kind_and_line(body, x, kind, line):
    src = "fn f(a) {\n  x = a[0]\n" + "".join(f"  {s}\n" for s in body) + "}\n"
    fn = parse_program(src).functions[0]
    with pytest.raises(Trap) as info:
        interpret(fn, [x])
    assert (info.value.kind, info.value.line) == (kind, line)


def test_interpret_rem_is_floating():
    fn = parse_program("fn f(a) {\n  x = a[0]\n  return x % 2.5\n}\n").functions[0]
    assert interpret(fn, [6]) == pytest.approx(1.0)


def test_interpret_pure_and_deterministic():
    fn = parse_program(AVG_SOURCE).functions[0]
    data = [3, 5, 9]
    first = interpret(fn, data)
    assert interpret(fn, data) == first
    assert data == [3, 5, 9]  # caller's list untouched


def test_comparison_statement_value():
    src = "fn f(a) {\n  x = a[0]\n  c = x > 3\n  return c\n}\n"
    fn = parse_program(src).functions[0]
    assert interpret(fn, [5]) == 1.0
    assert interpret(fn, [2]) == 0.0
    cfg = lower_to_cfg(fn)
    assert NodeOp.GT in cfg.ops


def test_descending_for_loop():
    src = ("fn f(a) {\n  s = 0\n  n = len(a)\n  m = n - 1\n"
           "  for i = m; i >= 0; i = i - 1 {\n    v = a[i]\n    s = s + v\n  }\n"
           "  return s\n}\n")
    fn = parse_program(src).functions[0]
    assert interpret(fn, [1, 2, 3]) == 6.0


def _random_program(rng: random.Random) -> str:
    """Generates a structurally valid function from known-good templates."""
    lines = ["fn f(a) {", "  acc = 0", "  n = len(a)"]
    label_counter = 0
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["line", "for", "while", "guard"])
        if kind == "line":
            lines.append(f"  acc = acc + {rng.randint(1, 9)}")
        elif kind == "for":
            op = rng.choice(["+", "*"])
            lines += [
                f"  for i = 0; i < len(a); i = i + 1 {{",
                "    v = a[i]",
                f"    acc = acc {op} v",
                "  }",
            ]
        elif kind == "while":
            label_counter += 1
            top, done = f"T{label_counter}", f"D{label_counter}"
            lines += [
                "  j = 0",
                f"{top}:",
                f"  if j >= n goto {done}",
                "  w = a[j]",
                "  acc = acc + w",
                "  j = j + 1",
                f"  goto {top}",
                f"{done}:",
                "  acc = acc + 0",
            ]
        else:
            label_counter += 1
            out = f"G{label_counter}"
            lines += [
                f"  if acc >= 1000 goto {out}",
                "  acc = acc + 1",
                f"{out}:",
                "  acc = acc * 1",
            ]
    lines += ["  return acc", "}"]
    return "\n".join(lines) + "\n"


def test_fuzz_lowering_always_validates():
    rng = random.Random(7)
    for _ in range(60):
        src = _random_program(rng)
        prog = parse_program(src)
        cfg = lower_to_cfg(prog.functions[0])
        assert validate(cfg) == [], src
        interpret(prog.functions[0], [1.0, 2.0, 3.0])
