import collections
import random

import pytest

from mrkit.cfg import NodeOp, validate
from mrkit.codegen import _op_source
from mrkit.mir import MirError, Trap, _compile, interpret, lower_to_cfg, parse_program

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


@pytest.mark.parametrize("body", [
    ["a = 1", "x = 2", "return x"],
    ["for a = 0; a < 3; a = a + 1 {", "}", "return 0"],
])
def test_write_to_the_array_parameter_rejected(body):
    src = "fn f(a) {\n" + "".join(f"  {line}\n" for line in body) + "}\n"
    with pytest.raises(MirError) as info:
        parse_program(src)
    assert str(info.value) == "line 2: array 'a' used as a scalar"


def test_unknown_array_rejected():
    with pytest.raises(MirError, match="unknown array"):
        parse_program("fn f(a) {\n  x = b[0]\n  return x\n}\n")


@pytest.mark.parametrize("body,message", [
    # a duplicate label wins over an undefined label, even an earlier one
    (["x = 1", "if x > 0 goto M", "L: x = 2", "L: return x"],
     "line 5: duplicate label 'L'"),
    # an undefined label wins over a variable that is never assigned
    (["x = y", "goto M"], "line 3: undefined label 'M'"),
    # a for's increment is checked before its body
    (["for i = 0; i < 3; i = i + k {", "  x = z", "}", "return 0"],
     "line 2: variable 'k' is never assigned"),
    # name checks come before the structural ones
    (["x = y"], "line 2: variable 'y' is never assigned"),
    (["return 0", "x = y", "return x"], "line 3: variable 'y' is never assigned"),
    # a syntax error wins over a duplicate label, even a later one
    (["L: x = 1", "L: x = 2", "return x +"], "line 4: cannot parse expression 'x +'"),
    # a for header's init is checked before its body
    (["for i = len; i < 3; i = i + 1 {", "  x = = 1", "}", "return 0"],
     "line 2: reserved word 'len' used as a value"),
    # a write of the array parameter is checked with the reads, by line
    (["x = y", "a = x", "return x"], "line 2: variable 'y' is never assigned"),
    (["a = 1", "x = y", "return x"], "line 2: array 'a' used as a scalar"),
    # the next function's header is this one's missing '}', met at once
    (["L: x = 1", "L: return x", "fn g(b) {", "return 1"], "line 1: missing closing '}'"),
    (["for i = 0; i < 3; i = i + 1 {", "x = y", "fn g(b) {", "return +", "}", "return 0"],
     "line 1: missing closing '}'"),
    # a for header's init is read before its bound
    (["for i = len; i < fn; i = i + 1 {", "}", "return 0"],
     "line 2: reserved word 'len' used as a value"),
    # a return of another form is refused after its operands are read, and
    # before a deferred name check; its array is never checked
    (["x = 1", "return b[x]"], "line 3: return takes an atom or a single arithmetic op"),
    (["x = 1", "return pow(x, len)"], "line 3: reserved word 'len' used as a value"),
    (["return sqrt(y)"], "line 2: return takes an atom or a single arithmetic op"),
    # a load reads its index before its array, a store checks its array first
    (["x = b[len]", "return x"], "line 2: reserved word 'len' used as a value"),
    (["b[len] = 1", "return 0"], "line 2: unknown array 'b'"),
    # a for header reads a len bound's array, then its loop variable,
    # refused when reserved as an assignment's target is, then its init
    (["for sqrt = 0; sqrt < len(b); sqrt = sqrt + 1 {", "}", "return 0"],
     "line 2: unknown array 'b'"),
    (["for len = exp; len < 3; len = len + 1 {", "}", "return 0"],
     "line 2: reserved word 'len' used as a variable"),
])
def test_first_of_two_faults_is_reported(body, message):
    src = "fn f(a) {\n" + "".join(f"  {line}\n" for line in body) + "}\n"
    with pytest.raises(MirError) as info:
        parse_program(src)
    assert str(info.value) == message


def nested_fors(depth: int) -> str:
    lines = ["fn deep(a) {", "s = 0"]
    lines += [f"for i{k} = 0; i{k} < 1; i{k} = i{k} + 1 {{" for k in range(depth)]
    lines += ["s = s + 1"] + ["}"] * depth + ["return s", "}"]
    return "\n".join(lines) + "\n"


def test_for_nesting_is_capped():
    assert interpret(parse_program(nested_fors(100)).functions[0], [1.0]) == 1.0
    for depth in (101, 600):
        with pytest.raises(MirError) as info:
            parse_program(nested_fors(depth))
        assert str(info.value) == "line 103: for loops nested more than 100 deep"


def test_lower_avg_label_multiset():
    fn = parse_program(AVG_SOURCE).functions[0]
    cfg = lower_to_cfg(fn)
    counts = {op.value: n for op, n in cfg.label_multiset().items()}
    assert counts == {"start": 1, "assi": 7, "goto": 1, "if": 1,
                      "add": 2, "div": 1, "exit": 1}
    assert validate(cfg) == []


def test_lower_labels_every_statement_form():
    src = """
fn every(a) {
  x = 1
  n = len(a)
  t = a[0]
  a[0] = t
  s = x + t
  s = s - x
  s = s * x
  s = s / x
  s = s % n
  c = s == x
  c = s != x
  c = s <= x
  c = s >= x
  c = s < x
  c = s > x
  p = pow(s, x)
  r = sqrt(p)
  for i = 0; i < len(a); i = i + 1 {
    s = s + r
  }
  for j = 0; j < n; j = j * 2 {
  }
  if s > c goto L
  goto M
L: return s
M: return s / n
}
"""
    cfg = lower_to_cfg(parse_program(src).functions[0])
    assert [op.value for op in cfg.ops] == [
        "start", "assi", "assi", "assi", "assi",
        "add", "sub", "mul", "div", "rem",
        "eql", "neql", "leql", "geql", "lt", "gt",
        "fcall", "fcall",
        "assi", "goto", "assi", "if", "add", "add",  # for with a len bound
        "assi", "goto", "if", "mul",                 # for with an atom bound
        "if", "goto", "return", "div", "exit"]


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


@pytest.mark.parametrize("src,steps", [
    # s = 0, init, len read, 4 tests, 3 x (2 body + increment + jump), return
    ("  s = 0\n  for i = 0; i < len(v); i = i + 1 {\n    x = v[i]\n    s = s + x\n  }\n"
     "  return s\n", 20),
    # s = 0, init, 4 tests, 3 x (increment + jump), return
    ("  s = 0\n  for i = 0; i < 3; i = i + 1 {\n  }\n  return s\n", 13),
])
def test_step_cost_of_a_for_loop(src, steps):
    fn = parse_program("fn f(v) {\n" + src + "}\n").functions[0]
    assert interpret(fn, [1, 2, 3], step_budget=steps) == (6.0 if "x" in src else 0.0)
    with pytest.raises(Trap, match="step-budget"):
        interpret(fn, [1, 2, 3], step_budget=steps - 1)


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


def test_floor_yields_a_double():
    fn = parse_program("fn f(a) {\n  x = a[0]\n  y = floor(x)\n  return y\n}\n").functions[0]
    result = interpret(fn, [-2.5])
    assert type(result) is float and result == -3.0


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


# The generated code against the reference dispatch loop
# `mir_reference._run`.  Small budgets end calls inside a pass, so they
# test how the generated code settles an overrun after its pass.
STEP_BUDGETS = (1, 2, 3, 5, 8, 13, 40, 100, 1_000_000)
SPECIAL_VALUES = (0.0, -0.0, 1e308, INF, NAN)


def _draw_values(rng: random.Random) -> list[float]:
    values = []
    for _ in range(rng.randint(0, 12)):
        pick = rng.random()
        if pick < 0.5:
            values.append(float(rng.randint(-20, 20)))
        elif pick < 0.8:
            values.append(rng.uniform(-100.0, 100.0))
        else:
            values.append(rng.choice(SPECIAL_VALUES))
    return values


def test_generated_code_matches_reference_loop_on_corpus(corpus_functions, both_paths):
    rng = random.Random(2024)
    kinds = collections.Counter()
    for name in sorted(corpus_functions):
        fn = corpus_functions[name]
        for _ in range(40):
            values = _draw_values(rng)
            for budget in STEP_BUDGETS:
                generated, reference = both_paths(fn, values, budget)
                assert generated == reference, (name, values, budget)
                kinds[generated[1] if generated[0] == "trap" else "value"] += 1
    # every path is exercised: returns, budget traps and value faults
    assert {"value", "step-budget", "bad-index", "division-by-zero",
            "math-domain"} <= set(kinds), kinds


# One basic block of seven ops whose fifth divides by zero.
STRAIGHT_LINE = """
fn straight(a) {
  x = 1
  y = 2
  z = 0
  w = x + y
  v = w / z
  u = v + 1
  return u
}
"""


@pytest.mark.parametrize("budget", [3, 4, 5, 6, 7])
def test_fault_in_an_overrunning_block_wins_only_within_the_budget(both_paths, budget):
    fn = parse_program(STRAIGHT_LINE).functions[0]
    generated, reference = both_paths(fn, [], budget)
    assert generated == reference
    if budget >= 5:
        assert generated[1:3] == ("division-by-zero", 7)
    else:
        assert generated[1:3] == ("step-budget", None)


@pytest.mark.parametrize("name", ["bubble", "selection_sort", "shell_sort", "find_median",
                                  "entropy", "sum"])
def test_every_budget_up_to_the_step_count_matches_the_reference(corpus_functions,
                                                                 both_paths, name):
    # an overrun is settled after its pass, whose ops lie at every reach
    # from the pass start; every budget up to a call's step count and one
    # past it gives the reference's outcome
    fn = corpus_functions[name]
    for values in ([3.0, 1.0, 2.0], [5.0, 0.0, 4.0, 4.0, 9.0], [2.0, 7.0, 0.5, 1.0]):
        budget = 0
        while True:
            budget += 1
            generated, reference = both_paths(fn, values, budget)
            assert generated == reference, (name, values, budget)
            if generated[:2] != ("trap", "step-budget"):
                break
        generated, reference = both_paths(fn, values, budget + 1)
        assert generated == reference == both_paths(fn, values, budget)[0]


def test_the_generated_code_emits_every_op_once(corpus_functions):
    for name, fn in corpus_functions.items():
        lowered = _compile(fn)
        emitted = collections.Counter(pc for pc in lowered.run.__globals__["pc_at"]
                                      if pc is not None)
        expected = {pc: len(_op_source(op)) for pc, op in enumerate(lowered.code)
                    if _op_source(op)}
        assert emitted == expected, name


def _chain_of_conditional_jumps(count: int) -> str:
    # each L<k> is reached only by the jump before it
    lines = ["fn chain(a) {", "  x = a[0]"]
    for k in range(1, count + 1):
        lines += [f"  if x > {k - 1} goto L{k}", f"  return {k - 1}", f"L{k}:"]
    lines += [f"  return {count}", "}"]
    return "\n".join(lines) + "\n"


def test_a_long_chain_of_single_predecessor_jumps_runs(both_paths):
    fn = parse_program(_chain_of_conditional_jumps(200)).functions[0]
    for x in (-1.0, 0.5, 57.0, 199.5, 250.0):
        for budget in (50, 115, 1_000):
            generated, reference = both_paths(fn, [x], budget)
            assert generated == reference, (x, budget)
    assert interpret(fn, [250.0]) == 200.0


def test_sequential_diamonds_generate_code_linear_in_their_ops(both_paths):
    lines = ["fn diamonds(a) {", "  x = a[0]", "  y = 0"]
    for k in range(30):
        lines += [f"  if x > {k} goto T{k}", f"  y = y + {k}", f"  goto M{k}",
                  f"T{k}:", f"  y = y - {k}", f"M{k}:", "  x = x - 1"]
    lines += ["  return y", "}"]
    fn = parse_program("\n".join(lines) + "\n").functions[0]
    lowered = _compile(fn)
    # code that copied each merge block into both of its predecessors
    # would double with every diamond
    assert len(lowered.run.__globals__["pc_at"]) - 1 <= 3 * len(lowered.code)
    for x in (-3.0, 12.0, 40.0):
        generated, reference = both_paths(fn, [x], 1_000)
        assert generated == reference
