"""Cross-module invariants checked on the real bundled corpus."""

import json
import re
import sys
import threading
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrkit.cfg import emit_dot, parse_dot, validate
from mrkit.corpus import data_dir
from mrkit.features import node_features, path_features
from mrkit.kernels import gram_matrix, random_walk_kernel
from mrkit.mir import MirError, Trap, interpret, lower_to_cfg, parse_program
from mrkit.oracle import _CAUSES, MR_IDS, OracleParams, label_method
from mrkit.svm import SvmModel, SvmParams, decision_value, kkt_report, train_svm


def test_dot_node_order_follows_file_order():
    cfg = parse_dot((data_dir() / "cfg" / "average.dot").read_text())
    assert cfg.ops[0].value == "start"
    assert cfg.ops[-1].value == "exit"
    assert [op.value for op in cfg.ops[:6]] == [
        "start", "assi", "assi", "goto", "assi", "if"]


def test_nf_keys_carry_real_degrees(corpus_graphs):
    for cfg in corpus_graphs.values():
        degrees = {(cfg.ops[i].value, cfg.in_degree(i), cfg.out_degree(i))
                   for i in range(cfg.node_count)}
        for key in node_features(cfg).entries:
            op, din, dout = key.rsplit("-", 2)
            assert (op, int(din), int(dout)) in degrees


def test_normalized_kernels_stay_in_unit_interval(corpus_graphs):
    names = sorted(corpus_graphs)[:12]
    for i, a in enumerate(names):
        for b in names[i:]:
            v = random_walk_kernel(corpus_graphs[a], corpus_graphs[b])
            assert -1e-12 <= v <= 1.0 + 1e-12


def test_kkt_audit_on_corpus_models(sourced, corpus_graphs):
    graphs = [corpus_graphs[e.name] for e in sourced.entries]
    gram = gram_matrix(graphs, "rwk")
    params = SvmParams()
    for mr in MR_IDS:
        y = [1 if e.labels[mr] else -1 for e in sourced.entries]
        model = train_svm(gram.values, y, params)
        assert kkt_report(gram.values, y, model, params) <= params.kkt_tol
        # box constraint and dual balance
        assert abs(sum(model.coef)) <= 1e-6
        assert all(0.0 < abs(c) <= params.C + 1e-9 for c in model.coef)


def test_interpreter_pure_across_threads(corpus_functions):
    fn = corpus_functions["shell_sort"]
    data = [9.0, 3.0, 7.0, 1.0, 4.0, 8.0]
    expected = interpret(fn, data)
    results = []
    errors = []

    def worker():
        try:
            for _ in range(20):
                results.append(interpret(fn, data))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert all(r == expected for r in results)


def test_interpreter_first_calls_race_safely(sourced):
    # Code is generated on a function's first call; six threads make that
    # first call at once on a freshly parsed function, in each of 20 rounds
    # (one round alone missed a half-published function in 3 of 5 tries).
    entry = next(e for e in sourced.entries if e.name == "shell_sort")
    data = [9.0, 3.0, 7.0, 1.0, 4.0, 8.0]
    expected = interpret(sourced.load_function(entry), data)
    results = []
    errors = []

    def worker(fn, start):
        try:
            start.wait(timeout=10)
            for _ in range(5):
                results.append(interpret(fn, data))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            fn, start = sourced.load_function(entry), threading.Barrier(6)
            threads = [threading.Thread(target=worker, args=(fn, start)) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert results == [expected] * 600


def test_model_json_round_trip_with_empty_support():
    model = SvmModel(coef=(), support=(), bias=0.25, n_train=3)
    restored = SvmModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert restored == model
    assert decision_value(restored, np.ones(3)) == 0.25


def test_cross_validate_report_embeds_configuration(sourced, corpus_graphs):
    from mrkit.evaluation import cross_validate, stratified_kfold

    entries = list(sourced.entries)[:20]
    graphs = [corpus_graphs[e.name] for e in entries]
    gram = gram_matrix(graphs, "rwk")
    labels = [1 if e.labels["PER"] else 0 for e in entries]
    folds = stratified_kfold(labels, 4, seed=11)
    report = cross_validate(gram, labels, folds,
                            SvmParams(), mr="PER",
                            featurization="rwk")
    payload = json.loads(json.dumps(asdict(report)))
    assert payload["config"]["k"] == 4
    assert payload["config"]["fold_seed"] == 11
    assert payload["config"]["svm"] == {
        "C": 1.0, "kkt_tol": 1e-3, "max_passes": 100}


# ---------------------------------------------------------------------------
# Program fuzzer: well-formed functions from the grammar in docs/formats.md.

_VARS = ("x", "y", "z", "i")
# a literal of 400 nines parses to inf, one of -0 to -0.0
_CONSTS = ("0", "1", "2", "3", "-1", "0.5", "2.5", "-0", "9" * 400)
_CMPS = ("==", "!=", "<=", ">=", "<", ">")
_ARITH = ("+", "-", "*", "/", "%")
_CALLS = ("sqrt", "log", "exp", "abs", "floor")
_FUZZ_BUDGETS = (1, 2, 3, 5, 8, 13, 40, 100, 2_000)
_FUZZ_VALUES = st.one_of(
    st.integers(-5, 12).map(float),
    st.sampled_from((0.5, -0.0, 1e308, -1e308, float("inf"), float("nan"))),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def mir_programs(draw) -> str:
    """Source of one function: assigns of every rhs kind, loads and stores,
    ``for`` over ``len(a)`` and over atoms, ``if … goto`` to any statement
    but its own fall-through (backward ones make loops, some irreducible,
    and some jump into or out of a ``for`` body) and a final return of an
    atom or of a binary op."""
    assigned: set[str] = set()
    read: set[str] = set()
    labels = iter(f"L{k}" for k in range(1000))
    statements: list[list] = []  # every [labels, body] item, at any depth
    jumps: list[tuple[list, int]] = []  # (items, position) of each if

    def atom() -> str:
        token = draw(st.one_of(st.sampled_from(_VARS), st.sampled_from(_CONSTS)))
        if token in _VARS:
            read.add(token)
        return token

    def assign() -> list[str]:
        kind = draw(st.sampled_from(("atom", "load", "store", "len", "bin", "cmp",
                                     "call", "pow")))
        if kind == "store":
            return [f"a[{atom()}] = {atom()}"]
        dst = draw(st.sampled_from(_VARS))
        assigned.add(dst)
        rhs = {"atom": lambda: atom(),
               "load": lambda: f"a[{atom()}]",
               "len": lambda: "len(a)",
               "bin": lambda: f"{atom()} {draw(st.sampled_from(_ARITH))} {atom()}",
               "cmp": lambda: f"{atom()} {draw(st.sampled_from(_CMPS))} {atom()}",
               "call": lambda: f"{draw(st.sampled_from(_CALLS))}({atom()})",
               "pow": lambda: f"pow({atom()}, {atom()})"}[kind]()
        return [f"{dst} = {rhs}"]

    def loop(depth: int) -> tuple[str, list]:
        var = draw(st.sampled_from(_VARS))
        assigned.add(var)
        init = atom()
        bound = "len(a)" if draw(st.booleans()) else atom()
        head = (f"for {var} = {init}; {var} {draw(st.sampled_from(_CMPS))} {bound}; "
                f"{var} = {var} {draw(st.sampled_from(_ARITH))} {atom()} {{")
        return head, block(depth + 1, None)

    def block(depth: int, tail: list[str] | None) -> list[list]:
        # items are [labels, body]: lines, a (head, items) loop, or None for
        # an if whose target is drawn once every statement exists
        items = []
        for _ in range(draw(st.integers(0 if tail is None else 1, 4))):
            kind = draw(st.sampled_from(("assign", "assign", "if", "for")))
            if kind == "for" and depth < 2:
                items.append([[], loop(depth)])
            elif kind == "if":
                jumps.append((items, len(items)))
                items.append([[], None])
            else:
                items.append([[], assign()])
        if tail is not None:
            items.append([[], tail])
        statements.extend(items)
        return items

    def render(items: list[list]) -> list[str]:
        lines = []
        for lbls, body in items:
            lines += [f"{l}:" for l in lbls]
            if isinstance(body, tuple):
                lines += [body[0]] + ["  " + line for line in render(body[1])] + ["}"]
            else:
                lines += body
        return lines

    ret = (f"return {atom()}" if draw(st.booleans())
           else f"return {atom()} {draw(st.sampled_from(_ARITH))} {atom()}")
    body = block(0, [ret])
    for items, k in jumps:
        # half of them forward in their own block, as a loop would exit
        fall_through = items[k + 1] if k + 1 < len(items) else None
        targets = items[k + 2:]
        if not targets or draw(st.booleans()):
            targets = [item for item in statements if item is not fall_through]
        target = targets[draw(st.integers(0, len(targets) - 1))]
        if not target[0]:
            target[0].append(next(labels))
        items[k][1] = [f"if {atom()} {draw(st.sampled_from(_CMPS))} {atom()} "
                       f"goto {target[0][0]}"]
    prelude = [f"{v} = {draw(st.sampled_from(_CONSTS))}" for v in sorted(read - assigned)]
    return "fn f(a) {\n" + "".join(f"  {line}\n" for line in prelude + render(body)) + "}\n"


@settings(max_examples=250, deadline=None, derandomize=True)
@given(mir_programs(), st.lists(_FUZZ_VALUES, max_size=6), st.sampled_from(_FUZZ_BUDGETS))
def test_generated_programs_parse_lower_and_run_alike(both_paths, source, values, budget):
    program = parse_program(source)
    fn = program.functions[0]
    cfg = lower_to_cfg(fn)
    assert validate(cfg) == [], source
    assert parse_dot(emit_dot(cfg)) == cfg
    assert node_features(cfg).total() == cfg.node_count
    assert path_features(cfg).total() == 2 * cfg.node_count

    generated, reference = both_paths(fn, values, budget)
    assert generated == reference, source


# Budgets from 1 up to this cap cover every call of most generated programs
# that does not loop for ever.
_SWEEP_CAP = 400


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mir_programs(), st.lists(_FUZZ_VALUES, max_size=6))
def test_every_budget_until_a_call_fits_matches_the_reference(both_paths, source, values):
    # the generated code settles an overrun after its pass, by the reach of
    # each op; each budget that ends the call in a pass tests one reach
    fn = parse_program(source).functions[0]
    for budget in range(1, _SWEEP_CAP + 1):
        generated, reference = both_paths(fn, values, budget)
        assert generated == reference, (source, values, budget)
        if generated[:2] != ("trap", "step-budget"):
            break


# the kinds in docs/formats.md's trap table, and every other witness cause
_FORMATS = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
_TRAP_KINDS = set(re.findall(r"^\| `([a-z-]+)` \|",
                             _FORMATS[_FORMATS.index("| kind | raised by |"):].split("\n\n")[0],
                             re.M))
_CLEAN_CAUSES = set(_CAUSES.values()) | {"non-finite output"}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mir_programs())
def test_label_method_labels_every_generated_program(source):
    # nothing escapes label_method: a fault of the method is a trap, and
    # its witness names a kind from the table
    fn = parse_program(source).functions[0]
    report = label_method(fn, OracleParams(trials=3, step_budget=2000))
    for outcome in report.outcomes.values():
        if outcome.witness is None:
            assert outcome.label
            continue
        cause = outcome.witness.cause
        trap = re.match(r"trap: ([a-z-]+): ", cause)
        assert (trap[1] in _TRAP_KINDS) if trap else (cause in _CLEAN_CAUSES), (source, cause)


_BUNDLED_SOURCES = sorted((data_dir() / "corpus").glob("*.mir"))
_KEYWORDS = ("fn", "if", "goto", "return", "for", "len", "pow", "sqrt", "log", "exp",
             "abs", "floor")
_INSERTED_LINES = ("L:", "LOOP:", "  goto L", "  goto LOOP",
                   "  for k = 0; k < len(a); k = k + 1 {", "  for k = 0; k < 3; k = k + 1 {",
                   "}",
                   # every right-hand-side fault: returns of a form other than
                   # an atom or an arithmetic op, unknown arrays, a call of a
                   # non-builtin, reserved words in a for header
                   "  return a[0]", "  return len(a)", "  return pow(k, 2)",
                   "  return sqrt(k)", "  return k < 1",
                   "  k = b[0]", "  b[0] = 1", "  k = len(b)", "  k = f(1)",
                   "  for k = len; k < 3; k = k + 1 {", "  for k = 0; k < fn; k = k + 1 {",
                   "  for k = 0; k < 3; k = k + pow {", "  for k = len; k < fn; k = k + 1 {")


@st.composite
def mutated_sources(draw) -> str:
    """A bundled source, or two joined, with one to three lines deleted,
    duplicated or swapped, a token replaced by a keyword, or a label, goto,
    for or closing-brace line inserted.  Each bundled source holds one
    function, so only in a joined pair can a deleted ``}`` run a function
    into the next one's header."""
    lines = draw(st.sampled_from(_BUNDLED_SOURCES)).read_text().splitlines()
    if draw(st.booleans()):
        lines += draw(st.sampled_from(_BUNDLED_SOURCES)).read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("delete", "duplicate", "swap", "keyword", "insert")))
        if kind == "delete" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "keyword":
            tokens = list(re.finditer(r"[A-Za-z_]\w*|\d+", lines[i]))
            if tokens:
                t = tokens[draw(st.integers(0, len(tokens) - 1))]
                lines[i] = lines[i][:t.start()] + draw(st.sampled_from(_KEYWORDS)) \
                    + lines[i][t.end():]
        elif kind == "insert":
            lines.insert(i, draw(st.sampled_from(_INSERTED_LINES)))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_sources())
def test_mutated_sources_parse_to_runnable_functions_or_raise_mir_error(source):
    try:
        program = parse_program(source)
    except MirError:
        return
    for fn in program.functions:
        assert validate(lower_to_cfg(fn)) == [], source
        try:
            assert type(interpret(fn, [3.0, -1.0, 2.0, 0.5], 10_000)) is float
        except Trap:
            pass
