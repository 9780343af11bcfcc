"""Minimal three-address language: parser, CFG lowering, interpreter.

Each function takes exactly one numeric array and returns one double; every
statement performs at most one operation, so the lowered CFG has one node
per statement (plus synthetic ``start``/``exit``).  The concrete grammar is
documented in ``docs/formats.md``; the short version:

    fn name(arr) {
      x = 0                        # plain move           -> assi
      t = arr[i]                   # array load           -> assi
      arr[i] = t                   # array store          -> assi
      n = len(arr)                 # length read          -> assi
      s = s + t                    # one arithmetic op    -> add/sub/mul/div/rem
      c = a < b                    # comparison value 0/1 -> lt/leql/gt/geql/eql/neql
      r = sqrt(s)                  # builtin call         -> fcall
      if a < b goto L              # conditional jump     -> if
      goto L                       # unconditional jump   -> goto
      L: ...                       # label (prefix or own line)
      for i = 0; i < len(arr); i = i + 1 { ... }
      return s                     # -> return
      return s / n                 # -> div (the op feeds exit directly)
    }

``for`` is sugar; it lowers to the init -> goto -> (bound read) -> if shape
with the increment node carrying the back edge to the ``if``, which is the
shape feature extraction expects for loop headers.  The interpreter runs
the standard desugaring (test re-evaluated each iteration; a ``len`` bound
is loop-invariant either way).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .cfg import AnnotatedCfg, NodeOp, classify_statement

DEFAULT_STEP_BUDGET = 1_000_000

_BUILTINS = ("sqrt", "log", "exp", "abs", "floor")
_KEYWORDS = frozenset(("fn", "if", "goto", "return", "for", "len", "pow") + _BUILTINS)

_BIN_OPS = ("+", "-", "*", "/", "%")
_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")


class MirError(ValueError):
    """Syntax or structural error in mini-IR source."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Trap(RuntimeError):
    """Runtime fault raised by the interpreter (division by zero, bad
    index, math domain error, overflow, or exhausted step budget)."""

    def __init__(self, kind: str, message: str, line: int | None = None):
        self.kind = kind
        self.line = line
        super().__init__(f"{kind}: {message}" + (f" (line {line})" if line else ""))


# Atoms and right-hand sides are small tagged tuples:
#   atom: ("c", float) | ("v", name)
#   rhs:  ("atom", a) | ("load", idx) | ("len",) | ("bin", op, a, b)
#         | ("cmp", op, a, b) | ("call", fname, a) | ("pow", a, b)


@dataclass
class Assign:
    dst: str
    rhs: tuple
    line: int
    labels: tuple[str, ...] = ()


@dataclass
class Store:
    index: tuple
    value: tuple
    line: int
    labels: tuple[str, ...] = ()


@dataclass
class IfGoto:
    left: tuple
    op: str
    right: tuple
    target: str
    line: int
    labels: tuple[str, ...] = ()


@dataclass
class Goto:
    target: str
    line: int
    labels: tuple[str, ...] = ()


@dataclass
class Return:
    rhs: tuple  # ("atom", a) | ("bin", op, a, b)
    line: int
    labels: tuple[str, ...] = ()


@dataclass
class For:
    var: str
    init: tuple
    cmp: str
    bound: tuple  # ("atom", a) | ("len",)
    incr_op: str
    incr_arg: tuple
    body: list
    line: int
    labels: tuple[str, ...] = ()


Statement = Assign | Store | IfGoto | Goto | Return | For


@dataclass
class Function:
    name: str
    param: str
    body: list
    line: int
    _compiled: "_Compiled | None" = field(default=None, repr=False, compare=False)


@dataclass
class Program:
    functions: list[Function]

    def function(self, name: str) -> Function:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(name)


_NUM = r"-?\d+(?:\.\d+)?"
_NAME = r"[A-Za-z_]\w*"
_ATOM = rf"(?:{_NUM}|{_NAME})"

_FN_RE = re.compile(rf"^fn\s+({_NAME})\s*\(\s*({_NAME})\s*\)\s*\{{$")
_LABEL_PREFIX_RE = re.compile(rf"^({_NAME})\s*:\s*(.*)$")
_STORE_RE = re.compile(rf"^({_NAME})\s*\[\s*({_ATOM})\s*\]\s*=\s*({_ATOM})$")
_ASSIGN_RE = re.compile(rf"^({_NAME})\s*=\s*(.+)$")
_LOAD_RE = re.compile(rf"^({_NAME})\s*\[\s*({_ATOM})\s*\]$")
_LEN_RE = re.compile(rf"^len\s*\(\s*({_NAME})\s*\)$")
_CALL_RE = re.compile(rf"^({_NAME})\s*\(\s*({_ATOM})\s*\)$")
_POW_RE = re.compile(rf"^pow\s*\(\s*({_ATOM})\s*,\s*({_ATOM})\s*\)$")
_CMP_RE = re.compile(rf"^({_ATOM})\s*(==|!=|<=|>=|<|>)\s*({_ATOM})$")
_BIN_RE = re.compile(rf"^({_ATOM})\s*([+*/%-])\s*({_ATOM})$")
_IF_RE = re.compile(
    rf"^if\s+({_ATOM})\s*(==|!=|<=|>=|<|>)\s*({_ATOM})\s+goto\s+({_NAME})$")
_GOTO_RE = re.compile(rf"^goto\s+({_NAME})$")
_RETURN_RE = re.compile(r"^return\s+(.+)$")
_FOR_RE = re.compile(
    rf"^for\s+({_NAME})\s*=\s*({_ATOM})\s*;\s*({_NAME})\s*(==|!=|<=|>=|<|>)\s*"
    rf"(len\s*\(\s*{_NAME}\s*\)|{_ATOM})\s*;\s*({_NAME})\s*=\s*({_NAME})\s*"
    rf"([+*/%-])\s*({_ATOM})\s*\{{$")


def _atom(token: str, line: int) -> tuple:
    if re.fullmatch(_NUM, token):
        return ("c", float(token))
    if token in _KEYWORDS:
        raise MirError(f"reserved word {token!r} used as a value", line)
    return ("v", token)


def _parse_rhs(text: str, line: int) -> tuple:
    text = text.strip()
    if re.fullmatch(_ATOM, text) and text not in _KEYWORDS:
        return ("atom", _atom(text, line))
    m = _LOAD_RE.match(text)
    if m:
        return ("load", m.group(1), _atom(m.group(2), line))
    m = _LEN_RE.match(text)
    if m:
        return ("len", m.group(1))
    m = _POW_RE.match(text)
    if m:
        return ("pow", _atom(m.group(1), line), _atom(m.group(2), line))
    m = _CALL_RE.match(text)
    if m and m.group(1) in _BUILTINS:
        return ("call", m.group(1), _atom(m.group(2), line))
    m = _CMP_RE.match(text)
    if m:
        return ("cmp", m.group(2), _atom(m.group(1), line), _atom(m.group(3), line))
    m = _BIN_RE.match(text)
    if m:
        return ("bin", m.group(2), _atom(m.group(1), line), _atom(m.group(3), line))
    raise MirError(f"cannot parse expression {text!r}", line)


class _FunctionParser:
    """Parses one function body from pre-split source lines."""

    def __init__(self, lines: list[tuple[int, str]], param: str):
        self.lines = lines
        self.pos = 0
        self.param = param

    def _next(self) -> tuple[int, str]:
        if self.pos >= len(self.lines):
            raise MirError("unexpected end of input inside a function",
                           self.lines[-1][0] if self.lines else None)
        item = self.lines[self.pos]
        self.pos += 1
        return item

    def parse_block(self, outer_line: int) -> list:
        stmts: list = []
        pending_labels: list[str] = []
        while True:
            if self.pos >= len(self.lines):
                raise MirError("missing closing '}'", outer_line)
            line_no, text = self._next()
            if text == "}":
                if pending_labels:
                    raise MirError(
                        f"label {pending_labels[0]!r} is not attached to a statement",
                        line_no)
                return stmts
            labels: list[str] = []
            while True:
                m = _LABEL_PREFIX_RE.match(text)
                if m and m.group(1) not in _KEYWORDS:
                    labels.append(m.group(1))
                    text = m.group(2).strip()
                else:
                    break
            if not text:
                pending_labels.extend(labels)
                continue
            labels = pending_labels + labels
            pending_labels = []
            stmt = self.parse_statement(line_no, text)
            stmt.labels = tuple(labels)
            stmts.append(stmt)

    def parse_statement(self, line: int, text: str) -> Statement:
        m = _FOR_RE.match(text)
        if m:
            var, init, test_var, cmp_op, bound_text, inc_dst, inc_src, inc_op, inc_arg = m.groups()
            if test_var != var:
                raise MirError(f"for-loop test must compare the loop variable {var!r}", line)
            if inc_dst != var or inc_src != var:
                raise MirError(f"for-loop increment must update the loop variable {var!r}", line)
            lm = _LEN_RE.match(bound_text)
            if lm:
                if lm.group(1) != self.param:
                    raise MirError(f"unknown array {lm.group(1)!r}", line)
                bound: tuple = ("len",)
            else:
                bound = ("atom", _atom(bound_text, line))
            body = self.parse_block(line)
            return For(var, _atom(init, line), cmp_op, bound,
                       inc_op, _atom(inc_arg, line), body, line)
        m = _IF_RE.match(text)
        if m:
            return IfGoto(_atom(m.group(1), line), m.group(2),
                          _atom(m.group(3), line), m.group(4), line)
        m = _GOTO_RE.match(text)
        if m:
            return Goto(m.group(1), line)
        m = _RETURN_RE.match(text)
        if m:
            body = m.group(1).strip()
            rhs = _parse_rhs(body, line)
            if rhs[0] == "atom":
                return Return(rhs, line)
            if rhs[0] == "bin":
                return Return(rhs, line)
            raise MirError("return takes an atom or a single arithmetic op", line)
        m = _STORE_RE.match(text)
        if m:
            if m.group(1) != self.param:
                raise MirError(f"unknown array {m.group(1)!r}", line)
            return Store(_atom(m.group(2), line), _atom(m.group(3), line), line)
        m = _ASSIGN_RE.match(text)
        if m:
            dst = m.group(1)
            if dst in _KEYWORDS:
                raise MirError(f"reserved word {dst!r} used as a variable", line)
            rhs = _parse_rhs(m.group(2), line)
            if rhs[0] == "load" and rhs[1] != self.param:
                raise MirError(f"unknown array {rhs[1]!r}", line)
            if rhs[0] == "len" and rhs[1] != self.param:
                raise MirError(f"unknown array {rhs[1]!r}", line)
            if rhs[0] == "load":
                rhs = ("load", rhs[2])
            elif rhs[0] == "len":
                rhs = ("len",)
            return Assign(dst, rhs, line)
        raise MirError(f"cannot parse statement {text!r}", line)


def parse_program(text: str) -> Program:
    """Parse mini-IR source into a validated Program.

    Besides syntax, this checks label resolution, variable usage and the
    structural contract (every path ends in ``return``, no unreachable
    statements), so any parsed function lowers to a valid CFG.
    """
    lines: list[tuple[int, str]] = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((idx, stripped))

    functions: list[Function] = []
    pos = 0
    while pos < len(lines):
        line_no, text_line = lines[pos]
        m = _FN_RE.match(text_line)
        if not m:
            raise MirError(f"expected function definition, got {text_line!r}", line_no)
        name, param = m.group(1), m.group(2)
        if any(fn.name == name for fn in functions):
            raise MirError(f"duplicate function name {name!r}", line_no)
        parser = _FunctionParser(lines, param)
        parser.pos = pos + 1
        body = parser.parse_block(line_no)
        pos = parser.pos
        fn = Function(name=name, param=param, body=body, line=line_no)
        _check_function(fn)
        functions.append(fn)
    return Program(functions)


def _walk(stmts: list, visit) -> None:
    for stmt in stmts:
        visit(stmt)
        if isinstance(stmt, For):
            _walk(stmt.body, visit)


def _check_function(fn: Function) -> None:
    labels: dict[str, Statement] = {}
    assigned: set[str] = {fn.param}
    read: list[tuple[str, int]] = []

    def note_atom(atom: tuple, line: int) -> None:
        if atom[0] == "v":
            read.append((atom[1], line))

    def visit(stmt: Statement) -> None:
        for lbl in stmt.labels:
            if lbl in labels:
                raise MirError(f"duplicate label {lbl!r}", stmt.line)
            labels[lbl] = stmt
        if isinstance(stmt, Assign):
            assigned.add(stmt.dst)
            rhs = stmt.rhs
            if rhs[0] == "atom":
                note_atom(rhs[1], stmt.line)
            elif rhs[0] == "load":
                note_atom(rhs[1], stmt.line)
            elif rhs[0] in ("bin", "cmp"):
                note_atom(rhs[2], stmt.line)
                note_atom(rhs[3], stmt.line)
            elif rhs[0] == "call":
                note_atom(rhs[2], stmt.line)
            elif rhs[0] == "pow":
                note_atom(rhs[1], stmt.line)
                note_atom(rhs[2], stmt.line)
        elif isinstance(stmt, Store):
            note_atom(stmt.index, stmt.line)
            note_atom(stmt.value, stmt.line)
        elif isinstance(stmt, IfGoto):
            note_atom(stmt.left, stmt.line)
            note_atom(stmt.right, stmt.line)
        elif isinstance(stmt, Return):
            rhs = stmt.rhs
            if rhs[0] == "atom":
                note_atom(rhs[1], stmt.line)
            else:
                note_atom(rhs[2], stmt.line)
                note_atom(rhs[3], stmt.line)
        elif isinstance(stmt, For):
            assigned.add(stmt.var)
            note_atom(stmt.init, stmt.line)
            if stmt.bound[0] == "atom":
                note_atom(stmt.bound[1], stmt.line)
            note_atom(stmt.incr_arg, stmt.line)

    _walk(fn.body, visit)

    targets: list[tuple[str, int]] = []

    def collect_targets(stmt: Statement) -> None:
        if isinstance(stmt, (IfGoto, Goto)):
            targets.append((stmt.target, stmt.line))

    _walk(fn.body, collect_targets)
    for target, line in targets:
        if target not in labels:
            raise MirError(f"undefined label {target!r}", line)

    for name, line in read:
        if name == fn.param:
            raise MirError(f"array {name!r} used as a scalar", line)
        if name not in assigned:
            raise MirError(f"variable {name!r} is never assigned", line)

    # Structural contract: lower and interpret the diagnostics in source
    # terms. _lower raises MirError for falls-off-end and unreachable code.
    _lower(fn)


# ---------------------------------------------------------------------------
# Lowering to AnnotatedCfg


class _Lowerer:
    def __init__(self, fn: Function):
        self.fn = fn
        self.ops: list[NodeOp] = []
        self.lines: list[int | None] = []
        self.edges: list[tuple[int, int]] = []
        self.label_nodes: dict[str, int] = {}
        self.jump_fixups: list[tuple[int, str, int, bool]] = []  # node, label, line, conditional
        self.return_nodes: list[int] = []

    def emit(self, token: str, line: int | None) -> int:
        self.ops.append(classify_statement(token))
        self.lines.append(line)
        return len(self.ops) - 1

    def edge(self, a: int, b: int) -> None:
        self.edges.append((a, b))

    def lower_block(self, stmts: list) -> tuple[int | None, list[int]]:
        entry: int | None = None
        open_tails: list[int] = []
        first = True
        for stmt in stmts:
            stmt_entry, tails = self.lower_statement(stmt)
            for lbl in stmt.labels:
                self.label_nodes[lbl] = stmt_entry
            for t in open_tails:
                self.edge(t, stmt_entry)
            if first:
                entry = stmt_entry
                first = False
            open_tails = tails
        return entry, open_tails

    def lower_statement(self, stmt: Statement) -> tuple[int, list[int]]:
        if isinstance(stmt, Assign):
            rhs = stmt.rhs
            if rhs[0] == "bin":
                node = self.emit(rhs[1], stmt.line)
            elif rhs[0] == "cmp":
                node = self.emit(rhs[1], stmt.line)
            elif rhs[0] in ("call", "pow"):
                node = self.emit("invoke", stmt.line)
            else:
                node = self.emit("=", stmt.line)
            return node, [node]
        if isinstance(stmt, Store):
            node = self.emit("=", stmt.line)
            return node, [node]
        if isinstance(stmt, IfGoto):
            node = self.emit("if", stmt.line)
            self.jump_fixups.append((node, stmt.target, stmt.line, True))
            return node, [node]
        if isinstance(stmt, Goto):
            node = self.emit("goto", stmt.line)
            self.jump_fixups.append((node, stmt.target, stmt.line, False))
            return node, []
        if isinstance(stmt, Return):
            rhs = stmt.rhs
            node = self.emit("return" if rhs[0] == "atom" else rhs[1], stmt.line)
            self.return_nodes.append(node)
            return node, []
        if isinstance(stmt, For):
            init = self.emit("=", stmt.line)
            goto = self.emit("goto", stmt.line)
            self.edge(init, goto)
            prep = None
            if stmt.bound[0] == "len":
                prep = self.emit("=", stmt.line)
                self.edge(goto, prep)
            if_node = self.emit("if", stmt.line)
            self.edge(prep if prep is not None else goto, if_node)
            body_entry, body_tails = self.lower_block(stmt.body)
            incr = self.emit(stmt.incr_op, stmt.line)
            self.edge(if_node, body_entry if body_entry is not None else incr)
            for t in body_tails:
                self.edge(t, incr)
            self.edge(incr, if_node)
            return init, [if_node]
        raise AssertionError(f"unhandled statement {stmt!r}")


def _lower(fn: Function) -> tuple[AnnotatedCfg, list[int | None]]:
    low = _Lowerer(fn)
    start = low.emit(":=", fn.line)
    entry, tails = low.lower_block(fn.body)
    if entry is None:
        raise MirError(f"function {fn.name!r} has an empty body", fn.line)
    low.edge(start, entry)
    if tails:
        raise MirError(
            f"control can fall off the end of function {fn.name!r}",
            low.lines[tails[0]])
    if not low.return_nodes:
        raise MirError(f"function {fn.name!r} never returns", fn.line)
    for node, label, line, conditional in low.jump_fixups:
        target = low.label_nodes.get(label)
        if target is None:
            raise MirError(f"undefined label {label!r}", line)
        if (node, target) in low.edges:
            raise MirError("conditional jump to its own fall-through", line)
        low.edge(node, target)
    exit_node = low.emit("exit", None)
    for node in low.return_nodes:
        low.edge(node, exit_node)

    cfg = AnnotatedCfg(name=fn.name, ops=tuple(low.ops), edges=tuple(low.edges))

    from .cfg import validate

    for diag in validate(cfg):
        line = low.lines[diag.node] if diag.node is not None else None
        if "unreachable from start" in diag.message:
            raise MirError("unreachable statement", line)
        if "exit unreachable" in diag.message:
            raise MirError("statement cannot reach a return", line)
        raise MirError(f"invalid control flow: {diag.message}", line)
    return cfg, low.lines


def lower_to_cfg(fn: Function) -> AnnotatedCfg:
    """Lower a parsed function to its annotated CFG (always valid)."""
    return _lower(fn)[0]


# ---------------------------------------------------------------------------
# Interpreter

_MOVC, _MOV, _LOAD, _STORE, _LEN, _BIN, _CMP, _CALL, _POW, _JMP, _JIF, _RET, _RETBIN = range(13)

_BIN_INDEX = {op: i for i, op in enumerate(_BIN_OPS)}
_CMP_INDEX = {op: i for i, op in enumerate(_CMP_OPS)}


@dataclass
class _Compiled:
    code: list[tuple]
    n_slots: int


class _Compiler:
    def __init__(self, fn: Function):
        self.fn = fn
        self.slots: dict[str, int] = {}
        self.code: list[tuple] = []
        self.label_pcs: dict[str, int] = {}
        self.fixups: list[tuple[int, str]] = []

    def slot(self, name: str) -> int:
        if name not in self.slots:
            self.slots[name] = len(self.slots)
        return self.slots[name]

    def operand(self, atom: tuple) -> tuple[int, float | int]:
        if atom[0] == "c":
            return 0, atom[1]
        return 1, self.slot(atom[1])

    def compile_block(self, stmts: list) -> None:
        for stmt in stmts:
            at = len(self.code)
            for lbl in stmt.labels:
                self.label_pcs[lbl] = at
            self.compile_statement(stmt)

    def compile_statement(self, stmt: Statement) -> None:
        code = self.code
        if isinstance(stmt, Assign):
            dst = self.slot(stmt.dst)
            rhs = stmt.rhs
            if rhs[0] == "atom":
                kind, val = self.operand(rhs[1])
                code.append((_MOVC, dst, val) if kind == 0 else (_MOV, dst, val))
            elif rhs[0] == "load":
                code.append((_LOAD, dst) + self.operand(rhs[1]) + (stmt.line,))
            elif rhs[0] == "len":
                code.append((_LEN, dst))
            elif rhs[0] == "bin":
                code.append((_BIN, dst, _BIN_INDEX[rhs[1]])
                            + self.operand(rhs[2]) + self.operand(rhs[3]) + (stmt.line,))
            elif rhs[0] == "cmp":
                code.append((_CMP, dst, _CMP_INDEX[rhs[1]])
                            + self.operand(rhs[2]) + self.operand(rhs[3]))
            elif rhs[0] == "call":
                code.append((_CALL, dst, rhs[1]) + self.operand(rhs[2]) + (stmt.line,))
            elif rhs[0] == "pow":
                code.append((_POW, dst) + self.operand(rhs[1])
                            + self.operand(rhs[2]) + (stmt.line,))
        elif isinstance(stmt, Store):
            code.append((_STORE,) + self.operand(stmt.index)
                        + self.operand(stmt.value) + (stmt.line,))
        elif isinstance(stmt, IfGoto):
            pc = len(code)
            self.fixups.append((pc, stmt.target))
            code.append((_JIF, _CMP_INDEX[stmt.op])
                        + self.operand(stmt.left) + self.operand(stmt.right) + (-1,))
        elif isinstance(stmt, Goto):
            pc = len(code)
            self.fixups.append((pc, stmt.target))
            code.append((_JMP, -1))
        elif isinstance(stmt, Return):
            rhs = stmt.rhs
            if rhs[0] == "atom":
                code.append((_RET,) + self.operand(rhs[1]))
            else:
                code.append((_RETBIN, _BIN_INDEX[rhs[1]])
                            + self.operand(rhs[2]) + self.operand(rhs[3]) + (stmt.line,))
        elif isinstance(stmt, For):
            var = self.slot(stmt.var)
            kind, val = self.operand(stmt.init)
            code.append((_MOVC, var, val) if kind == 0 else (_MOV, var, val))
            if stmt.bound[0] == "len":
                bound_slot = self.slot(f"$bound{len(code)}")
                code.append((_LEN, bound_slot))
                bound_operand: tuple = (1, bound_slot)
            else:
                bound_operand = self.operand(stmt.bound[1])
            test_pc = len(code)
            # Negated test jumps past the loop; payload patched after the body.
            neg = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
            exit_jump_pc = len(code)
            code.append((_JIF, _CMP_INDEX[neg[stmt.cmp]], 1, var)
                        + bound_operand + (-1,))
            self.compile_block(stmt.body)
            code.append((_BIN, var, _BIN_INDEX[stmt.incr_op], 1, var)
                        + self.operand(stmt.incr_arg) + (stmt.line,))
            code.append((_JMP, test_pc))
            after = len(code)
            op = code[exit_jump_pc]
            code[exit_jump_pc] = op[:-1] + (after,)
        else:
            raise AssertionError(f"unhandled statement {stmt!r}")


def _compile(fn: Function) -> _Compiled:
    if fn._compiled is None:
        comp = _Compiler(fn)
        comp.compile_block(fn.body)
        for pc, label in comp.fixups:
            target = comp.label_pcs[label]
            op = comp.code[pc]
            comp.code[pc] = op[:-1] + (target,) if op[0] == _JIF else (_JMP, target)
        fn._compiled = _Compiled(code=comp.code, n_slots=len(comp.slots))
    return fn._compiled


def interpret(fn: Function, values, step_budget: int = DEFAULT_STEP_BUDGET) -> float:
    """Run a function on one input array; deterministic, side-effect free.

    Raises :class:`Trap` for division by zero, out-of-range, fractional or
    non-finite indices, math domain errors, overflow, and when
    ``step_budget`` is exhausted; every runtime fault is a Trap.
    """
    compiled = _compile(fn)
    code = compiled.code
    slots = [0.0] * compiled.n_slots
    arr = [float(v) for v in values]
    n = len(arr)
    pc = 0
    steps = 0
    try:
        while True:
            steps += 1
            if steps > step_budget:
                raise Trap("step-budget", f"exceeded {step_budget} steps in {fn.name!r}")
            op = code[pc]
            kind = op[0]
            if kind == _BIN:
                a = op[4] if op[3] == 0 else slots[op[4]]
                b = op[6] if op[5] == 0 else slots[op[6]]
                o = op[2]
                if o == 0:
                    slots[op[1]] = a + b
                elif o == 1:
                    slots[op[1]] = a - b
                elif o == 2:
                    slots[op[1]] = a * b
                elif o == 3:
                    if b == 0.0:
                        raise Trap("division-by-zero", f"{a} / 0", op[7])
                    slots[op[1]] = a / b
                else:
                    if b == 0.0:
                        raise Trap("division-by-zero", f"{a} % 0", op[7])
                    slots[op[1]] = math.fmod(a, b)
                pc += 1
            elif kind == _LOAD:
                idx = op[3] if op[2] == 0 else slots[op[3]]
                i = int(idx)
                if idx != i:
                    raise Trap("bad-index", f"fractional index {idx}", op[4])
                if not 0 <= i < n:
                    raise Trap("bad-index", f"index {i} out of range for length {n}", op[4])
                slots[op[1]] = arr[i]
                pc += 1
            elif kind == _JIF:
                a = op[3] if op[2] == 0 else slots[op[3]]
                b = op[5] if op[4] == 0 else slots[op[5]]
                o = op[1]
                if o == 0:
                    taken = a == b
                elif o == 1:
                    taken = a != b
                elif o == 2:
                    taken = a <= b
                elif o == 3:
                    taken = a >= b
                elif o == 4:
                    taken = a < b
                else:
                    taken = a > b
                pc = op[6] if taken else pc + 1
            elif kind == _MOV:
                slots[op[1]] = slots[op[2]]
                pc += 1
            elif kind == _MOVC:
                slots[op[1]] = op[2]
                pc += 1
            elif kind == _CMP:
                a = op[4] if op[3] == 0 else slots[op[4]]
                b = op[6] if op[5] == 0 else slots[op[6]]
                o = op[2]
                if o == 0:
                    r = a == b
                elif o == 1:
                    r = a != b
                elif o == 2:
                    r = a <= b
                elif o == 3:
                    r = a >= b
                elif o == 4:
                    r = a < b
                else:
                    r = a > b
                slots[op[1]] = 1.0 if r else 0.0
                pc += 1
            elif kind == _STORE:
                idx = op[2] if op[1] == 0 else slots[op[2]]
                i = int(idx)
                if idx != i:
                    raise Trap("bad-index", f"fractional index {idx}", op[5])
                if not 0 <= i < n:
                    raise Trap("bad-index", f"index {i} out of range for length {n}", op[5])
                arr[i] = op[4] if op[3] == 0 else slots[op[4]]
                pc += 1
            elif kind == _LEN:
                slots[op[1]] = float(n)
                pc += 1
            elif kind == _CALL:
                a = op[4] if op[3] == 0 else slots[op[4]]
                fname = op[2]
                if fname == "sqrt":
                    if a < 0:
                        raise Trap("math-domain", f"sqrt({a})", op[5])
                    slots[op[1]] = math.sqrt(a)
                elif fname == "log":
                    if a <= 0:
                        raise Trap("math-domain", f"log({a})", op[5])
                    slots[op[1]] = math.log(a)
                elif fname == "exp":
                    slots[op[1]] = math.exp(a)
                elif fname == "abs":
                    slots[op[1]] = abs(a)
                else:
                    slots[op[1]] = math.floor(a)
                pc += 1
            elif kind == _POW:
                a = op[3] if op[2] == 0 else slots[op[3]]
                b = op[5] if op[4] == 0 else slots[op[5]]
                if a == 0.0 and b < 0:
                    raise Trap("math-domain", "pow(0, negative)", op[6])
                if a < 0 and b != int(b):
                    raise Trap("math-domain", f"pow({a}, {b})", op[6])
                slots[op[1]] = math.pow(a, b)
                pc += 1
            elif kind == _JMP:
                pc = op[1]
            elif kind == _RET:
                return op[2] if op[1] == 0 else slots[op[2]]
            else:  # _RETBIN
                a = op[3] if op[2] == 0 else slots[op[3]]
                b = op[5] if op[4] == 0 else slots[op[5]]
                o = op[1]
                if o == 0:
                    return a + b
                if o == 1:
                    return a - b
                if o == 2:
                    return a * b
                if o == 3:
                    if b == 0.0:
                        raise Trap("division-by-zero", f"{a} / 0", op[6])
                    return a / b
                if b == 0.0:
                    raise Trap("division-by-zero", f"{a} % 0", op[6])
                return math.fmod(a, b)
    except (OverflowError, ValueError) as exc:
        # int() of a non-finite index, exp/pow/floor overflow, fmod(inf, b);
        # every op that can fault carries its source line last
        trap = ("bad-index" if kind == _LOAD or kind == _STORE else
                "overflow" if isinstance(exc, OverflowError) else "math-domain")
        raise Trap(trap, str(exc), op[-1]) from None
