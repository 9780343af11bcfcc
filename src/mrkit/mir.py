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

``parse_program`` lowers each function in one walk over its statements,
which builds the CFG and the bytecode together and checks names, labels
and structure.  The bytecode has one op per statement plus the init, bound
read, increment and back jump of each ``for``; one step of the budget is
one op.  Only code generation waits for the first call: ``codegen.generate``
then turns the bytecode into structured Python, with a dispatch only at
loop headers and merge points and every other basic block emitted in
place after its one predecessor, and every call runs that.  The budget is
checked once per pass through a loop header or merge point, for the
longest path to the next one.  A pass that might end past the budget runs
in a second version of the same code, charged per op, which is generated
on the function's first such call.  The tests compare both against a
bytecode dispatch loop, ``tests/mir_reference.py``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from .cfg import AnnotatedCfg, NodeOp, classify_statement, validate

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
    # CFG and bytecode: set by parse_program, or on first use for a
    # Function built by hand
    _lowered: "_Lowered | None" = field(default=None, repr=False, compare=False)


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
    """Parse mini-IR source into a validated, lowered Program.

    Besides syntax, this checks label resolution, variable usage and the
    structural contract (every path ends in ``return``, no unreachable
    statements) while lowering each function to its CFG and bytecode.
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
        _lower(fn)
        functions.append(fn)
    return Program(functions)


# ---------------------------------------------------------------------------
# Lowering: one walk builds the CFG and the bytecode

_MOVC, _MOV, _LOAD, _STORE, _LEN, _BIN, _CMP, _CALL, _POW, _JMP, _JIF, _RET, _RETBIN = range(13)

_BIN_INDEX = {op: i for i, op in enumerate(_BIN_OPS)}
_CMP_INDEX = {op: i for i, op in enumerate(_CMP_OPS)}
_NEGATED = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


@dataclass
class _Lowered:
    cfg: AnnotatedCfg
    code: list[tuple]
    n_slots: int
    # codegen.generate's fast version, made on the first call, and its
    # per-op version, made on the first pass that might overrun; each is
    # published by one assignment, so a thread that races its first use
    # sees either None or a complete function
    run: Callable | None = None
    run_per_op: Callable | None = None


class _Lowerer:
    """Walks a function's statements once.  Per statement it emits the CFG
    node(s) and edges and the bytecode op(s), records its labels as
    ``(node, pc)`` and notes the names it reads and writes; ``lower`` then
    checks the function, resolves the jumps and validates the CFG."""

    def __init__(self, fn: Function):
        self.fn = fn
        self.ops: list[NodeOp] = []
        self.lines: list[int | None] = []
        self.edges: list[tuple[int, int]] = []
        self.code: list[tuple] = []
        self.slots: dict[str, int] = {}
        self.labels: dict[str, tuple[int, int]] = {}
        self.jumps: list[tuple[int, int, str, int]] = []  # node, pc, label, line
        self.returns: list[int] = []
        self.assigned: set[str] = {fn.param}
        self.reads: list[tuple[str, int]] = []

    def node(self, token: str, line: int | None) -> int:
        self.ops.append(classify_statement(token))
        self.lines.append(line)
        return len(self.ops) - 1

    def edge(self, a: int, b: int) -> None:
        self.edges.append((a, b))

    def slot(self, name: str) -> int:
        if name not in self.slots:
            self.slots[name] = len(self.slots)
        return self.slots[name]

    def write(self, name: str) -> int:
        self.assigned.add(name)
        return self.slot(name)

    def operand(self, atom: tuple, line: int) -> tuple[int, float | int]:
        if atom[0] == "c":
            return 0, atom[1]
        self.reads.append((atom[1], line))
        return 1, self.slot(atom[1])

    def block(self, stmts: list) -> tuple[int | None, list[int]]:
        """Lower statements in order; returns the entry node and the nodes
        that fall through past the last one."""
        entry = len(self.ops) if stmts else None
        tails: list[int] = []
        for stmt in stmts:
            node = len(self.ops)  # every statement enters at its first node
            for lbl in stmt.labels:
                if lbl in self.labels:
                    raise MirError(f"duplicate label {lbl!r}", stmt.line)
                self.labels[lbl] = (node, len(self.code))
            new_tails = self.statement(stmt)
            for t in tails:
                self.edge(t, node)
            tails = new_tails
        return entry, tails

    def statement(self, stmt: Statement) -> list[int]:
        # Slots go to a statement's destination before its operands, and to
        # a for's increment operand after its body.
        code, line = self.code, stmt.line
        if isinstance(stmt, Assign):
            rhs = stmt.rhs
            node = self.node(rhs[1] if rhs[0] in ("bin", "cmp") else
                             "invoke" if rhs[0] in ("call", "pow") else "=", line)
            dst = self.write(stmt.dst)
            if rhs[0] == "atom":
                kind, val = self.operand(rhs[1], line)
                code.append((_MOVC, dst, val) if kind == 0 else (_MOV, dst, val))
            elif rhs[0] == "load":
                code.append((_LOAD, dst) + self.operand(rhs[1], line) + (line,))
            elif rhs[0] == "len":
                code.append((_LEN, dst))
            elif rhs[0] == "bin":
                code.append((_BIN, dst, _BIN_INDEX[rhs[1]]) + self.operand(rhs[2], line)
                            + self.operand(rhs[3], line) + (line,))
            elif rhs[0] == "cmp":
                code.append((_CMP, dst, _CMP_INDEX[rhs[1]]) + self.operand(rhs[2], line)
                            + self.operand(rhs[3], line))
            elif rhs[0] == "call":
                code.append((_CALL, dst, rhs[1]) + self.operand(rhs[2], line) + (line,))
            else:
                code.append((_POW, dst) + self.operand(rhs[1], line)
                            + self.operand(rhs[2], line) + (line,))
            return [node]
        if isinstance(stmt, Store):
            node = self.node("=", line)
            code.append((_STORE,) + self.operand(stmt.index, line)
                        + self.operand(stmt.value, line) + (line,))
            return [node]
        if isinstance(stmt, IfGoto):
            node = self.node("if", line)
            self.jumps.append((node, len(code), stmt.target, line))
            code.append((_JIF, _CMP_INDEX[stmt.op]) + self.operand(stmt.left, line)
                        + self.operand(stmt.right, line) + (-1,))
            return [node]
        if isinstance(stmt, Goto):
            node = self.node("goto", line)
            self.jumps.append((node, len(code), stmt.target, line))
            code.append((_JMP, -1))
            return []
        if isinstance(stmt, Return):
            rhs = stmt.rhs
            self.returns.append(self.node("return" if rhs[0] == "atom" else rhs[1], line))
            if rhs[0] == "atom":
                code.append((_RET,) + self.operand(rhs[1], line))
            else:
                code.append((_RETBIN, _BIN_INDEX[rhs[1]]) + self.operand(rhs[2], line)
                            + self.operand(rhs[3], line) + (line,))
            return []
        if isinstance(stmt, For):
            var = self.write(stmt.var)
            init = self.node("=", line)
            kind, val = self.operand(stmt.init, line)
            code.append((_MOVC, var, val) if kind == 0 else (_MOV, var, val))
            test = self.node("goto", line)
            self.edge(init, test)
            if stmt.bound[0] == "len":
                prep = self.node("=", line)
                self.edge(test, prep)
                test = prep
                bound: tuple = (1, self.slot(f"$bound{len(code)}"))
                code.append((_LEN, bound[1]))
            else:
                bound = self.operand(stmt.bound[1], line)
            if_node = self.node("if", line)
            self.edge(test, if_node)
            # the negated test jumps past the loop, patched after the body
            test_pc = len(code)
            code.append((_JIF, _CMP_INDEX[_NEGATED[stmt.cmp]], 1, var) + bound + (-1,))
            body_entry, body_tails = self.block(stmt.body)
            incr = self.node(stmt.incr_op, line)
            self.edge(if_node, body_entry if body_entry is not None else incr)
            for t in body_tails:
                self.edge(t, incr)
            self.edge(incr, if_node)
            code.append((_BIN, var, _BIN_INDEX[stmt.incr_op], 1, var)
                        + self.operand(stmt.incr_arg, line) + (line,))
            code.append((_JMP, test_pc))
            code[test_pc] = code[test_pc][:-1] + (len(code),)
            return [if_node]
        raise AssertionError(f"unhandled statement {stmt!r}")

    def lower(self) -> _Lowered:
        fn = self.fn
        start = self.node(":=", fn.line)
        entry, tails = self.block(fn.body)
        for _, _, label, line in self.jumps:
            if label not in self.labels:
                raise MirError(f"undefined label {label!r}", line)
        # by line, stably: a for's increment read comes before its body's
        for name, line in sorted(self.reads, key=lambda read: read[1]):
            if name == fn.param:
                raise MirError(f"array {name!r} used as a scalar", line)
            if name not in self.assigned:
                raise MirError(f"variable {name!r} is never assigned", line)
        if entry is None:
            raise MirError(f"function {fn.name!r} has an empty body", fn.line)
        self.edge(start, entry)
        if tails:
            raise MirError(f"control can fall off the end of function {fn.name!r}",
                           self.lines[tails[0]])
        if not self.returns:
            raise MirError(f"function {fn.name!r} never returns", fn.line)
        for node, pc, label, line in self.jumps:
            target, target_pc = self.labels[label]
            if (node, target) in self.edges:
                raise MirError("conditional jump to its own fall-through", line)
            self.edge(node, target)
            self.code[pc] = self.code[pc][:-1] + (target_pc,)
        exit_node = self.node("exit", None)
        for node in self.returns:
            self.edge(node, exit_node)

        cfg = AnnotatedCfg(name=fn.name, ops=tuple(self.ops), edges=tuple(self.edges))
        for diag in validate(cfg):
            line = self.lines[diag.node] if diag.node is not None else None
            if "unreachable from start" in diag.message:
                raise MirError("unreachable statement", line)
            if "exit unreachable" in diag.message:
                raise MirError("statement cannot reach a return", line)
            raise MirError(f"invalid control flow: {diag.message}", line)
        return _Lowered(cfg, self.code, len(self.slots))


def _lower(fn: Function) -> _Lowered:
    if fn._lowered is None:  # a Function built without parse_program
        fn._lowered = _Lowerer(fn).lower()
    return fn._lowered


def lower_to_cfg(fn: Function) -> AnnotatedCfg:
    """The function's annotated CFG (always valid), built when it was parsed."""
    return _lower(fn).cfg


# ---------------------------------------------------------------------------
# Interpreter


def _compile(fn: Function) -> _Lowered:
    """The function's bytecode, with its generated Python made on first use."""
    lowered = _lower(fn)
    if lowered.run is None:
        # imported on first use, so commands that never run a function do
        # not load the generator
        from .codegen import generate

        lowered.run = generate(lowered.code, lowered.n_slots, fn.name)
    return lowered


def interpret(fn: Function, values, step_budget: int = DEFAULT_STEP_BUDGET) -> float:
    """Run a function on one input array; deterministic, side-effect free.

    Raises :class:`Trap` for division by zero, out-of-range, fractional or
    non-finite indices, math domain errors, overflow, and when
    ``step_budget`` is exhausted; every runtime fault is a Trap.

    The call runs the function's generated Python (``codegen.generate``),
    which checks the budget once per pass through a loop header or merge
    point.  A pass that might end past the budget is handed, with the
    slots and the steps spent before it, to the per-op version of the same
    code: the budget trap, or a fault before it, comes from the same op as
    if every op had been charged on its own.
    """
    lowered = fn._lowered
    if lowered is None or lowered.run is None:
        lowered = _compile(fn)
    # the generated code stores into arr, so the caller's values stay as given
    arr = list(map(float, values))
    result = lowered.run(fn, arr, step_budget)
    if type(result) is not tuple:
        return result
    if lowered.run_per_op is None:
        from .codegen import generate

        lowered.run_per_op = generate(lowered.code, lowered.n_slots, fn.name, per_op=True)
    return lowered.run_per_op(fn, arr, step_budget, *result)


def _fault(exc: OverflowError | ValueError, op: tuple) -> Trap:
    # exp/pow/floor overflow, fmod(inf, b), int() of a non-finite exponent;
    # every op that can fault carries its source line last
    return Trap("overflow" if isinstance(exc, OverflowError) else "math-domain",
                str(exc), op[-1])
