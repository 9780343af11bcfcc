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

``parse_program`` reads each function in one walk over its source lines,
which parses each statement and emits its CFG node(s), edges and bytecode
on the spot; names, labels and structure are checked when the walk ends.
There is no intermediate form: each operand is parsed as its op is
emitted.  The bytecode has one op per statement plus the init, bound
read, increment and back jump of each ``for``; one step of the budget is
one op.  Only code generation waits for the first call: ``Function.run``
is the structured Python that ``codegen.generate`` makes of the bytecode,
which charges the budget as its docstring states, and every call runs
that.  The tests compare it against a bytecode dispatch loop,
``tests/mir_reference.py``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .cfg import AnnotatedCfg, NodeOp

DEFAULT_STEP_BUDGET = 1_000_000

_BUILTINS = ("sqrt", "log", "exp", "abs", "floor")
_KEYWORDS = frozenset(("fn", "if", "goto", "return", "for", "len", "pow") + _BUILTINS)

_BIN_OPS = ("+", "-", "*", "/", "%")
_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")
# each operator's CFG label, in the order of _BIN_OPS and _CMP_OPS
_BIN_LABELS = (NodeOp.ADD, NodeOp.SUB, NodeOp.MUL, NodeOp.DIV, NodeOp.REM)
_CMP_LABELS = (NodeOp.EQL, NodeOp.NEQL, NodeOp.LEQL, NodeOp.GEQL, NodeOp.LT, NodeOp.GT)


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


@dataclass
class Function:
    name: str
    param: str
    # CFG and bytecode, built by parse_program
    cfg: AnnotatedCfg = field(repr=False, compare=False)
    code: list[tuple] = field(repr=False, compare=False)
    n_slots: int = field(repr=False, compare=False)

    @cached_property
    def run(self) -> Callable[[list[float], int], float]:
        """The generated ``run(arr, budget)``, made on first use."""
        # imported here, so commands that never run a function do not load
        # the generator
        from .codegen import generate

        return generate(self.code, self.n_slots, self.name)


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
_NUM_RE = re.compile(_NUM)
_ATOM_RE = re.compile(_ATOM)

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

# The walk recurses once per level of for nesting; a cap far below
# Python's recursion limit turns a deeper nest into a MirError.
_MAX_FOR_DEPTH = 100


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
        lowerer = _Lowerer(lines, pos + 1, name, param, line_no)
        functions.append(Function(name, param, *lowerer.lower()))
        pos = lowerer.pos
    return Program(functions)


# ---------------------------------------------------------------------------
# Lowering: one walk over the source lines builds the CFG and the bytecode

_MOV, _LOAD, _STORE, _LEN, _BIN, _CMP, _CALL, _POW, _JMP, _JIF, _RET, _RETBIN = range(12)

_BIN_INDEX = {op: i for i, op in enumerate(_BIN_OPS)}
_CMP_INDEX = {op: i for i, op in enumerate(_CMP_OPS)}
_NEGATED = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


class _Lowerer:
    """Walks a function's source lines once, from the line after its
    ``fn`` header to its closing ``}``.  Per statement it matches the line,
    emits the CFG node(s), each labelled with its ``NodeOp``, the edges and
    the bytecode op(s), parsing each operand straight into the op, records
    its labels as ``(node, pc)`` and notes the names it reads and writes;
    ``lower`` then checks the function, resolves the jumps and validates
    the CFG.  A syntax error, or a ``for`` nested too deep, raises at once;
    every other fault waits for the walk to end, so a syntax error later in
    the function wins."""

    def __init__(self, source: list[tuple[int, str]], pos: int, name: str, param: str,
                 line: int):
        self.source = source
        self.pos = pos  # the next source line to read
        self.name = name
        self.param = param
        self.line = line
        self.depth = 0  # enclosing for loops
        self.ops: list[NodeOp] = []
        self.lines: list[int | None] = []
        self.edges: list[tuple[int, int]] = []
        self.code: list[tuple] = []
        self.slots: dict[str, int] = {}
        self.labels: dict[str, tuple[int, int]] = {}
        self.duplicate: MirError | None = None  # the first duplicate label
        self.jumps: list[tuple[int, int, str, int]] = []  # node, pc, label, line
        self.returns: list[int] = []
        self.assigned: set[str] = set()
        # scalar reads, and writes of the array parameter, checked by line
        self.uses: list[tuple[str, int]] = []

    def node(self, op: NodeOp, line: int | None) -> int:
        self.ops.append(op)
        self.lines.append(line)
        return len(self.ops) - 1

    def edge(self, a: int, b: int) -> None:
        self.edges.append((a, b))

    def slot(self, name: str) -> int:
        if name not in self.slots:
            self.slots[name] = len(self.slots)
        return self.slots[name]

    def write(self, name: str, line: int) -> int:
        if name in _KEYWORDS:
            raise MirError(f"reserved word {name!r} used as a variable", line)
        self.assigned.add(name)
        if name == self.param:
            self.uses.append((name, line))
        return self.slot(name)

    def operand(self, token: str, line: int) -> tuple[int, float | int]:
        """An atom as ``(0, value)`` for a number or ``(1, slot)`` for a
        variable, whose read is noted."""
        if _NUM_RE.fullmatch(token):
            return 0, float(token)
        if token in _KEYWORDS:
            raise MirError(f"reserved word {token!r} used as a value", line)
        self.uses.append((token, line))
        return 1, self.slot(token)

    def array(self, name: str, line: int) -> None:
        if name != self.param:
            raise MirError(f"unknown array {name!r}", line)

    def value(self, text: str, line: int, dst: int | None) -> NodeOp:
        """Parse a right-hand side and emit its op, which writes slot
        ``dst`` or, when ``dst`` is None, returns; gives the CFG node's
        label.  The operands are checked before the form's other faults."""
        text = text.strip()
        array = None
        if _ATOM_RE.fullmatch(text) and text not in _KEYWORDS:
            operand = self.operand(text, line)
            if dst is None:
                self.code.append((_RET,) + operand)
                return NodeOp.RETURN
            op, label = (_MOV, dst) + operand, NodeOp.ASSI
        elif "[" in text and (m := _LOAD_RE.match(text)):
            op = (_LOAD, dst) + self.operand(m.group(2), line) + (line,)
            array, label = m.group(1), NodeOp.ASSI
        elif text.startswith("len") and (m := _LEN_RE.match(text)):
            op, array, label = (_LEN, dst), m.group(1), NodeOp.ASSI
        elif text.startswith("pow") and (m := _POW_RE.match(text)):
            op = (_POW, dst) + self.operand(m.group(1), line) \
                + self.operand(m.group(2), line) + (line,)
            label = NodeOp.FCALL
        elif "(" in text and (m := _CALL_RE.match(text)) and m.group(1) in _BUILTINS:
            op = (_CALL, dst, m.group(1)) + self.operand(m.group(2), line) + (line,)
            label = NodeOp.FCALL
        elif m := _CMP_RE.match(text):
            cmp = _CMP_INDEX[m.group(2)]
            op = (_CMP, dst, cmp) + self.operand(m.group(1), line) \
                + self.operand(m.group(3), line)
            label = _CMP_LABELS[cmp]
        elif m := _BIN_RE.match(text):
            arith = _BIN_INDEX[m.group(2)]
            op = (_BIN, dst, arith) + self.operand(m.group(1), line) \
                + self.operand(m.group(3), line) + (line,)
            label = _BIN_LABELS[arith]
            if dst is None:
                self.code.append((_RETBIN,) + op[2:])
                return label
        else:
            raise MirError(f"cannot parse expression {text!r}", line)
        if dst is None:
            raise MirError("return takes an atom or a single arithmetic op", line)
        if array is not None:
            self.array(array, line)
        self.code.append(op)
        return label

    def block(self, outer_line: int) -> tuple[int | None, list[int]]:
        """Lower the statements up to the closing ``}`` of the block opened
        on ``outer_line``; returns the entry node (None for an empty block)
        and the nodes that fall through past the last statement."""
        entry: int | None = None
        tails: list[int] = []
        labels: list[str] = []  # for the next statement
        while True:
            if self.pos >= len(self.source):
                raise MirError("missing closing '}'", outer_line)
            line, text = self.source[self.pos]
            self.pos += 1
            # the next function: this one's '}' is missing
            if text.startswith("fn") and _FN_RE.match(text):
                raise MirError("missing closing '}'", self.line)
            if text == "}":
                if labels:
                    raise MirError(f"label {labels[0]!r} is not attached to a statement",
                                   line)
                return entry, tails
            m = ":" in text and _LABEL_PREFIX_RE.match(text)
            while m and m.group(1) not in _KEYWORDS:
                labels.append(m.group(1))
                text = m.group(2).strip()
                m = ":" in text and _LABEL_PREFIX_RE.match(text)
            if not text:
                continue
            node = len(self.ops)  # every statement enters at its first node
            if entry is None:
                entry = node
            for lbl in labels:
                if lbl in self.labels and self.duplicate is None:
                    self.duplicate = MirError(f"duplicate label {lbl!r}", line)
                self.labels[lbl] = (node, len(self.code))
            labels = []
            new_tails = self.statement(line, text)
            for t in tails:
                self.edge(t, node)
            tails = new_tails

    def statement(self, line: int, text: str) -> list[int]:
        """Parse and lower one statement; returns the nodes that fall
        through to the next one."""
        # Slots go to a statement's destination before its operands, and to
        # a for's increment operand after its body.
        code = self.code
        # a regex is tried only when its leading keyword or "[" is there: a
        # necessary condition, and cheaper than a failed match
        m = text.startswith("for") and _FOR_RE.match(text)
        if m:
            var, init, test_var, cmp, bound_text, inc_dst, inc_src, inc_op, inc_arg = m.groups()
            if self.depth == _MAX_FOR_DEPTH:
                raise MirError(f"for loops nested more than {_MAX_FOR_DEPTH} deep", line)
            if test_var != var:
                raise MirError(f"for-loop test must compare the loop variable {var!r}", line)
            if inc_dst != var or inc_src != var:
                raise MirError(f"for-loop increment must update the loop variable {var!r}", line)
            lm = _LEN_RE.match(bound_text)
            if lm:
                self.array(lm.group(1), line)
            slot = self.write(var, line)
            init_node = self.node(NodeOp.ASSI, line)
            code.append((_MOV, slot) + self.operand(init, line))
            test = self.node(NodeOp.GOTO, line)
            self.edge(init_node, test)
            if lm:
                prep = self.node(NodeOp.ASSI, line)
                self.edge(test, prep)
                test = prep
                bound: tuple = (1, self.slot(f"$bound{len(code)}"))
                code.append((_LEN, bound[1]))
            else:
                bound = self.operand(bound_text, line)
            if_node = self.node(NodeOp.IF, line)
            self.edge(test, if_node)
            # the negated test jumps past the loop, patched after the body
            test_pc = len(code)
            code.append((_JIF, _CMP_INDEX[_NEGATED[cmp]], 1, slot) + bound + (-1,))
            self.depth += 1
            body_entry, body_tails = self.block(line)
            self.depth -= 1
            inc = _BIN_INDEX[inc_op]
            incr = self.node(_BIN_LABELS[inc], line)
            self.edge(if_node, body_entry if body_entry is not None else incr)
            for t in body_tails:
                self.edge(t, incr)
            self.edge(incr, if_node)
            code.append((_BIN, slot, inc, 1, slot)
                        + self.operand(inc_arg, line) + (line,))
            code.append((_JMP, test_pc))
            code[test_pc] = code[test_pc][:-1] + (len(code),)
            return [if_node]
        m = text.startswith("if") and _IF_RE.match(text)
        if m:
            node = self.node(NodeOp.IF, line)
            self.jumps.append((node, len(code), m.group(4), line))
            code.append((_JIF, _CMP_INDEX[m.group(2)]) + self.operand(m.group(1), line)
                        + self.operand(m.group(3), line) + (-1,))
            return [node]
        m = text.startswith("goto") and _GOTO_RE.match(text)
        if m:
            node = self.node(NodeOp.GOTO, line)
            self.jumps.append((node, len(code), m.group(1), line))
            code.append((_JMP, -1))
            return []
        m = text.startswith("return") and _RETURN_RE.match(text)
        if m:
            self.returns.append(self.node(self.value(m.group(1), line, None), line))
            return []
        m = "[" in text and _STORE_RE.match(text)
        if m:
            self.array(m.group(1), line)
            node = self.node(NodeOp.ASSI, line)
            code.append((_STORE,) + self.operand(m.group(2), line)
                        + self.operand(m.group(3), line) + (line,))
            return [node]
        m = _ASSIGN_RE.match(text)
        if not m:
            raise MirError(f"cannot parse statement {text!r}", line)
        dst = self.write(m.group(1), line)
        return [self.node(self.value(m.group(2), line, dst), line)]

    def lower(self) -> tuple[AnnotatedCfg, list[tuple], int]:
        start = self.node(NodeOp.START, self.line)
        entry, tails = self.block(self.line)
        if self.duplicate is not None:
            raise self.duplicate
        for _, _, label, line in self.jumps:
            if label not in self.labels:
                raise MirError(f"undefined label {label!r}", line)
        # by line, stably: a for's increment read comes before its body's
        for name, line in sorted(self.uses, key=lambda use: use[1]):
            if name == self.param:
                raise MirError(f"array {name!r} used as a scalar", line)
            if name not in self.assigned:
                raise MirError(f"variable {name!r} is never assigned", line)
        if entry is None:
            raise MirError(f"function {self.name!r} has an empty body", self.line)
        self.edge(start, entry)
        if tails:
            raise MirError(f"control can fall off the end of function {self.name!r}",
                           self.lines[tails[0]])
        if not self.returns:
            raise MirError(f"function {self.name!r} never returns", self.line)
        for node, pc, label, line in self.jumps:
            target, target_pc = self.labels[label]
            if (node, target) in self.edges:
                raise MirError("conditional jump to its own fall-through", line)
            self.edge(node, target)
            self.code[pc] = self.code[pc][:-1] + (target_pc,)
        exit_node = self.node(NodeOp.EXIT, None)
        for node in self.returns:
            self.edge(node, exit_node)

        cfg = AnnotatedCfg(name=self.name, ops=tuple(self.ops), edges=tuple(self.edges))
        for diag in cfg.diagnostics:
            line = self.lines[diag.node] if diag.node is not None else None
            if "unreachable from start" in diag.message:
                raise MirError("unreachable statement", line)
            if "exit unreachable" in diag.message:
                raise MirError("statement cannot reach a return", line)
            raise MirError(f"invalid control flow: {diag.message}", line)
        return cfg, self.code, len(self.slots)


def lower_to_cfg(fn: Function) -> AnnotatedCfg:
    """The function's annotated CFG (always valid), built when it was parsed."""
    return fn.cfg


# ---------------------------------------------------------------------------
# Interpreter


def interpret(fn: Function, values, step_budget: int = DEFAULT_STEP_BUDGET) -> float:
    """Run a function on one input array; deterministic, side-effect free.

    Raises :class:`Trap` for division by zero, out-of-range, fractional or
    non-finite indices, math domain errors, overflow, and when
    ``step_budget`` is exhausted; every runtime fault is a Trap.  The call
    runs the function's generated Python, which charges the budget as
    ``codegen.generate`` states.  ``values`` may be any iterable of
    numbers; the call converts it to a list of floats for
    ``interpret_floats``.
    """
    return interpret_floats(fn, list(map(float, values)), step_budget)


def interpret_floats(fn: Function, arr: list[float],
                     step_budget: int = DEFAULT_STEP_BUDGET) -> float:
    """``interpret`` on ``arr``, a list of floats, without converting it.

    The run never changes ``arr``: the generated code of a function that
    stores into its array first copies it, and that of any other function
    reads ``arr`` as it is.
    """
    return fn.run(arr, step_budget)


def _fault(exc: OverflowError | ValueError, op: tuple) -> Trap:
    # exp/pow/floor overflow, fmod(inf, b), int() of a non-finite exponent;
    # every op that can fault carries its source line last
    return Trap("overflow" if isinstance(exc, OverflowError) else "math-domain",
                str(exc), op[-1])
