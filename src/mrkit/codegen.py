"""Generated Python for mini-IR bytecode, one function per mini-IR function.

``generate`` turns the bytecode that ``mir._Lowerer`` emits at parse time
into the source of one Python function and compiles it; that function is
``mir.Function.run``.  ``generate`` states how it charges the step budget,
and ``mir.interpret_floats`` when it copies its array.  Every op does what
it does in the reference dispatch loop, ``tests/mir_reference.py``, with
the same values, trap kinds, lines and messages.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable

from .mir import (_BIN, _BIN_OPS, _CALL, _CMP, _CMP_OPS, _JIF, _JMP, _LEN, _LOAD, _MOV,
                  _POW, _RET, _RETBIN, _STORE, Trap, _fault)

_ENDS_BLOCK = (_JMP, _JIF, _RET, _RETBIN)
# A block inlined this many blocks below its dispatch target becomes a
# target itself, which bounds the generated code's nesting far below
# Python's 100 levels of indentation.
_MAX_INLINE_DEPTH = 32
# Index tables are kept for array lengths below this; a kept table is
# never changed, so every caller can share it.  The generated code looks a
# length up in _INDEX_TABLES and calls _index_table only when it is missing.
_CACHED_LENGTHS = 256
_INDEX_TABLES: dict[int, dict[float, int]] = {}


def _index_table(n: int) -> dict[float, int]:
    """``{0.0: 0, …, float(n - 1): n - 1}``: every double that indexes an
    array of length ``n``, ``-0.0`` included, to its int."""
    table = {float(i): i for i in range(n)}
    if n < _CACHED_LENGTHS:
        _INDEX_TABLES[n] = table
    return table


def _trap(exc: Exception, n: int, op: tuple) -> Trap:
    """The trap of ``exc``, raised within the budget by a generated line
    of ``op`` on an array of length ``n``."""
    if isinstance(exc, Trap):  # division by zero or a math domain error
        return exc
    if not isinstance(exc, KeyError):
        return _fault(exc, op)
    idx, line = exc.args[0], op[-1]  # an index missing from the index table
    try:
        i = int(idx)
    except (OverflowError, ValueError) as err:  # ±inf, NaN
        return Trap("bad-index", str(err), line)
    if idx != i:
        return Trap("bad-index", f"fractional index {idx}", line)
    return Trap("bad-index", f"index {i} out of range for length {n}", line)


# Source templates of the generated code, filled in with slot names
# (``s3``), float literals and line numbers only: the text of a function's
# ``.mir`` source never reaches the generated source.
_CALL_SOURCE = {
    "sqrt": ('if {a} < 0: raise Trap("math-domain", f"sqrt({{{a}}})", {line})',
             "{d} = sqrt({a})"),
    "log": ('if {a} <= 0: raise Trap("math-domain", f"log({{{a}}})", {line})',
            "{d} = log({a})"),
    "exp": ("{d} = exp({a})",),
    "abs": ("{d} = abs({a})",),
    "floor": ("{d} = float(floor({a}))",),
}
_OVERRUN = 'raise Trap("step-budget", f"exceeded {budget} steps in {NAME!r}")'
_GENERATED_GLOBALS = {
    "Trap": Trap, "_trap": _trap, "_INDEX_TABLES": _INDEX_TABLES,
    "_index_table": _index_table,
    "inf": math.inf, "sqrt": math.sqrt, "log": math.log, "exp": math.exp,
    "floor": math.floor, "fmod": math.fmod, "fpow": math.pow,
}


def _literal(value: float) -> str:
    text = float.__repr__(value)  # 'inf' for a huge literal, a name bound above
    return f"({text})" if text.startswith("-") else text


def _operand(is_slot: int, value) -> str:
    return f"s{value}" if is_slot else _literal(value)


def _op_source(op: tuple) -> list[str]:
    """Python lines that do what one bytecode op does in the reference
    loop, ``tests/mir_reference.py``; for a conditional jump, the ``if``
    line whose body is the taken branch, and for a jump, none."""
    kind = op[0]
    if kind == _MOV:
        return [f"s{op[1]} = {_operand(op[2], op[3])}"]
    if kind == _LEN:
        return [f"s{op[1]} = nf"]
    if kind == _LOAD:
        idx = _operand(op[2], op[3])
        return [f"s{op[1]} = arr[IDX[{idx}]]"]
    if kind == _STORE:
        idx = _operand(op[1], op[2])
        return [f"arr[IDX[{idx}]] = {_operand(op[3], op[4])}"]
    if kind == _BIN or kind == _RETBIN:
        into, (o, ka, va, kb, vb, line) = ((f"s{op[1]} =", op[2:]) if kind == _BIN
                                           else ("return", op[1:]))
        a, b = _operand(ka, va), _operand(kb, vb)
        if o < 3:
            return [f"{into} {a} {_BIN_OPS[o]} {b}"]
        result = f"{into} {a} / {b}" if o == 3 else f"{into} fmod({a}, {b})"
        if kb == 0 and vb != 0.0:  # constant nonzero divisor
            return [result]
        return [f'if {b} == 0.0: '
                f'raise Trap("division-by-zero", f"{{{a}}} {_BIN_OPS[o]} 0", {line})',
                result]
    if kind == _CMP:
        a, b = _operand(op[3], op[4]), _operand(op[5], op[6])
        return [f"s{op[1]} = 1.0 if {a} {_CMP_OPS[op[2]]} {b} else 0.0"]
    if kind == _CALL:
        a, line = _operand(op[3], op[4]), op[5]
        return [t.format(d=f"s{op[1]}", a=a, line=line) for t in _CALL_SOURCE[op[2]]]
    if kind == _POW:
        a, b, line = _operand(op[2], op[3]), _operand(op[4], op[5]), op[6]
        return [f'if {a} == 0.0 and {b} < 0: '
                f'raise Trap("math-domain", "pow(0, negative)", {line})',
                f'if {a} < 0 and {b} != int({b}): '
                f'raise Trap("math-domain", f"pow({{{a}}}, {{{b}}})", {line})',
                f"s{op[1]} = fpow({a}, {b})"]
    if kind == _JIF:
        return [f"if {_operand(op[2], op[3])} {_CMP_OPS[op[1]]} {_operand(op[4], op[5])}:"]
    if kind == _JMP:
        return []
    return [f"return {_operand(op[1], op[2])}"]  # _RET


def generate(code: list[tuple], n_slots: int, name: str) -> Callable:
    """Compile bytecode to a Python function ``run(arr, budget)``.

    Basic blocks start at pc 0, at every jump target and after every jump
    or return.  Block 0, every block with two or more predecessors, which
    includes every loop header, and every block that would be inlined more
    than _MAX_INLINE_DEPTH blocks below one of these are dispatch targets.
    Every other block has one predecessor and is emitted in place after
    it, so no block is emitted twice.  The function is one ``while True``
    loop that picks the target by its block id ``blk`` through a binary
    tree of ``if``s; each target is a ``while True`` loop over locals
    ``s0…`` (parameters only so that they start at 0.0) whose body runs
    the target's block and the blocks inlined after it.  A jump back to
    the target is ``continue``, one to another target ``blk = t; break``.
    One run of that body, from the target to the next target or a return,
    is a pass.  Loads and stores look the index up once in a table of the
    valid indices.

    The budget is settled after a pass, not before it.  A pass has no
    loop, and since every inlined block has one predecessor, each op in
    it lies a fixed number of ops, its reach, into the pass.  ``left``,
    the budget less the ops of the passes before, changes only at exits
    and is checked where a pass begins: a pass runs whenever ``left >=
    0``.  Charging every op would stop at the first op whose reach is
    above ``left``, and the pass settles the same way: each exit to a
    target charges the ops of the path it took, so a ``left`` driven
    below 0 raises the ``step-budget`` trap at the next target; a return
    whose reach is above ``left`` raises it instead of returning; and one
    handler raises it for any fault of an op whose reach is above
    ``left``, and ``_trap``'s trap for any other fault, of the op whose
    generated line raised it.  Values, traps and step counts are those of
    the reference dispatch loop in ``tests/mir_reference.py``, which
    charges every op.
    """
    leaders = {0}
    for pc, op in enumerate(code):
        if op[0] in _ENDS_BLOCK:
            leaders.add(pc + 1)
        if op[0] == _JMP:
            leaders.add(op[1])
        elif op[0] == _JIF:
            leaders.add(op[6])
    starts = sorted(pc for pc in leaders if pc < len(code))
    block = {pc: b for b, pc in enumerate(starts)}
    ends = starts[1:] + [len(code)]
    # successors, a conditional jump's taken one first
    succ: list[list[int]] = []
    for b, end in enumerate(ends):
        last = code[end - 1]
        succ.append([] if last[0] in (_RET, _RETBIN) else
                    [block[last[1]]] if last[0] == _JMP else
                    [block[last[6]], b + 1] if last[0] == _JIF else [b + 1])

    # Block 0 and the merge points are targets.  A back edge's target is a
    # merge point too, or block 0: it has the back edge and the edge that
    # first reached it.  So every cycle, an irreducible one too, passes
    # through a target, and every other block has one predecessor.
    preds = Counter(s for out in succ for s in out)
    targets = {0} | {b for b, k in preds.items() if k >= 2}
    regions = sorted(targets)
    for t in regions:  # grows as the depth cap adds targets
        stack = [(t, 0)]
        while stack:
            b, depth = stack.pop()
            for s in succ[b]:
                if s in targets:
                    continue
                if depth == _MAX_INLINE_DEPTH:
                    targets.add(s)
                    regions.append(s)
                else:
                    stack.append((s, depth + 1))
    regions.sort()

    lines: list[str] = []
    pc_at: list[int | None] = [None]  # generated line number -> pc
    # generated line number -> reach of its op, or of the return a check
    # guards; a budget check raises only when its reach is above left
    reach: list[int] = [0]

    def emit(depth: int, text: str, pc: int | None = None, r: int = 0) -> None:
        lines.append(" " * depth + text)
        pc_at.append(pc)
        reach.append(r)

    def emit_block(b: int, depth: int, spent: int, t: int) -> None:
        for pc in range(starts[b], ends[b]):
            spent += 1
            if code[pc][0] in (_RET, _RETBIN):
                emit(depth, f"if left < {spent}: {_OVERRUN}", r=spent)
            for text in _op_source(code[pc]):
                emit(depth, text, pc, spent)
        if len(succ[b]) == 2:  # the taken branch under the jump's if
            emit_exit(succ[b][0], depth + 1, spent, t)
        if succ[b]:
            emit_exit(succ[b][-1], depth, spent, t)

    def emit_exit(s: int, depth: int, spent: int, t: int) -> None:
        if s not in targets:
            emit_block(s, depth, spent, t)
            return
        emit(depth, f"left -= {spent}")
        if s == t:
            emit(depth, "continue")
        else:
            emit(depth, f"blk = {s}")
            emit(depth, "break")

    def emit_tree(lo: int, hi: int, depth: int) -> None:
        if hi - lo > 1:
            mid = (lo + hi) // 2
            emit(depth, f"if blk < {regions[mid]}:")
            emit_tree(lo, mid, depth + 1)
            emit(depth, "else:")
            emit_tree(mid, hi, depth + 1)
            return
        t = regions[lo]
        emit(depth, "while True:")
        emit(depth + 1, f"if left < 0: {_OVERRUN}")  # at reach 0
        emit_block(t, depth + 1, 0, t)

    params = ", ".join(["arr", "budget"] + [f"s{i}=0.0" for i in range(n_slots)])
    emit(0, f"def run({params}):")
    kinds = {op[0] for op in code}
    if _STORE in kinds:
        emit(1, "arr = arr[:]")
    emit(1, "n = len(arr)")
    if _LEN in kinds:
        emit(1, "nf = float(n)")
    if _LOAD in kinds or _STORE in kinds:
        emit(1, "IDX = _INDEX_TABLES.get(n) or _index_table(n)")
    emit(1, "left = budget")
    emit(1, "blk = 0")
    emit(1, "try:")
    emit(2, "while True:")
    emit_tree(0, len(regions), 3)
    emit(1, "except (Trap, KeyError, OverflowError, ValueError) as exc:")
    emit(2, "line = exc.__traceback__.tb_lineno")
    emit(2, f"if reach[line] > left: {_OVERRUN} from None")
    emit(2, "raise _trap(exc, n, code[pc_at[line]]) from None")
    namespace = dict(_GENERATED_GLOBALS, NAME=name, code=code, pc_at=pc_at, reach=reach)
    exec(compile("\n".join(lines) + "\n", f"<mir {name}>", "exec"), namespace)
    return namespace["run"]
