"""Generated Python for mini-IR bytecode, one function per mini-IR function.

``generate`` turns the bytecode that ``mir._Lowerer`` emits at parse time
into the source of one Python function and compiles it, in one of two
versions: the fast one charges the step budget per basic block, the per-op
one per op.  ``mir.interpret`` runs the fast version, and the per-op
version for a block that would end past the budget.
Every op does what it does in the reference dispatch loop,
``tests/mir_reference.py``, with the same values, trap kinds, lines and
messages.
"""

from __future__ import annotations

import math
from typing import Callable

from .mir import (_BIN, _BIN_OPS, _CALL, _CMP, _CMP_OPS, _JIF, _JMP, _LEN, _LOAD, _MOV,
                  _MOVC, _POW, _RET, _RETBIN, _STORE, Trap, _fault)

_ENDS_BLOCK = (_JMP, _JIF, _RET, _RETBIN)


def _index_trap(idx, i: int, n: int, line: int) -> Trap:
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
_GENERATED_GLOBALS = {
    "Trap": Trap, "_fault": _fault, "_index_trap": _index_trap, "inf": math.inf,
    "sqrt": math.sqrt, "log": math.log, "exp": math.exp, "floor": math.floor,
    "fmod": math.fmod, "fpow": math.pow,
}


def _literal(value: float) -> str:
    text = float.__repr__(value)  # 'inf' for a huge literal, a name bound above
    return f"({text})" if text.startswith("-") else text


def _operand(is_slot: int, value) -> str:
    return f"s{value}" if is_slot else _literal(value)


def _op_source(op: tuple, block: dict[int, int], nxt: int) -> list[str]:
    """Python lines that do what one bytecode op does in the reference
    loop, ``tests/mir_reference.py``."""
    kind = op[0]
    if kind == _MOVC:
        return [f"s{op[1]} = {_literal(op[2])}"]
    if kind == _MOV:
        return [f"s{op[1]} = s{op[2]}"]
    if kind == _LEN:
        return [f"s{op[1]} = nf"]
    if kind == _LOAD or kind == _STORE:
        if kind == _LOAD:
            idx, line, last = _operand(op[2], op[3]), op[4], f"s{op[1]} = arr[i]"
        else:
            idx, line = _operand(op[1], op[2]), op[5]
            last = f"arr[i] = {_operand(op[3], op[4])}"
        return [f"i = int({idx})",
                f"if {idx} != i or not 0 <= i < n: raise _index_trap({idx}, i, n, {line})",
                last]
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
    if kind == _JMP:
        return [f"blk = {block[op[1]]}"]
    if kind == _JIF:
        a, b = _operand(op[2], op[3]), _operand(op[4], op[5])
        return [f"blk = {block[op[6]]} if {a} {_CMP_OPS[op[1]]} {b} else {nxt}"]
    return [f"return {_operand(op[1], op[2])}"]  # _RET


def generate(code: list[tuple], n_slots: int, name: str, per_op: bool = False) -> Callable:
    """Compile bytecode to a Python function
    ``run(fn, arr, budget, blk=0, steps=0, s0=0.0, …)``.

    Basic blocks start at pc 0, at every jump target and after every jump
    or return.  The function is one ``while True`` loop that picks the
    block by its id ``blk`` through a binary tree of ``if``s; each block is
    straight-line code over locals ``s0…``, entered at block ``blk`` with
    ``steps`` spent and the slots passed in.

    The fast version (``per_op`` false) charges ``steps += L`` on entry to
    a block of ``L`` ops.  Charging a whole block is exact: a block runs to
    its end or traps partway, and only its last op can return.  A block
    that would end past the budget is not run; the call returns its resume
    state instead, the tuple ``(blk, steps spent before the block, s0, …)``.
    The per-op version charges ``steps += 1`` before each op and raises the
    ``step-budget`` trap at the first op past the budget; ``mir.interpret``
    runs it from a resume state.  In both, one handler maps an
    ``OverflowError``/``ValueError`` to the op whose generated line raised
    it.  Values, traps and step counts are those of the reference dispatch
    loop in ``tests/mir_reference.py``.
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
    slots = [f"s{i}" for i in range(n_slots)]
    lines: list[str] = []
    pc_at: list[int | None] = [None]  # generated line number -> pc

    def emit(depth: int, text: str, pc: int | None = None) -> None:
        lines.append(" " * depth + text)
        pc_at.append(pc)

    def emit_block(b: int, depth: int) -> None:
        start, end = starts[b], ends[b]
        if not per_op:
            emit(depth, f"steps += {end - start}")
            emit(depth, "if steps > budget: break")
        for pc in range(start, end):
            if per_op:
                emit(depth, "steps += 1")
                emit(depth, 'if steps > budget: '
                            'raise Trap("step-budget", f"exceeded {budget} steps in {fn.name!r}")')
            for text in _op_source(code[pc], block, b + 1):
                emit(depth, text, pc)
        if code[end - 1][0] not in _ENDS_BLOCK:
            emit(depth, f"blk = {b + 1}")

    def emit_tree(lo: int, hi: int, depth: int) -> None:
        if hi - lo == 1:
            emit_block(lo, depth)
            return
        mid = (lo + hi) // 2
        emit(depth, f"if blk < {mid}:")
        emit_tree(lo, mid, depth + 1)
        emit(depth, "else:")
        emit_tree(mid, hi, depth + 1)

    params = ", ".join(["fn", "arr", "budget", "blk=0", "steps=0"] + [f"{s}=0.0" for s in slots])
    emit(0, f"def run({params}):")
    emit(1, "n = len(arr)")
    emit(1, "nf = float(n)")
    emit(1, "try:")
    emit(2, "while True:")
    emit_tree(0, len(starts), 3)
    emit(1, "except (OverflowError, ValueError) as exc:")
    emit(2, "raise _fault(exc, code[pc_at[exc.__traceback__.tb_lineno]]) from None")
    if not per_op:
        emit(1, f"return {', '.join(['blk', 'steps - ends[blk] + starts[blk]'] + slots)}")
    namespace = dict(_GENERATED_GLOBALS, code=code, pc_at=pc_at, starts=starts, ends=ends)
    version = "per-op" if per_op else "fast"
    exec(compile("\n".join(lines) + "\n", f"<mir {name} {version}>", "exec"), namespace)
    return namespace["run"]
