"""Generated Python for mini-IR bytecode, one function per mini-IR function.

``generate`` turns the bytecode that ``mir._Lowerer`` emits at parse time
into the source of one Python function and compiles it, in one of two
versions: the fast one checks the step budget once per pass through a
loop header or merge point, the per-op one charges it per op.
``mir.interpret`` runs the fast version, and the per-op version from a
pass that might not fit in the budget.  Every op does what it does in the
reference dispatch loop, ``tests/mir_reference.py``, with the same
values, trap kinds, lines and messages.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable

from .mir import (_BIN, _BIN_OPS, _CALL, _CMP, _CMP_OPS, _JIF, _JMP, _LEN, _LOAD, _MOV,
                  _MOVC, _POW, _RET, _RETBIN, _STORE, Trap, _fault)

_ENDS_BLOCK = (_JMP, _JIF, _RET, _RETBIN)
# A block inlined this many blocks below its dispatch target becomes a
# target itself, which bounds the generated code's nesting far below
# Python's 100 levels of indentation.
_MAX_INLINE_DEPTH = 32
# Index tables are kept for array lengths below this; a kept table is
# never changed, so every caller can share it.
_CACHED_LENGTHS = 256
_INDEX_TABLES: dict[int, dict[float, int]] = {}


def _index_table(n: int) -> dict[float, int]:
    """``{0.0: 0, …, float(n - 1): n - 1}``: every double that indexes an
    array of length ``n``, ``-0.0`` included, to its int."""
    table = _INDEX_TABLES.get(n)
    if table is None:
        table = {float(i): i for i in range(n)}
        if n < _CACHED_LENGTHS:
            _INDEX_TABLES[n] = table
    return table


def _bad_index(idx: float, n: int, line: int) -> Trap:
    """The trap of an index missing from the index table."""
    try:
        i = int(idx)
    except (OverflowError, ValueError) as exc:  # ±inf, NaN
        return Trap("bad-index", str(exc), line)
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
    "Trap": Trap, "_fault": _fault, "_index_table": _index_table, "_bad_index": _bad_index,
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
    if kind == _MOVC:
        return [f"s{op[1]} = {_literal(op[2])}"]
    if kind == _MOV:
        return [f"s{op[1]} = s{op[2]}"]
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


def generate(code: list[tuple], n_slots: int, name: str, per_op: bool = False) -> Callable:
    """Compile bytecode to a Python function
    ``run(fn, arr, budget, blk=0, steps=0, s0=0.0, …)``.

    Basic blocks start at pc 0, at every jump target and after every jump
    or return.  Some blocks are dispatch targets: in the per-op version
    every block, in the fast one block 0, every block with two or more
    predecessors, which includes every loop header, and every block that
    would be inlined more than _MAX_INLINE_DEPTH blocks below a target.
    Every other block has one predecessor and is emitted in place after
    it, so no block is emitted twice.  The function is one ``while True``
    loop that picks the target by its block id ``blk`` through a binary
    tree of ``if``s; each target is a ``while True`` loop over locals
    ``s0…`` whose body runs the target's block and the blocks inlined
    after it.  A jump back to the target is ``continue``, one to another
    target ``blk = t; break``.

    The fast version (``per_op`` false) keeps ``left = budget - steps``
    and checks it on each pass through a target ``t``: a pass of at most
    ``M_t`` ops, the longest path from ``t`` to the next target or
    return, runs only if ``left >= M_t``, and each exit to a target
    charges the ops of the path it took.  That is exact: the ops of a pass
    that fits run as they do when charged one by one, and only a return
    or a fault ends a pass early.  A pass that might not fit is not run;
    the call returns its resume state instead, the tuple ``(t, steps spent
    before the pass, s0, …)``.  The per-op version charges ``steps += 1``
    before each op and raises the ``step-budget`` trap at the first op
    past the budget; ``mir.interpret`` runs it from a resume state.  Loads
    and stores look the index up once in a table of the valid indices.  In
    both versions, one handler maps the ``KeyError`` of any other index to
    ``_bad_index``'s trap, and one an ``OverflowError`` or ``ValueError``
    to ``_fault``'s, each for the op whose generated line raised it.
    Values, traps and step counts are those of the reference dispatch loop
    in ``tests/mir_reference.py``.
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
    targets = (set(range(len(starts))) if per_op else
               {0} | {b for b, k in preds.items() if k >= 2})
    # the inlined blocks below each target, and the longest pass through it
    regions = sorted(targets)
    longest = {}
    for t in regions:  # grows as the depth cap adds targets
        order, stack = [], [(t, 0)]
        while stack:
            b, depth = stack.pop()
            order.append(b)
            for s in succ[b]:
                if s in targets:
                    continue
                if depth == _MAX_INLINE_DEPTH:
                    targets.add(s)
                    regions.append(s)
                else:
                    stack.append((s, depth + 1))
        for b in reversed(order):
            longest[b] = ends[b] - starts[b] + max(
                (longest[s] for s in succ[b] if s not in targets), default=0)
    regions.sort()

    slots = [f"s{i}" for i in range(n_slots)]
    lines: list[str] = []
    pc_at: list[int | None] = [None]  # generated line number -> pc

    def emit(depth: int, text: str, pc: int | None = None) -> None:
        lines.append(" " * depth + text)
        pc_at.append(pc)

    def emit_block(b: int, depth: int, spent: int, t: int) -> None:
        for pc in range(starts[b], ends[b]):
            if per_op:
                emit(depth, "steps += 1")
                emit(depth, 'if steps > budget: '
                            'raise Trap("step-budget", f"exceeded {budget} steps in {fn.name!r}")')
            for text in _op_source(code[pc]):
                emit(depth, text, pc)
        spent += ends[b] - starts[b]
        if len(succ[b]) == 2:  # the taken branch under the jump's if
            emit_exit(succ[b][0], depth + 1, spent, t)
        if succ[b]:
            emit_exit(succ[b][-1], depth, spent, t)

    def emit_exit(s: int, depth: int, spent: int, t: int) -> None:
        if s not in targets:
            emit_block(s, depth, spent, t)
            return
        if not per_op:
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
        if not per_op:
            emit(depth + 1, f"if left < {longest[t]}: "
                            f"return {', '.join([str(t), 'budget - left'] + slots)}")
        emit_block(t, depth + 1, 0, t)

    params = ", ".join(["fn", "arr", "budget", "blk=0", "steps=0"] + [f"{s}=0.0" for s in slots])
    emit(0, f"def run({params}):")
    emit(1, "n = len(arr)")
    emit(1, "nf = float(n)")
    if any(op[0] == _LOAD or op[0] == _STORE for op in code):
        emit(1, "IDX = _index_table(n)")
    if not per_op:
        emit(1, "left = budget - steps")
    emit(1, "try:")
    emit(2, "while True:")
    emit_tree(0, len(regions), 3)
    emit(1, "except KeyError as exc:")
    emit(2, "raise _bad_index(exc.args[0], n, code[pc_at[exc.__traceback__.tb_lineno]][-1]) "
            "from None")
    emit(1, "except (OverflowError, ValueError) as exc:")
    emit(2, "raise _fault(exc, code[pc_at[exc.__traceback__.tb_lineno]]) from None")
    namespace = dict(_GENERATED_GLOBALS, code=code, pc_at=pc_at)
    version = "per-op" if per_op else "fast"
    exec(compile("\n".join(lines) + "\n", f"<mir {name} {version}>", "exec"), namespace)
    return namespace["run"]
