"""The bytecode dispatch loop of mrkit 0.1: one step per op and one branch
per op kind.  ``conftest.both_paths`` requires ``mrkit.mir.interpret``,
which runs the Python that ``mrkit.codegen`` generates, to return the same
double bit for bit as this loop run from pc 0, or to raise a trap of the
same kind, line and text.

Only the loop and the trap of a non-finite index live here; the op
constants, ``Trap`` and ``_fault``, which maps any other
``OverflowError``/``ValueError`` to the op that raised it, are shared with
``mrkit.mir``.
"""

from __future__ import annotations

import math

from mrkit.mir import (_BIN, _CALL, _CMP, _JIF, _JMP, _LEN, _LOAD, _MOV, _POW, _RET, _STORE,
                       Function, Trap, _fault)


def _ref_fault(exc: OverflowError | ValueError, op: tuple) -> Trap:
    # int() of an infinite or NaN index
    if op[0] == _LOAD or op[0] == _STORE:
        return Trap("bad-index", str(exc), op[-1])
    return _fault(exc, op)


def _run(fn: Function, arr: list[float], budget: int) -> float:
    """Reference dispatch loop: run ``fn.code`` from pc 0 on ``arr``, with
    ``fn.n_slots`` slots at 0.0.

    One step is one bytecode op.
    """
    code, slots = fn.code, [0.0] * fn.n_slots
    pc = steps = 0
    n = len(arr)
    try:
        while True:
            steps += 1
            if steps > budget:
                raise Trap("step-budget", f"exceeded {budget} steps in {fn.name!r}")
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
                slots[op[1]] = op[3] if op[2] == 0 else slots[op[3]]
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
                    slots[op[1]] = float(math.floor(a))
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
        raise _ref_fault(exc, op) from None
