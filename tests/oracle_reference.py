"""The per-trial labelling loop of mrkit before each (method, MR) stream
built its draw functions once: every trial recomputed the spans of its
draws, ``apply_mr`` re-checked the MR and walked its branches, PER went
through ``rng.shuffle``, and ``check_relation`` looked up the relation.
``test_oracle.py`` requires ``mrkit.oracle.label_method`` to return the
same ``LabelReport`` as ``label_method`` here.

Only the loop, the draws and the relation live here; the report types,
``_below`` (itself checked against ``rng.randrange``) and ``_substream``
are shared with ``mrkit.oracle``.
"""

from __future__ import annotations

import random
from math import isfinite

from mrkit.mir import Function, Trap, interpret
from mrkit.oracle import (EQ, GEQ, LEQ, MR_IDS, RELATIONS, LabelReport, MrLabelSet, MrOutcome,
                          OracleError, OracleParams, Witness, _below, _substream)


# The domain is spelled here as literals, not read from mrkit.oracle, so a
# changed bound there fails the differential tests.

def draw_source(rng: random.Random, mr: str) -> list[float]:
    getrandbits = rng.getrandbits
    length = 2 + _below(getrandbits, 19)  # 2..20
    lo = 1 if mr == "INV" else 0
    return [float(lo + _below(getrandbits, 101 - lo)) for _ in range(length)]  # lo..100


def apply_mr(mr: str, source, rng: random.Random) -> list[float]:
    if mr not in RELATIONS:
        raise OracleError(f"unknown MR {mr!r}")
    src = list(map(float, source))
    n = len(src)
    if mr == "ADD" or mr == "MUL":
        c = 1 + _below(rng.getrandbits, 10)  # 1..10
        return [v + c for v in src] if mr == "ADD" else [v * c for v in src]
    if mr == "PER":
        if n < 2:
            raise OracleError("PER needs at least two elements")
        idx = list(range(n))
        while True:
            rng.shuffle(idx)
            if idx != list(range(n)):
                break
        return [src[i] for i in idx]
    if mr == "INC":
        return src + [float(_below(rng.getrandbits, 101))]  # 0..100
    if mr == "EXC":
        if n < 2:
            raise OracleError("EXC needs at least two elements")
        drop = _below(rng.getrandbits, n)
        return src[:drop] + src[drop + 1:]
    if any(v == 0 for v in src):
        raise OracleError("INV requires every element >= 1 (zero found)")
    return [1.0 / v for v in src]


def check_relation(mr: str, out_source: float, out_follow_up: float,
                   rel_tol: float = 1e-9) -> tuple[bool, str | None]:
    relation = RELATIONS[mr]
    if not (isfinite(out_source) and isfinite(out_follow_up)):
        return False, "non-finite output"
    slack = rel_tol * max(1.0, abs(out_source))
    if relation == GEQ:
        ok = out_follow_up >= out_source - slack
        return ok, None if ok else "follow-up output decreased"
    if relation == LEQ:
        ok = out_follow_up <= out_source + slack
        return ok, None if ok else "follow-up output increased"
    assert relation == EQ
    ok = abs(out_follow_up - out_source) <= slack
    return ok, None if ok else "outputs differ under permutation"


def label_method(fn: Function, params: OracleParams) -> LabelReport:
    outcomes: dict[str, MrOutcome] = {}
    for mr in MR_IDS:
        rng = _substream(params.seed, fn.name, mr)
        witness: Witness | None = None
        for trial in range(params.trials):
            source = draw_source(rng, mr)
            follow_up = apply_mr(mr, source, rng)
            try:
                out_src = interpret(fn, source, params.step_budget)
                out_fu = interpret(fn, follow_up, params.step_budget)
            except Trap as trap:
                out_src = out_fu = None
                cause = f"trap: {trap}"
            else:
                ok, cause = check_relation(mr, out_src, out_fu)
                if ok:
                    continue
            witness = Witness(trial=trial, source=tuple(source),
                              follow_up=tuple(follow_up), out_source=out_src,
                              out_follow_up=out_fu, cause=cause)
            break
        trials_run = params.trials if witness is None else witness.trial + 1
        outcomes[mr] = MrOutcome(trials_run=trials_run, witness=witness)
    labels = MrLabelSet({mr: outcome.witness is None for mr, outcome in outcomes.items()})
    return LabelReport(method=fn.name, labels=labels, outcomes=outcomes)
