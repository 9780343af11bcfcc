"""The per-trial labelling loop of mrkit, spelled without the oracle's
prebuilt draw functions: every trial recomputes the spans of its draws,
``apply_mr`` re-checks the MR and walks its branches, PER goes through
``rng.shuffle``, and ``check_relation`` looks up the relation.  A trial
draws one source for ADD, MUL, PER, INC and EXC from the method's
``"source"`` substream, builds each sampling MR's follow-up from its own
substream, runs the source once and then each follow-up; INV runs alone
on its own substream.  ``test_oracle.py`` requires
``mrkit.oracle.label_method`` to return the same ``LabelReport`` as
``label_method`` here.

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


def _trial_loop(fn: Function, params: OracleParams, source_rng: random.Random,
                source_mr: str, rngs: dict[str, random.Random]) -> dict[str, MrOutcome]:
    """Trials of the MRs of ``rngs`` (MR -> its follow-up stream) on sources
    that ``source_rng`` draws from ``source_mr``'s domain."""
    outcomes: dict[str, MrOutcome] = {}
    active = list(rngs)
    for trial in range(params.trials):
        if not active:
            break
        source = draw_source(source_rng, source_mr)
        follow_ups = {mr: apply_mr(mr, source, rngs[mr]) for mr in active}
        try:
            out_src = interpret(fn, source, params.step_budget)
        except Trap as trap:
            out_src, source_trap = None, f"trap: {trap}"
        else:
            source_trap = None
        for mr in list(active):
            follow_up = follow_ups[mr]
            if source_trap is not None:
                out_fu, cause = None, source_trap
            else:
                try:
                    out_fu = interpret(fn, follow_up, params.step_budget)
                except Trap as trap:
                    out_fu, cause = None, f"trap: {trap}"
                else:
                    ok, cause = check_relation(mr, out_src, out_fu)
                    if ok:
                        continue
            trapped = cause.startswith("trap: ")
            witness = Witness(trial=trial, source=tuple(source), follow_up=tuple(follow_up),
                              out_source=None if trapped else out_src,
                              out_follow_up=None if trapped else out_fu, cause=cause)
            outcomes[mr] = MrOutcome(trials_run=trial + 1, witness=witness)
            active.remove(mr)
    for mr in active:
        outcomes[mr] = MrOutcome(trials_run=params.trials)
    return outcomes


def label_method(fn: Function, params: OracleParams) -> LabelReport:
    shared = [mr for mr in MR_IDS if mr != "INV"]
    outcomes = _trial_loop(fn, params, _substream(params.seed, fn.name, "source"), "ADD",
                           {mr: _substream(params.seed, fn.name, mr) for mr in shared})
    inv = _substream(params.seed, fn.name, "INV")
    outcomes.update(_trial_loop(fn, params, inv, "INV", {"INV": inv}))
    outcomes = {mr: outcomes[mr] for mr in MR_IDS}
    labels = MrLabelSet({mr: outcome.witness is None for mr, outcome in outcomes.items()})
    return LabelReport(method=fn.name, labels=labels, outcomes=outcomes)
