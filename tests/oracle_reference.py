"""The per-trial labelling loop of mrkit, spelled without the oracle's
prebuilt draw functions: every trial recomputes the spans of its draws,
``apply_mr`` re-checks the MR and walks its branches, PER goes through
``rng.shuffle``, and ``check_relation`` looks up the relation.  A trial
draws one source from the method's ``"source"`` substream with
``randint``; INV's source is that source with each 0 redrawn by
``randint(1, 100)`` on the ``(method, "INV")`` substream, and each
sampling MR builds its follow-up from its own ``(method, MR)`` substream.
The trial runs each distinct source once, INV's only when it differs from
the trial's, and then each follow-up.  ``test_oracle.py`` requires
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

def draw_source(rng: random.Random) -> list[float]:
    length = rng.randint(2, 20)
    return [float(rng.randint(0, 100)) for _ in range(length)]


def inv_source(source: list[float], rng: random.Random) -> list[float]:
    """INV's source of a trial's source: each 0 redrawn from 1..100."""
    if 0.0 not in source:
        return source
    return [v if v != 0.0 else float(rng.randint(1, 100)) for v in source]


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


def label_method(fn: Function, params: OracleParams, step_budget: int) -> LabelReport:
    source_rng = _substream(params.seed, fn.name, "source")
    rngs = {mr: _substream(params.seed, fn.name, mr) for mr in MR_IDS}
    outcomes: dict[str, MrOutcome] = {}
    active = list(MR_IDS)
    for trial in range(params.trials):
        if not active:
            break
        source = draw_source(source_rng)
        sources = {mr: inv_source(source, rngs[mr]) if mr == "INV" else source
                   for mr in active}
        follow_ups = {mr: apply_mr(mr, sources[mr], rngs[mr]) for mr in active}
        runs = {}  # id of a source -> (its output, its trap cause)
        for mr in active:
            src = sources[mr]
            if id(src) not in runs:
                try:
                    runs[id(src)] = interpret(fn, src, step_budget), None
                except Trap as trap:
                    runs[id(src)] = None, f"trap: {trap}"
        for mr in list(active):
            out_src, cause = runs[id(sources[mr])]
            follow_up = follow_ups[mr]
            if cause is None:
                try:
                    out_fu = interpret(fn, follow_up, step_budget)
                except Trap as trap:
                    cause = f"trap: {trap}"
                else:
                    ok, cause = check_relation(mr, out_src, out_fu)
                    if ok:
                        continue
            trapped = cause.startswith("trap: ")
            witness = Witness(trial=trial, source=tuple(sources[mr]),
                              follow_up=tuple(follow_up),
                              out_source=None if trapped else out_src,
                              out_follow_up=None if trapped else out_fu, cause=cause)
            outcomes[mr] = MrOutcome(trials_run=trial + 1, witness=witness)
            active.remove(mr)
    for mr in active:
        outcomes[mr] = MrOutcome(trials_run=params.trials)
    outcomes = {mr: outcomes[mr] for mr in MR_IDS}
    labels = MrLabelSet({mr: outcome.witness is None for mr, outcome in outcomes.items()})
    return LabelReport(method=fn.name, labels=labels, outcomes=outcomes)
