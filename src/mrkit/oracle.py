"""Executable definitions of the six metamorphic relations and the
sampling oracle that labels methods by running them.

Relations (follow-up output vs. source output): ADD and MUL and INC must
not decrease the output, EXC and INV must not increase it, PER must leave
it unchanged up to a relative tolerance.  Follow-up construction: ADD adds
one positive constant to every element, MUL multiplies every element by
one, PER permutes (never the identity), INC appends one drawn element,
EXC removes one drawn index, INV replaces every element by its reciprocal.

A method is labelled 1 for an MR iff the relation holds on every sampled
trial; any interpreter trap labels it 0.  Positive labels are therefore
sampling-based claims; negative labels carry a concrete re-checkable
witness.

The input domain is fixed, not a parameter: a source is a list of 2..20
integer values in 0..100 (1..100 for INV, whose follow-up takes
reciprocals), ADD and MUL draw their constant from 1..10, and outputs
compare within a relative tolerance of 1e-9: ``RELATIONS`` and ``REL_TOL``
are the one place for the relations and the tolerance.  The follow-ups
check nothing, since they only get what the draws make: on a source of
one element PER would loop forever, and INV would divide by a zero value.

A method's trials draw from sha256-seeded substreams of the oracle seed,
each named by the method and one scope, and there are three kinds of
scope.  One trial draws one source from the method's ``"source"``
substream; each MR still sampling builds its follow-up from its own
``(method, MR)`` substream; and INV's source is the trial's source with
every 0 redrawn from 1..100 on the ``(method, "INV")`` substream, which
is the trial's source itself when it holds no 0 (about 9 trials in 10).
So each INV value is uniform on 1..100 (1/101 + 1/101 * 1/100 = 1/100),
as a direct draw's would be.  A trial runs each distinct source once, then
runs and checks each follow-up.  An MR stops sampling at its first
violation or trap; a trap in a source run is the witness of every MR
still sampling on that source.  ``label_method`` builds each stream's draw
function once: the source draw, each MR's follow-up, INV's redraw (PER
runs ``Random.shuffle``'s loop inline on its stream).  Every draw takes
the same words from its stream, in the same order, as a ``randint``,
``randrange`` or ``shuffle`` call would.  A drawn value is read from one
table of the domain's floats, built at import.

The oracle builds its sources and follow-ups from floats, so it calls the
interpreter through ``mir.interpret_floats``, which does not convert them
and leaves them as drawn for a witness.  The relation test
tries one chained comparison that only a clean, exactly holding trial
passes before it applies the tolerance rule.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from math import inf, isfinite

# the relation ids and label sets are the labels files' own, so that a
# command that only reads labels never imports this module; re-exported here
from .corpus import MR_IDS, MrLabelSet, OracleError
from .mir import DEFAULT_STEP_BUDGET, Function, Trap
from .mir import interpret_floats as interpret

GEQ, LEQ, EQ = "GEQ", "LEQ", "EQ"

# The fixed input domain (inclusive bounds): source lengths, source and INC
# values, INV's source values, ADD and MUL constants; and the relative
# tolerance of every relation.
MIN_LEN, MAX_LEN = 2, 20
MIN_VALUE, MAX_VALUE = 0, 100
MIN_INV_VALUE = 1
MIN_CONST, MAX_CONST = 1, 10
REL_TOL = 1e-9

# float(v) for every v in MIN_VALUE..MAX_VALUE, read as _VALUES[v - MIN_VALUE]
_VALUES = [float(v) for v in range(MIN_VALUE, MAX_VALUE + 1)]


# MR -> the relation its follow-up output must bear to the source output
RELATIONS = {"ADD": GEQ, "MUL": GEQ, "PER": EQ, "INC": GEQ, "EXC": LEQ, "INV": LEQ}


@dataclass(frozen=True)
class OracleParams:
    trials: int = 200
    seed: int = 42

    def __post_init__(self) -> None:
        # a bool is an int to isinstance, and would label with trials_run True
        if type(self.trials) is not int or type(self.seed) is not int:
            raise OracleError("trials and seed must be ints")
        if self.trials < 1:
            raise OracleError("trials must be >= 1")


@dataclass(frozen=True)
class Witness:
    trial: int
    source: tuple[float, ...]
    follow_up: tuple[float, ...] | None
    out_source: float | None
    out_follow_up: float | None
    cause: str


@dataclass(frozen=True)
class MrOutcome:
    trials_run: int
    witness: Witness | None = None

    @property
    def label(self) -> bool:  # the relation held on every trial
        return self.witness is None


@dataclass(frozen=True)
class LabelReport:
    method: str
    labels: MrLabelSet
    outcomes: dict[str, MrOutcome] = field(default_factory=dict)


def _substream(seed: int, *scope: str) -> random.Random:
    """Process-stable RNG substream (Python's hash() is salted; sha256 is
    not)."""
    digest = hashlib.sha256(":".join([str(seed), *scope]).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# Every integer draw is CPython's ``Random._randbelow_with_getrandbits``
# loop, so it takes the same numbers from the stream as ``rng.randint(lo, hi)``
# (``lo + below(hi - lo + 1)``) and ``rng.randrange(n)`` (``below(n)``) do,
# without their three Python calls per number; the per-element loops of the
# source draw and of PER's shuffle run it inline.  ``span`` must be
# positive: ``getrandbits(0)`` is 0, so a span of 0 would never leave the loop.

def _below(getrandbits, span: int) -> int:
    """A uniform int in ``[0, span)`` drawn as ``rng.randrange(span)`` draws it."""
    bits = span.bit_length()
    r = getrandbits(bits)
    while r >= span:
        r = getrandbits(bits)
    return r


def _source_draws(getrandbits):
    """The function that draws the next source from ``getrandbits``: a
    length, then that many values, each as ``_below`` draws it."""
    len_lo = MIN_LEN
    len_span = MAX_LEN - len_lo + 1
    len_bits = len_span.bit_length()
    span = MAX_VALUE - MIN_VALUE + 1
    bits = span.bit_length()
    value = _VALUES

    def draw() -> list[float]:
        r = getrandbits(len_bits)
        while r >= len_span:
            r = getrandbits(len_bits)
        n = len_lo + r
        source = [0.0] * n
        for i in range(n):
            r = getrandbits(bits)
            while r >= span:
                r = getrandbits(bits)
            source[i] = value[r]
        return source

    return draw


def _inv_sources(getrandbits):
    """The function that gives INV's source of a trial's source: the source
    itself if it holds no 0, else a copy with each 0 redrawn from
    ``MIN_INV_VALUE..MAX_VALUE`` as ``_below`` draws it from
    ``getrandbits``."""
    span = MAX_VALUE - MIN_INV_VALUE + 1
    bits = span.bit_length()
    value = _VALUES[MIN_INV_VALUE - MIN_VALUE:]

    def inv_source(source: list[float]) -> list[float]:
        if 0.0 not in source:
            return source
        redrawn = source[:]
        for i, v in enumerate(redrawn):
            if v == 0.0:
                r = getrandbits(bits)
                while r >= span:
                    r = getrandbits(bits)
                redrawn[i] = value[r]
        return redrawn

    return inv_source


def _follow_ups(mr: str, getrandbits):
    """The function that builds ``mr``'s follow-up of a list of floats,
    drawing what it needs from ``getrandbits``; it leaves the source alone.
    Its source is one from ``mr``'s domain: for INV, one that
    ``_inv_sources`` gives."""
    if mr == "ADD" or mr == "MUL":
        c_span = MAX_CONST - MIN_CONST + 1
        if mr == "ADD":
            def add(src: list[float]) -> list[float]:
                c = float(MIN_CONST + _below(getrandbits, c_span))
                return [v + c for v in src]
            return add

        def multiply(src: list[float]) -> list[float]:
            c = float(MIN_CONST + _below(getrandbits, c_span))
            return [v * c for v in src]
        return multiply
    if mr == "PER":
        def permute(src: list[float]) -> list[float]:
            n = len(src)
            identity = list(range(n))
            idx = identity[:]
            while idx == identity:
                # Random.shuffle(idx): j = _below(getrandbits, i + 1), inlined
                for i in range(n - 1, 0, -1):
                    bits = (i + 1).bit_length()
                    j = getrandbits(bits)
                    while j > i:
                        j = getrandbits(bits)
                    idx[i], idx[j] = idx[j], idx[i]
            return [src[i] for i in idx]
        return permute
    if mr == "INC":
        def append(src: list[float]) -> list[float]:
            return src + [_VALUES[_below(getrandbits, len(_VALUES))]]
        return append
    if mr == "EXC":
        def exclude(src: list[float]) -> list[float]:
            drop = _below(getrandbits, len(src))
            return src[:drop] + src[drop + 1:]
        return exclude

    def invert(src: list[float]) -> list[float]:  # INV
        return [1.0 / v for v in src]
    return invert


# relation -> the cause a violation of it reports
_CAUSES = {GEQ: "follow-up output decreased", LEQ: "follow-up output increased",
           EQ: "outputs differ under permutation"}


def _relation_test(mr: str):
    """``mr``'s relation as a test of ``(out_source, out_follow_up)``: the
    follow-up output may fall short of GEQ, pass LEQ or miss EQ by at most
    ``REL_TOL * max(1, |out_source|)``; non-finite outputs always violate.

    Each test first tries the relation without slack on finite outputs, one
    chained comparison: a pair that passes it passes the full rule, since
    the slack is never negative, and any other pair gets the full rule."""
    relation = RELATIONS[mr]
    if relation == GEQ:
        return lambda s, f: -inf < s <= f < inf or (
            isfinite(s) and isfinite(f) and f >= s - REL_TOL * max(1.0, abs(s)))
    if relation == LEQ:
        return lambda s, f: -inf < f <= s < inf or (
            isfinite(s) and isfinite(f) and f <= s + REL_TOL * max(1.0, abs(s)))
    return lambda s, f: -inf < s == f < inf or (
        isfinite(s) and isfinite(f) and abs(f - s) <= REL_TOL * max(1.0, abs(s)))


def check_relation(mr: str, out_source: float,
                   out_follow_up: float) -> tuple[bool, str | None]:
    """Evaluate the output relation; non-finite outputs always violate.  A
    witness is re-checked by passing this its inputs' ``interpret`` outputs."""
    if _relation_test(mr)(out_source, out_follow_up):
        return True, None
    if not (isfinite(out_source) and isfinite(out_follow_up)):
        return False, "non-finite output"
    return False, _CAUSES[RELATIONS[mr]]


def _trial(fn: Function, budget: int, trial: int, source: list[float], active: list,
           outcomes: dict[str, MrOutcome]) -> list:
    """Trial ``trial`` of the MRs of ``active`` ((MR, follow-up builder,
    relation test) entries) on ``source``: build each follow-up, run the
    source once, then run and check each follow-up, each run allowed
    ``budget`` steps.  An MR that fails gets its outcome in ``outcomes``; a
    trap in the source run is the witness of them all.  Returns the
    entries still sampling."""
    follow_ups = [follow(source) for _, follow, _ in active]
    try:
        # interpret is looked up here on every call, not bound once,
        # so that a caller can wrap mrkit.oracle.interpret
        out_src = interpret(fn, source, budget)
    except Trap as trap:
        for (mr, _, _), follow_up in zip(active, follow_ups):
            outcomes[mr] = MrOutcome(trial + 1, Witness(
                trial, tuple(source), tuple(follow_up), None, None, f"trap: {trap}"))
        return []
    sampling = []
    for entry, follow_up in zip(active, follow_ups):
        mr, _, holds = entry
        try:
            out_fu = interpret(fn, follow_up, budget)
        except Trap as trap:
            witness = Witness(trial, tuple(source), tuple(follow_up), None, None,
                              f"trap: {trap}")
        else:
            if holds(out_src, out_fu):
                sampling.append(entry)
                continue
            witness = Witness(trial, tuple(source), tuple(follow_up), out_src, out_fu,
                              check_relation(mr, out_src, out_fu)[1])
        outcomes[mr] = MrOutcome(trial + 1, witness)
    return sampling


def _sample(fn: Function, params: OracleParams, draw, follows,
            inv_source) -> dict[str, MrOutcome]:
    """Run up to ``params.trials`` trials of the six MRs (``follows``: MR ->
    the function that builds its follow-up, in ``MR_IDS`` order) on sources
    from ``draw``.  INV, last while it samples, shares the trial's source
    run unless ``inv_source`` gives it a source of its own.  Each run may
    take ``DEFAULT_STEP_BUDGET`` steps, read here at call time."""
    budget = DEFAULT_STEP_BUDGET
    active = [(mr, follow, _relation_test(mr)) for mr, follow in follows.items()]
    outcomes: dict[str, MrOutcome] = {}
    for trial in range(params.trials):
        source = draw()
        own = inv_source(source) if active[-1][0] == "INV" else source
        if own is source:
            active = _trial(fn, budget, trial, source, active, outcomes)
        else:
            inv = active.pop()
            active = _trial(fn, budget, trial, source, active, outcomes) if active else []
            active += _trial(fn, budget, trial, own, [inv], outcomes)
        if not active:
            return outcomes
    for mr, _, _ in active:
        outcomes[mr] = MrOutcome(params.trials)
    return outcomes


def label_method(fn: Function, params: OracleParams = OracleParams()) -> LabelReport:
    """Sample every MR ``trials`` times; the label is 1 iff the relation
    held on every trial.  Deterministic per (seed, method)."""
    def stream(scope: str):
        return _substream(params.seed, fn.name, scope).getrandbits

    inv = stream("INV")
    follows = {mr: _follow_ups(mr, inv if mr == "INV" else stream(mr)) for mr in MR_IDS}
    outcomes = _sample(fn, params, _source_draws(stream("source")), follows,
                       _inv_sources(inv))
    outcomes = {mr: outcomes[mr] for mr in MR_IDS}
    labels = MrLabelSet({mr: outcome.label for mr, outcome in outcomes.items()})
    return LabelReport(method=fn.name, labels=labels, outcomes=outcomes)


@dataclass(frozen=True)
class Discrepancy:
    method: str
    mr: str
    dynamic: bool
    reference: bool
    category: str  # "violation" (witness attached) | "unconfirmed-negative"
    witness: Witness | None


def audit_labels(dynamic: dict[str, LabelReport],
                 reference: dict[str, MrLabelSet]) -> tuple[Discrepancy, ...]:
    """Compare dynamic labels against a reference set keyed by method name;
    a method on only one side is skipped.

    A dynamic 0 against a reference 1 carries the violating witness; a
    dynamic 1 against a reference 0 is reported as unconfirmed-negative
    (sampling found no violation, which is one-sided evidence, not an
    error)."""
    discrepancies: list[Discrepancy] = []
    for name in sorted(dynamic.keys() & reference.keys()):
        report = dynamic[name]
        ref = reference[name]
        for mr in MR_IDS:
            dyn = report.labels[mr]
            if dyn != ref[mr]:  # only a dynamic 0 has a witness
                discrepancies.append(Discrepancy(
                    name, mr, dyn, ref[mr], "unconfirmed-negative" if dyn else "violation",
                    report.outcomes[mr].witness))
    return tuple(discrepancies)

