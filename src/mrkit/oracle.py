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

Each (method, MR) pair has its own random stream.  ``label_method`` builds
that stream's two draw functions once, with the MR's spans and constants
fixed: one draws the next source, one builds its follow-up (PER runs
``Random.shuffle``'s loop inline on the same stream).  Every trial then
takes the same words from the stream, in the same order, as per-trial
``randint``, ``randrange`` and ``shuffle`` calls did, so every label CSV
is unchanged.  A drawn value is read from a table of the stream's value
domain, ``[float(lo + r) for r in range(span)]``, built with the draw
function when the span is at most ``_MAX_TABLED_SPAN`` and computed as
``float(lo + r)`` above it: the same float either way.

The oracle builds its sources and follow-ups from floats, so it calls the
interpreter through ``mir.interpret_floats``, which neither converts nor
copies, and hands it a copy of each list: the run may store into the
list it gets, and a witness keeps the input as drawn.  The relation test
tries one chained comparison that only a clean, exactly holding trial
passes before it applies the tolerance rule.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from math import inf, isfinite

from .mir import Function, Trap
from .mir import interpret_floats as interpret

MR_IDS = ("ADD", "MUL", "PER", "INC", "EXC", "INV")

GEQ, LEQ, EQ = "GEQ", "LEQ", "EQ"


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class MrSpec:
    id: str
    relation: str  # GEQ | LEQ | EQ comparing follow-up against source
    description: str


MR_SPECS: dict[str, MrSpec] = {
    "ADD": MrSpec("ADD", GEQ, "add a positive constant to each element"),
    "MUL": MrSpec("MUL", GEQ, "multiply each element by a positive constant"),
    "PER": MrSpec("PER", EQ, "permute the elements"),
    "INC": MrSpec("INC", GEQ, "append a new element"),
    "EXC": MrSpec("EXC", LEQ, "remove an element"),
    "INV": MrSpec("INV", LEQ, "replace each element by its reciprocal"),
}


@dataclass(frozen=True)
class OracleParams:
    trials: int = 200
    min_len: int = 2
    max_len: int = 20
    min_value: int = 0
    max_value: int = 100
    min_const: int = 1
    max_const: int = 10
    rel_tol: float = 1e-9
    seed: int = 42
    step_budget: int = 1_000_000

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise OracleError("trials must be >= 1")
        if self.min_len < 2 or self.max_len < self.min_len:
            raise OracleError("length range must satisfy 2 <= min <= max")
        if self.max_value < self.min_value:
            raise OracleError("empty value domain")
        if self.max_value < 1:
            raise OracleError("INV needs a value >= 1, so max_value must be >= 1")
        if self.max_const < self.min_const or self.min_const < 1:
            raise OracleError("constant domain must be positive")
        if not (isfinite(self.rel_tol) and self.rel_tol >= 0):
            raise OracleError("rel_tol must be finite and >= 0")
        if self.step_budget < 1:
            raise OracleError("step_budget must be >= 1")


@dataclass(frozen=True)
class MrLabelSet:
    labels: dict[str, bool]

    def __post_init__(self) -> None:
        if set(self.labels) != set(MR_IDS):
            raise OracleError(f"label set must cover exactly {MR_IDS}")

    def __getitem__(self, mr: str) -> bool:
        return self.labels[mr]

    def as_bits(self) -> tuple[int, ...]:
        return tuple(1 if self.labels[mr] else 0 for mr in MR_IDS)

    @classmethod
    def from_bits(cls, bits) -> "MrLabelSet":
        bits = list(bits)
        if len(bits) != 6 or any(b not in (0, 1) for b in bits):
            raise OracleError(f"need six 0/1 cells, got {bits!r}")
        return cls({mr: bool(b) for mr, b in zip(MR_IDS, bits)})


@dataclass(frozen=True)
class Witness:
    mr: str
    trial: int
    source: tuple[float, ...]
    follow_up: tuple[float, ...] | None
    out_source: float | None
    out_follow_up: float | None
    cause: str


@dataclass(frozen=True)
class MrOutcome:
    mr: str
    label: bool
    trials_run: int
    witness: Witness | None = None


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

# Value domains up to this span are drawn from a table of their floats; a
# wider one (the span can be 2^40 and more) computes each float instead.
_MAX_TABLED_SPAN = 4096


class _Floats:
    """``float(lo + r)`` as ``self[r]``: a table too wide to build."""

    def __init__(self, lo: int):
        self.lo = lo

    def __getitem__(self, r: int) -> float:
        return float(self.lo + r)


def _below(getrandbits, span: int) -> int:
    """A uniform int in ``[0, span)`` drawn as ``rng.randrange(span)`` draws it."""
    bits = span.bit_length()
    r = getrandbits(bits)
    while r >= span:
        r = getrandbits(bits)
    return r


def _source_draws(params: OracleParams, mr: str, getrandbits):
    """The function that draws ``mr``'s next source from ``getrandbits``: a
    length, then that many values, each as ``_below`` draws it."""
    len_lo = params.min_len
    len_span = params.max_len - len_lo + 1
    len_bits = len_span.bit_length()
    lo = max(params.min_value, 1) if mr == "INV" else params.min_value
    span = params.max_value - lo + 1
    bits = span.bit_length()
    value = ([float(lo + r) for r in range(span)] if span <= _MAX_TABLED_SPAN
             else _Floats(lo))

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


def _follow_ups(params: OracleParams, mr: str, getrandbits):
    """The function that builds ``mr``'s follow-up of a list of floats,
    drawing what it needs from ``getrandbits``; it leaves the source alone."""
    if mr == "ADD" or mr == "MUL":
        c_lo = params.min_const
        c_span = params.max_const - c_lo + 1
        # float(c) gives the sums and products that the int c gives, and
        # a c beyond the doubles raises the OverflowError that they raise
        if mr == "ADD":
            def add(src: list[float]) -> list[float]:
                c = float(c_lo + _below(getrandbits, c_span))
                return [v + c for v in src]
            return add

        def multiply(src: list[float]) -> list[float]:
            c = float(c_lo + _below(getrandbits, c_span))
            return [v * c for v in src]
        return multiply
    if mr == "PER":
        def permute(src: list[float]) -> list[float]:
            n = len(src)
            if n < 2:
                raise OracleError("PER needs at least two elements")
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
        v_lo = params.min_value
        v_span = params.max_value - v_lo + 1

        def append(src: list[float]) -> list[float]:
            return src + [float(v_lo + _below(getrandbits, v_span))]
        return append
    if mr == "EXC":
        def exclude(src: list[float]) -> list[float]:
            n = len(src)
            if n < 2:
                raise OracleError("EXC needs at least two elements")
            drop = _below(getrandbits, n)
            return src[:drop] + src[drop + 1:]
        return exclude

    def invert(src: list[float]) -> list[float]:  # INV
        try:
            return [1.0 / v for v in src]
        except ZeroDivisionError:  # 1.0 / -0.0 raises too
            raise OracleError("INV requires every element >= 1 (zero found)") from None
    return invert


def apply_mr(mr: str, source, rng: random.Random,
             params: OracleParams = OracleParams()) -> list[float]:
    """Build the follow-up input for one relation; draws come from rng."""
    if mr not in MR_SPECS:
        raise OracleError(f"unknown MR {mr!r}")
    return _follow_ups(params, mr, rng.getrandbits)(list(map(float, source)))


# relation -> the cause a violation of it reports
_CAUSES = {GEQ: "follow-up output decreased", LEQ: "follow-up output increased",
           EQ: "outputs differ under permutation"}


def _relation_test(mr: str, rel_tol: float):
    """``mr``'s relation as a test of ``(out_source, out_follow_up)``: the
    follow-up output may fall short of GEQ, pass LEQ or miss EQ by at most
    ``rel_tol * max(1, |out_source|)``; non-finite outputs always violate.

    Each test first tries the relation without slack on finite outputs, one
    chained comparison: a pair that passes it passes the full rule, since
    the slack is never negative, and any other pair gets the full rule."""
    relation = MR_SPECS[mr].relation
    if relation == GEQ:
        return lambda s, f: -inf < s <= f < inf or (
            isfinite(s) and isfinite(f) and f >= s - rel_tol * max(1.0, abs(s)))
    if relation == LEQ:
        return lambda s, f: -inf < f <= s < inf or (
            isfinite(s) and isfinite(f) and f <= s + rel_tol * max(1.0, abs(s)))
    return lambda s, f: -inf < s == f < inf or (
        isfinite(s) and isfinite(f) and abs(f - s) <= rel_tol * max(1.0, abs(s)))


def check_relation(mr: str, out_source: float, out_follow_up: float,
                   rel_tol: float = 1e-9) -> tuple[bool, str | None]:
    """Evaluate the output relation; non-finite outputs always violate."""
    if _relation_test(mr, rel_tol)(out_source, out_follow_up):
        return True, None
    if not (isfinite(out_source) and isfinite(out_follow_up)):
        return False, "non-finite output"
    return False, _CAUSES[MR_SPECS[mr].relation]


def label_method(fn: Function, params: OracleParams = OracleParams()) -> LabelReport:
    """Sample every MR ``trials`` times; the label is 1 iff the relation
    held on every trial.  Deterministic per (seed, method, MR)."""
    outcomes: dict[str, MrOutcome] = {}
    budget, rel_tol = params.step_budget, params.rel_tol
    for mr in MR_IDS:
        getrandbits = _substream(params.seed, fn.name, mr).getrandbits
        draw = _source_draws(params, mr, getrandbits)
        follow = _follow_ups(params, mr, getrandbits)
        holds = _relation_test(mr, rel_tol)
        witness: Witness | None = None
        for trial in range(params.trials):
            source = draw()
            follow_up = follow(source)
            try:
                # interpret is looked up here on every call, not bound once,
                # so that a caller can wrap mrkit.oracle.interpret; it gets
                # copies, since the run may store into its list
                out_src = interpret(fn, source[:], budget)
                out_fu = interpret(fn, follow_up[:], budget)
            except Trap as trap:
                out_src = out_fu = None
                cause = f"trap: {trap}"
            else:
                if holds(out_src, out_fu):
                    continue
                cause = check_relation(mr, out_src, out_fu, rel_tol)[1]
            witness = Witness(mr=mr, trial=trial, source=tuple(source),
                              follow_up=tuple(follow_up), out_source=out_src,
                              out_follow_up=out_fu, cause=cause)
            break
        trials_run = params.trials if witness is None else witness.trial + 1
        outcomes[mr] = MrOutcome(mr=mr, label=witness is None,
                                 trials_run=trials_run, witness=witness)
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


@dataclass(frozen=True)
class AuditReport:
    discrepancies: tuple[Discrepancy, ...]
    unmatched: tuple[str, ...]


def audit_labels(dynamic: dict[str, LabelReport],
                 reference: dict[str, MrLabelSet]) -> AuditReport:
    """Compare dynamic labels against a reference set keyed by method name.

    A dynamic 0 against a reference 1 carries the violating witness; a
    dynamic 1 against a reference 0 is reported as unconfirmed-negative
    (sampling found no violation, which is one-sided evidence, not an
    error)."""
    discrepancies: list[Discrepancy] = []
    unmatched: list[str] = []
    for name in sorted(dynamic):
        if name not in reference:
            unmatched.append(name)
            continue
        report = dynamic[name]
        ref = reference[name]
        for mr in MR_IDS:
            dyn = report.labels[mr]
            if dyn != ref[mr]:  # only a dynamic 0 has a witness
                discrepancies.append(Discrepancy(
                    name, mr, dyn, ref[mr], "unconfirmed-negative" if dyn else "violation",
                    report.outcomes[mr].witness))
    for name in sorted(reference):
        if name not in dynamic:
            unmatched.append(name)
    return AuditReport(discrepancies=tuple(discrepancies),
                       unmatched=tuple(unmatched))

