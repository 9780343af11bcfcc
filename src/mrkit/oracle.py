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
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .mir import Function, Trap, interpret

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
        if self.max_const < self.min_const or self.min_const < 1:
            raise OracleError("constant domain must be positive")


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


def _draw_source(rng: random.Random, params: OracleParams, mr: str) -> list[float]:
    length = rng.randint(params.min_len, params.max_len)
    lo = max(params.min_value, 1) if mr == "INV" else params.min_value
    return [float(rng.randint(lo, params.max_value)) for _ in range(length)]


def apply_mr(mr: str, source, rng: random.Random,
             params: OracleParams = OracleParams()) -> list[float]:
    """Build the follow-up input for one relation; draws come from rng."""
    if mr not in MR_SPECS:
        raise OracleError(f"unknown MR {mr!r}")
    src = [float(v) for v in source]
    n = len(src)
    if mr == "ADD":
        c = rng.randint(params.min_const, params.max_const)
        return [v + c for v in src]
    if mr == "MUL":
        c = rng.randint(params.min_const, params.max_const)
        return [v * c for v in src]
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
        return src + [float(rng.randint(params.min_value, params.max_value))]
    if mr == "EXC":
        if n < 2:
            raise OracleError("EXC needs at least two elements")
        drop = rng.randrange(n)
        return src[:drop] + src[drop + 1:]
    # INV
    if any(v == 0 for v in src):
        raise OracleError("INV requires every element >= 1 (zero found)")
    return [1.0 / v for v in src]


def check_relation(mr: str, out_source: float, out_follow_up: float,
                   rel_tol: float = 1e-9) -> tuple[bool, str | None]:
    """Evaluate the output relation; non-finite outputs always violate."""
    spec = MR_SPECS[mr]
    finite = (out_source == out_source and abs(out_source) != float("inf")
              and out_follow_up == out_follow_up
              and abs(out_follow_up) != float("inf"))
    if not finite:
        return False, "non-finite output"
    scale = max(1.0, abs(out_source))
    slack = rel_tol * scale
    if spec.relation == GEQ:
        ok = out_follow_up >= out_source - slack
        return ok, None if ok else "follow-up output decreased"
    if spec.relation == LEQ:
        ok = out_follow_up <= out_source + slack
        return ok, None if ok else "follow-up output increased"
    ok = abs(out_follow_up - out_source) <= slack
    return ok, None if ok else "outputs differ under permutation"


def label_method(fn: Function, params: OracleParams = OracleParams()) -> LabelReport:
    """Sample every MR ``trials`` times; the label is 1 iff the relation
    held on every trial.  Deterministic per (seed, method, MR)."""
    outcomes: dict[str, MrOutcome] = {}
    labels: dict[str, bool] = {}
    for mr in MR_IDS:
        rng = _substream(params.seed, fn.name, mr)
        witness: Witness | None = None
        trials_run = 0
        for trial in range(params.trials):
            trials_run = trial + 1
            source = _draw_source(rng, params, mr)
            follow_up = apply_mr(mr, source, rng, params)
            try:
                out_src = interpret(fn, source, params.step_budget)
                out_fu = interpret(fn, follow_up, params.step_budget)
            except Trap as trap:
                witness = Witness(
                    mr=mr, trial=trial, source=tuple(source),
                    follow_up=tuple(follow_up), out_source=None,
                    out_follow_up=None, cause=f"trap: {trap}")
                break
            ok, cause = check_relation(mr, out_src, out_fu, params.rel_tol)
            if not ok:
                witness = Witness(
                    mr=mr, trial=trial, source=tuple(source),
                    follow_up=tuple(follow_up), out_source=out_src,
                    out_follow_up=out_fu, cause=cause or "violated")
                break
        labels[mr] = witness is None
        outcomes[mr] = MrOutcome(mr=mr, label=witness is None,
                                 trials_run=trials_run, witness=witness)
    return LabelReport(method=fn.name, labels=MrLabelSet(labels),
                       outcomes=outcomes)


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
            if dyn == ref[mr]:
                continue
            if dyn:
                discrepancies.append(Discrepancy(
                    name, mr, dyn, ref[mr], "unconfirmed-negative", None))
            else:
                discrepancies.append(Discrepancy(
                    name, mr, dyn, ref[mr], "violation",
                    report.outcomes[mr].witness))
    for name in sorted(reference):
        if name not in dynamic:
            unmatched.append(name)
    return AuditReport(discrepancies=tuple(discrepancies),
                       unmatched=tuple(unmatched))


def labels_to_csv(rows: list[tuple[str, MrLabelSet]]) -> str:
    """Canonical labels CSV: header then one 0/1 row per method id."""
    lines = ["method_id," + ",".join(MR_IDS)]
    for method_id, labels in rows:
        bits = ",".join(str(b) for b in labels.as_bits())
        lines.append(f"{method_id},{bits}")
    return "\n".join(lines) + "\n"
