import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reference
from mrkit.mir import interpret, parse_program
from mrkit.oracle import (
    MR_IDS,
    MR_SPECS,
    MrLabelSet,
    OracleError,
    OracleParams,
    _below,
    _follow_ups,
    _relation_test,
    _source_draws,
    _substream,
    apply_mr,
    audit_labels,
    check_relation,
    label_method,
)

PINNED_C = OracleParams(min_const=1, max_const=1)


def test_mr_spec_relations():
    assert {mr: MR_SPECS[mr].relation for mr in MR_IDS} == {
        "ADD": "GEQ", "MUL": "GEQ", "PER": "EQ",
        "INC": "GEQ", "EXC": "LEQ", "INV": "LEQ",
    }


def test_apply_add_with_unit_constant():
    rng = random.Random(0)
    assert apply_mr("ADD", [1, 2, 3], rng, PINNED_C) == [2.0, 3.0, 4.0]


def test_apply_mul_scales():
    rng = random.Random(0)
    out = apply_mr("MUL", [1, 2, 3], rng, OracleParams(min_const=3, max_const=3))
    assert out == [3.0, 6.0, 9.0]


def test_apply_inv():
    rng = random.Random(0)
    assert apply_mr("INV", [2, 4], rng) == [0.5, 0.25]
    with pytest.raises(OracleError, match="zero"):
        apply_mr("INV", [0, 2], rng)


def test_apply_per_never_identity():
    rng = random.Random(1)
    for _ in range(50):
        source = [1.0, 2.0]
        out = apply_mr("PER", source, rng)
        assert sorted(out) == source and out != source
    with pytest.raises(OracleError):
        apply_mr("PER", [5], rng)


def test_apply_exc_removes_one():
    rng = random.Random(2)
    source = [5.0, 6.0, 7.0]
    out = apply_mr("EXC", source, rng)
    assert len(out) == 2
    leftover = list(source)
    for v in out:
        leftover.remove(v)
    assert len(leftover) == 1
    with pytest.raises(OracleError):
        apply_mr("EXC", [1], rng)


def test_apply_inc_appends():
    rng = random.Random(3)
    source = [1.0, 2.0]
    out = apply_mr("INC", source, rng)
    assert out[:2] == source and len(out) == 3
    assert 0 <= out[2] <= 100


def test_check_relation_cases():
    ok, cause = check_relation("ADD", 6.0, 9.0)
    assert ok and cause is None
    ok, cause = check_relation("EXC", 6.0, 7.0)
    assert not ok and "increased" in cause
    ok, _ = check_relation("PER", 1.0, 1.0 + 1e-12)
    assert ok
    ok, cause = check_relation("MUL", 1.0, float("inf"))
    assert not ok and "non-finite" in cause
    ok, cause = check_relation("PER", float("nan"), 1.0)
    assert not ok


def test_check_relation_equals_the_reference_at_its_boundaries():
    # equal outputs at a zero tolerance, outputs exactly one slack apart,
    # and every non-finite output on either side
    inf = float("inf")
    outputs = (0.0, -0.0, 1.0, -1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.5, 2.0, -2.0, 3.0, -3.0,
               1e12, 1e12 + 1e3, 1e12 - 1e3, -1e12, -1e12 + 1e3, -1e12 - 1e3,
               inf, -inf, float("nan"))
    for mr in MR_IDS:
        for rel_tol in (0.0, 1e-9, 0.5):
            for s in outputs:
                for f in outputs:
                    expected = oracle_reference.check_relation(mr, s, f, rel_tol)
                    assert check_relation(mr, s, f, rel_tol) == expected, (mr, rel_tol, s, f)


# every kind of double: NaN, the infinities, both zeros, subnormals and the
# largest finite values, beside arbitrary ones
OUTPUTS = st.one_of(st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0,
                                     5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308]),
                    st.floats())


@settings(max_examples=500, deadline=None)
@given(mr=st.sampled_from(MR_IDS), rel_tol=st.sampled_from([0.0, 5e-324, 1e-9, 0.5, 1e308]),
       s=OUTPUTS, f=OUTPUTS)
def test_the_relation_fast_path_equals_the_reference(mr, rel_tol, s, f):
    expected = oracle_reference.check_relation(mr, s, f, rel_tol)
    assert check_relation(mr, s, f, rel_tol) == expected
    assert _relation_test(mr, rel_tol)(s, f) is expected[0]


def test_label_known_rows(corpus_functions):
    assert label_method(corpus_functions["sum"]).labels.as_bits() == (1, 1, 1, 1, 1, 1)
    assert label_method(corpus_functions["average"]).labels.as_bits() == (1, 1, 1, 0, 0, 1)
    assert label_method(corpus_functions["find_max"]).labels.as_bits() == (1, 1, 1, 1, 1, 1)


def test_negative_labels_carry_replayable_witness(corpus_functions):
    report = label_method(corpus_functions["average"])
    for mr in ("INC", "EXC"):
        outcome = report.outcomes[mr]
        assert not outcome.label
        w = outcome.witness
        assert w is not None and w.cause
        out_src = interpret(corpus_functions["average"], list(w.source))
        out_fu = interpret(corpus_functions["average"], list(w.follow_up))
        assert out_src == w.out_source and out_fu == w.out_follow_up
        ok, _ = check_relation(mr, out_src, out_fu)
        assert not ok


def test_positive_labels_report_full_trial_count(corpus_functions):
    report = label_method(corpus_functions["sum"])
    for mr in MR_IDS:
        assert report.outcomes[mr].label
        assert report.outcomes[mr].trials_run == 200


def test_label_deterministic(corpus_functions):
    fn = corpus_functions["variance"]
    a = label_method(fn)
    b = label_method(fn)
    assert a.labels.as_bits() == b.labels.as_bits()
    for mr in MR_IDS:
        wa, wb = a.outcomes[mr].witness, b.outcomes[mr].witness
        assert (wa is None) == (wb is None)
        if wa is not None:
            assert wa.source == wb.source and wa.follow_up == wb.follow_up


def test_trapping_method_labels_all_false():
    src = "fn boom(a) {\n  x = a[0]\n  y = 0\n  return x / y\n}\n"
    fn = parse_program(src).functions[0]
    report = label_method(fn, OracleParams(trials=5))
    assert report.labels.as_bits() == (0, 0, 0, 0, 0, 0)
    for mr in MR_IDS:
        assert "trap" in report.outcomes[mr].witness.cause


# returns the length, and divides by zero only on 21 elements: INC's
# follow-up of a 20-element source is the only input that traps
FOLLOW_UP_TRAP = ("fn f(a) {\n  n = len(a)\n  d = 21 - n\n  z = 0 / d\n"
                  "  return n + z\n}\n")


def test_a_trap_on_the_follow_up_alone_leaves_both_outputs_absent():
    report = label_method(parse_program(FOLLOW_UP_TRAP).functions[0], OracleParams())
    outcome = report.outcomes["INC"]
    witness = outcome.witness
    assert not outcome.label and witness.trial == 9
    assert len(witness.source) == 20 and len(witness.follow_up) == 21
    assert witness.out_source is None and witness.out_follow_up is None
    assert witness.cause.startswith("trap: division-by-zero")
    assert outcome.trials_run == witness.trial + 1
    assert report.labels.as_bits() == (1, 1, 1, 0, 1, 1)
    for mr in MR_IDS:
        if mr != "INC":
            assert report.outcomes[mr].witness is None
            assert report.outcomes[mr].trials_run == 200


def test_audit_empty_on_matching_trio(corpus_functions, dataset):
    dynamic = {name: label_method(corpus_functions[name])
               for name in ("sum", "average", "find_max")}
    reference = {name: dataset.entry(name).labels
                 for name in ("sum", "average", "find_max")}
    audit = audit_labels(dynamic, reference)
    assert audit.discrepancies == ()
    assert audit.unmatched == ()


def test_audit_flipped_bit_and_categories(corpus_functions, dataset):
    dynamic = {"average": label_method(corpus_functions["average"])}
    bits = list(dataset.entry("average").labels.as_bits())
    bits[0] ^= 1  # claim ADD does not apply
    audit = audit_labels(dynamic, {"average": MrLabelSet.from_bits(bits)})
    assert len(audit.discrepancies) == 1
    d = audit.discrepancies[0]
    assert d.mr == "ADD" and d.category == "unconfirmed-negative"
    assert d.witness is None

    bits = list(dataset.entry("average").labels.as_bits())
    bits[3] ^= 1  # claim INC applies; the oracle has a witness against it
    audit = audit_labels(dynamic, {"average": MrLabelSet.from_bits(bits)})
    assert len(audit.discrepancies) == 1
    d = audit.discrepancies[0]
    assert d.mr == "INC" and d.category == "violation" and d.witness is not None


def test_audit_unmatched_names(corpus_functions, dataset):
    dynamic = {"sum": label_method(corpus_functions["sum"])}
    audit = audit_labels(dynamic, {"nosuch": dataset.entry("sum").labels})
    assert set(audit.unmatched) == {"sum", "nosuch"}


def test_monotone_sum_holds_on_every_trial(corpus_functions):
    """For sum over non-negative inputs every relation holds on every
    sampled trial, checked directly rather than via the aggregate."""
    fn = corpus_functions["sum"]
    params = OracleParams(trials=50)
    rng = random.Random(99)
    for mr in MR_IDS:
        for _ in range(params.trials):
            length = rng.randint(params.min_len, params.max_len)
            lo = 1 if mr == "INV" else 0
            source = [float(rng.randint(lo, params.max_value)) for _ in range(length)]
            follow = apply_mr(mr, source, rng, params)
            ok, cause = check_relation(mr, interpret(fn, source), interpret(fn, follow))
            assert ok, (mr, source, follow, cause)


def test_label_set_round_trip():
    bits = (1, 0, 1, 0, 1, 0)
    assert MrLabelSet.from_bits(bits).as_bits() == bits
    with pytest.raises(OracleError):
        MrLabelSet.from_bits((2, 0, 0, 0, 0, 0))
    with pytest.raises(OracleError):
        MrLabelSet({"ADD": True})


def test_params_reject_a_value_domain_without_a_positive_value():
    for lo, hi in ((0, 0), (-5, 0), (-3, -1)):
        with pytest.raises(OracleError, match="INV needs a value >= 1"):
            OracleParams(min_value=lo, max_value=hi)
    assert OracleParams(min_value=-5, max_value=1).max_value == 1


@pytest.mark.parametrize("rel_tol", [-1e-9, float("nan"), float("inf"), float("-inf")])
def test_params_reject_a_negative_or_non_finite_rel_tol(rel_tol):
    # a NaN tolerance would make every comparison false, labelling sum 0 on all six
    with pytest.raises(OracleError, match="rel_tol must be finite and >= 0"):
        OracleParams(rel_tol=rel_tol)
    assert OracleParams(rel_tol=0.0).rel_tol == 0.0


@pytest.mark.parametrize("budget", [0, -1])
def test_params_reject_a_step_budget_below_one(budget):
    # a budget of 0 would trap every trial
    with pytest.raises(OracleError, match="step_budget must be >= 1"):
        OracleParams(step_budget=budget)
    assert OracleParams(step_budget=1).step_budget == 1


# The oracle's draws before they were inlined on getrandbits: the reference
# that every label CSV written since the first release was drawn with.

def _draw_source_randint(rng, params, mr):
    length = rng.randint(params.min_len, params.max_len)
    lo = max(params.min_value, 1) if mr == "INV" else params.min_value
    return [float(rng.randint(lo, params.max_value)) for _ in range(length)]


def _apply_mr_randint(mr, src, rng, params):
    if mr == "ADD":
        c = rng.randint(params.min_const, params.max_const)
        return [v + c for v in src]
    if mr == "MUL":
        c = rng.randint(params.min_const, params.max_const)
        return [v * c for v in src]
    if mr == "PER":
        idx = list(range(len(src)))
        while True:
            rng.shuffle(idx)
            if idx != list(range(len(src))):
                break
        return [src[i] for i in idx]
    if mr == "INC":
        return src + [float(rng.randint(params.min_value, params.max_value))]
    if mr == "EXC":
        drop = rng.randrange(len(src))
        return src[:drop] + src[drop + 1:]
    return [1.0 / v for v in src]


# spans (hi - lo + 1) of length, value, INV value and constant domains:
# 1, powers of two, 2^k + 1 and others, with negative minimum values
DRAW_PARAMS = [
    OracleParams(),  # 19, 101, 100, 10
    OracleParams(min_len=2, max_len=2, min_value=0, max_value=1,
                 min_const=1, max_const=1),  # 1, 2, 1, 1
    OracleParams(min_len=2, max_len=65, min_value=-64, max_value=64,
                 min_const=1, max_const=64),  # 64, 129, 64, 64
    OracleParams(min_len=3, max_len=35, min_value=-1024, max_value=1,
                 min_const=5, max_const=37),  # 33, 1026, 1, 33
    OracleParams(min_len=2, max_len=17, min_value=7, max_value=7 + 2 ** 40,
                 min_const=3, max_const=3 + 2 ** 20),  # 16, 2^40+1, 2^40+1, 2^20+1
]


@pytest.mark.parametrize("params", DRAW_PARAMS)
def test_draws_equal_the_randint_stream(params):
    for seed in range(1000):
        for mr in MR_IDS:
            rng, ref = random.Random(seed), random.Random(seed)
            draw = _source_draws(params, mr, rng.getrandbits)
            follow = _follow_ups(params, mr, rng.getrandbits)
            for _ in range(2):
                source = draw()
                expected = _draw_source_randint(ref, params, mr)
                assert source == expected, (seed, mr)
                assert follow(source) == _apply_mr_randint(mr, expected, ref, params), (seed, mr)
                assert source == expected, (seed, mr)  # the follow-up left it alone
            assert (apply_mr(mr, source, rng, params)
                    == _apply_mr_randint(mr, expected, ref, params)), (seed, mr)
            assert rng.getstate() == ref.getstate(), (seed, mr)


def test_draws_over_a_wide_domain_build_no_table_of_it():
    # DRAW_PARAMS' widest domains: values span 2^40 + 1, constants 2^20 + 1;
    # a table of either's values would take terabytes or tens of megabytes
    params = DRAW_PARAMS[-1]
    tracemalloc.start()
    try:
        for mr in MR_IDS:
            getrandbits = random.Random(mr).getrandbits
            draw = _source_draws(params, mr, getrandbits)
            follow = _follow_ups(params, mr, getrandbits)
            for _ in range(5):
                follow(draw())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# corpus methods whose labels at DRAW_PARAMS take every path of the trial
# loop but one: all six relations holding, each kind of violation, and
# division-by-zero and math-domain traps
DIFFERENTIAL_METHODS = ("sum", "average", "geometric_mean", "sumOfLogarithms", "entropy",
                        "cal_DividedDiff", "ebeDivide", "bubble", "harmonicMean", "kurtosis")

# the path no corpus method takes: a non-finite output
BLOWUP = """
fn blowup(a) {
  x = a[0]
  for i = 0; i < 12; i = i + 1 {
    x = x * x
  }
  return x
}
"""


@pytest.mark.parametrize("params", DRAW_PARAMS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), trials=st.integers(1, 6))
def test_label_method_equals_the_per_trial_reference(corpus_functions, params, seed, trials):
    # repr, not ==: a witness may hold a NaN output, and repr tells -0.0 from 0.0
    params = replace(params, seed=seed, trials=trials)
    fns = [corpus_functions[name] for name in DIFFERENTIAL_METHODS]
    fns += [parse_program(src).functions[0] for src in (BLOWUP, CLOBBER, FOLLOW_UP_TRAP)]
    for fn in fns:
        assert (repr(label_method(fn, params))
                == repr(oracle_reference.label_method(fn, params))), fn.name


def test_apply_mr_equals_the_reference_on_inputs_the_loop_never_draws():
    # ints, negative values, -0.0 and single elements: the float conversion
    # and each refusal of the public apply_mr
    params = DRAW_PARAMS[2]
    sources = ([3, -2, 7], [0.5, -0.0, 4.0], [-1.0, 2.0], [5], [0, 1], [], (9, 9, 9, 9))
    for seed in range(50):
        for mr in MR_IDS:
            for source in sources:
                rng, ref = random.Random(seed), random.Random(seed)
                try:
                    expected = oracle_reference.apply_mr(mr, source, ref, params)
                except OracleError as error:
                    with pytest.raises(OracleError) as raised:
                        apply_mr(mr, source, rng, params)
                    assert str(raised.value) == str(error)
                else:
                    assert apply_mr(mr, source, rng, params) == expected, (seed, mr, source)
                assert rng.getstate() == ref.getstate(), (seed, mr, source)


@pytest.mark.parametrize("span", [1, 2, 19, 64, 65, 101, 1025, 2 ** 40 + 1])
def test_below_equals_randrange(span):
    for seed in range(1000):
        rng, ref = random.Random(seed), random.Random(seed)
        assert ([_below(rng.getrandbits, span) for _ in range(3)]
                == [ref.randrange(span) for _ in range(3)]), seed
        assert rng.getstate() == ref.getstate(), seed


CLOBBER = """
fn clobber(values) {
  n = len(values)
  z = 0 - 1
  values[0] = z
  y = 0 - n
  return y
}
"""


def test_interpret_leaves_its_input_alone():
    fn = parse_program(CLOBBER).functions[0]
    values = [4.0, 5.0, 6.0]
    assert interpret(fn, values) == -3.0
    assert values == [4.0, 5.0, 6.0]
    assert interpret(fn, (4, 5)) == -2.0
    assert interpret(fn, (v for v in [1, 2, 3, 4])) == -4.0
    ints = [7, 8]
    assert interpret(fn, ints) == -2.0 and ints == [7, 8]


def test_witness_source_is_the_drawn_input():
    # clobber returns -len, so INC's longer follow-up decreases the output on
    # the first trial; the witness must hold the input as drawn, not the
    # array after the run stored -1 into it
    fn = parse_program(CLOBBER).functions[0]
    params = OracleParams(trials=5)
    witness = label_method(fn, params).outcomes["INC"].witness
    drawn = _source_draws(params, "INC",
                          _substream(params.seed, fn.name, "INC").getrandbits)()
    assert witness is not None and witness.trial == 0
    assert witness.source == tuple(drawn)
    assert -1.0 not in witness.source and witness.follow_up[:-1] == witness.source
