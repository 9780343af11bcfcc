import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reference
from mrkit import oracle
from mrkit.cli import stage_seed
from mrkit.mir import DEFAULT_STEP_BUDGET, Trap, interpret, parse_program
from mrkit.oracle import (
    MR_IDS,
    RELATIONS,
    MrLabelSet,
    MrOutcome,
    OracleError,
    OracleParams,
    Witness,
    _below,
    _follow_ups,
    _inv_sources,
    _relation_test,
    _source_draws,
    _substream,
    audit_labels,
    check_relation,
    label_method,
)

def test_mr_spec_relations():
    assert RELATIONS == {
        "ADD": "GEQ", "MUL": "GEQ", "PER": "EQ",
        "INC": "GEQ", "EXC": "LEQ", "INV": "LEQ",
    }


def test_apply_add_with_unit_constant():
    out = _follow_ups("ADD", random.Random(0).getrandbits)([1.0, 2.0, 3.0])
    c = out[0] - 1.0  # the drawn constant
    assert c in range(1, 11) and out == [1.0 + c, 2.0 + c, 3.0 + c]


def test_apply_mul_scales():
    out = _follow_ups("MUL", random.Random(0).getrandbits)([1.0, 2.0, 3.0])
    c = out[0]  # the drawn constant
    assert c in range(1, 11) and out == [c, 2.0 * c, 3.0 * c]


def test_apply_inv():
    invert = _follow_ups("INV", random.Random(0).getrandbits)
    assert invert([2.0, 4.0]) == [0.5, 0.25]
    assert invert([1.0, 100.0, 8.0]) == [1.0, 0.01, 0.125]


def test_apply_per_never_identity():
    permute = _follow_ups("PER", random.Random(1).getrandbits)
    for n in (2, 3, 20):
        source = [float(v) for v in range(n)]
        for _ in range(50):
            out = permute(source)
            assert sorted(out) == source and out != source
        assert source == [float(v) for v in range(n)]  # the source is left alone


def test_apply_exc_removes_one():
    exclude = _follow_ups("EXC", random.Random(2).getrandbits)
    source = [5.0, 6.0, 7.0]
    out = exclude(source)
    assert len(out) == 2
    leftover = list(source)
    for v in out:
        leftover.remove(v)
    assert len(leftover) == 1
    assert exclude([1.0, 2.0]) in ([1.0], [2.0])


def test_apply_inc_appends():
    append = _follow_ups("INC", random.Random(3).getrandbits)
    source = [1.0, 2.0]
    for _ in range(50):
        out = append(source)
        assert out[:2] == source and len(out) == 3
        assert out[2] in range(0, 101)
    assert source == [1.0, 2.0]


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
    # equal outputs, outputs exactly one slack (1e-9 * max(1, |s|)) apart,
    # and every non-finite output on either side
    inf = float("inf")
    outputs = (0.0, -0.0, 1e-9, -1e-9, 1.0, -1.0, 1.0 + 1e-9, 1.0 - 1e-9,
               1.5, 2.0, -2.0, 3.0, -3.0,
               1e12, 1e12 + 1e3, 1e12 - 1e3, -1e12, -1e12 + 1e3, -1e12 - 1e3,
               inf, -inf, float("nan"))
    for mr in MR_IDS:
        for s in outputs:
            for f in outputs:
                expected = oracle_reference.check_relation(mr, s, f)
                assert check_relation(mr, s, f) == expected, (mr, s, f)
                assert _relation_test(mr)(s, f) is expected[0], (mr, s, f)


# every kind of double: NaN, the infinities, both zeros, subnormals and the
# largest finite values, beside arbitrary ones
OUTPUTS = st.one_of(st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0,
                                     5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308]),
                    st.floats())


@settings(max_examples=500, deadline=None)
@given(mr=st.sampled_from(MR_IDS), s=OUTPUTS, f=OUTPUTS)
def test_the_relation_fast_path_equals_the_reference(mr, s, f):
    expected = oracle_reference.check_relation(mr, s, f)
    assert check_relation(mr, s, f) == expected
    assert _relation_test(mr)(s, f) is expected[0]


def test_label_known_rows(corpus_functions):
    assert label_method(corpus_functions["sum"]).labels.as_bits() == (1, 1, 1, 1, 1, 1)
    assert label_method(corpus_functions["average"]).labels.as_bits() == (1, 1, 1, 0, 0, 1)
    assert label_method(corpus_functions["find_max"]).labels.as_bits() == (1, 1, 1, 1, 1, 1)


def test_negative_labels_carry_replayable_witness(corpus_functions):
    """At ``mrkit label --seed 42``'s oracle seed, each witness of the
    bundled corpus re-runs to its recorded outputs and verdict, or to the
    trap its cause names."""
    params = OracleParams(seed=stage_seed(42, "oracle"))
    negatives = dict.fromkeys(MR_IDS, 0)
    reports = {name: label_method(fn, params) for name, fn in corpus_functions.items()}
    assert reports["average"].labels.as_bits() == (1, 1, 1, 0, 0, 1)
    for name, report in reports.items():
        fn = corpus_functions[name]
        for mr, outcome in report.outcomes.items():
            w = outcome.witness
            if w is None:
                continue
            negatives[mr] += 1
            assert outcome.trials_run == w.trial + 1
            if mr == "INV":  # INV's own source: any 0 of the trial's was redrawn
                assert all(v in range(1, 101) for v in w.source), name
                assert list(w.follow_up) == [1.0 / v for v in w.source], name
            runs = []
            try:
                for inputs in (w.source, w.follow_up):
                    runs.append(interpret(fn, list(inputs)))
            except Trap as trap:
                assert w.cause == f"trap: {trap}", (name, mr)
                assert w.out_source is None and w.out_follow_up is None, (name, mr)
                continue
            assert not w.cause.startswith("trap"), (name, mr)
            # repr, not ==: an output may be NaN
            assert repr(runs) == repr([w.out_source, w.out_follow_up]), (name, mr)
            assert check_relation(mr, *runs) == (False, w.cause), (name, mr)
    assert all(negatives.values()), negatives


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


@pytest.mark.parametrize("kwargs", [
    {"trials": 0}, {"trials": -3}, {"trials": 2.5}, {"trials": float("nan")},
    {"trials": 200.0}, {"trials": True}, {"trials": "20"}, {"trials": None},
    {"seed": 4.2}, {"seed": float("nan")}, {"seed": True}, {"seed": "42"}, {"seed": None},
])
def test_oracle_params_refuse_a_trials_or_seed_that_is_not_an_int(kwargs):
    with pytest.raises(OracleError):
        OracleParams(**kwargs)


def test_oracle_params_take_any_positive_trials_and_any_int_seed():
    for trials, seed in ((1, 0), (200, -1), (5, 2 ** 64 - 1)):
        params = OracleParams(trials=trials, seed=seed)
        assert (params.trials, params.seed) == (trials, seed)


# returns the length, and divides by zero only on 21 elements: INC's
# follow-up of a 20-element source is the only input that traps
FOLLOW_UP_TRAP = ("fn f(a) {\n  n = len(a)\n  d = 21 - n\n  z = 0 / d\n"
                  "  return n + z\n}\n")


def test_a_trap_on_the_follow_up_alone_leaves_both_outputs_absent():
    params = OracleParams()
    report = label_method(parse_program(FOLLOW_UP_TRAP).functions[0], params)
    outcome = report.outcomes["INC"]
    witness = outcome.witness
    # the shared source stream's first 20-element source is its tenth
    draw = _source_draws(_substream(params.seed, "f", "source").getrandbits)
    sources = [draw() for _ in range(10)]
    assert [len(source) for source in sources].index(20) == 9
    assert not outcome.label and witness.trial == 9
    assert witness.source == tuple(sources[9])
    assert len(witness.source) == 20 and len(witness.follow_up) == 21
    assert witness.out_source is None and witness.out_follow_up is None
    assert witness.cause.startswith("trap: division-by-zero")
    assert outcome.trials_run == witness.trial + 1
    assert report.labels.as_bits() == (1, 1, 1, 0, 1, 1)
    for mr in MR_IDS:
        if mr != "INC":
            assert report.outcomes[mr].witness is None
            assert report.outcomes[mr].trials_run == 200


# returns 1, and divides by zero on an input that holds a 0: on a shared
# source, where 0 is a drawn value, but never on INV's, which start at 1
SOURCE_TRAP = ("fn g(a) {\n  n = len(a)\n  for i = 0; i < n; i = i + 1 {\n"
               "    v = a[i]\n    w = 1 / v\n  }\n  return 1\n}\n")


def test_a_source_run_trap_is_the_witness_of_every_sampling_mr():
    fn = parse_program(SOURCE_TRAP).functions[0]
    params = OracleParams()
    report = label_method(fn, params)
    shared = [mr for mr in MR_IDS if mr != "INV"]
    witnesses = [report.outcomes[mr].witness for mr in shared]
    first = witnesses[0]
    assert first.cause.startswith("trap: division-by-zero")
    assert 0.0 in first.source
    for mr, witness in zip(shared, witnesses):
        assert witness.trial == first.trial and witness.source == first.source
        assert witness.cause == first.cause
        assert witness.follow_up is not None
        assert witness.out_source is None and witness.out_follow_up is None
        assert report.outcomes[mr].trials_run == first.trial + 1
    # each witness holds its own MR's follow-up of the one source
    follow_up = {mr: w.follow_up for mr, w in zip(shared, witnesses)}
    assert follow_up["INC"][:-1] == first.source
    assert len(follow_up["EXC"]) == len(first.source) - 1
    assert sorted(follow_up["PER"]) == sorted(first.source) != list(follow_up["PER"])
    # every trial before it ran clean, so no MR had left before the trap
    assert first.trial > 0
    assert report.labels.as_bits() == (0, 0, 0, 0, 0, 1)
    assert report.outcomes["INV"].trials_run == params.trials


def _inv_outcome_on_the_shared_stream(fn, params):
    """INV's outcome on its own, drawn with randint: the trial's source
    from the (method, "source") substream, each 0 of it redrawn from
    1..100 on the (method, "INV") substream, both inputs run every trial."""
    source_rng = _substream(params.seed, fn.name, "source")
    inv_rng = _substream(params.seed, fn.name, "INV")
    for trial in range(params.trials):
        source = [v or float(inv_rng.randint(1, 100))
                  for v in _draw_source_randint(source_rng)]
        follow_up = [1.0 / v for v in source]
        try:
            out_src = interpret(fn, source)
            out_fu = interpret(fn, follow_up)
        except Trap as trap:
            out_src = out_fu = None
            cause = f"trap: {trap}"
        else:
            ok, cause = check_relation("INV", out_src, out_fu)
            if ok:
                continue
        return MrOutcome(trial + 1, Witness(trial, tuple(source), tuple(follow_up),
                                            out_src, out_fu, cause))
    return MrOutcome(params.trials)


@pytest.mark.parametrize("seed", [42, 2054484367])
def test_inv_outcomes_equal_inv_sampled_alone_on_the_shared_stream(corpus_functions, seed):
    # 2054484367 is the oracle seed of `mrkit label --seed 42`; sharing the
    # trial loop with the other five MRs changes none of INV's outcomes
    params = OracleParams(seed=seed)
    for fn in corpus_functions.values():
        assert (repr(label_method(fn, params).outcomes["INV"])
                == repr(_inv_outcome_on_the_shared_stream(fn, params))), fn.name


def test_audit_empty_on_matching_trio(corpus_functions, dataset):
    dynamic = {name: label_method(corpus_functions[name])
               for name in ("sum", "average", "find_max")}
    reference = {name: dataset.entry(name).labels
                 for name in ("sum", "average", "find_max")}
    assert audit_labels(dynamic, reference) == ()


def test_audit_flipped_bit_and_categories(corpus_functions, dataset):
    dynamic = {"average": label_method(corpus_functions["average"])}
    bits = list(dataset.entry("average").labels.as_bits())
    bits[0] ^= 1  # claim ADD does not apply
    (d,) = audit_labels(dynamic, {"average": MrLabelSet.from_bits(bits)})
    assert d.mr == "ADD" and d.category == "unconfirmed-negative"
    assert d.witness is None

    bits = list(dataset.entry("average").labels.as_bits())
    bits[3] ^= 1  # claim INC applies; the oracle has a witness against it
    (d,) = audit_labels(dynamic, {"average": MrLabelSet.from_bits(bits)})
    assert d.mr == "INC" and d.category == "violation" and d.witness is not None


def test_audit_unmatched_names(corpus_functions):
    # a name on one side only is skipped, even where its labels would
    # disagree with the other side's
    dynamic = {"sum": label_method(corpus_functions["sum"])}
    assert audit_labels(dynamic, {"nosuch": MrLabelSet.from_bits((0,) * 6)}) == ()


def test_monotone_sum_holds_on_every_trial(corpus_functions):
    """For sum over non-negative inputs every relation holds on every
    sampled trial, checked directly rather than via the aggregate."""
    fn = corpus_functions["sum"]
    rng = random.Random(99)
    for mr in MR_IDS:
        for _ in range(50):
            length = rng.randint(2, 20)
            lo = 1 if mr == "INV" else 0
            source = [float(rng.randint(lo, 100)) for _ in range(length)]
            follow = _follow_ups(mr, rng.getrandbits)(source)
            ok, cause = check_relation(mr, interpret(fn, source), interpret(fn, follow))
            assert ok, (mr, source, follow, cause)


def test_label_set_round_trip():
    bits = (1, 0, 1, 0, 1, 0)
    assert MrLabelSet.from_bits(bits).as_bits() == bits
    with pytest.raises(OracleError):
        MrLabelSet.from_bits((2, 0, 0, 0, 0, 0))
    with pytest.raises(OracleError):
        MrLabelSet({"ADD": True})


# The oracle's draws spelled as randint, randrange and shuffle calls, which
# take the same words from a stream as its getrandbits loops.  The domain
# is spelled as literals, so a changed bound in mrkit.oracle fails.

def _draw_source_randint(rng):
    length = rng.randint(2, 20)
    return [float(rng.randint(0, 100)) for _ in range(length)]


def _apply_mr_randint(mr, src, rng):
    if mr == "ADD":
        c = rng.randint(1, 10)
        return [v + c for v in src]
    if mr == "MUL":
        c = rng.randint(1, 10)
        return [v * c for v in src]
    if mr == "PER":
        idx = list(range(len(src)))
        while True:
            rng.shuffle(idx)
            if idx != list(range(len(src))):
                break
        return [src[i] for i in idx]
    if mr == "INC":
        return src + [float(rng.randint(0, 100))]
    if mr == "EXC":
        drop = rng.randrange(len(src))
        return src[:drop] + src[drop + 1:]
    return [1.0 / v for v in src]


def test_draws_equal_the_randint_stream():
    for seed in range(1000):
        for mr in MR_IDS:
            rng, ref = random.Random(seed), random.Random(seed)
            draw = _source_draws(rng.getrandbits)
            follow = _follow_ups(mr, rng.getrandbits)
            for _ in range(2):
                source = draw()
                expected = _draw_source_randint(ref)
                assert source == expected, (seed, mr)
                if mr == "INV":  # INV's source, each 0 redrawn on the stream
                    source = _inv_sources(rng.getrandbits)(source)
                    expected = [v or float(ref.randint(1, 100)) for v in expected]
                    assert source == expected, (seed, mr)
                assert follow(source) == _apply_mr_randint(mr, expected, ref), (seed, mr)
                assert source == expected, (seed, mr)  # the follow-up left it alone
            # a second follow-up function takes its draws from the same stream
            assert (_follow_ups(mr, rng.getrandbits)(source)
                    == _apply_mr_randint(mr, expected, ref)), (seed, mr)
            assert rng.getstate() == ref.getstate(), (seed, mr)


def test_an_inv_source_redraws_each_zero_as_randint_does():
    # a source without a 0 comes back as itself, and draws nothing
    for seed in range(1000):
        rng, ref = random.Random(seed), random.Random(seed)
        inv_source = _inv_sources(rng.getrandbits)
        draw = _source_draws(random.Random(~seed).getrandbits)
        for source in ([1.0, 2.0], [0.0, 0.0], [0.0] * 20, [100.0] * 20,
                       [5.0, 0.0, 100.0, 0.0], draw(), draw()):
            kept = list(source)
            own = inv_source(source)
            assert source == kept, seed  # the trial's source is left alone
            assert own == [v or float(ref.randint(1, 100)) for v in source], seed
            assert (own is source) is (0.0 not in source), seed
        assert rng.getstate() == ref.getstate(), seed


def test_every_inv_source_of_a_label_run_lies_in_the_inv_domain(corpus_functions):
    seen = []

    def record(draw):
        def inv_source(source):
            own = draw(source)
            seen.append((source, own))
            return own
        return inv_source

    params = OracleParams(seed=stage_seed(42, "oracle"))
    with patch.object(oracle, "_inv_sources", lambda bits: record(_inv_sources(bits))):
        for fn in corpus_functions.values():
            label_method(fn, params)
    # about one trial source in ten holds a 0, and INV runs a copy of it
    redrawn = sum(own is not source for source, own in seen)
    assert len(seen) > 10_000 and len(seen) // 20 < redrawn < len(seen) // 5
    for source, own in seen:
        assert 2 <= len(own) <= 20 and len(own) == len(source)
        assert all(v in range(1, 101) for v in own), own


# step budgets from the default down to one that traps every call at its
# first operation: between them, the long inputs of some methods run out
# of steps while the short ones finish
LABEL_BUDGETS = (DEFAULT_STEP_BUDGET, 3000, 300, 30, 1)


# corpus methods whose labels at the default budget take every path of the
# trial loop but one: all six relations holding, each kind of violation, and
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


@pytest.mark.parametrize("budget", LABEL_BUDGETS,
                         ids=[f"params{i}" for i in range(len(LABEL_BUDGETS))])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), trials=st.integers(1, 6))
def test_label_method_equals_the_per_trial_reference(corpus_functions, budget, seed, trials):
    # repr, not ==: a witness may hold a NaN output, and repr tells -0.0 from 0.0
    params = OracleParams(trials=trials, seed=seed)
    fns = [corpus_functions[name] for name in DIFFERENTIAL_METHODS]
    fns += [parse_program(src).functions[0] for src in (BLOWUP, CLOBBER, FOLLOW_UP_TRAP)]
    for fn in fns:
        with patch.object(oracle, "DEFAULT_STEP_BUDGET", budget):
            ours = repr(label_method(fn, params))
        assert ours == repr(oracle_reference.label_method(fn, params, budget)), fn.name


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
    drawn = _source_draws(_substream(params.seed, fn.name, "source").getrandbits)()
    assert witness is not None and witness.trial == 0
    assert witness.source == tuple(drawn)
    assert -1.0 not in witness.source and witness.follow_up[:-1] == witness.source
