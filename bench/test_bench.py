"""Tests for the benchmark's own helpers.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

import pytest

import speed
import tracing
from workloads import (HELD_OUT, HELD_OUT_CANDIDATES, Corpus, _valid_prediction,
                       held_out_split, write_manifest)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "mrkit" / "data"


@pytest.mark.parametrize("n, expected", [
    (9, None),
    (99, None),       # p90 leaves 9 samples beyond it
    (100, 90.0),
    (999, 90.0),      # p99 is rank 990, 9 beyond
    (1000, 99.0),
    (10_000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    tail = tracing.tail_percentile(samples)
    if expected is None:
        assert tail is None
        return
    assert tail["percentile"] == expected
    assert tail["samples"] == n
    assert tail["beyond"] >= tracing.MIN_BEYOND
    assert tail["value"] == n - tail["beyond"]  # nearest rank in 1..n


def test_union_length_merges_and_clips():
    assert tracing.union_length([], 0.0, 1.0) == 0.0
    assert tracing.union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert tracing.union_length([(-1, 2), (9, 12)], 0, 10) == 3


def test_self_time_subtracts_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["a.inner", 1.5, 2.0, 1],
        ["b", 2.0, 5.0, 0],   # overlaps a: covered time counts once
        ["other", 11.0, 12.0, -1],
    ]
    assert tracing.self_times(spans) == [6.0, 1.5, 0.5, 3.0, 1.0]
    summary = tracing.summarize(spans)
    assert summary["root"]["busy_s"] == 10.0
    assert summary["a"]["self_s"] == 1.5


def test_tracer_records_nested_spans_and_reraises():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda x: x * 2, "inner")

    def fail(x):
        raise KeyError(x)

    failing = tracer.wrap(fail, "fail",
                          hook=lambda t, args, result, exc: t.counts.update(["failed"]))

    def outer_body(x):
        with pytest.raises(KeyError):
            failing(x)
        return inner(x) + inner(x)

    outer = tracer.wrap(outer_body, lambda args, kwargs: f"outer.{args[0]}")
    assert outer(3) == 12
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["outer.3", "fail", "inner", "inner"]
    assert parents == [-1, 0, 0, 0]
    assert all(s[1] <= s[2] for s in tracer.spans)
    assert tracer.counts["failed"] == 1
    own = tracing.self_times(tracer.spans)
    outer_span = tracer.spans[0]
    children = sum(s[2] - s[1] for s in tracer.spans[1:])
    assert own[0] == pytest.approx(outer_span[2] - outer_span[1] - children)
    tracer.reset()
    inner(1)
    assert [s[0] for s in tracer.spans] == ["inner"]


def test_installed_patches_the_lookup_name_and_restores_it(monkeypatch):
    module = types.ModuleType("bench_fake_module")
    module.work = lambda: "done"
    monkeypatch.setitem(sys.modules, "bench_fake_module", module)
    original = module.work
    tracer = tracing.Tracer()
    with tracing.installed(tracer, [("bench_fake_module", "work", "fake.work", None)]):
        assert module.work() == "done"
    assert module.work is original
    assert [s[0] for s in tracer.spans] == ["fake.work"]


def test_every_probe_names_an_existing_function(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    for module_name, attr, _, _ in tracing.PROBES:
        assert callable(getattr(importlib.import_module(module_name), attr)), \
            (module_name, attr)


def test_layer_metrics_from_spans():
    tracer = tracing.Tracer()
    tracer.spans.extend([
        ["oracle.label_method", 0.0, 1.0, -1],
        ["mir.interpret", 0.1, 0.3, 0],
        ["mir.interpret", 0.4, 0.6, 0],
    ])
    tracer.counts.update({"mir.traps.bad-index": 1, "oracle.trials_run": 5})
    m = tracing.layer_metrics(tracer)
    assert m["mir.interpret.calls"] == 2
    assert m["mir.interpret.us_per_call"] == pytest.approx(2e5)
    assert m["oracle.label_method.self_s"] == pytest.approx(0.6)
    assert m["mir.traps.total"] == 1
    assert m["svm.fit_ms"] == 0.0 and m["kernels.gk_distribution_reuse"] == 0.0


def test_ref_seconds_scales_by_the_median_tick():
    ref = speed.REFERENCE_TICK_S
    ticks = [ref, 2 * ref, 2 * ref, 2 * ref, 9 * ref]  # one tick stalled in C
    assert speed.ref_seconds(3.0, ticks, [ref]) == pytest.approx(1.5)
    # too few ticks of its own: the whole run's ticks stand in
    assert speed.ref_seconds(3.0, ticks[:2], [ref / 2] * 5) == pytest.approx(6.0)


def test_speed_probe_ticks_while_active_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 10 * speed.PERIOD_S
        while time.perf_counter() < end:
            pass
    ticks = len(probe.ticks)
    assert ticks >= 3 and all(t > 0 for t in probe.ticks)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    time.sleep(2 * speed.PERIOD_S)
    assert len(probe.ticks) == ticks


def test_held_out_split_is_seeded_and_disjoint():
    corpus = Corpus.read(DATA)
    assert len(corpus.methods) == 68
    train, held = held_out_split(corpus.methods, 7)
    again_train, again_held = held_out_split(corpus.methods, 7)
    assert (train, held) == (again_train, again_held)
    assert len(held) == HELD_OUT
    assert not {m.name for m in train} & {m.name for m in held}
    assert sorted(train + held, key=lambda m: m.method_id) == list(corpus.methods)
    assert {m.name for m in held} <= set(HELD_OUT_CANDIDATES)
    draws = {tuple(m.name for m in held_out_split(corpus.methods, s)[1])
             for s in range(10)}
    assert len(draws) > 1


def test_held_out_manifest_is_identical_per_seed_and_excludes_held(tmp_path):
    corpus = Corpus.read(DATA)
    texts = []
    for run in ("a", "b"):
        train, held = held_out_split(corpus.methods, 3)
        manifest = write_manifest(tmp_path / run, train, corpus.labels)
        texts.append((manifest.read_text(), (manifest.parent / "labels.csv").read_text()))
        listed = {line.split(",")[1] for line in texts[-1][0].splitlines()[1:]}
        assert listed == {m.name for m in train}
        assert not listed & {m.name for m in held}
        assert all((manifest.parent / "corpus" / m.source.name).is_file() for m in train)
    assert texts[0] == texts[1]
    label_ids = [line.split(",")[0] for line in texts[0][1].splitlines()[1:]]
    assert label_ids == [str(m.method_id) for m in train]


def test_prediction_rows_need_finite_decisions_matching_bits():
    row = {"method": "m", "ADD": "1", "MUL": "0", "PER": "1", "INC": "0",
           "EXC": "0", "INV": "1", "decision_ADD": "0.5", "decision_MUL": "-1.0",
           "decision_PER": "0.0", "decision_INC": "-0.1", "decision_EXC": "-2",
           "decision_INV": "3"}
    assert _valid_prediction(row)
    assert not _valid_prediction(dict(row, decision_ADD="nan"))
    assert not _valid_prediction(dict(row, MUL="1"))
    assert not _valid_prediction({k: v for k, v in row.items() if k != "decision_INV"})
