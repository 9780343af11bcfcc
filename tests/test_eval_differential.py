"""``auc``, ``training_rows``, the block form of ``decision_value`` and
``corpus.json_text`` against the paths they replaced, kept in
``eval_reference``: every result must be the same bits."""

import json
import math
import struct
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eval_reference
from conftest import src_env
from mrkit.corpus import json_text
from mrkit.evaluation import EvaluationError, FoldPlan, auc, training_rows
from mrkit.svm import SvmModel, decision_value

TESTS = Path(__file__).resolve().parent


def bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


def outcome(call):
    """A call's result as bits, or the text of the EvaluationError it raised."""
    try:
        return bits([call()])
    except EvaluationError as exc:
        return str(exc)


EDGES = [0.0, -0.0, 0.5, -1.0, 5e-324, math.inf, -math.inf, math.nan]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(EDGES) | st.floats(-4, 4) | st.integers(-3, 3),
                          st.sampled_from([0, 1])), max_size=12))
def test_auc_matches_the_numpy_count(pairs):
    values = [v for v, _ in pairs]
    truth = [t for _, t in pairs]
    assert outcome(lambda: auc(values, truth)) == \
        outcome(lambda: eval_reference.auc(values, truth))


def test_auc_counts_ties_and_infinities_as_the_numpy_count_does():
    values = [-0.0, 0.0, math.inf, math.inf, -math.inf, math.nan, 1.0, math.nan]
    truth = [1, 0, 1, 0, 1, 0, 0, 1]
    # wins: inf over 0.0 and 1.0; ties: -0.0 with 0.0, inf with inf; NaN never
    assert auc(values, truth) == eval_reference.auc(values, truth) == (2 + 0.5 * 2) / 16


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(2, 5).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.tuples(st.sampled_from([0, 1]), st.integers(0, k - 1)),
                         max_size=12))))
def test_training_rows_match_the_fold_loop(case):
    k, samples = case
    plan = FoldPlan(k=k, assignments=tuple(f for _, f in samples), seed=0)
    labels = [lab for lab, _ in samples]
    got, want = training_rows(labels, plan), eval_reference.training_rows(labels, plan)
    assert len(got) == len(want) == k
    for g, w in zip(got, want):
        if isinstance(w, str):
            assert g == w
        else:
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


def test_training_rows_name_empty_and_single_class_folds_as_the_loop_does():
    plan = FoldPlan(k=4, assignments=(0, 0, 1, 1, 1), seed=0)
    labels = [1, 0, 0, 0, 0]
    want = ["single-class training data; fold aborted", None,
            "empty test fold", "empty test fold"]
    got = training_rows(labels, plan)
    assert [r if isinstance(r, str) else None for r in got] == want
    assert got[1].tolist() == eval_reference.training_rows(labels, plan)[1].tolist()


@st.composite
def scored_blocks(draw):
    """A model and an (m, n_train) block in one of four layouts."""
    n = draw(st.integers(2, 40))
    support = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    finite = st.floats(-1e3, 1e3, allow_subnormal=False)
    coef = tuple(draw(st.lists(finite, min_size=len(support), max_size=len(support))))
    model = SvmModel(coef=coef, support=tuple(support), bias=draw(finite), n_train=n)
    m = draw(st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4, (m, n))
    layout = draw(st.sampled_from(["C", "F", "transposed", "strided"]))
    if layout == "F":
        block = np.asfortranarray(block)
    elif layout == "transposed":
        block = np.ascontiguousarray(block.T).T
    elif layout == "strided":
        wide = np.zeros((m, 2 * n + 1))
        wide[:, 1::2] = block
        block = wide[:, 1::2]
    return model, block


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scored_blocks())
def test_a_block_scores_each_row_as_its_own_column_call(case):
    model, block = case
    got = decision_value(model, block)
    assert type(got) is list and all(type(v) is float for v in got)
    assert bits(got) == bits(eval_reference.decision_value(model, row) for row in block)
    for row in block[:2]:
        assert bits([decision_value(model, row)]) == \
            bits([eval_reference.decision_value(model, row)])


def test_a_model_without_support_scores_every_row_its_bias():
    model = SvmModel(coef=(), support=(), bias=-0.0, n_train=3)
    assert bits(decision_value(model, np.ones((2, 3)))) == bits([-0.0, -0.0])
    assert decision_value(model, np.ones((0, 3))) == []


@dataclass(frozen=True)
class Cell:
    name: str
    value: object
    items: tuple = ()


LEAVES = (st.text(max_size=6) | st.sampled_from(["é中\U0001f600", '"q"\\', "\x00\x1f\n\t\x7f"])
          | st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf])
          | st.floats().map(np.float64) | st.floats()
          | st.integers(-2**70, 2**70) | st.booleans() | st.none())


def payloads():
    return st.recursive(LEAVES, lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
        | st.lists(st.builds(Cell, st.text(max_size=3), inner,
                             st.lists(inner, max_size=2).map(tuple)), max_size=3)),
        max_leaves=25)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payloads())
def test_json_text_writes_what_json_dumps_of_asdict_wrote(payload):
    assert json_text(payload) == eval_reference.report_json(payload)


def test_json_text_writes_bool_next_to_int_and_empty_containers():
    payload = {"b": [True, 1, False, 0], "e": [{}, [], ()], "f": np.float64(-0.0),
               "c": [Cell("x", 5e-324, ({"k": None},))]}
    assert json_text(payload) == eval_reference.report_json(payload)


@pytest.mark.parametrize("payload", [{1: "a"}, {None: 0}, [np.int64(1)], {"a": np.bool_(True)}])
def test_json_text_refuses_what_it_cannot_spell_as_report_json_does(payload):
    with pytest.raises(TypeError):
        json_text(payload)
    if not isinstance(payload, dict) or all(isinstance(key, str) for key in payload):
        with pytest.raises(TypeError):
            json.dumps(payload)


# Each featurization of ``evaluate`` at its defaults, cross-validated at
# seed 42; every fold's block decisions are checked against one reference
# call per test sample's column.
KERNEL_SCRIPT = """
import argparse, struct, sys
import numpy as np
import eval_reference
from mrkit import evaluation
from mrkit.cli import _corpus_features
from mrkit.corpus import bundled_dataset
from mrkit.evaluation import cross_validate, stratified_kfold, training_rows
from mrkit.oracle import MR_IDS

calls = []
real = evaluation.decision_value
def kept(model, block):
    calls.append((model, real(model, block)))
    return calls[-1][1]
evaluation.decision_value = kept

args = argparse.Namespace(omit_exit_nf=False, walk_len=10, graphlet_k=3, **{"lambda": 0.5})
compared = moved = 0
for features, args.graphlet_k in (("nf-pf", 3), ("rwk", 3), ("gk", 3), ("gk", 4)):
    entries, _, gram, _ = _corpus_features(bundled_dataset(), features, args)
    for mr in MR_IDS:
        labels = [1 if e.labels[mr] else 0 for e in entries]
        folds = stratified_kfold(labels, 10, seed=42)
        calls.clear()
        cross_validate(gram, labels, folds)
        rows = [r for r in training_rows(labels, folds) if not isinstance(r, str)]
        assert len(rows) == len(calls)
        for row, (model, got) in zip(rows, calls):
            train_idx = np.flatnonzero(row)
            want = [eval_reference.decision_value(model, gram.values[train_idx, t])
                    for t in np.flatnonzero(row == 0.0)]
            compared += len(want)
            moved += sum(struct.pack("<d", g) != struct.pack("<d", w)
                         for g, w in zip(got, want))
print(compared, moved)
"""


def test_block_decisions_read_the_same_on_every_openblas_kernel():
    """OpenBLAS picks its dot-product kernel by CPU, and some sum a
    misaligned or strided row in another order.  Scoring each row from a
    fresh gather of its support entries keeps every fold's decisions the
    bits of one column call per test sample, whichever kernel runs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas["name"]:
        pytest.skip(f"numpy is linked to {blas['name']}, not OpenBLAS, so "
                    "OPENBLAS_CORETYPE selects nothing")
    for core in ("Haswell", "Prescott", "Core2"):
        env = src_env(OPENBLAS_CORETYPE=core)
        env["PYTHONPATH"] = f"{TESTS}:{env['PYTHONPATH']}"
        result = subprocess.run([sys.executable, "-c", KERNEL_SCRIPT], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        compared, moved = map(int, result.stdout.split())
        assert compared > 1000 and moved == 0, (core, compared, moved)
