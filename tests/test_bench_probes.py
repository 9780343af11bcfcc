"""The benchmark's layer probes still name functions of the program, and
still accept the calls the program makes.

``bench/tracing.py`` patches each ``(module, attribute)`` of its ``PROBES``
at trace time, so a refactor that renames or drops one of them breaks
``bench/run.py --trace 1`` with an AttributeError that no other test sees.
A probe's name and hooks also read the call's arguments (the gk Gram's
``gk=`` keyword, ``graphlet_distribution``'s positional parameters), so a
change of call shape breaks the traced run too.  A probe can also resolve
and still see nothing: the label loop must call the interpreter through
``mrkit.oracle.interpret``, or the traced run reads zero calls.  The file
is read as text and executed into a fresh module, never imported, so
nothing is written under ``bench/``.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import mrkit
import oracle_reference
from mrkit.cli import main, stage_seed
from mrkit.mir import DEFAULT_STEP_BUDGET, Trap, parse_program
from mrkit.oracle import OracleParams
from test_cli import HELD, MIXED, corpus_path, write_bundled_manifest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _probe_targets() -> list[tuple[str, str]]:
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PROBES" for t in node.targets):
            return [(probe.elts[0].value, probe.elts[1].value) for probe in node.value.elts]
    raise AssertionError(f"no PROBES assignment in {TRACING}")


def test_every_probe_resolves_in_the_source_tree():
    targets = _probe_targets()
    assert ("mrkit.cli", "train_svm") in targets
    src = Path(mrkit.__file__).resolve().parent
    for module_name, attr in targets:
        module = importlib.import_module(module_name)
        assert Path(module.__file__).resolve().parent == src, module_name
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def _tracing_module() -> types.ModuleType:
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _traced_evaluate_train_and_predict(tmp_path, features: list[str]) -> dict:
    """The layer metrics of an evaluate, a train and a predict of one
    featurization, run under every probe."""
    tracing = _tracing_module()
    man = write_bundled_manifest(tmp_path, MIXED)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert main(["evaluate", "--manifest", str(man), *features, "--mr", "per",
                     "--k", "2", "--out", str(tmp_path / "eval")]) == 0
        assert main(["train", "--manifest", str(man), *features,
                     "--out", str(tmp_path / "models")]) == 0
        assert main(["predict", *map(corpus_path, HELD), "--models",
                     str(tmp_path / "models"), "--out", str(tmp_path / "pred.csv")]) == 0
    return tracing.layer_metrics(tracer)


@pytest.mark.parametrize("features,layer", [
    (["--features", "nf-pf"], "features.design_matrix_s"),
    (["--features", "rwk", "--walk-len", "6"], "kernels.gram.rwk_s"),
])
def test_an_nf_pf_and_an_rwk_evaluate_train_and_predict_run_under_every_probe(
        tmp_path, features, layer):
    metrics = _traced_evaluate_train_and_predict(tmp_path, features)
    assert metrics[layer] > 0.0
    assert metrics["cli.predict.self_s"] > 0.0


def test_a_gk_evaluate_train_and_predict_run_under_every_probe(tmp_path):
    metrics = _traced_evaluate_train_and_predict(
        tmp_path, ["--features", "gk", "--graphlet-k", "4"])
    assert metrics["kernels.gram.gk4_s"] > 0.0
    assert metrics["cli.predict.self_s"] > 0.0
    # two Grams over the training graphs, predict's training side and one
    # distribution per held-out method
    assert metrics["kernels.graphlet_distribution.calls"] == 3 * len(MIXED) + len(HELD)
    assert metrics["kernels.graphlet_distribution.distinct"] == len(MIXED) + len(HELD)


# two methods that divide by zero within 20 trials at root seed 42
TRAPPING = ["ebeDivide", "errorRate"]


def _reference_interpreter_calls(monkeypatch, names, params) -> tuple[int, int]:
    """Interpreter calls and traps of the per-trial reference loop."""
    calls = traps = 0
    interpret = oracle_reference.interpret

    def counted(*args):
        nonlocal calls, traps
        calls += 1
        try:
            return interpret(*args)
        except Trap:
            traps += 1
            raise

    monkeypatch.setattr(oracle_reference, "interpret", counted)
    for name in names:
        fn = parse_program(Path(corpus_path(name)).read_text()).functions[0]
        oracle_reference.label_method(fn, params, DEFAULT_STEP_BUDGET)
    return calls, traps


def test_a_label_run_calls_the_interpreter_through_its_probe(tmp_path, monkeypatch):
    names = MIXED + TRAPPING
    man = write_bundled_manifest(tmp_path, names)
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert main(["label", "--manifest", str(man), "--trials", "20", "--seed", "42",
                     "--out", str(tmp_path / "labels.csv")]) == 0
    metrics = tracing.layer_metrics(tracer)
    params = OracleParams(trials=20, seed=stage_seed(42, "oracle"))
    calls, traps = _reference_interpreter_calls(monkeypatch, names, params)
    assert traps == 3
    assert metrics["oracle.label_method.calls"] == len(names)
    assert (metrics["mir.interpret.calls"], metrics["mir.traps.total"]) == (calls, traps)
