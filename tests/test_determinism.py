"""The determinism contract: one root seed gives the same bytes, whatever
the hash seed, and ``train`` then ``predict`` answers as ``evaluate`` does.

``goldens.json`` holds the seed-42 digests, and those of ``label`` at root
seeds 7 and 101, that ``make_goldens.py`` writes; a change that means to
move bytes regenerates it with that script.  The same label runs show that
the anomaly register accounts for every discrepancy they print.
"""

import csv
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from mrkit import cli
from mrkit.corpus import bundled_dataset, csv_text, data_dir
from mrkit.evaluation import stratified_kfold, training_rows
from mrkit.svm import SvmParams, decision_value, train_svm

import make_goldens
from conftest import ROOT, src_env
from make_goldens import FEATURES, LABEL_SEEDS, SEED


def moved(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """The artifacts whose digest differs, or that only one side has."""
    return sorted(name for name in expected.keys() | actual.keys()
                  if expected.get(name) != actual.get(name))


@pytest.fixture(scope="module")
def built(tmp_path_factory) -> dict[str, bytes]:
    """Every artifact that ``make_goldens.py`` digests, built once."""
    return make_goldens.artifacts(tmp_path_factory.mktemp("artifacts"))


def test_seed_42_artifacts_match_the_goldens(built):
    expected = json.loads(make_goldens.GOLDENS.read_text())
    changed = moved(expected, make_goldens.hexdigests(built))
    assert not changed, (
        f"{len(changed)} artifacts moved: {', '.join(changed)}; if that is "
        "meant, rerun tests/make_goldens.py and list them")


@pytest.mark.parametrize("root", [SEED, *LABEL_SEEDS])
def test_every_label_discrepancy_is_registered(built, root):
    # the bundled manifest's label run at a pinned root seed: each stderr
    # line is a discrepancy that the anomaly register beside it lists
    name = "label" if root == SEED else f"label-{root}"
    lines = built[f"{name}.stderr"].decode().splitlines()
    assert lines and built[f"{name}.exit"] == b"0"
    unexplained = [line for line in lines
                   if not (line.startswith("discrepancy: ") and line.endswith(" [registered]"))]
    assert not unexplained


def test_outputs_do_not_depend_on_the_hash_seed():
    runs = [subprocess.run([sys.executable, str(ROOT / "tests" / "make_goldens.py"), "--quick"],
                           env=src_env(PYTHONHASHSEED=hash_seed), capture_output=True,
                           text=True, check=True, timeout=120).stdout
            for hash_seed in ("0", "12345")]
    changed = moved(*map(json.loads, runs))
    assert not changed, f"moved with the hash seed: {', '.join(changed)}"


@pytest.mark.parametrize("name", list(FEATURES))
def test_train_then_predict_gives_evaluates_fold_0_decisions(name, tmp_path):
    # evaluate's path: fold 0 of ADD, scored from the full Gram's columns
    args = cli.build_parser().parse_args(["evaluate", *FEATURES[name], "--seed", SEED])
    entries, _, gram, _ = cli._corpus_features(bundled_dataset(), args.features, args)
    labels = [1 if e.labels["ADD"] else 0 for e in entries]
    folds = stratified_kfold(labels, args.k, seed=cli.stage_seed(args.seed, "folds"))
    row = training_rows(labels, folds)[0]
    model, = train_svm(gram.values, row[None, :], SvmParams(C=args.C))
    train_idx, test_idx = np.flatnonzero(row), folds.fold_indices(0)
    assert len(test_idx) > 1
    expected = {entries[t].name: repr(decision_value(model, gram.values[train_idx, t]))
                for t in test_idx}

    # train on a manifest without fold 0's test methods, then predict them
    held = {entries[t].name for t in test_idx}
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(csv_text([("method_id", "name", "source_kind", "source_path"),
                                  *((e.method_id, e.name, e.source_kind, e.source_path)
                                    for e in entries if e.name not in held)]))
    shutil.copyfile(data_dir() / "labels.csv", tmp_path / "labels.csv")
    models, out = tmp_path / "models", tmp_path / "predict.csv"
    assert cli.main(["train", "--manifest", str(manifest), *FEATURES[name],
                     "--seed", SEED, "--out", str(models)]) == 0
    assert cli.main(["predict", *(str(entries[t].source_path) for t in test_idx),
                     "--models", str(models), "--out", str(out)]) == 0
    with out.open(newline="") as f:
        got = {r["method"]: r["decision_ADD"] for r in csv.DictReader(f)}
    assert got == expected
