"""report.json and results.csv against the field-by-field reference
serializers, and the report.json key list of docs/formats.md against the
report types."""

import argparse
import json
import random
import re
from dataclasses import fields
from pathlib import Path
from unittest.mock import patch

import pytest

import report_reference
from mrkit import cli, svm
from mrkit.cli import _corpus_features, main
from mrkit.corpus import csv_text
from mrkit.evaluation import (
    ConfusionMatrix,
    EvalMetrics,
    EvalReport,
    FoldPlan,
    FoldResult,
    cross_validate,
    stratified_kfold,
)
from mrkit.features import FeatureVector
from mrkit.kernels import build_design_matrix
from test_evaluation import _synthetic_gram, report_json

FORMATS = Path(__file__).resolve().parents[1] / "docs" / "formats.md"


def reference_json(report) -> str:
    payload = report_reference.report_dict(report)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def edge_case_report(case, dataset) -> EvalReport:
    """A report holding the case's edge, asserted so the case cannot drift."""
    if case == "skipped fold":  # fold 0's training split holds only negatives
        labels = [1, 1, 0, 0, 0, 0]
        gram = build_design_matrix([(f"m{i}", FeatureVector("NF", {"assi-1-1": i + 1}))
                                    for i in range(6)])
        plan = FoldPlan(k=3, assignments=(0, 0, 1, 1, 2, 2), seed=0)
        report = cross_validate(gram, labels, plan, mr="ADD", featurization="nf-pf")
        assert report.folds[0].confusion is None and report.diagnostics
    elif case == "max_passes stop":
        entries, _, gram, _ = _corpus_features(
            dataset, "nf-pf", argparse.Namespace(omit_exit_nf=False))
        labels = [1 if e.labels["PER"] else 0 for e in entries]
        with patch.object(svm, "MAX_PASSES", 1):
            report = cross_validate(gram, labels, stratified_kfold(labels, 10, seed=42),
                                    mr="PER", featurization="nf-pf")
        assert any(fr.diagnostics for fr in report.folds)
    else:  # leave-one-out: every test fold is single-class
        gram, labels = _synthetic_gram(12, random.Random(2))
        report = cross_validate(gram, labels, stratified_kfold(labels, 12, seed=0),
                                mr="INV", featurization="rwk")
        assert all(fr.metrics.auc is None for fr in report.folds)
        assert any("precision" in fr.metrics.causes for fr in report.folds)
    return report


@pytest.mark.parametrize("case", ["skipped fold", "max_passes stop", "leave-one-out"])
def test_report_serializers_match_the_field_by_field_reference(dataset, case):
    report = edge_case_report(case, dataset)
    assert report_json(report) == reference_json(report)
    header = ("mr", "featurization", *EvalMetrics.FIELDS)
    assert csv_text([header, report.csv_row()]).splitlines() == [
        report_reference.RESULTS_CSV_HEADER, report_reference.csv_row(report)]


def test_evaluate_files_match_the_field_by_field_reference(tmp_path, monkeypatch):
    reports, run = [], cli.cross_validate

    def kept(*args, **kwargs):
        reports.append(run(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "cross_validate", kept)
    out = tmp_path / "out"
    assert main(["evaluate", "--features", "nf-pf", "--k", "5", "--out", str(out)]) == 0
    text = (out / "report.json").read_text()
    payload = json.loads(text)
    payload["reports"] = [report_reference.report_dict(r) for r in reports]
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert (out / "results.csv").read_text().splitlines() == [
        report_reference.RESULTS_CSV_HEADER, *map(report_reference.csv_row, reports)]


def documented_keys() -> dict[str, list[str]]:
    """object -> keys, from the table under ``### report.json keys``."""
    section = FORMATS.read_text().split("### report.json keys", 1)[1]
    table = {}
    for row in re.findall(r"^\| (\w+): .*? \| (.*) \|$", section, re.M):
        table[row[0]] = re.findall(r"`(\w+)`", row[1])
    return table


def test_formats_doc_lists_every_report_json_key(tmp_path):
    out = tmp_path / "out"
    assert main(["evaluate", "--features", "nf-pf", "--mr", "per", "--k", "2",
                 "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    keys = documented_keys()
    assert sorted(keys.pop("payload")) == sorted(payload)
    assert keys == {
        "report": [f.name for f in fields(EvalReport)],
        "fold": [f.name for f in fields(FoldResult)],
        "confusion": [f.name for f in fields(ConfusionMatrix)],
        "metrics": [f.name for f in fields(EvalMetrics)],
    }
