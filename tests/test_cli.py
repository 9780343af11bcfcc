import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrkit import cli, corpus, svm
from mrkit.cfg import AnnotatedCfg, NodeOp, emit_dot, parse_dot
from mrkit.cli import _load_method_cfgs, main
from mrkit.corpus import MR_IDS, data_dir
from mrkit.mir import parse_program
from mrkit.features import MAX_GRAPHLET_SUBSETS, combine, node_features, path_features
import count_reference
import rwk_reference
from mrkit.kernels import CountBlock, GkParams, RwkParams
from test_features import branching_ring
from test_kernels import per_pair_gk
from test_mir import nested_fors
from conftest import src_env
from mrkit.svm import SvmModel, decision_value


def corpus_path(name: str) -> str:
    return str(data_dir() / "corpus" / f"{name}.mir")


def write_mini_manifest(tmp_path, names_ids, labels: bool = True) -> Path:
    lines = ["method_id,name,source_kind,source_path"]
    for mid, name in names_ids:
        src = tmp_path / f"{name}.mir"
        src.write_text(Path(corpus_path(name)).read_text())
        lines.append(f"{mid},{name},mir,{name}.mir")
    man = tmp_path / "manifest.csv"
    man.write_text("\n".join(lines) + "\n")
    if labels:
        ref = {90: "1,1,1,1,1,1", 5: "1,1,1,0,0,1", 49: "1,1,1,1,1,1"}
        rows = ["method_id,ADD,MUL,PER,INC,EXC,INV"]
        for mid, _ in names_ids:
            rows.append(f"{mid},{ref[mid]}")
        (tmp_path / "labels.csv").write_text("\n".join(rows) + "\n")
    return man


TRIO = [(90, "sum"), (5, "average"), (49, "find_max")]


def test_extract_worked_example(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["extract", corpus_path("average"), "--out", str(out),
                 "--omit-exit-nf"])
    assert code == 0
    dot = (out / "average.dot").read_text()
    assert dot.count("->") == 14
    rows = (out / "average_features.csv").read_text().splitlines()
    assert "average,NF,assi-1-1,7" in rows
    assert "average,NF,if-2-2,1" in rows
    assert not any(",NF,exit-" in r for r in rows)
    assert "average,PF,start-assi-assi-goto-assi-if-assi,2" in rows
    assert sum(1 for r in rows if ",PF," in r) == 25


def test_extract_empty_inputs_warns(tmp_path, capsys):
    assert main(["extract", "--out", str(tmp_path / "o")]) == 0
    assert "no inputs" in capsys.readouterr().err


def file_command(tmp_path, command: str, inputs) -> list[str]:
    """The ``extract`` or ``predict`` arguments over ``inputs``, writing
    under ``tmp_path``; predict's models are trained here, nf-pf on the
    bundled corpus."""
    if command == "extract":
        return ["extract", *map(str, inputs), "--out", str(tmp_path / "out")]
    models = tmp_path / "models"
    assert main(["train", "--features", "nf-pf", "--out", str(models)]) == 0
    return ["predict", *map(str, inputs), "--models", str(models)]


@pytest.mark.parametrize("command", ["extract", "predict"])
@pytest.mark.parametrize("text", ["", "# only a comment\n"])
def test_mir_file_without_a_function_is_an_error(tmp_path, capsys, command, text):
    empty = tmp_path / "empty.mir"
    empty.write_text(text)
    args = file_command(tmp_path, command, [empty])
    capsys.readouterr()
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {empty}: no function defined\n"
    assert "empty" not in out


@pytest.mark.parametrize("command", ["extract", "predict"])
def test_missing_input_names_its_path_once(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    if command == "extract":
        args = ["extract", "nope.mir", "--out", "out"]
    else:
        assert main(["train", "--features", "nf-pf", "--out", "models"]) == 0
        args = ["predict", "nope.mir", "--models", "models"]
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err == "error: nope.mir: No such file or directory\n"


def test_extract_continues_past_bad_files(tmp_path, capsys):
    bad = tmp_path / "broken.dot"
    bad.write_text("digraph g {\n  a [label=\"nope\"];\n}\n")
    out = tmp_path / "out"
    code = main(["extract", str(bad), corpus_path("sum"), "--out", str(out)])
    assert code == 1
    assert (out / "sum.dot").exists()
    assert "broken.dot" in capsys.readouterr().err


def test_extract_refuses_a_method_already_extracted(tmp_path, capsys):
    """A second input naming the same method writes nothing and is an
    error; the inputs after it still run."""
    first, again = corpus_path("average"), str(data_dir() / "cfg" / "average.dot")
    out = tmp_path / "out"
    code = main(["extract", first, again, corpus_path("sum"), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {again}: method average already extracted from {first}\n")
    lone = tmp_path / "lone"
    assert main(["extract", first, "--out", str(lone)]) == 0
    for name in ("average.dot", "average_features.csv"):
        assert (out / name).read_bytes() == (lone / name).read_bytes()
    assert sorted(p.name for p in out.iterdir()) == [
        "average.dot", "average_features.csv", "sum.dot", "sum_features.csv"]


def test_label_matches_published_rows(tmp_path, capsys):
    man = write_mini_manifest(tmp_path, TRIO)
    out = tmp_path / "labels_out.csv"
    code = main(["label", "--manifest", str(man), "--out", str(out), "--seed", "42"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method_id,ADD,MUL,PER,INC,EXC,INV"
    assert "90,1,1,1,1,1,1" in lines
    assert "5,1,1,1,0,0,1" in lines
    assert "49,1,1,1,1,1,1" in lines
    assert "discrepancy" not in capsys.readouterr().err


def test_label_audits_only_the_methods_with_a_reference_row(tmp_path, capsys):
    # average's row claims INC and EXC, which the oracle rejects; sum has no
    # row, so it is labelled but not audited
    man = write_mini_manifest(tmp_path, [(5, "average"), (90, "sum")], labels=False)
    (tmp_path / "labels.csv").write_text("method_id,ADD,MUL,PER,INC,EXC,INV\n5,1,1,1,1,1,1\n")
    out = tmp_path / "labels_out.csv"
    assert main(["label", "--manifest", str(man), "--out", str(out), "--trials", "20"]) == 0
    assert out.read_text().splitlines()[1:] == ["5,1,1,1,0,0,1", "90,1,1,1,1,1,1"]
    err = capsys.readouterr().err.splitlines()
    assert [line.split(" (")[0] for line in err] == [
        "discrepancy: average INC: dynamic=0 reference=1",
        "discrepancy: average EXC: dynamic=0 reference=1"]
    assert all(line.endswith("])") and "(violation; witness source=[" in line for line in err)


def test_label_marks_the_discrepancies_the_register_beside_the_manifest_lists(
        tmp_path, capsys):
    # average's row claims INC and EXC, which the oracle rejects; the
    # register lists EXC alone
    man = write_mini_manifest(tmp_path, [(5, "average")], labels=False)
    (tmp_path / "labels.csv").write_text("method_id,ADD,MUL,PER,INC,EXC,INV\n5,1,1,1,1,1,1\n")
    (tmp_path / "anomalies.csv").write_text("method_id,name,mrs,reason\n5,average,EXC,why\n")
    out = tmp_path / "labels_out.csv"
    assert main(["label", "--manifest", str(man), "--out", str(out), "--trials", "20"]) == 0
    inc, exc = capsys.readouterr().err.splitlines()
    assert inc.startswith("discrepancy: average INC: ") and inc.endswith("])")
    assert exc.startswith("discrepancy: average EXC: ") and exc.endswith("]) [registered]")
    # a malformed register is refused before any method is labelled
    (tmp_path / "anomalies.csv").write_text("method_id,name,mrs,reason\n5,average,XYZ,why\n")
    out.unlink()
    assert main(["label", "--manifest", str(man), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'anomalies.csv'}:2: unknown relation 'XYZ' in mrs\n")
    assert not out.exists()


def test_label_stable_across_seeds(tmp_path):
    man = write_mini_manifest(tmp_path, TRIO)
    outputs = []
    for seed in ("42", "43"):
        out = tmp_path / f"labels{seed}.csv"
        main(["label", "--manifest", str(man), "--out", str(out), "--seed", seed])
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]


def test_label_trapping_method_gets_zero_row_and_diagnostic(tmp_path, capsys):
    src = tmp_path / "boom.mir"
    src.write_text("fn boom(a) {\n  x = a[0]\n  y = 0\n  return x / y\n}\n")
    man = tmp_path / "manifest.csv"
    man.write_text("method_id,name,source_kind,source_path\n1,boom,mir,boom.mir\n")
    out = tmp_path / "labels.csv"
    assert main(["label", "--manifest", str(man), "--out", str(out),
                 "--trials", "5"]) == 0
    assert "1,0,0,0,0,0,0" in out.read_text()
    assert "runtime trap" in capsys.readouterr().err


def test_label_partial_parse_failure_is_diagnostic_not_error(tmp_path, capsys):
    good = tmp_path / "sum.mir"
    good.write_text(Path(corpus_path("sum")).read_text())
    bad = tmp_path / "bad.mir"
    bad.write_text("fn bad(a) {\n  goto NOWHERE\n  return 0\n}\n")
    man = tmp_path / "manifest.csv"
    man.write_text("method_id,name,source_kind,source_path\n"
                   "90,sum,mir,sum.mir\n2,bad,mir,bad.mir\n")
    out = tmp_path / "labels.csv"
    assert main(["label", "--manifest", str(man), "--out", str(out)]) == 0
    assert "90,1,1,1,1,1,1" in out.read_text()
    assert "NOWHERE" in capsys.readouterr().err


def test_label_overflowing_method_does_not_abort_the_run(tmp_path, capsys):
    good = tmp_path / "sum.mir"
    good.write_text(Path(corpus_path("sum")).read_text())
    boom = tmp_path / "expexp.mir"
    boom.write_text("fn expexp(a) {\n  x = a[0]\n  x = x + 800\n"
                    "  y = exp(x)\n  z = exp(y)\n  return z\n}\n")
    man = tmp_path / "manifest.csv"
    man.write_text("method_id,name,source_kind,source_path\n"
                   "90,sum,mir,sum.mir\n3,expexp,mir,expexp.mir\n")
    out = tmp_path / "labels.csv"
    assert main(["label", "--manifest", str(man), "--out", str(out),
                 "--trials", "5"]) == 0
    lines = out.read_text().splitlines()
    assert "90,1,1,1,1,1,1" in lines
    assert "3,0,0,0,0,0,0" in lines
    assert "trap: overflow" in capsys.readouterr().err


def test_label_total_failure_is_error(tmp_path, capsys):
    bad = tmp_path / "bad.mir"
    bad.write_text("fn bad(a) {\n  goto NOWHERE\n  return 0\n}\n")
    man = tmp_path / "manifest.csv"
    man.write_text("method_id,name,source_kind,source_path\n2,bad,mir,bad.mir\n")
    assert main(["label", "--manifest", str(man), "--out",
                 str(tmp_path / "l.csv")]) == 1


def _manifest_with_undefined_name(tmp_path) -> Path:
    """The trio plus a row naming ``g`` in a file that defines only ``f``."""
    man = write_mini_manifest(tmp_path, TRIO)
    (tmp_path / "m.mir").write_text("fn f(a) {\n  return 1\n}\n")
    with man.open("a") as fh:
        fh.write("1,g,mir,m.mir\n")
    label_all(tmp_path, 1)
    return man


def label_all(tmp_path, method_id: int) -> None:
    """Give ``method_id`` every MR in ``labels.csv``, so that train and
    evaluate, which refuse an unlabelled method before any source is read,
    go on to load it."""
    with (tmp_path / "labels.csv").open("a") as fh:
        fh.write(f"{method_id},1,1,1,1,1,1\n")


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_manifest_name_its_file_does_not_define_is_an_error(tmp_path, capsys, command):
    man = _manifest_with_undefined_name(tmp_path)
    assert main([command, "--manifest", str(man), "--features", "nf-pf", "--mr", "add",
                 "--out", str(tmp_path / "out")]) == 2
    source = (tmp_path / "m.mir").resolve()
    assert capsys.readouterr().err == f"error: {source} defines no function 'g'\n"


@pytest.mark.parametrize("command", ["train", "evaluate", "extract", "predict"])
def test_a_source_that_is_not_utf8_is_named_in_the_error(tmp_path, capsys, command):
    """A manifest row's source stops train and evaluate (exit 2, the path
    resolved); an input file is one failed input of extract or predict
    (exit 1, the path as given)."""
    latin = tmp_path / "latin.mir"
    latin.write_bytes(b"\xff\n")
    if command in ("extract", "predict"):
        args, code, source = file_command(tmp_path, command, [latin]), 1, latin
    else:
        man = write_mini_manifest(tmp_path, TRIO)
        with man.open("a") as fh:
            fh.write("1,latin,mir,latin.mir\n")
        label_all(tmp_path, 1)
        args = [command, "--manifest", str(man), "--features", "nf-pf", "--mr", "add",
                "--out", str(tmp_path / "out")]
        code, source = 2, latin.resolve()
    capsys.readouterr()
    assert main(args) == code
    assert capsys.readouterr().err == (
        f"error: {source}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n")


@pytest.mark.parametrize("command", ["extract", "predict"])
def test_an_input_that_is_neither_mir_nor_dot_is_named_in_the_error(tmp_path, capsys,
                                                                     command):
    odd = tmp_path / "sum.txt"
    odd.write_text(Path(corpus_path("sum")).read_text())
    args = file_command(tmp_path, command, [odd, corpus_path("sum")])
    capsys.readouterr()
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {odd}: expected a .mir or .dot file\n"
    if command == "extract":
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "sum.dot", "sum_features.csv"]
    else:
        assert [row.split(",")[0] for row in out.splitlines()] == ["method", "sum"]


@pytest.mark.parametrize("args", [
    ["label"],
    *(["evaluate", "--features", f, "--k", "2"] for f in ("nf-pf", "rwk", "gk")),
    *(["train", "--features", f] for f in ("nf-pf", "rwk", "gk")),
])
def test_a_duplicate_method_name_is_refused_before_any_work(tmp_path, capsys, args):
    # a second row for find_max under its own labelled id
    man = write_mini_manifest(tmp_path, TRIO)
    man.write_text(man.read_text() + "77,find_max,mir,find_max.mir\n")
    labels = tmp_path / "labels.csv"
    labels.write_text(labels.read_text() + "77,1,1,1,1,1,1\n")
    out = tmp_path / "out"
    assert main(args + ["--manifest", str(man), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {man}:5: duplicate method name 'find_max'\n"
    assert not out.exists()


def test_evaluate_reports_a_too_deep_for_nest_in_one_line(tmp_path, capsys):
    man = write_mini_manifest(tmp_path, TRIO)
    (tmp_path / "deep.mir").write_text(nested_fors(600))
    with man.open("a") as fh:
        fh.write("7,deep,mir,deep.mir\n")
    with (tmp_path / "labels.csv").open("a") as fh:
        fh.write("7,1,1,1,1,1,1\n")
    assert main(["evaluate", "--manifest", str(man), "--features", "nf-pf", "--mr", "add",
                 "--out", str(tmp_path / "out")]) == 2
    source = (tmp_path / "deep.mir").resolve()
    assert capsys.readouterr().err == \
        f"error: {source}: line 103: for loops nested more than 100 deep\n"


def test_label_names_a_source_that_does_not_parse_and_goes_on(tmp_path, capsys):
    man = write_mini_manifest(tmp_path, TRIO)
    (tmp_path / "bad.mir").write_text("fn bad(a) {\n  return a[0]\n}\n")
    man.write_text(man.read_text() + "7,bad,mir,bad.mir\n")
    out = tmp_path / "labels.csv"
    assert main(["label", "--manifest", str(man), "--out", str(out), "--trials", "5"]) == 0
    assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == ["90", "5", "49"]
    source = (tmp_path / "bad.mir").resolve()
    assert f"error: bad: {source}: line 2: return takes an atom or a single arithmetic op\n" \
        in capsys.readouterr().err


def test_label_reports_a_name_its_file_does_not_define_and_goes_on(tmp_path, capsys):
    man = _manifest_with_undefined_name(tmp_path)
    out = tmp_path / "labels.csv"
    assert main(["label", "--manifest", str(man), "--out", str(out), "--trials", "5"]) == 0
    assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == ["90", "5", "49"]
    source = (tmp_path / "m.mir").resolve()
    assert f"error: g: {source} defines no function 'g'\n" in capsys.readouterr().err


def test_evaluate_never_loads_the_code_generator(tmp_path):
    # codegen is imported on a function's first call; commands that only
    # featurize CFGs must not pay for it
    script = ("import sys\n"
              "import mrkit.cli\n"
              "code = mrkit.cli.main(['evaluate', '--features', 'nf-pf', '--mr', 'add',\n"
              f"                      '--out', {str(tmp_path / 'out')!r}])\n"
              "assert code == 0, code\n"
              "assert 'mrkit.mir' in sys.modules\n"
              "assert 'mrkit.codegen' not in sys.modules\n")
    result = subprocess.run([sys.executable, "-c", script], env=src_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_python_dash_m_runs_the_command_line():
    result = subprocess.run([sys.executable, "-m", "mrkit", "stats"], env=src_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "ADD,56,44" in result.stdout and "matching_mrs,methods" in result.stdout


def test_stats_prints_published_counts(capsys):
    assert main(["stats"]) == 0
    text = capsys.readouterr().out
    assert "ADD,56,44" in text
    assert "INV,63,37" in text
    assert "0,20" in text and "6,9" in text


def test_stats_refuses_a_short_manifest_row(tmp_path, capsys):
    man = tmp_path / "manifest.csv"
    man.write_text("method_id,name,source_kind,source_path\n1,a,none\n")
    assert main(["stats", "--manifest", str(man)]) == 2
    assert capsys.readouterr().err == f"error: {man}:2: expected 4 cells, got 3\n"


def test_evaluate_usage_error_on_k_below_two(tmp_path, capsys):
    assert main(["evaluate", "--k", "1", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_evaluate_refuses_non_finite_c(tmp_path, capsys, bad):
    assert main(["evaluate", "--features", "gk", "--mr", "add", "--C", bad,
                 "--out", str(tmp_path)]) == 2
    assert "C must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_train_reports_a_max_passes_stop(tmp_path, capsys, monkeypatch):
    args = ["train", "--features", "nf-pf", "--mr", "per", "--out", str(tmp_path)]
    assert main(args) == 0
    assert "SMO stopped" not in capsys.readouterr().err
    monkeypatch.setattr(svm, "MAX_PASSES", 1)
    assert main(args) == 0
    assert "diagnostic: PER: SMO stopped at max_passes: KKT gap " \
        in capsys.readouterr().err


def test_train_models_do_not_depend_on_the_seed(tmp_path):
    """The solver draws no random numbers, so the root seed cannot reach a
    model directory."""
    written = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert main(["train", "--features", "nf-pf", "--seed", seed,
                     "--out", str(out)]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(written[0]) == ["ADD.json", "EXC.json", "INC.json", "INV.json",
                                  "MUL.json", "PER.json", "context.json"]
    assert written[0] == written[1]


def test_evaluate_deterministic_outputs(tmp_path):
    args = ["evaluate", "--features", "nf-pf", "--mr", "per", "--k", "5",
            "--seed", "42"]
    payloads = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(args + ["--out", str(out)]) == 0
        payloads.append(((out / "report.json").read_bytes(),
                         (out / "results.csv").read_bytes()))
    assert payloads[0] == payloads[1]


def test_evaluate_writes_schema(tmp_path):
    out = tmp_path / "eval"
    assert main(["evaluate", "--features", "rwk", "--mr", "all", "--k", "10",
                 "--seed", "42", "--out", str(out), "--dump-gram"]) == 0
    csv_lines = (out / "results.csv").read_text().splitlines()
    assert csv_lines[0] == "mr,featurization,accuracy,precision,recall,f_measure,auc,bsr"
    assert len(csv_lines) == 7
    for line in csv_lines[1:]:
        auc = float(line.split(",")[6])
        assert 0.0 <= auc <= 1.0
    report = json.loads((out / "report.json").read_text())
    assert report["k"] == 10 and report["root_seed"] == 42
    assert (out / "gram.csv").exists()


def test_evaluate_prints_fold_plan_warnings(tmp_path, capsys):
    args = ["evaluate", "--features", "nf-pf", "--mr", "exc", "--seed", "42"]
    assert main(args + ["--k", "30", "--out", str(tmp_path / "k30")]) == 0
    err = capsys.readouterr().err
    assert "diagnostic: EXC: class 1 has only 19 members for 30 folds\n" in err
    assert main(args + ["--k", "10", "--out", str(tmp_path / "k10")]) == 0
    assert "diagnostic" not in capsys.readouterr().err


def test_evaluate_single_class_mr_skipped(tmp_path, capsys):
    man = write_mini_manifest(tmp_path, TRIO)
    code = main(["evaluate", "--manifest", str(man), "--features", "nf-pf",
                 "--mr", "add", "--k", "2", "--seed", "1"])
    assert code == 1  # ADD is all-positive on the trio: skipped, partial exit
    assert "single-class" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_one_batched_svm_solve_per_command(command, tmp_path, monkeypatch, capsys):
    """Every fit of a command goes through one ``train_svm`` call: 60 fold
    rows for evaluate, 6 MR rows for train."""
    batches, svm_train = [], cli.train_svm

    def counted(gram, labels, params):
        batches.append(np.shape(labels))
        return svm_train(gram, labels, params)

    monkeypatch.setattr(cli, "train_svm", counted)
    monkeypatch.setattr("mrkit.evaluation.train_svm", counted)
    assert main([command, "--features", "nf-pf", "--out", str(tmp_path / "o")]) == 0
    assert batches == [(60, 68) if command == "evaluate" else (6, 68)]


def test_train_predict_round_trip(tmp_path, capsys):
    # train on the bundled corpus minus `sum`, then predict sum
    manifest = data_dir() / "manifest.csv"
    lines = [l for l in manifest.read_text().splitlines() if ",sum," not in l]
    man = tmp_path / "manifest.csv"
    man.write_text("\n".join(lines) + "\n")
    labels = data_dir() / "labels.csv"
    (tmp_path / "labels.csv").write_text(labels.read_text())
    (tmp_path / "corpus").mkdir()
    for mir in (data_dir() / "corpus").glob("*.mir"):
        (tmp_path / "corpus" / mir.name).write_text(mir.read_text())

    models = tmp_path / "models"
    assert main(["train", "--manifest", str(man), "--features", "nf-pf",
                 "--out", str(models), "--seed", "42"]) == 0
    assert sorted(p.name for p in models.glob("*.json")) == [
        "ADD.json", "EXC.json", "INC.json", "INV.json", "MUL.json", "PER.json",
        "context.json"]

    out = tmp_path / "pred.csv"
    assert main(["predict", corpus_path("sum"), "--models", str(models),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:7] == ["method", "ADD", "MUL", "PER", "INC", "EXC", "INV"]
    assert len(header) == 13  # six bits plus six decision values
    row = lines[1].split(",")
    assert row[0] == "sum"
    assert all(bit in ("0", "1") for bit in row[1:7])
    for cell in row[7:]:
        float(cell)


def test_predict_refuses_featurization_mismatch(tmp_path, capsys):
    # context.json names the featurization, so predict takes no --features
    models = tmp_path / "models"
    assert main(["train", "--features", "nf-pf", "--out", str(models),
                 "--seed", "42"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(["predict", corpus_path("sum"), "--models", str(models), "--features", "rwk"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--features" in captured.err
    with pytest.raises(SystemExit) as exit_:
        main(["predict", "--help"])
    assert exit_.value.code == 0
    assert "--models" in (text := capsys.readouterr().out) and "--features" not in text


def test_predict_warns_on_unseen_keys(tmp_path, capsys):
    models = tmp_path / "models"
    assert main(["train", "--features", "nf-pf", "--out", str(models),
                 "--seed", "42"]) == 0
    novel = tmp_path / "novel.mir"
    novel.write_text(
        "fn novel(a) {\n  x = a[0]\n  y = x % 7\n  z = y % 3\n"
        "  w = z % 2\n  q = w % 2\n  return q % 2\n}\n")
    assert main(["predict", str(novel), "--models", str(models)]) == 0
    err = capsys.readouterr().err
    assert err.count("unseen feature keys") == 1  # once per method, not per MR


def test_predict_refuses_context_edited_without_hash(tmp_path, capsys):
    models = tmp_path / "models"
    assert main(["train", "--features", "nf-pf", "--out", str(models),
                 "--seed", "42"]) == 0
    path = models / "context.json"
    saved = json.loads(path.read_text())
    saved["context"]["omit_exit_nf"] = not saved["context"]["omit_exit_nf"]
    path.write_text(json.dumps(saved, sort_keys=True, separators=(",", ":")) + "\n")
    capsys.readouterr()
    code = main(["predict", corpus_path("sum"), "--models", str(models)])
    assert code == 2
    err = capsys.readouterr().err
    assert "refusing" in err and "context.json" in err


def edit_context(models: Path, edit) -> None:
    """Apply ``edit`` to the stored context, then re-hash it and every
    model's reference to it, so that only the edit is wrong."""
    path = models / "context.json"
    saved = json.loads(path.read_text())
    edit(saved["context"])
    saved["context_hash"] = hashlib.sha256(
        json.dumps(saved["context"], sort_keys=True).encode()).hexdigest()[:16]
    path.write_text(json.dumps(saved))
    for mr in MR_IDS:
        bundle = json.loads((models / f"{mr}.json").read_text())
        bundle["context_hash"] = saved["context_hash"]
        (models / f"{mr}.json").write_text(json.dumps(bundle))


def test_predict_refuses_malformed_context(tmp_path, capsys):
    for i, (features, edit, reason) in enumerate([
            ("nf-pf", lambda context: context.pop("omit_exit_nf"), "omit_exit_nf"),
            ("nf-pf", lambda context: context.pop("training_graphs"), "training_graphs"),
            ("nf-pf", lambda context: context["training_graphs"].__setitem__(0, 7),
             "training_graphs must be a list of DOT texts"),
            ("nf-pf", lambda context: context["training_graphs"].__setitem__(0, None),
             "training_graphs must be a list of DOT texts"),
            ("gk", lambda context: context.update(k=5), "graphlet size must be 3 or 4"),
            ("nf-pf", lambda context: context.update(omit_exit_nf="no"),
             "omit_exit_nf must be true or false, got 'no'"),
            ("rwk", lambda context: context.update(walk_len=True),
             "walk_len must lie in 1..20")]):
        models = tmp_path / str(i)
        assert main(["train", "--features", features, "--out", str(models),
                     "--seed", "42"]) == 0
        edit_context(models, edit)
        capsys.readouterr()
        assert main(["predict", corpus_path("sum"), "--models", str(models)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed" in captured.err and reason in captured.err


def dense_dot(n: int) -> str:
    """A valid CFG of ``n`` nodes: start -> every inner node, the inner
    nodes a complete digraph, every inner node -> exit."""
    inner = range(1, n - 1)
    edges = [(0, v) for v in inner] + [(a, b) for a in inner for b in inner if a != b]
    edges += [(v, n - 1) for v in inner]
    return emit_dot(AnnotatedCfg("dense", (NodeOp.START, *(NodeOp.ASSI,) * (n - 2), NodeOp.EXIT),
                                 tuple(edges)))


def test_predict_with_a_gk_model_refuses_a_dense_graph_quickly(tmp_path, capsys):
    man = write_bundled_manifest(tmp_path, MIXED)
    models = tmp_path / "models"
    assert main(["train", "--manifest", str(man), "--features", "gk", "--graphlet-k", "4",
                 "--out", str(models)]) == 0
    dense = tmp_path / "dense.dot"
    dense.write_text(dense_dot(50))
    capsys.readouterr()
    start = time.perf_counter()
    code = main(["predict", str(dense), corpus_path("sum"), "--models", str(models)])
    elapsed = time.perf_counter() - start
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {dense}: dense: more than {MAX_GRAPHLET_SUBSETS} "
                            "connected 4-node subsets; the graphlet kernel refuses a "
                            "graph this dense\n")
    assert [row.split(",")[0] for row in captured.out.splitlines()] == ["method", "sum"]
    assert elapsed < 1.0


def test_predict_refuses_a_directory_without_context_json(tmp_path, capsys):
    models = tmp_path / "models"
    assert main(["train", "--features", "rwk", "--out", str(models)]) == 0
    # the layout before context.json: every model file embeds the context
    saved = json.loads((models / "context.json").read_text())
    for mr in MR_IDS:
        path = models / f"{mr}.json"
        bundle = json.loads(path.read_text())
        bundle.update(featurization="rwk", context=saved["context"])
        path.write_text(json.dumps(bundle))
    (models / "context.json").unlink()
    capsys.readouterr()
    assert main(["predict", corpus_path("sum"), "--models", str(models)]) == 2
    err = capsys.readouterr().err
    assert "context.json" in err and "retrained" in err


def test_predict_refuses_a_model_of_another_context(tmp_path, capsys):
    models = tmp_path / "models"
    assert main(["train", "--features", "nf-pf", "--out", str(models)]) == 0
    assert main(["train", "--features", "rwk", "--mr", "per", "--out",
                 str(models)]) == 0
    capsys.readouterr()
    assert main(["predict", corpus_path("sum"), "--models", str(models)]) == 2
    err = capsys.readouterr().err
    assert "refusing" in err and "ADD.json" in err


def test_model_files_hold_no_context(tmp_path):
    models = tmp_path / "models"
    assert main(["train", "--features", "nf-pf", "--out", str(models)]) == 0
    context = json.loads((models / "context.json").read_text())["context"]
    assert "training_graphs" in context and "feature_index" not in context
    for mr in MR_IDS:
        text = (models / f"{mr}.json").read_text()
        assert set(json.loads(text)) == {"mr", "context_hash", "model"}
        assert "training_graphs" not in text and "feature_index" not in text


# every MR has both classes among these seven, so train writes all six models
MIXED = ["cal_Diff", "add_values", "cnt_zeroes", "find_min",
         "sequential_search", "dec_array", "get_array_value"]
HELD = ["square", "find_max", "average"]


def write_bundled_manifest(tmp_path, names) -> Path:
    rows = {line.split(",")[1]: line
            for line in (data_dir() / "manifest.csv").read_text().splitlines()[1:]}
    man = tmp_path / "manifest.csv"
    man.write_text("method_id,name,source_kind,source_path\n"
                   + "".join(rows[n] + "\n" for n in names))
    (tmp_path / "labels.csv").write_text((data_dir() / "labels.csv").read_text())
    (tmp_path / "corpus").mkdir()
    for n in names:
        (tmp_path / "corpus" / f"{n}.mir").write_text(Path(corpus_path(n)).read_text())
    return man


@pytest.mark.parametrize("features", [
    ["--features", "rwk", "--walk-len", "6", "--lambda", "0.3"],
    ["--features", "gk", "--graphlet-k", "3"],
    ["--features", "nf-pf"],
])
def test_kernel_predict_matches_per_pair_kernels(tmp_path, features):
    man = write_bundled_manifest(tmp_path, MIXED)
    models = tmp_path / "models"
    assert main(["train", "--manifest", str(man), "--out", str(models),
                 "--seed", "42", *features]) == 0
    out = tmp_path / "pred.csv"
    assert main(["predict", *map(corpus_path, HELD), "--models", str(models),
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == HELD

    def nf_pf(cfg):
        return combine(node_features(cfg), path_features(cfg))

    # nf-pf columns are X_train @ x over the training sources themselves
    sources = [nf_pf(_load_method_cfgs(Path(corpus_path(n)))[0]) for n in MIXED]
    context = json.loads((models / "context.json").read_text())["context"]
    train_graphs = [parse_dot(t) for t in context["training_graphs"]]
    assert [g.name for g in train_graphs] == MIXED
    for mr_pos, mr in enumerate(MR_IDS):
        model = SvmModel.from_dict(
            json.loads((models / f"{mr}.json").read_text())["model"])
        for row, name in zip(rows, HELD):
            cfg = _load_method_cfgs(Path(corpus_path(name)))[0]
            if context["featurization"] == "nf-pf":
                column = count_reference.column(sources, nf_pf(cfg))
            elif context["featurization"] == "rwk":
                p = RwkParams(walk_len=context["walk_len"], decay=context["decay"])
                column = rwk_reference.column(train_graphs, cfg, p)
            else:
                p = GkParams(k=context["k"])
                column = [per_pair_gk(g, cfg, p) for g in train_graphs]
            assert float(row[7 + mr_pos]) == decision_value(model, np.asarray(column))


@pytest.mark.parametrize("context", [
    {"featurization": "nf-pf", "omit_exit_nf": False},
    {"featurization": "rwk", "walk_len": 6, "decay": 0.3},
    {"featurization": "gk", "k": 4, "mode": "exhaustive"},
])
def test_predict_builds_its_training_side_without_a_gram(corpus_graphs, monkeypatch, context):
    train = [corpus_graphs[n] for n in MIXED]
    context = dict(context, training_graphs=[emit_dot(g) for g in train])

    def refuse(*args, **kwargs):
        raise AssertionError("a Gram product on predict's training side")
    with monkeypatch.context() as patched:
        patched.setattr(np, "matmul", refuse)
        patched.setattr(CountBlock, "gram", refuse)
        column_of = cli._column_function(context)

    sources = [combine(node_features(g), path_features(g)) for g in train]
    for name in HELD:
        g = corpus_graphs[name]
        if context["featurization"] == "nf-pf":
            expected = count_reference.column(sources, combine(node_features(g),
                                                               path_features(g)))
        elif context["featurization"] == "rwk":
            p = RwkParams(walk_len=context["walk_len"], decay=context["decay"])
            expected = rwk_reference.column(train, g, p)
        else:
            expected = [per_pair_gk(t, g, GkParams(k=context["k"])) for t in train]
        assert column_of(g).tolist() == list(expected)


@pytest.mark.parametrize("command", ["evaluate", "train"])
@pytest.mark.parametrize("walk_len", ["0", "21"])
def test_walk_len_outside_the_cap_is_a_usage_error(tmp_path, capsys, command, walk_len):
    code = main([command, "--features", "rwk", "--walk-len", walk_len, "--mr", "per",
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: walk_len must lie in 1..20\n"
    assert not (tmp_path / "out").exists()


def test_walk_len_at_the_cap_runs(tmp_path):
    assert main(["evaluate", "--features", "rwk", "--walk-len", "20", "--mr", "per",
                 "--k", "2", "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "results.csv").exists()


def test_predict_refuses_a_context_past_the_walk_len_cap(tmp_path, capsys):
    man = write_bundled_manifest(tmp_path, MIXED)
    models = tmp_path / "models"
    assert main(["train", "--manifest", str(man), "--features", "rwk",
                 "--out", str(models)]) == 0
    edit_context(models, lambda context: context.update(walk_len=21))
    capsys.readouterr()
    assert main(["predict", corpus_path("sum"), "--models", str(models)]) == 2
    err = capsys.readouterr().err
    assert "malformed" in err and "1..20" in err


def _set_n_train(models: Path) -> None:
    # one more than the seven training graphs: every support index stays valid
    bundle = json.loads((models / "ADD.json").read_text())
    bundle["model"]["n_train"] = len(MIXED) + 1
    (models / "ADD.json").write_text(json.dumps(bundle))


def _set_nan_bias(models: Path) -> None:
    bundle = json.loads((models / "PER.json").read_text())
    bundle["model"]["bias"] = math.nan
    (models / "PER.json").write_text(json.dumps(bundle))  # written as NaN


def _set_huge_bias(models: Path) -> None:
    bundle = json.loads((models / "PER.json").read_text())
    bundle["model"]["bias"] = 10 ** 400  # written as a 401-digit integer
    (models / "PER.json").write_text(json.dumps(bundle))


def _set_bool_support_index(models: Path) -> None:
    bundle = json.loads((models / "ADD.json").read_text())
    bundle["model"]["support"][0] = True  # int(True) would read index 1
    (models / "ADD.json").write_text(json.dumps(bundle))


def _repeat_support_index(models: Path) -> None:
    bundle = json.loads((models / "ADD.json").read_text())
    support = bundle["model"]["support"]
    support[1] = support[0]
    (models / "ADD.json").write_text(json.dumps(bundle))


@pytest.mark.parametrize("tamper,message", [
    (_set_n_train, "malformed model file (ValueError('ADD.json: n_train 8, but 7 "
                   "training graphs'))"),
    (lambda models: shutil.copy(models / "MUL.json", models / "ADD.json"),
     "ADD.json: holds the model of 'MUL', not ADD; refusing to predict"),
    (_set_nan_bias, "malformed model file (SvmError('model has a non-finite "
                    "coefficient or bias'))"),
    (_set_huge_bias, "malformed model file (SvmError('model has a non-finite "
                     "coefficient or bias'))"),
    (_set_bool_support_index, "malformed model file (SvmError('model has a "
                              "support index or n_train that is not an integer'))"),
    (_repeat_support_index, "malformed model file (SvmError('model repeats a "
                            "support index'))"),
])
def test_predict_refuses_a_tampered_model_file(tmp_path, capsys, tamper, message):
    man = write_bundled_manifest(tmp_path, MIXED)
    models = tmp_path / "models"
    assert main(["train", "--manifest", str(man), "--features", "nf-pf",
                 "--out", str(models)]) == 0
    tamper(models)
    capsys.readouterr()
    out = tmp_path / "pred.csv"
    assert main(["predict", corpus_path("sum"), "--models", str(models),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and message in line
    assert not out.exists()


@pytest.fixture(scope="module")
def trained_model_dirs(tmp_path_factory):
    """features -> a model directory trained on ``MIXED``, one per featurization."""
    root = tmp_path_factory.mktemp("sweep")
    man = write_bundled_manifest(root, MIXED)
    dirs = {}
    for features in ("nf-pf", "rwk", "gk"):
        dirs[features] = root / features
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["train", "--manifest", str(man), "--features", features,
                         "--out", str(dirs[features])]) == 0
    return dirs


_SWEEP_VALUES = [None, True, 0, -1, 1.5, "x", [], {}, 10 ** 400, [1], math.nan]


def _json_paths(value, path=()):
    """Every path into a parsed JSON ``value``, its root ``()`` first."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _json_paths(item, (*path, key))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_predict_exits_cleanly_whatever_one_model_value_holds(trained_model_dirs, data):
    """One JSON value of ``context.json`` or an MR file, at a drawn path,
    becomes null, a bool, a number, a string, a list, an object, a 401-digit
    integer or NaN; an edit of the context is re-hashed into every file, so
    that only the value is wrong.  ``predict`` answers or refuses, exiting
    0, 1 or 2, and raises nothing."""
    source = trained_model_dirs[data.draw(st.sampled_from(sorted(trained_model_dirs)))]
    files = {name: json.loads((source / name).read_text())
             for name in ["context.json", *(f"{mr}.json" for mr in MR_IDS)]}
    name = data.draw(st.sampled_from(sorted(files)))
    path = data.draw(st.sampled_from(list(_json_paths(files[name]))))
    value = data.draw(st.sampled_from(_SWEEP_VALUES))
    if path:
        parent = files[name]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        files[name] = value
    if name == "context.json" and path[:1] == ("context",):
        context_hash = cli._context_hash(files[name]["context"])
        for saved in files.values():
            saved["context_hash"] = context_hash
    with tempfile.TemporaryDirectory() as models, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for file_name, saved in files.items():
            Path(models, file_name).write_text(json.dumps(saved))
        assert main(["predict", corpus_path("square"), "--models", models]) in (0, 1, 2)


@pytest.fixture(scope="module")
def csv_sweep_dir(tmp_path_factory):
    """``MIXED``'s manifest, with the rows of ``labels.csv`` and
    ``anomalies.csv`` that name its methods, so that most edits reach a
    row a command reads."""
    root = tmp_path_factory.mktemp("csv-sweep")
    write_bundled_manifest(root, MIXED)
    ids = {row[0] for row in csv.reader(io.StringIO((root / "manifest.csv").read_text()))}
    for name in ("labels.csv", "anomalies.csv"):
        rows = list(csv.reader(io.StringIO((data_dir() / name).read_text())))
        (root / name).write_text(corpus.csv_text(row for row in rows if row[0] in ids))
    return root


# ids, names, source kinds and paths, label bits and relation lists, good and bad
_CSV_SWEEP_VALUES = ["", "0", "1", "2", "-1", "07", "1_0", "9", "99", "x", "cal_Diff",
                     "mir", "dot", "none", "corpus/find_min.mir", "corpus",
                     "corpus/cal_Diff.mir/", "../manifest.csv", "ADD", "ADD;ADD",
                     "ADD;XYZ", "a,b", '"', "\n"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_csv_commands_exit_cleanly_whatever_one_cell_holds(csv_sweep_dir, data):
    """One cell of the manifest, ``labels.csv`` or ``anomalies.csv``, its
    header included, takes a drawn value.  ``stats``, ``label --trials 1``
    and ``evaluate`` each answer or refuse, exiting 0, 1 or 2, and raise
    nothing."""
    name = data.draw(st.sampled_from(["manifest.csv", "labels.csv", "anomalies.csv"]))
    rows = list(csv.reader(io.StringIO((csv_sweep_dir / name).read_text())))
    row = data.draw(st.sampled_from(rows))
    row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.sampled_from(_CSV_SWEEP_VALUES))
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        root = Path(tmp, "copy")
        shutil.copytree(csv_sweep_dir, root)
        (root / name).write_text(corpus.csv_text(rows))
        man = str(root / "manifest.csv")
        for argv in (["stats", "--manifest", man],
                     ["label", "--manifest", man, "--trials", "1"],
                     ["evaluate", "--manifest", man, "--features", "nf-pf", "--k", "2"]):
            assert main(argv) in (0, 1, 2), argv


def test_rwk_predict_does_not_warn_of_unseen_walks(tmp_path, capsys):
    man = write_bundled_manifest(tmp_path, MIXED)
    models = tmp_path / "models"
    assert main(["train", "--manifest", str(man), "--features", "rwk",
                 "--out", str(models)]) == 0
    capsys.readouterr()
    # pooledVariance has walks that no training method has
    assert main(["predict", corpus_path("pooledVariance"), "--models", str(models)]) == 0
    assert capsys.readouterr().err == ""


def test_evaluate_refuses_dump_gram_without_out(capsys):
    assert main(["evaluate", "--features", "nf-pf", "--mr", "per", "--dump-gram"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --dump-gram needs --out\n"


def test_seed_env_is_ignored(tmp_path, monkeypatch):
    # --seed, default 42, is the only way to set the root seed
    args = ["evaluate", "--features", "nf-pf", "--mr", "per", "--k", "4", "--dump-gram"]
    out_default = tmp_path / "default"
    assert main([*args, "--out", str(out_default)]) == 0
    monkeypatch.setenv("MRKIT_SEED", "7")
    out_env = tmp_path / "env"
    assert main([*args, "--out", str(out_env)]) == 0
    for name in ("report.json", "results.csv", "gram.csv"):
        assert (out_env / name).read_bytes() == (out_default / name).read_bytes()
    assert json.loads((out_env / "report.json").read_text())["root_seed"] == 42


def test_evaluate_refuses_a_graph_whose_walk_count_explodes(tmp_path, capsys):
    man = write_mini_manifest(tmp_path, TRIO)
    # a start into ring node 0 and an exit out of node 5 make the ring a
    # valid CFG, so parse_dot accepts it and walk_features must refuse it
    ring = branching_ring()
    ring = AnnotatedCfg(ring.name, ring.ops + (NodeOp.START, NodeOp.EXIT),
                        ring.edges + ((6, 0), (5, 7)))
    (tmp_path / "ring.dot").write_text(emit_dot(ring))
    man.write_text(man.read_text() + "7,ring,dot,ring.dot\n")
    label_all(tmp_path, 7)
    code = main(["evaluate", "--manifest", str(man), "--features", "rwk", "--walk-len", "20",
                 "--mr", "per", "--k", "2", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ring: walks of length 13 end in more than ")
    assert not (tmp_path / "out").exists()


# a start node, no exit node and an unreachable assi: not a CFG
NOT_A_CFG = ('digraph repro {\n  s [label="start"];\n  a [label="assi"];\n'
             '  r [label="return"];\n  s -> r;\n}\n')
NOT_A_CFG_REASON = "expected exactly one exit node, found 0"


@pytest.mark.parametrize("features", ["rwk", "gk", "nf-pf"])
def test_predict_refuses_a_dot_input_that_is_not_a_cfg(tmp_path, capsys, features):
    man = write_bundled_manifest(tmp_path, MIXED)
    models = tmp_path / "models"
    assert main(["train", "--manifest", str(man), "--features", features,
                 "--out", str(models)]) == 0
    bad = tmp_path / "repro.dot"
    bad.write_text(NOT_A_CFG)
    capsys.readouterr()
    assert main(["predict", str(bad), "--models", str(models)]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {bad}: {NOT_A_CFG_REASON}\n"
    assert out.splitlines()[0].startswith("method,") and len(out.splitlines()) == 1


@pytest.mark.parametrize("features", ["rwk", "gk", "nf-pf"])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_a_manifest_dot_row_that_is_not_a_cfg_is_an_error(tmp_path, capsys, command,
                                                            features):
    man = write_mini_manifest(tmp_path, TRIO)
    (tmp_path / "repro.dot").write_text(NOT_A_CFG)
    man.write_text(man.read_text() + "7,repro,dot,repro.dot\n")
    label_all(tmp_path, 7)
    assert main([command, "--manifest", str(man), "--features", features,
                 "--out", str(tmp_path / "out")]) == 2
    source = (tmp_path / "repro.dot").resolve()
    assert capsys.readouterr() == ("", f"error: {source}: {NOT_A_CFG_REASON}\n")
    assert not (tmp_path / "out").exists()


def test_gram_rows_are_named_by_manifest_entry_for_every_featurization(tmp_path):
    # the DOT file's digraph is named "average", its manifest entry is not
    man = write_bundled_manifest(tmp_path, MIXED)
    (tmp_path / "average.dot").write_text((data_dir() / "cfg" / "average.dot").read_text())
    man.write_text(man.read_text() + "5,renamed_entry,dot,average.dot\n")
    headers = []
    for features in ("nf-pf", "rwk", "gk"):
        out = tmp_path / features
        assert main(["evaluate", "--manifest", str(man), "--features", features,
                     "--mr", "per", "--k", "2", "--out", str(out), "--dump-gram"]) == 0
        headers.append((out / "gram.csv").read_text().splitlines()[0])
    assert headers == ["method_id," + ",".join(MIXED + ["renamed_entry"])] * 3


@pytest.mark.parametrize("name", ["my avg", "util.mean", ""])
def test_a_dot_entry_whose_digraph_name_needs_quoting_trains_predicts_and_extracts(
        tmp_path, name):
    man = write_bundled_manifest(tmp_path, MIXED)
    dot = tmp_path / "average.dot"
    dot.write_text((data_dir() / "cfg" / "average.dot").read_text().replace(
        "digraph average {", f'digraph "{name}" {{', 1))
    man.write_text(man.read_text() + "5,average,dot,average.dot\n")
    models = tmp_path / "models"
    assert main(["train", "--manifest", str(man), "--features", "rwk",
                 "--out", str(models)]) == 0
    context = json.loads((models / "context.json").read_text())["context"]
    assert parse_dot(context["training_graphs"][-1]).name == name
    assert main(["predict", corpus_path("sum"), "--models", str(models),
                 "--out", str(tmp_path / "pred.csv")]) == 0
    out = tmp_path / "extracted"
    if not name:  # no file name to extract to: refused, nothing written
        assert main(["extract", str(dot), "--out", str(out)]) == 1
        assert list(out.iterdir()) == []
        return
    assert main(["extract", str(dot), "--out", str(out)]) == 0
    assert parse_dot((out / f"{name}.dot").read_text()) == parse_dot(dot.read_text())


@pytest.mark.parametrize("features", ["nf-pf", "rwk", "gk"])
@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("sourced", [[], ["sum"]])
def test_fewer_than_two_sourced_methods_are_refused_alike(tmp_path, capsys, features,
                                                          command, sourced):
    man = write_bundled_manifest(tmp_path, sourced)
    man.write_text(man.read_text() + "2,array_calc,none,\n")  # listed, not sourced
    out = tmp_path / "out"
    assert main([command, "--manifest", str(man), "--features", features,
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: gram matrix needs at least two graphs\n")
    assert not out.exists()  # so no context.json either


@pytest.mark.parametrize("omit", [[], ["--omit-exit-nf"]])
def test_nf_pf_gram_is_the_dense_reference_x_xt_on_the_bundled_corpus(
        tmp_path, corpus_graphs, omit):
    out = tmp_path / "out"
    assert main(["evaluate", "--features", "nf-pf", *omit, "--mr", "per", "--k", "2",
                 "--out", str(out), "--dump-gram"]) == 0
    header, *lines = (out / "gram.csv").read_text().splitlines()
    names = header.split(",")[1:]
    assert len(names) == 68
    gram = np.array([[float(v) for v in line.split(",")[1:]] for line in lines])
    vectors = [combine(node_features(corpus_graphs[n], omit_exit=bool(omit)),
                       path_features(corpus_graphs[n])) for n in names]
    assert gram.tobytes() == count_reference.gram(vectors).tobytes()


def test_extract_refuses_a_dot_input_that_is_not_a_cfg_and_writes_nothing(tmp_path, capsys):
    bad = tmp_path / "repro.dot"
    bad.write_text(NOT_A_CFG)
    out = tmp_path / "out"
    assert main(["extract", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {NOT_A_CFG_REASON}\n"
    assert list(out.iterdir()) == []


def renamed_average(tmp_path, name: str) -> Path:
    """The bundled ``average.dot`` with its digraph named ``name``."""
    text = (data_dir() / "cfg" / "average.dot").read_text()
    dot = tmp_path / "renamed.dot"
    dot.write_text(text.replace("digraph average {", f'digraph "{name}" {{', 1))
    assert parse_dot(dot.read_text()).name == name
    return dot


def read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def test_predict_quotes_a_method_name_that_holds_a_comma(tmp_path):
    man = write_bundled_manifest(tmp_path, MIXED)
    models, out = tmp_path / "models", tmp_path / "p.csv"
    assert main(["train", "--manifest", str(man), "--features", "nf-pf",
                 "--out", str(models)]) == 0
    dot = renamed_average(tmp_path, "x,y")
    assert main(["predict", str(dot), corpus_path("sum"), "--models", str(models),
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [len(row) for row in rows] == [13, 13, 13]
    assert [row[0] for row in rows] == ["method", "x,y", "sum"]
    assert out.read_text().splitlines()[2].startswith("sum,")


def test_extract_quotes_a_method_name_that_holds_a_comma(tmp_path):
    out = tmp_path / "out"
    assert main(["extract", str(renamed_average(tmp_path, "x,y")), "--out", str(out)]) == 0
    rows = read_csv(out / "x,y_features.csv")
    assert rows[0] == ["method_id", "kind", "feature_key", "count"]
    assert {len(row) for row in rows} == {4} and {row[0] for row in rows[1:]} == {"x,y"}
    assert ["x,y", "NF", "assi-1-1", "7"] in rows


def test_dump_gram_quotes_a_manifest_name_that_holds_a_comma(tmp_path):
    man = write_bundled_manifest(tmp_path, MIXED)
    (tmp_path / "average.dot").write_text((data_dir() / "cfg" / "average.dot").read_text())
    man.write_text(man.read_text() + '5,"odd,name",dot,average.dot\n')
    out = tmp_path / "out"
    assert main(["evaluate", "--manifest", str(man), "--features", "nf-pf", "--mr", "per",
                 "--k", "2", "--out", str(out), "--dump-gram"]) == 0
    rows = read_csv(out / "gram.csv")
    assert rows[0] == ["method_id", *MIXED, "odd,name"]
    assert [len(row) for row in rows] == [len(MIXED) + 2] * (len(MIXED) + 2)
    assert rows[-1][0] == "odd,name"


def test_extract_refuses_a_method_name_that_is_not_a_file_name(tmp_path, capsys):
    """A digraph named ``../escaped`` would write beside ``--out``; its input
    writes nothing and the inputs after it still run."""
    dot = renamed_average(tmp_path, "../escaped")
    out = tmp_path / "out" / "x"
    assert main(["extract", str(dot), corpus_path("sum"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {dot}: method name '../escaped' is not a file name\n")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["x"]
    assert sorted(p.name for p in out.iterdir()) == ["sum.dot", "sum_features.csv"]


def test_extract_refuses_a_digraph_without_a_name(tmp_path, capsys):
    """``digraph {`` names its method ``''``, which would write the hidden
    files ``.dot`` and ``_features.csv``; nothing is written."""
    text = (data_dir() / "cfg" / "average.dot").read_text()
    dot = tmp_path / "anonymous.dot"
    dot.write_text(text.replace("digraph average {", "digraph {", 1))
    assert parse_dot(dot.read_text()).name == ""
    out = tmp_path / "out"
    assert main(["extract", str(dot), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {dot}: method name '' is not a file name\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("name", ["..", ".hidden"])
def test_extract_refuses_a_method_name_starting_with_a_dot(tmp_path, capsys, name):
    """``..`` passes ``Path(name).name == name``; it and ``.hidden`` would
    write the hidden files ``<name>.dot`` and ``<name>_features.csv``."""
    dot = renamed_average(tmp_path, name)
    out = tmp_path / "out"
    assert main(["extract", str(dot), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {dot}: method name {name!r} is not a file name\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("features", ["nf-pf", "rwk", "gk"])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_an_unlabelled_method_is_refused_before_any_source_is_read(
        tmp_path, capsys, monkeypatch, command, features):
    man = write_mini_manifest(tmp_path, TRIO)
    labels = tmp_path / "labels.csv"
    labels.write_text("".join(labels.read_text().splitlines(keepends=True)[:-1]))
    parsed = []

    def counting(text):
        parsed.append(text)
        return parse_program(text)

    monkeypatch.setattr(corpus, "parse_program", counting)
    out = tmp_path / "out"
    assert main([command, "--manifest", str(man), "--features", features,
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: unlabelled methods: find_max\n")
    assert parsed == []
    assert not (out / "context.json").exists()


def test_a_short_stop_reads_the_same_on_every_openblas_kernel(tmp_path):
    """A forced short stop prints the solver's own gap, which elementwise
    operations compute, so the OpenBLAS kernel a CPU selects cannot change
    a digit of it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas["name"]:
        pytest.skip(f"numpy is linked to {blas['name']}, not OpenBLAS, so "
                    "OPENBLAS_CORETYPE selects nothing")
    script = ("import sys\n"
              "from mrkit import cli, svm\n"
              "svm.MAX_PASSES = 1\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    errs = []
    for core in ("Haswell", "Prescott"):
        result = subprocess.run(
            [sys.executable, "-c", script, "train", "--features", "rwk",
             "--out", str(tmp_path / core)],
            env=src_env(OPENBLAS_CORETYPE=core), capture_output=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert b"diagnostic: MUL: SMO stopped at max_passes: " in result.stderr
        errs.append(result.stderr)
    assert errs[0] == errs[1]
