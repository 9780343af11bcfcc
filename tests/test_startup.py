"""What a fresh interpreter loads: each command loads only what it runs.
``import mrkit``, ``import mrkit.cli`` and every command but ``label``
start without the oracle; ``label``, ``stats`` and ``extract`` start
without numpy and the rest of the learning stack.  The package's lazy
re-exports, and the names that moved between modules, still resolve, and
a wrapper assigned to a ``mrkit.cli`` name before the first command is the
one the command calls.

Each case runs in its own interpreter: in this session an earlier test has
already imported the oracle and the learning stack."""

import importlib
import json
import subprocess
import sys

import pytest

from conftest import src_env
from mrkit.corpus import data_dir

ORACLE = "mrkit.oracle"
LEARNING_STACK = ("numpy", "mrkit.features", "mrkit.kernels", "mrkit.svm",
                  "mrkit.evaluation")
MANIFEST = str(data_dir() / "manifest.csv")
SUM = str(data_dir() / "corpus" / "sum.mir")

# every name ``mrkit/__init__.py`` exported before its re-exports turned lazy
EXPORTS = (
    "AnnotatedCfg", "Diagnostic", "NodeOp", "emit_dot", "parse_dot", "validate",
    "FeatureVector", "build_design_matrix", "combine", "node_features", "path_features",
    "GkParams", "KernelMatrix", "RwkParams", "gram_matrix", "graphlet_kernel",
    "random_walk_kernel",
    "Function", "MirError", "Program", "Trap", "interpret", "lower_to_cfg", "parse_program",
    "MR_IDS", "LabelReport", "MrLabelSet", "OracleParams", "audit_labels",
    "check_relation", "label_method",
    "SvmModel", "SvmParams", "decision_value", "predict", "train_svm",
    "ConfusionMatrix", "EvalMetrics", "EvalReport", "FoldPlan", "auc", "confusion",
    "cross_validate", "metrics", "stratified_kfold",
)


def run_fresh(script: str, *flags: str) -> str:
    """``script``'s stdout from a fresh interpreter started with ``flags``;
    a failure shows its stderr."""
    result = subprocess.run([sys.executable, *flags, "-c", script], env=src_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def loaded_after(statements: str, modules=LEARNING_STACK, *flags: str) -> list[str]:
    """The ``modules`` loaded after ``statements``, which may print: the
    list is the last line of stdout."""
    out = run_fresh(f"import json, sys\n{statements}\n"
                    f"print(json.dumps([m for m in {tuple(modules)!r} if m in sys.modules]))\n",
                    *flags)
    return json.loads(out.splitlines()[-1])


def command(*argv: str) -> str:
    return f"import mrkit.cli\nassert mrkit.cli.main({list(argv)!r}) == 0"


IMPORT_CLI = "import mrkit.cli\nfrom mrkit.corpus import bundled_dataset\nbundled_dataset()"
LABEL = command("label", "--manifest", MANIFEST, "--trials", "5", "--out", "labels.csv")
STATS = command("stats")
EXTRACT = command("extract", SUM, "--out", "extracted")


@pytest.mark.parametrize("statements", ["import mrkit", IMPORT_CLI, LABEL, STATS],
                         ids=["import mrkit", "import mrkit.cli", "label", "stats"])
def test_the_oracle_half_starts_without_the_learning_stack(tmp_path, monkeypatch, statements):
    monkeypatch.chdir(tmp_path)
    assert loaded_after(statements) == []


def test_extract_starts_without_numpy(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert loaded_after(EXTRACT) == ["mrkit.features"]


@pytest.mark.parametrize("statements, loaded", [
    ("import mrkit", []),
    (IMPORT_CLI, []),
    (STATS, []),
    (EXTRACT, []),
    (command("evaluate", "--features", "nf-pf", "--out", "report"), []),
    (command("train", "--features", "rwk", "--out", "models") + "\n"
     + command("predict", SUM, "--models", "models"), []),
    (LABEL, [ORACLE]),
], ids=["import mrkit", "import mrkit.cli", "stats", "extract", "evaluate",
        "train, predict", "label"])
def test_only_label_loads_the_oracle(tmp_path, monkeypatch, statements, loaded):
    monkeypatch.chdir(tmp_path)
    assert loaded_after(statements, [ORACLE]) == loaded


def test_the_eager_path_imports_neither_typing_nor_importlib_resources():
    # -S: no site-packages .pth file can preload either module
    statements = f"import mrkit.cli\nmrkit.corpus.load_manifest({MANIFEST!r})"
    assert loaded_after(statements, ("typing", "importlib.resources"), "-S") == []


def test_a_learning_name_loads_the_stack_on_first_read():
    assert loaded_after("import mrkit.cli\nmrkit.cli.train_svm") == list(LEARNING_STACK)


@pytest.mark.parametrize("name, loaded", [
    ("label_method", [ORACLE]),
    ("node_features", ["mrkit.features"]),
])
def test_an_oracle_or_feature_name_loads_its_module_alone(name, loaded):
    assert loaded_after(f"import mrkit.cli\nmrkit.cli.{name}", (ORACLE, *LEARNING_STACK)) \
        == loaded


def test_every_export_resolves_and_is_listed():
    out = run_fresh(
        "import json, mrkit\n"
        f"names = {EXPORTS!r}\n"
        "listed = dir(mrkit)\n"
        "scope = {}\n"
        "for name in names:\n"
        "    exec(f'from mrkit import {name}', scope)\n"
        "star = {}\n"
        "exec('from mrkit import *', star)\n"
        "print(json.dumps({'unlisted': [n for n in names if n not in listed],\n"
        "                  'unresolved': [n for n in names if scope.get(n) is None],\n"
        "                  'star': sorted(n for n in star if n != '__builtins__'),\n"
        "                  'all': sorted(mrkit.__all__),\n"
        "                  'version': mrkit.__version__}))\n")
    found = json.loads(out)
    assert found["unlisted"] == [] and found["unresolved"] == []
    assert found["star"] == found["all"] == sorted(EXPORTS)
    assert found["version"] == "0.1.0"


@pytest.mark.parametrize("old, new", [
    ("mrkit.oracle", "mrkit.corpus"),
    ("mrkit.features", "mrkit.kernels"),
])
def test_a_moved_name_still_imports_from_its_old_module(old, new):
    names = {"mrkit.oracle": ("MR_IDS", "MrLabelSet", "OracleError"),
             "mrkit.features": ("build_design_matrix",)}[old]
    for name in names:
        assert getattr(importlib.import_module(old), name) \
            is getattr(importlib.import_module(new), name)


def test_a_wrapper_assigned_before_the_first_command_is_the_one_train_calls(tmp_path):
    # train_svm is assigned without reading mrkit.cli first; build_design_matrix
    # is read, then assigned, as the benchmark's probes do
    out = run_fresh(
        "import json\n"
        "import mrkit.cli as cli\n"
        "import mrkit.svm\n"
        "calls = []\n"
        "def wrap(fn, name):\n"
        "    def wrapper(*args, **kwargs):\n"
        "        calls.append(name)\n"
        "        return fn(*args, **kwargs)\n"
        "    return wrapper\n"
        "cli.train_svm = wrapped = wrap(mrkit.svm.train_svm, 'train_svm')\n"
        "cli.build_design_matrix = wrap(cli.build_design_matrix, 'build_design_matrix')\n"
        f"code = cli.main(['train', '--features', 'nf-pf', '--out', {str(tmp_path)!r}])\n"
        "print(json.dumps({'code': code, 'calls': calls,\n"
        "                  'kept': cli.train_svm is wrapped}))\n")
    assert json.loads(out) == {"code": 0, "calls": ["build_design_matrix", "train_svm"],
                               "kept": True}


def test_a_wrapper_assigned_before_the_first_label_is_the_one_label_calls(tmp_path):
    # label_method is assigned without reading mrkit.cli first; audit_labels
    # is read, then assigned, as the benchmark's probes do
    out = run_fresh(
        "import json\n"
        "import mrkit.cli as cli\n"
        "import mrkit.oracle\n"
        "calls = []\n"
        "def wrap(fn, name):\n"
        "    def wrapper(*args, **kwargs):\n"
        "        calls.append(name)\n"
        "        return fn(*args, **kwargs)\n"
        "    return wrapper\n"
        "cli.label_method = wrapped = wrap(mrkit.oracle.label_method, 'label_method')\n"
        "cli.audit_labels = wrap(cli.audit_labels, 'audit_labels')\n"
        f"code = cli.main(['label', '--manifest', {MANIFEST!r}, '--trials', '1',\n"
        f"                 '--out', {str(tmp_path / 'labels.csv')!r}])\n"
        "print(json.dumps({'code': code, 'calls': sorted(set(calls)),\n"
        "                  'labelled': calls.count('label_method'),\n"
        "                  'kept': cli.label_method is wrapped}))\n")
    assert json.loads(out) == {"code": 0, "calls": ["audit_labels", "label_method"],
                               "labelled": 68, "kept": True}
