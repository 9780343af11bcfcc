"""What a fresh interpreter loads: ``import mrkit``, ``import mrkit.cli``,
``label`` and ``stats`` start without numpy and the learning stack, the
package's lazy re-exports still resolve, and a wrapper assigned to a
``mrkit.cli`` name before the first command is the one the command calls.

Each case runs in its own interpreter: in this session an earlier test has
already imported the learning stack."""

import json
import subprocess
import sys

import pytest

from conftest import src_env
from mrkit.corpus import data_dir

LEARNING_STACK = ("numpy", "mrkit.features", "mrkit.kernels", "mrkit.svm",
                  "mrkit.evaluation")

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


def run_fresh(script: str) -> str:
    """``script``'s stdout from a fresh interpreter; a failure shows its stderr."""
    result = subprocess.run([sys.executable, "-c", script], env=src_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def loaded_after(statements: str) -> list[str]:
    """The modules of LEARNING_STACK loaded after ``statements``, which may
    print: the list is the last line of stdout."""
    out = run_fresh(f"import json, sys\n{statements}\n"
                    f"print(json.dumps([m for m in {LEARNING_STACK!r} if m in sys.modules]))\n")
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("statements", [
    "import mrkit",
    "import mrkit.cli",
    "import mrkit.cli\n"
    f"assert mrkit.cli.main(['label', '--manifest', {str(data_dir() / 'manifest.csv')!r},\n"
    "                        '--trials', '5', '--out', 'labels.csv']) == 0",
    "import mrkit.cli\nassert mrkit.cli.main(['stats']) == 0",
], ids=["import mrkit", "import mrkit.cli", "label", "stats"])
def test_the_oracle_half_starts_without_the_learning_stack(tmp_path, monkeypatch, statements):
    monkeypatch.chdir(tmp_path)
    assert loaded_after(statements) == []


def test_a_learning_name_loads_the_stack_on_first_read():
    assert loaded_after("import mrkit.cli\nmrkit.cli.train_svm") == list(LEARNING_STACK)


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
