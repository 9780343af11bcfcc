"""Smoke test: every narrative demo runs to completion on the bundled
corpus."""

import subprocess
import sys

import pytest

from conftest import ROOT, src_env


@pytest.mark.parametrize("demo", [
    "01_cfg_and_features.py",
    "02_dynamic_labelling.py",
    "03_graph_kernels.py",
    "04_cross_validation.py",
    "05_predict_new_method.py",
])
def test_demo_runs(demo):
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                            cwd=ROOT, env=src_env(), capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
