"""The benchmark's layer probes still name functions of the program.

``bench/tracing.py`` patches each ``(module, attribute)`` of its ``PROBES``
at trace time, so a refactor that renames or drops one of them breaks
``bench/run.py --trace 1`` with an AttributeError that no other test sees.
The file is read as text and parsed, never imported, so nothing is written
under ``bench/``.
"""

import ast
import importlib
from pathlib import Path

import mrkit

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
