import os
import struct
from pathlib import Path

import pytest

from mrkit.corpus import bundled_dataset
from mrkit.mir import Trap, interpret

from mir_reference import _run

ROOT = Path(__file__).resolve().parents[1]


def src_env(**extra: str) -> dict[str, str]:
    """This process's environment with ``extra`` set and the checkout's
    ``src`` first on ``PYTHONPATH``: the environment of a fresh interpreter
    that must import this mrkit."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def dataset():
    return bundled_dataset()


@pytest.fixture(scope="session")
def sourced(dataset):
    return dataset.with_sources()


@pytest.fixture(scope="session")
def corpus_graphs(sourced):
    """name -> lowered AnnotatedCfg for every bundled mini-IR method."""
    return {e.name: sourced.load_cfg(e) for e in sourced.entries}


@pytest.fixture(scope="session")
def corpus_functions(sourced):
    return {e.name: sourced.load_function(e) for e in sourced.entries}


def _outcome(call) -> tuple:
    """A call's double bit for bit (sign of zero, NaN equal to NaN), or its
    trap's kind, line and text."""
    try:
        value = call()
    except Trap as trap:
        return ("trap", trap.kind, trap.line, str(trap))
    assert type(value) is float, value
    return ("value", struct.pack("<d", value))


@pytest.fixture(scope="session")
def both_paths():
    """``(fn, values, budget) -> (generated, reference)``: the outcome of
    ``interpret`` and of the reference loop ``mir_reference._run`` from
    pc 0."""
    def run(fn, values, budget):
        generated = _outcome(lambda: interpret(fn, values, budget))
        return generated, _outcome(lambda: _run(fn, [float(v) for v in values], budget))
    return run
