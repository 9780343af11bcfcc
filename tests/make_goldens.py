"""Build mrkit's seed-42 artifacts, and the label run at two more root seeds,
and digest them.

    PYTHONPATH=src python tests/make_goldens.py            # rewrite goldens.json
    PYTHONPATH=src python tests/make_goldens.py --quick    # print a subset's digests

``goldens.json`` holds the sha256 digest of every artifact that
``artifacts`` builds: the ``label --trials 200`` CSV and stderr (at root
seed 42 as ``label.*``, and at 7 and 101 as ``label-7.*`` and
``label-101.*``), ``evaluate --dump-gram``'s ``report.json``,
``results.csv`` and ``gram.csv`` for nf-pf, rwk, gk3 and gk4, ``train``'s
model directories for nf-pf, rwk and gk, the ``extract`` directory of every
bundled method, ``stats``, each command's exit code, and the method and 0/1
columns of the predict CSVs (the decision columns depend on the BLAS kernel).
``test_determinism.py`` rebuilds them and names each artifact whose digest
moved; a change that means to move bytes reruns this script and lists those
artifacts.  ``--quick`` prints the digests of a cheaper subset as JSON,
which ``test_determinism.py`` compares across hash seeds.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from mrkit.cli import main
from mrkit.corpus import csv_text, data_dir

GOLDENS = Path(__file__).with_name("goldens.json")
SEED = "42"
LABEL_SEEDS = ("7", "101")  # label is also pinned at these root seeds
FEATURES = {
    "nf-pf": ["--features", "nf-pf"],
    "rwk": ["--features", "rwk"],
    "gk3": ["--features", "gk", "--graphlet-k", "3"],
    "gk4": ["--features", "gk", "--graphlet-k", "4"],
}
PREDICTED = ("sum", "average", "find_max")


def _run(argv: list[str], name: str, out: dict[str, bytes]) -> None:
    """Run ``mrkit argv``; its stdout, if any, stderr, if any, and exit
    code become artifacts ``name.stdout``, ``name.stderr`` and
    ``name.exit``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    out[f"{name}.exit"] = str(code).encode()
    for stream, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue())):
        if text:
            out[f"{name}.{stream}"] = text.encode()


def _files(directory: Path, work: Path, out: dict[str, bytes]) -> None:
    """Each file under ``directory`` becomes an artifact named by its path
    relative to ``work``."""
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            out[path.relative_to(work).as_posix()] = path.read_bytes()


def artifacts(work: Path, quick: bool = False) -> dict[str, bytes]:
    """Artifact name -> bytes, every command run at seed 42 under ``work``,
    and label at each of ``LABEL_SEEDS``.  ``quick`` runs a cheaper subset:
    20 label trials at seed 42 alone, evaluate at ``--k 2`` for nf-pf, rwk
    and gk3, and rwk alone for train and predict."""
    out: dict[str, bytes] = {}
    manifest = str(data_dir() / "manifest.csv")
    sources = sorted(map(str, (data_dir() / "corpus").glob("*.mir")))
    seed = ["--seed", SEED]

    trials = ["--trials", "20" if quick else "200"]
    _run(["label", "--manifest", manifest, *trials, *seed,
          "--out", str(work / "label.csv")], "label", out)
    out["label.csv"] = (work / "label.csv").read_bytes()
    for root in () if quick else LABEL_SEEDS:
        name = f"label-{root}"
        _run(["label", "--manifest", manifest, *trials, "--seed", root,
              "--out", str(work / f"{name}.csv")], name, out)
        out[f"{name}.csv"] = (work / f"{name}.csv").read_bytes()

    _run(["stats"], "stats", out)

    _run(["extract", *sources, "--out", str(work / "extract")], "extract", out)
    _files(work / "extract", work, out)

    evaluated = ("nf-pf", "rwk", "gk3") if quick else tuple(FEATURES)
    k = ["--k", "2"] if quick else []
    for name in evaluated:
        target = work / f"evaluate-{name}"
        _run(["evaluate", *FEATURES[name], *k, *seed, "--dump-gram", "--out", str(target)],
             f"evaluate-{name}", out)
        _files(target, work, out)

    inputs = [str(data_dir() / "corpus" / f"{m}.mir") for m in PREDICTED]
    for name in ("rwk",) if quick else ("nf-pf", "rwk", "gk3"):
        models = work / f"train-{name}"
        _run(["train", *FEATURES[name], *seed, "--out", str(models)],
             f"train-{name}", out)
        _files(models, work, out)
        predicted = work / f"predict-{name}.csv"
        _run(["predict", *inputs, "--models", str(models), "--out", str(predicted)],
             f"predict-{name}", out)
        rows = csv.reader(io.StringIO(predicted.read_text()))
        out[f"predict-{name}.bits.csv"] = csv_text(row[:7] for row in rows).encode()
    return out


def hexdigests(built: dict[str, bytes]) -> dict[str, str]:
    """The sha256 hex digest of each artifact of ``built``."""
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(built.items())}


def digests(quick: bool = False) -> dict[str, str]:
    """The sha256 hex digest of each artifact, built in a fresh directory."""
    with tempfile.TemporaryDirectory() as work:
        return hexdigests(artifacts(Path(work), quick))


def run(argv: list[str]) -> int:
    if argv == ["--quick"]:
        sys.stdout.write(json.dumps(digests(quick=True), indent=1) + "\n")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    GOLDENS.write_text(json.dumps(digests(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
