"""Run one benchmark workload in this process and print its result as JSON.

    python3 bench/worker.py --root DIR --workload NAME --seed N \\
        --seconds S --trace 0|1 --out DIR

``run.py`` starts one worker per workload, so that peak memory belongs to
that workload alone.  Every pass drives ``mrkit.cli.main(argv)``; outputs
of each pass are kept apart, digested and checked.  With ``--trace 0`` the
worker repeats passes for about ``--seconds`` seconds (at least
MIN_PASSES); with ``--trace 1`` it runs one pass without probes and then
two traced passes, whose counts must agree exactly.  A ``speed.SpeedProbe``
runs throughout, so every command's time is also known at the reference
machine speed (``ref_seconds``), which the end-to-end timings use.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracing
from workloads import WORKLOADS, Checked, Corpus, digest

MIN_PASSES = 3
TRACED_PASSES = 2
PASS_DEADLINE_S = 140.0  # start no pass after this; the run must end within 180 s
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class StepResult:
    name: str
    seconds: float
    code: int | None
    digests: dict[str, str]
    checked: Checked
    items: int
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    ticks: list[float] = field(default_factory=list)
    ref_seconds: float = 0.0  # set by calibrate()

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_step(cli, workload, step, probe, tracer=None) -> StepResult:
    first_tick = len(probe.ticks)
    first_span = len(tracer.spans) if tracer else 0
    counts_before = Counter(tracer.counts) if tracer else None
    err = io.StringIO()
    code = None
    problems = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(step.argv)
    except SystemExit as exc:  # argparse rejects its argv this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        problems.append("exception: " + traceback.format_exc(limit=3))
    seconds = time.perf_counter() - start
    ticks = probe.ticks[first_tick:]
    if code is not None and code not in step.ok_codes:
        problems.append(f"exit code {code}; stderr: {err.getvalue()[-400:]}")
    digests = {label: digest(path) for label, path in step.outputs.items()
               if path.is_file()}
    missing = sorted(set(step.outputs) - set(digests))
    if missing:
        problems.append(f"missing outputs {missing}")
    items = workload.items(step)
    if problems:
        checked = Checked(failed_items=["<all>"] * items)
    else:
        checked = workload.check(step)
        problems.extend(checked.problems)
    counts = {}
    if tracer:
        counts = Counter(span[0] + ".calls" for span in tracer.spans[first_span:])
        counts.update(tracer.counts - counts_before)
        counts = dict(sorted(counts.items()))
    return StepResult(step.name, seconds, code, digests, checked, items,
                      problems, counts, ticks)


def run_pass(cli, workload, pass_dir: Path, probe, tracer=None) -> dict[str, StepResult]:
    pass_dir.mkdir(parents=True)
    results = {}
    for step in workload.steps(pass_dir):
        results[step.name] = run_step(cli, workload, step, probe, tracer)
    return results


def calibrate(passes, probe) -> None:
    """Set every step's time at the reference machine speed."""
    for p in passes:
        for r in p.values():
            r.ref_seconds = speed.ref_seconds(r.seconds, r.ticks, probe.ticks)


def pass_seconds(results: dict[str, StepResult], key: str = "seconds") -> float:
    return sum(getattr(r, key) for r in results.values())


def command_medians(passes, key: str) -> dict[str, float]:
    return {name: statistics.median(getattr(p[name], key) for p in passes)
            for name in passes[0]}


def compare_passes(passes, key: str, what: str) -> bool:
    """Mark a step failed where ``key`` differs from the first pass."""
    same = True
    for p in passes[1:]:
        for name, r in p.items():
            if getattr(r, key) != getattr(passes[0][name], key):
                r.problems.append(f"{what} differ from the first pass")
                same = False
    return same


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_sha(root: Path) -> str | None:
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def source_digest(root: Path) -> str:
    """sha256 over the program's source and data files, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    base = root / "src" / "mrkit"
    for path in sorted(p for p in base.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(base)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):  # show_config varies by version
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }


def accounting(passes) -> tuple[int, int]:
    attempted = failed = 0
    for p in passes:
        for r in p.values():
            attempted += 1 + r.items
            failed += int(r.failed) + len(r.checked.failed_items)
    return attempted, failed


def named_summary(workload, passes) -> dict:
    out = {}
    for name, (samples, unit) in workload.named_metrics(passes).items():
        out[name] = {"value": statistics.median(samples), "unit": unit,
                     "samples": len(samples), "tail": tracing.tail_percentile(samples)}
    return out


def run(args) -> dict:
    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    import mrkit.cli as cli

    if Path(cli.__file__).resolve().parent != root / "src" / "mrkit":
        raise SystemExit(f"imported mrkit from {cli.__file__}, not from {root}/src")
    corpus = Corpus.read(root / "src" / "mrkit" / "data")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        workload = WORKLOADS[args.workload](corpus, workdir, args.seed)
        result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "environment": environment(root, args.seed)}
        if args.trace:
            result.update(traced_run(cli, workload, workdir, out_dir))
        else:
            result.update(timed_run(cli, workload, workdir, args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def common_report(workload, passes, ticks) -> dict:
    identical = compare_passes(passes, "digests", "output digests")
    attempted, failed = accounting(passes)
    return {
        "passes": len(passes),
        "pass_seconds": [pass_seconds(p) for p in passes],
        "pass_ref_seconds": [pass_seconds(p, "ref_seconds") for p in passes],
        "command_seconds": {name: [p[name].seconds for p in passes]
                            for name in passes[0]},
        "command_ref_seconds": {name: [p[name].ref_seconds for p in passes]
                                for name in passes[0]},
        "speed": {"median_tick_us": statistics.median(ticks) * 1e6,
                  "ticks": len(ticks),
                  "reference_tick_us": speed.REFERENCE_TICK_S * 1e6},
        "named": named_summary(workload, passes),
        "digests": {name: r.digests for name, r in passes[0].items()},
        "digests_identical": identical,
        "problems": sorted({f"{name}: {msg}" for p in passes
                            for name, r in p.items() for msg in r.problems}),
        "failed_items": sorted({f"{name}: {item}" for p in passes
                                for name, r in p.items()
                                for item in r.checked.failed_items}),
        "attempted": attempted,
        "failed": failed,
    }


def timed_run(cli, workload, workdir: Path, seconds: float) -> dict:
    passes = []
    start = time.perf_counter()
    with speed.SpeedProbe() as probe:
        while True:
            passes.append(run_pass(cli, workload, workdir / f"pass-{len(passes)}", probe))
            elapsed = time.perf_counter() - start
            typical = statistics.median(pass_seconds(p) for p in passes)
            if elapsed + typical > PASS_DEADLINE_S or \
                    (len(passes) >= MIN_PASSES and elapsed + typical > seconds):
                break
    calibrate(passes, probe)
    report = common_report(workload, passes, probe.ticks)
    # per-command medians, so one slow command in one pass moves only its own
    report["end_to_end"] = {
        "pass_s": sum(command_medians(passes, "seconds").values()),
        "pass_ref_s": sum(command_medians(passes, "ref_seconds").values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": 1.0 - report["failed"] / report["attempted"],
    }
    return report


def traced_run(cli, workload, workdir: Path, out_dir: Path) -> dict:
    tracer = tracing.Tracer()
    layers = []
    with speed.SpeedProbe() as probe:
        passes = [run_pass(cli, workload, workdir / "pass-0", probe)]
        with tracing.installed(tracer):
            for i in range(1, 1 + TRACED_PASSES):
                tracer.reset()
                passes.append(run_pass(cli, workload, workdir / f"pass-{i}", probe, tracer))
                layers.append(tracing.layer_metrics(tracer))
    calibrate(passes, probe)
    counts_repeat = compare_passes(passes[1:], "counts", "traced counts")
    report = common_report(workload, passes, probe.ticks)
    # at the reference speed, so that the machine's drift between passes
    # does not pass for probe cost
    untraced = pass_seconds(passes[0], "ref_seconds")
    traced = statistics.median(pass_seconds(p, "ref_seconds") for p in passes[1:])
    report["layers"] = {name: statistics.median(pass_values[name] for pass_values in layers)
                        for name in layers[0]}
    report["layers"]["trace.overhead"] = traced / untraced - 1.0
    report["counts_repeat"] = counts_repeat
    report["step_counts"] = {name: r.counts for name, r in passes[1].items()}
    report["span_tails"] = tracing.span_tails(tracer)
    spans_path = out_dir / f"spans-{workload.name}.jsonl"
    with spans_path.open("w") as fh:
        for name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent}) + "\n")
    report["spans_file"] = str(spans_path)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    result = run(parser.parse_args(argv))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
