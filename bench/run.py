"""Benchmark mrkit's label, cv and train-predict workloads end to end.

    python3 bench/run.py --workload label|cv|train-predict|all \\
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it uses the checkout's ``src``.
Each workload runs in its own worker process (``worker.py``).  Set-up time
is the median over SETUP_SAMPLES fresh processes (``setup_probe.py``), at
the reference speed of ``speed.py`` like every time the benchmark reports.

The lines before the last describe every metric by name with its unit and
sample count, and name the ``BENCH_*.json`` file written under
``bench/out/`` with the environment, digests and checks.  The last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0`` and its
per-layer metrics with ``--trace 1``.  With ``--workload all`` the metric
names carry the workload as a prefix.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("label", "cv", "train-predict")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # a single-workload run must end within 180 s
BLAS_THREADS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # mrkit is single-threaded; BLAS threads would only compete with it for
    # the few cores of a shared machine.  A caller's own setting wins.
    for name in BLAS_THREADS_ENV:
        env.setdefault(name, "1")
    return env


def run_child(argv, timeout: float) -> dict:
    """Run a benchmark script; its last stdout line is a JSON object."""
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(argv[0]).name} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(count: int, deadline: float) -> list[tuple[float, float]]:
    """(wall-clock, reference-speed) set-up seconds of ``count`` processes."""
    samples = []
    for _ in range(count):
        probe = run_child([str(BENCH / "setup_probe.py")], deadline - time.monotonic())
        if Path(probe["module"]).resolve().parent != ROOT / "src" / "mrkit":
            raise RuntimeError(f"set-up imported mrkit from {probe['module']}")
        samples.append((probe["setup_s"], probe["setup_ref_s"]))
    return samples


def run_workload(name: str, args, deadline: float) -> tuple[dict, dict]:
    """(detailed report, metrics of the last line) of one workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # set-up is sampled before and after the worker, so that one burst of
    # load on the machine does not reach every sample
    before = 0 if args.trace else SETUP_SAMPLES // 2 + 1
    setup = measure_setup(before, deadline)
    report = run_child(
        [str(BENCH / "worker.py"), "--root", str(ROOT), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(OUT)],
        deadline - time.monotonic())
    if args.trace:
        values, specs = report["layers"], spec["per_layer"]
    else:
        setup += measure_setup(SETUP_SAMPLES - before, deadline)
        report["setup_seconds"] = [wall for wall, _ in setup]
        report["setup_ref_seconds"] = [ref for _, ref in setup]
        values = dict(report["end_to_end"],
                      setup_s=statistics.median(report["setup_ref_seconds"]))
        specs = spec["end_to_end"]
        report["named"]["setup_s"] = {"value": values["setup_s"], "unit": "s",
                                      "samples": len(setup), "tail": None}
        report["named"]["peak_rss_mb"] = {"value": values["peak_rss_mb"], "unit": "MB",
                                          "samples": 1, "tail": None}
        report["named"]["fail_rate"] = {
            "value": report["failed"] / report["attempted"], "unit": "ratio",
            "samples": report["attempted"], "tail": None}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    return report, metrics


def describe(report: dict, metrics: dict) -> list[str]:
    lines = [f"workload {report['workload']}  seed {report['seed']}  "
             f"trace {report['trace']}  passes {report['passes']}  "
             f"attempted {report['attempted']}  failed {report['failed']}"]
    for name, m in report["named"].items():
        tail = m["tail"]
        extra = f"  p{tail['percentile']:g} {tail['value']:.6g}" if tail else ""
        lines.append(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<6} "
                     f"n={m['samples']}{extra}")
    if "end_to_end" in report:
        lines.append(f"  {'pass_s (wall clock)':<28} {report['end_to_end']['pass_s']:>14.6g} s")
        lines.append(f"  {'setup_s (wall clock)':<28} "
                     f"{statistics.median(report['setup_seconds']):>14.6g} s")
    tick = report["speed"]
    lines.append(f"  {'speed tick':<28} {tick['median_tick_us']:>14.6g} us     "
                 f"n={tick['ticks']}  reference {tick['reference_tick_us']:g} us")
    lines.append("  -- reported metrics")
    for name, m in metrics.items():
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    lines.extend(f"  problem: {p}" for p in report["problems"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mrkit" / "cli.py").is_file():
        print(f"error: no mrkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            report, wl_metrics = run_workload(name, args, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        path = OUT / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(dict(report, metrics=wl_metrics), indent=2,
                                   sort_keys=True) + "\n")
        print("\n".join(describe(report, wl_metrics)))
        print(f"  report: {path.relative_to(ROOT)}")
        correct = correct and report["failed"] == 0
        attempted += report["attempted"]
        failed += report["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in wl_metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
