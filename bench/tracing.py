"""Span tracer that times mrkit's layers from outside the program.

Each probe replaces one public function at the name its caller looks it up
by.  ``oracle`` does ``from .mir import interpret``, so the interpreter is
probed as ``mrkit.oracle.interpret``; patching ``mrkit.mir.interpret`` would
miss every call.  A function reached under several names gets one probe per
name and one span name.  No file of the program changes.

Spans are ``[name, start, end, parent]`` lists kept in memory; a layer's
self time is its span's duration minus the part of that interval its child
spans cover.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter
from contextlib import contextmanager

TRAP_KINDS = ("bad-index", "division-by-zero", "math-domain", "step-budget")
PERCENTILES = (90.0, 99.0, 99.9)
MIN_BEYOND = 10


class Tracer:
    """Spans and counters of one traced pass; ``reset`` starts the next."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.graphs: set = set()
        self._stack: list[int] = []

    def reset(self) -> None:
        # cleared in place: the probes hold references to these containers
        self.spans.clear()
        self.counts.clear()
        self.graphs.clear()
        self._stack.clear()

    def wrap(self, fn, name, hook=None):
        """``fn`` recording a span per call; ``name`` is a string or a
        function of ``(args, kwargs)``; ``hook(tracer, args, result, exc)``
        runs after the call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if hook is not None:
                    hook(self, args, result, exc)

        return traced


def _count_trap(tracer: Tracer, args, result, exc) -> None:
    kind = getattr(exc, "kind", None)
    if kind is not None:
        tracer.counts[f"mir.traps.{kind}"] += 1


def _count_trials(tracer: Tracer, args, result, exc) -> None:
    if result is not None:
        params = args[1]
        tracer.counts["oracle.trials_run"] += sum(
            o.trials_run for o in result.outcomes.values())
        tracer.counts["oracle.trials_budget"] += params.trials * len(result.outcomes)


def _note_graph(tracer: Tracer, args, result, exc) -> None:
    g, p = args[0], args[1]
    tracer.graphs.add((g.name, g.ops, g.edges, p.k, p.mode))


def _gram_name(args, kwargs) -> str:
    kernel = args[1] if len(args) > 1 else kwargs.get("kernel", "rwk")
    if kernel == "gk":
        return f"kernels.gram.gk{kwargs['gk'].k}"
    return f"kernels.gram.{kernel}"


# (module, attribute, span name, hook); the module is the one whose global
# the caller reads at call time.
PROBES = (
    ("mrkit.cli", "cmd_label", "cli.label", None),
    ("mrkit.cli", "cmd_evaluate", "cli.evaluate", None),
    ("mrkit.cli", "cmd_train", "cli.train", None),
    ("mrkit.cli", "cmd_predict", "cli.predict", None),
    ("mrkit.corpus", "load_manifest", "corpus.load_manifest", None),
    ("mrkit.corpus", "parse_program", "mir.parse_program", None),
    ("mrkit.cli", "parse_program", "mir.parse_program", None),
    ("mrkit.mir", "lower_to_cfg", "mir.lower_to_cfg", None),  # corpus imports it per call
    ("mrkit.cli", "lower_to_cfg", "mir.lower_to_cfg", None),
    ("mrkit.oracle", "interpret", "mir.interpret", _count_trap),
    ("mrkit.cli", "label_method", "oracle.label_method", _count_trials),
    ("mrkit.cli", "train_svm", "svm.train_svm", None),
    ("mrkit.evaluation", "train_svm", "svm.train_svm", None),
    ("mrkit.cli", "decision_value", "svm.decision_value", None),
    ("mrkit.evaluation", "decision_value", "svm.decision_value", None),
    ("mrkit.cli", "gram_matrix", _gram_name, None),
    ("mrkit.kernels", "random_walk_kernel", "kernels.random_walk_kernel", None),
    ("mrkit.kernels", "graphlet_kernel", "kernels.graphlet_kernel", None),
    ("mrkit.kernels", "graphlet_distribution", "kernels.graphlet_distribution",
     _note_graph),
    ("mrkit.cli", "parse_dot", "cfg.parse_dot", None),
    ("mrkit.corpus", "parse_dot", "cfg.parse_dot", None),
    ("mrkit.cli", "emit_dot", "cfg.emit_dot", None),
    ("mrkit.cli", "node_features", "features.node_features", None),
    ("mrkit.cli", "path_features", "features.path_features", None),
    ("mrkit.cli", "combine", "features.combine", None),
    ("mrkit.cli", "build_design_matrix", "features.build_design_matrix", None),
    ("mrkit.cli", "cross_validate", "evaluation.cross_validate", None),
)


@contextmanager
def installed(tracer: Tracer, probes=PROBES):
    """Install every probe for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, hook in probes:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - union_length(kids, start, end)
            for (_, start, end, _), kids in zip(spans, children)]


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, busy and self seconds, durations."""
    out: dict[str, dict] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                      "durations": []})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += own
        entry["durations"].append(end - start)
    return out


def tail_percentile(samples) -> dict | None:
    """Highest percentile in PERCENTILES with at least MIN_BEYOND samples
    above its nearest-rank position, or None when no percentile has."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in PERCENTILES:
        rank = -(-round(p * 10) * n // 1000)  # ceil(p% of n) in integers
        if rank >= 1 and n - rank >= MIN_BEYOND:
            best = {"percentile": p, "value": ordered[rank - 1],
                    "beyond": n - rank, "samples": n}
    return best


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    s = summarize(tracer.spans)
    counts = tracer.counts

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def busy(*names):
        return sum(s[n]["busy_s"] for n in names if n in s)

    def own(name):
        return s[name]["self_s"] if name in s else 0.0

    interpret_calls = calls("mir.interpret")
    fits = s.get("svm.train_svm", {}).get("durations", [])
    distributions = calls("kernels.graphlet_distribution")
    metrics = {
        "mir.interpret.calls": interpret_calls,
        "mir.interpret.busy_s": busy("mir.interpret"),
        "mir.interpret.us_per_call":
            busy("mir.interpret") / interpret_calls * 1e6 if interpret_calls else 0.0,
    }
    for kind in TRAP_KINDS:
        metrics[f"mir.traps.{kind}"] = counts[f"mir.traps.{kind}"]
    metrics.update({
        "mir.traps.total": sum(v for k, v in counts.items()
                               if k.startswith("mir.traps.")),
        "mir.parse_s": busy("mir.parse_program"),
        "mir.lower_s": busy("mir.lower_to_cfg"),
        "oracle.label_method.calls": calls("oracle.label_method"),
        "oracle.label_method.self_s": own("oracle.label_method"),
        "oracle.trials_run": counts["oracle.trials_run"],
        "oracle.trials_budget": counts["oracle.trials_budget"],
        "svm.train_svm.calls": calls("svm.train_svm"),
        "svm.train_svm.busy_s": busy("svm.train_svm"),
        "svm.fit_ms": statistics.median(fits) * 1e3 if fits else 0.0,
        "svm.decision_value.calls": calls("svm.decision_value"),
        "svm.decision_value.busy_s": busy("svm.decision_value"),
        "kernels.gram.rwk_s": busy("kernels.gram.rwk"),
        "kernels.gram.gk3_s": busy("kernels.gram.gk3"),
        "kernels.gram.gk4_s": busy("kernels.gram.gk4"),
        "kernels.random_walk_kernel.calls": calls("kernels.random_walk_kernel"),
        "kernels.random_walk_kernel.busy_s": busy("kernels.random_walk_kernel"),
        "kernels.graphlet_distribution.calls": distributions,
        "kernels.graphlet_distribution.busy_s": busy("kernels.graphlet_distribution"),
        "kernels.graphlet_distribution.distinct": len(tracer.graphs),
        "kernels.gk_distribution_reuse":
            len(tracer.graphs) / distributions if distributions else 0.0,
        "cfg.parse_dot.calls": calls("cfg.parse_dot"),
        "cfg.parse_dot.busy_s": busy("cfg.parse_dot"),
        "cfg.emit_dot.busy_s": busy("cfg.emit_dot"),
        "features.extract_s": busy("features.node_features", "features.path_features",
                                   "features.combine"),
        "features.design_matrix_s": busy("features.build_design_matrix"),
        "evaluation.cross_validate.self_s": own("evaluation.cross_validate"),
        "corpus.load_manifest_s": busy("corpus.load_manifest"),
    })
    for command in ("label", "evaluate", "train", "predict"):
        metrics[f"cli.{command}.self_s"] = own(f"cli.{command}")
    return metrics


def span_tails(tracer: Tracer) -> dict[str, dict]:
    """Tail percentile of each span name's durations, where one exists."""
    out = {}
    for name, entry in sorted(summarize(tracer.spans).items()):
        tail = tail_percentile(entry["durations"])
        if tail is not None:
            out[name] = tail
    return out
