"""Command-line front end: extract, label, stats, train, evaluate, predict.

Exit codes: 0 success, 1 partial success (per-item diagnostics were
emitted), 2 usage or configuration error.  Every stochastic stage draws
its seed from one root seed, ``--seed``, expanded per stage with sha256,
so identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from importlib import import_module
from itertools import islice
from pathlib import Path

from . import corpus as corpus_io
from .cfg import AnnotatedCfg, emit_dot, parse_dot
from .corpus import MR_IDS, csv_text, json_text
from .mir import lower_to_cfg, parse_program

# the names this module binds on first use, by the submodule that defines
# them, so that each command loads only what it runs: ``label`` the oracle,
# ``extract`` the feature counts, and only the learning commands numpy;
# ``stats`` needs none of them
_DEFERRED = {
    "oracle": ("OracleParams", "audit_labels", "label_method"),
    "features": ("FeatureVector", "combine", "features_to_csv", "node_features",
                 "path_features", "walk_features"),
    "kernels": ("CountKernel", "GkParams", "RwkParams", "build_design_matrix",
                "gram_matrix"),
    "svm": ("SvmModel", "SvmParams", "decision_value", "train_svm"),
    "evaluation": ("EvalMetrics", "cross_validate", "stratified_kfold", "training_rows"),
}


def _bind(*module_names: str) -> None:
    """Import each named submodule and bind its names of ``_DEFERRED`` as
    globals of this module, where callers look them up and the benchmark's
    probes patch them.  A name that is already bound, such as a wrapper
    assigned before the first command, is kept."""
    scope = globals()
    for module_name in module_names:
        module = import_module(f".{module_name}", __package__)
        for name in _DEFERRED[module_name]:
            scope.setdefault(name, getattr(module, name))


def _learning() -> None:
    """Bind the learning stack: numpy as ``np``, the ``kernels`` module, and
    the names of ``features``, ``kernels``, ``svm`` and ``evaluation``."""
    scope = globals()
    scope.setdefault("np", import_module("numpy"))
    scope.setdefault("kernels", import_module(".kernels", __package__))
    _bind("features", "kernels", "svm", "evaluation")


def __getattr__(name: str):
    # a read of ``mrkit.cli.<name>`` before any command has bound it: an
    # oracle or feature name binds its own module, any other the stack
    home = next((module for module, names in _DEFERRED.items() if name in names), None)
    if home in ("oracle", "features"):
        _bind(home)
    elif home is not None or name in ("np", "kernels"):
        _learning()
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


_MR_CHOICES = [mr.lower() for mr in MR_IDS] + ["all"]


def stage_seed(root: int, stage: str) -> int:
    """Per-stage expansion of the root seed (documented scheme)."""
    digest = hashlib.sha256(f"mrkit:{stage}:{root}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _load_method_cfgs(path: Path) -> list[AnnotatedCfg]:
    if path.suffix == ".dot":
        return [parse_dot(path.read_text())]
    if path.suffix == ".mir":
        program = parse_program(path.read_text())
        if not program.functions:
            raise ValueError("no function defined")
        return [lower_to_cfg(fn) for fn in program.functions]
    raise ValueError("expected a .mir or .dot file")


def _reason(exc: Exception, path: Path) -> str:
    """The message for an ``error: <path>:`` line; an OSError about
    ``path`` itself gives only its strerror, so the path is not repeated."""
    if isinstance(exc, OSError) and exc.strerror and exc.filename == str(path):
        return exc.strerror
    return str(exc)


def _featurize(cfg: AnnotatedCfg, omit_exit: bool) -> tuple[FeatureVector, FeatureVector]:
    return node_features(cfg, omit_exit=omit_exit), path_features(cfg)


def cmd_extract(args) -> int:
    _bind("features")
    inputs = [Path(p) for p in args.inputs]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not inputs:
        print("warning: no inputs given", file=sys.stderr)
        return 0
    failures = 0
    written: dict[str, Path] = {}  # method name -> the input it came from
    for path in inputs:
        try:
            cfgs = _load_method_cfgs(path)
            for cfg in cfgs:
                # a name starting with "." ("..", ".hidden") writes hidden files
                if (not cfg.name or cfg.name.startswith(".")
                        or Path(cfg.name).name != cfg.name):
                    raise ValueError(f"method name {cfg.name!r} is not a file name")
                if cfg.name in written:
                    raise ValueError(f"method {cfg.name} already extracted "
                                     f"from {written[cfg.name]}")
            for cfg in cfgs:
                written[cfg.name] = path
                (out_dir / f"{cfg.name}.dot").write_text(emit_dot(cfg))
                nf, pf = _featurize(cfg, args.omit_exit_nf)
                (out_dir / f"{cfg.name}_features.csv").write_text(
                    features_to_csv(cfg.name, [nf, pf]))
        except Exception as exc:
            failures += 1
            print(f"error: {path}: {_reason(exc, path)}", file=sys.stderr)
    return 1 if failures else 0


def cmd_label(args) -> int:
    _bind("oracle")
    ds = corpus_io.load_manifest(args.manifest)
    register_path = Path(args.manifest).parent / "anomalies.csv"
    register = corpus_io.anomaly_register(register_path) if register_path.exists() else {}
    params = OracleParams(trials=args.trials, seed=stage_seed(args.seed, "oracle"))
    rows = []
    reports = {}
    attempted = 0
    failures = 0
    for entry in ds.entries:
        if entry.source_kind == "dot":
            print(f"diagnostic: {entry.name}: a DOT source cannot be run; not labelled",
                  file=sys.stderr)
        if entry.source_kind != "mir":
            continue
        attempted += 1
        try:
            report = label_method(ds.load_function(entry), params)
        except Exception as exc:
            failures += 1
            print(f"error: {entry.name}: {exc}", file=sys.stderr)
            continue
        reports[entry.name] = report
        rows.append((str(entry.method_id), report.labels))
        trap_causes = [o.witness.cause for o in report.outcomes.values()
                       if o.witness is not None and o.witness.cause.startswith("trap")]
        if len(trap_causes) == len(MR_IDS):
            print(f"diagnostic: {entry.name}: every relation rejected by a "
                  f"runtime trap ({trap_causes[0]})", file=sys.stderr)
    text = corpus_io.labels_to_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)

    reference = {e.name: e.labels for e in ds.entries if e.labels is not None}
    for d in audit_labels(reports, reference):
        detail = d.category
        if d.witness is not None:
            detail += f"; witness source={list(d.witness.source)}"
        registered = d.method in register and d.mr in register[d.method].mrs
        print(f"discrepancy: {d.method} {d.mr}: dynamic={int(d.dynamic)} "
              f"reference={int(d.reference)} ({detail})"
              + (" [registered]" if registered else ""), file=sys.stderr)
    # per-method problems are diagnostics; only total failure is an error
    return 1 if attempted and failures == attempted else 0


def cmd_stats(args) -> int:
    stats = corpus_io.corpus_stats(_dataset(args))
    sys.stdout.write(csv_text([
        ("mr", "match", "non_match"), *((mr, *stats.per_mr[mr]) for mr in MR_IDS),
        ("matching_mrs", "methods"), *stats.histogram.items()]))
    return 0


def _nf_pf_vectors(graphs: list[AnnotatedCfg], omit_exit: bool) -> tuple[FeatureVector, ...]:
    """NF-PF count vectors of ``graphs``; train and predict both build their
    count vectors from these, so the two cannot drift."""
    return tuple(combine(*_featurize(g, omit_exit)) for g in graphs)


def _corpus_features(ds, featurization: str, args):
    """Featurize every sourced entry; returns (entries, graphs, gram,
    context), where ``gram`` is the KernelMatrix every SVM trains on.
    Fewer than two sourced entries, which no featurization can train on,
    and an unlabelled entry are each a ValueError before any is loaded."""
    _learning()  # also an entry point of its own, for callers outside a command
    entries = ds.with_sources().entries
    if len(entries) < 2:
        raise ValueError("gram matrix needs at least two graphs")
    unlabelled = [e.name for e in entries if e.labels is None]
    if unlabelled:
        raise ValueError(f"unlabelled methods: {', '.join(unlabelled)}")
    ids = tuple(e.name for e in entries)
    graphs = [ds.load_cfg(e) for e in entries]
    if featurization == "nf-pf":
        vectors = _nf_pf_vectors(graphs, args.omit_exit_nf)
        gram = build_design_matrix(list(zip(ids, vectors)))
        context = {"featurization": "nf-pf", "omit_exit_nf": args.omit_exit_nf}
    elif featurization == "rwk":
        params = RwkParams(walk_len=args.walk_len, decay=getattr(args, "lambda"))
        gram = gram_matrix(graphs, "rwk", rwk=params)
        context = {"featurization": "rwk", "walk_len": params.walk_len,
                   "decay": params.decay}
    else:
        params = GkParams(k=args.graphlet_k)
        gram = gram_matrix(graphs, "gk", gk=params)
        context = {"featurization": "gk", "k": params.k, "mode": params.mode}
    # rows by manifest entry, whatever a DOT source names its digraph
    gram = replace(gram, method_ids=ids)
    return entries, graphs, gram, context


def _dataset(args):
    return corpus_io.load_manifest(args.manifest) if args.manifest \
        else corpus_io.bundled_dataset()


def _two_class_mrs(args, entries, skipped: list[str]):
    """(MR, 0/1 labels) for each MR ``--mr`` selects whose labels hold both
    classes; the others are appended to ``skipped`` with a diagnostic."""
    for mr in list(MR_IDS) if args.mr == "all" else [args.mr.upper()]:
        labels = [1 if e.labels[mr] else 0 for e in entries]
        if len(set(labels)) > 1:
            yield mr, labels
        else:
            skipped.append(mr)
            print(f"diagnostic: {mr}: single-class corpus, skipped", file=sys.stderr)


def cmd_evaluate(args) -> int:
    _learning()
    if args.k < 2:
        print("error: --k must be at least 2", file=sys.stderr)
        return 2
    if args.dump_gram and not args.out:
        print("error: --dump-gram needs --out", file=sys.stderr)
        return 2
    svm_params = SvmParams(C=args.C)
    entries, graphs, gram, context = _corpus_features(_dataset(args), args.features, args)

    plans = []
    rows: list[np.ndarray] = []  # every fold of every MR, fitted in one batch
    skipped: list[str] = []
    for mr, labels in _two_class_mrs(args, entries, skipped):
        folds = stratified_kfold(labels, args.k, seed=stage_seed(args.seed, "folds"))
        for warning in folds.warnings:
            print(f"diagnostic: {mr}: {warning}", file=sys.stderr)
        fits = [row for row in training_rows(labels, folds) if not isinstance(row, str)]
        plans.append((mr, labels, folds, len(fits)))
        rows += fits
    models = iter(train_svm(gram.values, np.reshape(rows, (len(rows), len(entries))),
                            svm_params))
    reports = [cross_validate(gram, labels, folds, svm_params, mr=mr,
                              featurization=args.features,
                              models=list(islice(models, count)))
               for mr, labels, folds, count in plans]

    payload = {
        "root_seed": args.seed,
        "featurization": context,
        "k": args.k,
        "skipped": skipped,
        "reports": reports,
    }
    report_json = json_text(payload) + "\n"
    results_csv = csv_text([("mr", "featurization", *EvalMetrics.FIELDS),
                            *(r.csv_row() for r in reports)])
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(report_json)
        (out_dir / "results.csv").write_text(results_csv)
        if args.dump_gram:
            (out_dir / "gram.csv").write_text(gram.to_csv())
    else:
        sys.stdout.write(results_csv)
    return 1 if skipped else 0


def _context_hash(context: dict) -> str:
    return hashlib.sha256(
        json.dumps(context, sort_keys=True).encode()).hexdigest()[:16]


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def cmd_train(args) -> int:
    _learning()
    svm_params = SvmParams(C=args.C)
    entries, graphs, gram, context = _corpus_features(_dataset(args), args.features, args)
    context["training_graphs"] = [emit_dot(g) for g in graphs]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    context_hash = _context_hash(context)
    _write_json(out_dir / "context.json",
                {"context": context, "context_hash": context_hash})
    skipped: list[str] = []
    mrs, rows = [], []
    for mr, labels in _two_class_mrs(args, entries, skipped):
        mrs.append(mr)
        rows.append([2 * label - 1 for label in labels])
    models = train_svm(gram.values, np.reshape(rows, (len(rows), len(entries))), svm_params)
    for mr, model in zip(mrs, models):
        if model.stop is not None:
            print(f"diagnostic: {mr}: {model.stop}", file=sys.stderr)
        _write_json(out_dir / f"{mr}.json",
                    {"mr": mr, "context_hash": context_hash, "model": model.to_dict()})
    return 1 if skipped else 0


def _count_map(context: dict):
    """(CFG -> its count vectors, one per block; decay; cosine?) of a context."""
    featurization = context["featurization"]
    if featurization == "nf-pf":
        omit_exit = context["omit_exit_nf"]
        if type(omit_exit) is not bool:
            raise ValueError(f"omit_exit_nf must be true or false, got {omit_exit!r}")
        return lambda cfg: _nf_pf_vectors([cfg], omit_exit), 1.0, False
    if featurization == "rwk":
        rwk = RwkParams(walk_len=context["walk_len"], decay=context["decay"])
        return lambda cfg: walk_features(cfg, rwk.walk_len), rwk.decay, True
    if featurization == "gk":
        gk = GkParams(k=context["k"])
        # looked up per call, so that a caller can wrap it in mrkit.kernels
        return lambda cfg: (kernels.graphlet_distribution(cfg, gk),), 1.0, True
    raise ValueError(f"unknown featurization {featurization!r}")


def _column_function(context: dict):
    """CFG -> the kernel column that every MR model of one context scores,
    from one ``CountKernel`` over the training graphs built once here:
    nf-pf is one raw count block, rwk one cosine-normalised block per walk
    length and gk one cosine-normalised block of graphlet type counts.  Only
    nf-pf warns of unseen keys: a cosine's self-value counts them."""
    _learning()  # also an entry point of its own, for callers outside a command
    vectors_of, decay, normalize = _count_map(context)
    texts = context["training_graphs"]
    if type(texts) is not list or not all(type(text) is str for text in texts):
        raise ValueError("training_graphs must be a list of DOT texts")
    graphs = [parse_dot(text) for text in texts]
    kernel = CountKernel(zip(*map(vectors_of, graphs)), decay, normalize)

    def column(cfg: AnnotatedCfg) -> np.ndarray:
        values, unseen = kernel.column(list(vectors_of(cfg)))
        if unseen and not normalize:
            print(f"warning: {cfg.name}: {unseen} unseen feature keys "
                  "treated as zero columns", file=sys.stderr)
        return values
    return column


def cmd_predict(args) -> int:
    _learning()
    models_dir = Path(args.models)
    context_path = models_dir / "context.json"
    if not context_path.exists():
        print(f"error: missing {context_path}: not a model directory, or one "
              "that predates the one-context.json layout and must be retrained",
              file=sys.stderr)
        return 2
    models = {}
    try:
        saved = json.loads(context_path.read_text())
        context, context_hash = saved["context"], saved["context_hash"]
        if _context_hash(context) != context_hash:
            print(f"error: {context_path}: featurization context does not "
                  "match its hash; refusing to predict", file=sys.stderr)
            return 2
        for mr in MR_IDS:
            path = models_dir / f"{mr}.json"
            if not path.exists():
                print(f"error: missing model file {path}", file=sys.stderr)
                return 2
            bundle = json.loads(path.read_text())
            if bundle["mr"] != mr:
                print(f"error: {path}: holds the model of {bundle['mr']!r}, not "
                      f"{mr}; refusing to predict", file=sys.stderr)
                return 2
            if bundle["context_hash"] != context_hash:
                print(f"error: {path}: trained on context "
                      f"{bundle['context_hash']}, not {context_hash} of "
                      f"{context_path}; refusing to predict", file=sys.stderr)
                return 2
            model = models[mr] = SvmModel.from_dict(bundle["model"])
            if model.n_train != len(context["training_graphs"]):
                raise ValueError(f"{path.name}: n_train {model.n_train}, but "
                                 f"{len(context['training_graphs'])} training graphs")
        column_of = _column_function(context)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: {models_dir}: malformed model file ({exc!r}); refusing "
              "to predict", file=sys.stderr)
        return 2

    rows = [("method", *MR_IDS, *(f"decision_{mr}" for mr in MR_IDS))]
    failures = 0
    for raw in args.inputs:
        try:
            for cfg in _load_method_cfgs(Path(raw)):
                column = column_of(cfg)
                decisions = [decision_value(models[mr], column) for mr in MR_IDS]
                rows.append((cfg.name, *("1" if d >= 0 else "0" for d in decisions),
                             *map(repr, decisions)))
        except Exception as exc:
            failures += 1
            print(f"error: {raw}: {_reason(exc, Path(raw))}", file=sys.stderr)
    text = csv_text(rows)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrkit",
        description="Predict applicable metamorphic relations from CFG features.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help="root seed (default: 42)"):
        p.add_argument("--seed", type=int, default=42, help=seed_help)
        p.add_argument("--features", choices=["nf-pf", "gk", "rwk"],
                       default="rwk")
        p.add_argument("--C", type=float, default=1.0)
        p.add_argument("--lambda", dest="lambda", type=float, default=0.5,
                       help="random-walk decay")
        p.add_argument("--walk-len", type=int, default=10)
        p.add_argument("--graphlet-k", type=int, default=3)
        p.add_argument("--omit-exit-nf", action="store_true")

    p = sub.add_parser("extract", help="lower methods to DOT + feature CSVs")
    p.add_argument("inputs", nargs="*", help=".mir or .dot files")
    p.add_argument("--out", required=True)
    p.add_argument("--omit-exit-nf", action="store_true")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("label", help="dynamic MR labelling of a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=42, help="root seed (default: 42)")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("stats", help="per-MR match counts and histogram")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train per-MR models")
    p.add_argument("--manifest")
    p.add_argument("--mr", choices=_MR_CHOICES, default="all")
    p.add_argument("--out", required=True)
    common(p, seed_help="accepted, and reaches nothing: training draws no random numbers")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="stratified k-fold cross-validation")
    p.add_argument("--manifest")
    p.add_argument("--mr", choices=_MR_CHOICES, default="all")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out")
    p.add_argument("--dump-gram", action="store_true")
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="predict MRs for new methods")
    p.add_argument("inputs", nargs="+", help=".mir or .dot files")
    p.add_argument("--models", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
