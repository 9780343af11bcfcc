"""mrkit: predicting applicable metamorphic relations for numeric methods.

The pipeline: annotated control-flow graphs (from mini-IR sources or DOT
files) are turned into node/path features or graph-kernel Gram matrices,
six binary SVMs are trained against per-relation labels, and a dynamic
oracle produces those labels by executing methods on sampled inputs.

The ``cfg``, ``mir`` and ``oracle`` names are imported with the package.
The learning stack's names (``features``, ``kernels``, ``svm`` and
``evaluation``) are re-exported lazily: the first read of one imports its
module, and numpy with it, so labelling never loads numpy.
"""

from importlib import import_module

from .cfg import (
    AnnotatedCfg,
    Diagnostic,
    NodeOp,
    emit_dot,
    parse_dot,
    validate,
)
from .mir import Function, MirError, Program, Trap, interpret, lower_to_cfg, parse_program
from .oracle import (
    MR_IDS,
    LabelReport,
    MrLabelSet,
    MrSpec,
    OracleParams,
    apply_mr,
    audit_labels,
    check_relation,
    label_method,
)

__version__ = "0.1.0"

# lazily re-exported name -> the submodule that defines it
_LAZY = {name: module for module, names in {
    "features": ("FeatureVector", "build_design_matrix", "combine", "node_features",
                 "path_features"),
    "kernels": ("GkParams", "KernelMatrix", "RwkParams", "gram_matrix", "graphlet_kernel",
                "random_walk_kernel"),
    "svm": ("SvmModel", "SvmParams", "decision_value", "predict", "train_svm"),
    "evaluation": ("ConfusionMatrix", "EvalMetrics", "EvalReport", "FoldPlan", "auc",
                   "confusion", "cross_validate", "metrics", "stratified_kfold"),
}.items() for name in names}

__all__ = [
    "AnnotatedCfg", "Diagnostic", "NodeOp", "emit_dot", "parse_dot", "validate",
    "Function", "MirError", "Program", "Trap", "interpret", "lower_to_cfg", "parse_program",
    "MR_IDS", "LabelReport", "MrLabelSet", "MrSpec", "OracleParams", "apply_mr",
    "audit_labels", "check_relation", "label_method",
    *_LAZY,
]


def __getattr__(name: str):
    if name in _LAZY.values():  # ``import mrkit`` then ``mrkit.svm``
        return import_module(f".{name}", __name__)
    if name in _LAZY:
        value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
