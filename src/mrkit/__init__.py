"""mrkit: predicting applicable metamorphic relations for numeric methods.

The pipeline: annotated control-flow graphs (from mini-IR sources or DOT
files) are turned into node/path features or graph-kernel Gram matrices,
six binary SVMs are trained against per-relation labels, and a dynamic
oracle produces those labels by executing methods on sampled inputs.

The ``cfg`` and ``mir`` names are imported with the package.  The
others are re-exported lazily: the first read of one imports its module.
So the oracle loads on the first read of one of its names
(``label_method``, say), and numpy on the first read of a ``kernels``,
``svm`` or ``evaluation`` name; ``corpus`` and ``features`` need neither.
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

__version__ = "0.1.0"

# lazily re-exported name -> the submodule that defines it
_LAZY = {name: module for module, names in {
    "corpus": ("MR_IDS", "MrLabelSet"),
    "oracle": ("LabelReport", "OracleParams", "audit_labels", "check_relation",
               "label_method"),
    "features": ("FeatureVector", "combine", "node_features", "path_features"),
    "kernels": ("GkParams", "KernelMatrix", "RwkParams", "build_design_matrix",
                "gram_matrix", "graphlet_kernel", "random_walk_kernel"),
    "svm": ("SvmModel", "SvmParams", "decision_value", "predict", "train_svm"),
    "evaluation": ("ConfusionMatrix", "EvalMetrics", "EvalReport", "FoldPlan", "auc",
                   "confusion", "cross_validate", "metrics", "stratified_kfold"),
}.items() for name in names}

__all__ = [
    "AnnotatedCfg", "Diagnostic", "NodeOp", "emit_dot", "parse_dot", "validate",
    "Function", "MirError", "Program", "Trap", "interpret", "lower_to_cfg", "parse_program",
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
