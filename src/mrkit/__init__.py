"""mrkit: predicting applicable metamorphic relations for numeric methods.

The pipeline: annotated control-flow graphs (from mini-IR sources or DOT
files) are turned into node/path features or graph-kernel Gram matrices,
six binary SVMs are trained against per-relation labels, and a dynamic
oracle produces those labels by executing methods on sampled inputs.
"""

from .cfg import (
    AnnotatedCfg,
    Diagnostic,
    NodeOp,
    emit_dot,
    parse_dot,
    validate,
)
from .features import (
    FeatureVector,
    build_design_matrix,
    combine,
    node_features,
    path_features,
)
from .kernels import (
    GkParams,
    KernelMatrix,
    RwkParams,
    gram_matrix,
    graphlet_kernel,
    random_walk_kernel,
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
from .svm import SvmModel, SvmParams, decision_value, predict, train_svm
from .evaluation import (
    ConfusionMatrix,
    EvalMetrics,
    EvalReport,
    FoldPlan,
    auc,
    confusion,
    cross_validate,
    metrics,
    stratified_kfold,
)

__version__ = "0.1.0"
