"""Earlier scoring paths of mrkit, kept as references.

``auc`` is the numpy Mann-Whitney count, ``training_rows`` the fold-by-fold
loop and ``decision_value`` the one-column scorer that ``cross_validate``
called once per test sample.  ``mrkit.evaluation`` now counts AUC pairs in
Python, builds every fold's row at once and scores a fold's test samples
in one ``svm.decision_value`` call; each must give these functions'
results bit for bit.  ``report_json`` is how ``report.json`` was written
before ``corpus.json_text``.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from mrkit.evaluation import EvaluationError, FoldPlan
from mrkit.svm import SvmError, SvmModel


def auc(decision_values, truth) -> float:
    values = np.asarray(list(decision_values), dtype=float)
    labels = np.asarray(list(truth))
    if values.shape != labels.shape:
        raise EvaluationError("decision values and truth differ in length")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("AUC needs both classes present")
    pos = values[labels == 1][:, None]
    neg = values[labels == 0]
    u = float((pos > neg).sum()) + 0.5 * float((pos == neg).sum())
    return u / (n_pos * n_neg)


def training_rows(labels01, folds: FoldPlan) -> list:
    labels01 = list(labels01)
    if len(folds.assignments) != len(labels01):
        raise EvaluationError("fold plan does not match label count")
    y = np.where(np.asarray(labels01) == 1, 1.0, -1.0)
    rows: list = []
    for fold in range(folds.k):
        row = np.where(np.asarray(folds.assignments) == fold, 0.0, y)
        if fold not in folds.assignments:
            row = "empty test fold"
        elif not (1.0 in row and -1.0 in row):
            row = "single-class training data; fold aborted"
        rows.append(row)
    return rows


def decision_value(model: SvmModel, column) -> float:
    column = np.asarray(column, dtype=float)
    if column.shape != (model.n_train,):
        raise SvmError(
            f"kernel column has length {column.shape}, expected ({model.n_train},)")
    if not model.coef:
        return float(model.bias)
    return float(np.asarray(model.coef) @ column[list(model.support)] + model.bias)


def report_json(payload) -> str:
    """``payload`` with every dataclass in it through ``asdict``, then
    ``json.dumps`` as ``cmd_evaluate`` called it."""
    def plain(obj):
        if isinstance(obj, dict):
            return {key: plain(value) for key, value in obj.items()}
        if isinstance(obj, (list, tuple)):
            return type(obj)(plain(item) for item in obj)
        if hasattr(type(obj), "__dataclass_fields__"):
            return asdict(obj)
        return obj

    return json.dumps(plain(payload), sort_keys=True, indent=2)
