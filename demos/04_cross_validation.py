#!/usr/bin/env python3
"""The full experiment: six binary classifiers per featurization,
evaluated by stratified 10-fold cross-validation on the bundled corpus.

Prints one results table per featurization in the layout of the study's
results tables (metrics averaged over folds).  Every featurization is a
Gram matrix: NF/PF counts through the linear kernel, the graphs through
the graphlet and random-walk kernels.
"""

import numpy as np

from mrkit import SvmParams, cross_validate, stratified_kfold
from mrkit.corpus import bundled_dataset
from mrkit.features import build_design_matrix, combine, node_features, path_features
from mrkit.kernels import gram_matrix
from mrkit.oracle import MR_IDS

ds = bundled_dataset().with_sources()
entries = list(ds.entries)
graphs = [ds.load_cfg(e) for e in entries]
print(f"corpus: {len(entries)} methods with mini-IR sources")

datasets = {
    "nf-pf": build_design_matrix(
        [(e.name, combine(node_features(g), path_features(g)))
         for e, g in zip(entries, graphs)]),
    "gk": gram_matrix(graphs, "gk"),
    "rwk": gram_matrix(graphs, "rwk"),
}

for featurization, gram in datasets.items():
    print()
    print(f"=== {featurization} ===")
    print(f"{'MR':4s} {'acc':>6s} {'prec':>6s} {'rec':>6s} {'f1':>6s} "
          f"{'auc':>6s} {'bsr':>6s}")
    aucs = []
    for mr in MR_IDS:
        labels = [1 if e.labels[mr] else 0 for e in entries]
        folds = stratified_kfold(labels, 10, seed=42)
        report = cross_validate(gram, labels, folds, SvmParams(),
                                mr=mr, featurization=featurization)
        m = report.aggregate

        def cell(v):
            return "  --  " if v is None else f"{v:6.3f}"

        print(f"{mr:4s} {cell(m.accuracy)} {cell(m.precision)} "
              f"{cell(m.recall)} {cell(m.f_measure)} {cell(m.auc)} {cell(m.bsr)}")
        aucs.append(m.auc)
    print(f"mean AUC: {np.mean(aucs):.4f}")
