#!/usr/bin/env python3
"""Predicting relations for an unseen method.

Trains the six RWK classifiers on the bundled corpus minus `sum`, then
predicts the held-out method from its source alone and compares against
both its reference row and the dynamic oracle.
"""

import numpy as np

from mrkit import RwkParams, SvmParams, label_method, train_svm
from mrkit.corpus import bundled_dataset
from mrkit.kernels import gram_matrix, random_walk_kernel
from mrkit.oracle import MR_IDS
from mrkit.svm import decision_value

HELD_OUT = "sum"

ds = bundled_dataset().with_sources()
train_entries = [e for e in ds.entries if e.name != HELD_OUT]
held = ds.entry(HELD_OUT)

train_graphs = [ds.load_cfg(e) for e in train_entries]
held_graph = ds.load_cfg(held)
print(f"training on {len(train_entries)} methods, predicting {HELD_OUT!r}")

gram = gram_matrix(train_graphs, "rwk")
column = np.array([random_walk_kernel(g, held_graph, RwkParams())
                   for g in train_graphs])

print()
print(f"{'MR':4s} {'decision':>9s} {'predicted':>9s} {'reference':>9s} {'oracle':>7s}")
oracle_labels = label_method(ds.load_function(held))
for mr in MR_IDS:
    y = [1 if e.labels[mr] else -1 for e in train_entries]
    model = train_svm(gram.values, y, SvmParams())
    f = decision_value(model, column)
    predicted = 1 if f >= 0 else 0
    print(f"{mr:4s} {f:9.4f} {predicted:9d} {int(held.labels[mr]):9d} "
          f"{int(oracle_labels.labels[mr]):7d}")
