#!/usr/bin/env python3
"""Graph similarity: random-walk and graphlet kernels over method CFGs.

Structurally related methods (the sorting family) score high against each
other; a straight-line method scores low against a nested-loop one.  The
Gram matrix over the whole bundled corpus is symmetric with unit diagonal
and positive semidefinite by construction, up to rounding in the smallest
eigenvalue.
"""

import numpy as np

from mrkit import GkParams, RwkParams, graphlet_kernel, random_walk_kernel
from mrkit.kernels import gram_matrix
from mrkit.corpus import bundled_dataset

ds = bundled_dataset().with_sources()
graphs = {e.name: ds.load_cfg(e) for e in ds.entries}

pairs = [
    ("insertion_sort", "shell_sort"),
    ("insertion_sort", "find_median"),
    ("sum", "add_values"),
    ("sum", "cal_Diff"),
    ("get_array_value", "bubble"),
]
print("=== pairwise kernel values ===")
print(f"{'pair':42s} {'RWK':>8s} {'GK':>8s}")
for a, b in pairs:
    rwk = random_walk_kernel(graphs[a], graphs[b], RwkParams())
    gk = graphlet_kernel(graphs[a], graphs[b], GkParams())
    print(f"{a + ' / ' + b:42s} {rwk:8.4f} {gk:8.4f}")

print()
print("=== Gram matrices over the bundled corpus ===")
ordered = [graphs[e.name] for e in ds.entries]
for kernel in ("rwk", "gk"):
    km = gram_matrix(ordered, kernel)
    sym = np.abs(km.values - km.values.T).max()
    diag = np.abs(np.diagonal(km.values) - 1).max()
    print(f"{kernel}: {km.values.shape[0]}x{km.values.shape[0]}, "
          f"max asymmetry {sym:.1e}, max |diag-1| {diag:.1e}, "
          f"min eigenvalue {km.min_eigenvalue():.2e}")

