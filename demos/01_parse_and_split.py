"""Load the bundled dataset, split it, and assemble the bilevel program.

Walks through the front half of the pipeline: parse the libsvm file, carve
out the cross-validation and hold-out sets, build the T-fold fold structure,
and assemble the sparse equilibrium-constrained program whose solution picks
the regularization constant C.
"""

from pathlib import Path

import numpy as np

import mpecsvc as M
from mpecsvc.problem import sparsity_stats

DATA = Path(__file__).resolve().parent.parent / "data" / "heart_synth.libsvm"

ds = M.parse_libsvm(DATA)
labels = ds.labels
print(f"dataset: {len(ds)} points, {ds.n_features} features")
print(f"labels: {np.sum(labels == 1)} positive, {np.sum(labels == -1)} negative")
print(f"density: {ds.X.nnz / (len(ds) * ds.n_features):.2f}")

# first p1 points are the cross-validation set, the rest are held out
plan = M.make_split(ds, p1=150, T=3, seed=0)
print(f"\nsplit: {len(plan.cv_indices)} cv points in {plan.T} folds of "
      f"{plan.m1}, {len(plan.test_indices)} held out")
for t, fold in enumerate(plan.folds):
    fold_labels = labels[list(fold)]
    print(f"  fold {t}: {len(fold)} points, "
          f"{np.sum(fold_labels == 1)}/{np.sum(fold_labels == -1)} +/-")

# one block row per fold: validation part (A) and training part (B)
p = M.assemble(ds, plan)
stats = sparsity_stats(p)
print(f"\nassembled program: m = {stats['m']} complementarity pairs, "
      f"{stats['n_vars']} variables")
print(f"  per fold: m1 = {stats['m1']} validation rows, "
      f"m2 = {stats['m2']} training rows, n = {stats['n']} features")
print(f"  nnz(A) = {stats['nnz_A']}, nnz(B) = {stats['nnz_B']}")

# the two constraint maps at an arbitrary interior point
v = M.initial_point(p, C0=1.0).v
G, H = M.eval_G(p, v), M.eval_H(p, v)
print(f"\nat the default starting point: min G = {G.min():.3f}, "
      f"min H = {H.min():.3f}, objective = {p.objective(v):.3f}")
