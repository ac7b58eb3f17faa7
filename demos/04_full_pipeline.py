"""End-to-end hyperparameter selection on the bundled dataset.

Runs the full smoothing continuation: a geometric ladder of smoothing
levels, each subproblem warm-started from the last, then rescales the
selected C to the full cross-validation set, retrains, and scores the
held-out points.  Takes a couple of minutes.
"""

import time
from pathlib import Path

import mpecsvc as M
from mpecsvc.driver import run_smoothing, postprocess, test_error

DATA = Path(__file__).resolve().parent.parent / "data" / "heart_synth.libsvm"

ds = M.parse_libsvm(DATA)
plan = M.make_split(ds, p1=150, T=3, seed=0)
p = M.assemble(ds, plan)

t0 = time.perf_counter()
v, report = run_smoothing(p, M.OuterConfig(), M.NewtonConfig(max_iters=100))
wall = time.perf_counter() - t0

print(f"{'t':>3} {'eps':>10} {'status':>20} {'inner':>5} {'||F||':>10}")
for rec in report.outer_records:
    print(f"{rec.t:3d} {rec.eps:10.2e} {rec.status:>20} "
          f"{rec.inner_iters:5d} {rec.normF:10.2e}")
print(f"\n{report.outer_iters} subproblems, "
      f"{report.inner_iters_total} Newton iterations, {wall:.0f}s")

# the solver works on T-1 of T folds at a time; scale C up accordingly,
# retrain on the whole cv set, and score the untouched hold-out points
C_hat, w = postprocess(p, v, ds, plan)
E_te = test_error(ds, plan.test_indices, w)
print(f"\nselected C = {report.C_raw:.4f} (rescaled: {C_hat:.4f})")
print(f"cross-validation error = {report.E_cv:.2f}%")
print(f"hold-out error         = {E_te:.2f}%")

nz = int((abs(w) > 1e-8).sum())
print(f"retrained weights: {nz}/{len(w)} nonzero")
