"""Solve a single smoothed subproblem and inspect the Newton iteration.

At a fixed smoothing level eps the first-order conditions form a square
nonlinear system F_eps(v, lambda) = 0 of dimension 2m+1.  A damped Newton
method drives ||F_eps|| to zero, and no matrix is assembled.  The linear
systems are tried first by BiCGStab on the matrix-free Jacobian product
(solve_subproblem's default route="bicgstab"; in the full schedule,
run_smoothing starts a subproblem on "direct" instead when the one before
it converged after a first step that was not a BiCGStab step).  The first
time BiCGStab misses its forcing target, the step and the rest of the
subproblem are solved directly from the fold structure (route "direct"):
one 4x4 block per data point, a rank-2n coupling per fold and a Schur
complement on C.  After a collapsed line search the rest of the steps are
Levenberg-Marquardt directions (route "lm"), the real part of the same fold
solve with the imaginary shift -i*||F||.  The route never goes back within a
subproblem.  This script runs one subproblem on the bundled dataset and
prints the per-iteration trace, with the route each step took, its linear
iterations (BiCGStab's, plus one for a fold solve) and the relative residual
of its linear solve.
"""

import time
from pathlib import Path

import numpy as np

import mpecsvc as M

DATA = Path(__file__).resolve().parent.parent / "data" / "heart_synth.libsvm"

ds = M.parse_libsvm(DATA)
plan = M.make_split(ds, p1=150, T=3, seed=0)
p = M.assemble(ds, plan)
print(f"system dimension: {2 * p.m + 1}")

eps = 1.0
r0 = M.initial_point(p, C0=1.0)
cfg = M.NewtonConfig(f_tol=1e-2 * eps * eps)

t0 = time.perf_counter()
r, trace, status = M.solve_subproblem(p, eps, r0, cfg)
wall = time.perf_counter() - t0

print(f"\n{'k':>3} {'||F||':>12} {'step':>8} {'lin iters':>9} "
      f"{'backtracks':>10} {'route':>9} {'lin resid':>10}")
for row in trace:
    print(f"{row.k:3d} {row.normF:12.4e} {row.step:8.4f} "
          f"{row.lin_iters:9d} {row.backtracks:10d} {row.route:>9} "
          f"{row.lin_resid:10.2e}")
print(f"\nstatus = {status} in {len(trace)} iterations, "
      f"{sum(row.lin_iters for row in trace)} linear iterations, {wall:.1f}s")

# at the solution the complementarity products sit on the smoothed zero set
G, H = M.eval_G(p, r.v), M.eval_H(p, r.v)
gap = np.abs(G * H - eps * eps / 2)
print(f"C = {r.v[0]:.4f}, cv error = {M.cv_error(p, r.v):.2f}%")
print(f"max |G_i H_i - eps^2/2| = {gap.max():.2e}  "
      f"(both factors positive: min G = {G.min():.3f}, min H = {H.min():.3f})")

# the norms in the trace decrease monotonically; the line search guarantees it
norms = [row.normF for row in trace]
print(f"monotone decrease: {all(b < a for a, b in zip(norms, norms[1:]))}")
