"""Does the selected C belong to the method or to one rounding?

Runs the smoothing continuation on the bundled dataset seven times, each
from an initial C of 1 + k * 1e-13 for k = -3..3, a change far below any
tolerance of the solver.  For each start it prints the selected C, the
cross-validation error, the subproblem statuses and the Newton step count.
Starts that end at different points show that rounding, not the method,
picks the endpoint.  Takes several seconds.
"""

import collections
import time
from pathlib import Path

import mpecsvc as M
from mpecsvc.driver import run_smoothing

DATA = Path(__file__).resolve().parent.parent / "data" / "heart_synth.libsvm"

ds = M.parse_libsvm(DATA)
plan = M.make_split(ds, p1=150, T=3, seed=0)
p = M.assemble(ds, plan)

print(f"{'k':>3} {'initial C':>18} {'C_raw':>16} {'E_cv %':>7} {'steps':>5}  "
      "subproblems")
endpoints = collections.Counter()
t0 = time.perf_counter()
for k in range(-3, 4):
    initial_C = 1.0 + k * 1e-13
    report = run_smoothing(p, M.OuterConfig(initial_C=initial_C),
                           M.NewtonConfig(max_iters=100))
    statuses = collections.Counter(rec.status for rec in report.outer_records)
    print(f"{k:3d} {initial_C!r:>18} {report.C_raw:16.11f} "
          f"{report.E_cv:7.2f} {report.inner_iters_total:5d}  "
          + ", ".join(f"{n} {s}" for s, n in sorted(statuses.items())))
    endpoints[f"{report.C_raw:.11f}"] += 1
wall = time.perf_counter() - t0

print(f"\n{len(endpoints)} endpoint(s) from 7 starts within 3e-13 of C = 1 "
      f"({wall:.0f}s): "
      + ", ".join(f"C_raw {c} x{n}" for c, n in endpoints.most_common()))
