"""The benchmark's workloads and the checks that judge their outputs.

Every workload runs the paper's reference instance: the bundled
data/heart_synth.libsvm with p1=150, T=3 and split seed 0, the input whose
results the ROADMAP records (C_raw 0.696, E_cv 19.33%, E_te 17.50%, 21
subproblems; grid best E_cv 18.00% at C=1.778).  The split is fixed because
it decides how much work a run does: split seeds 0, 1 and 2 take 126, 160
and more Newton steps (45, 71 and 85 s on a 2-core Xeon), which would make
the run-to-run spread of wall time larger than any bound the benchmark
could keep.  The grid and the two checks share one workload so that a run
holds about a minute of work: run alone, each takes 12-18 s, and over ten
runs the spread of its wall time reached 0.15-0.19 on a shared 2-core host.

Each check is (name, ok, kind).  Kind "op" marks an operation that can fail
without the output being wrong (a subproblem that does not converge, a grid
cell stopped at max_epochs, a probe estimate off its oracle, a FAIL line);
kind "output" marks a property every correct output has.  Both count in
attempted/failed; only "output" checks decide `correct`.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field

import numpy as np

HEART = "data/heart_synth.libsvm"
SPLIT = ("--p1", "150", "--folds", "3", "--seed", "0")

# ROADMAP reference on the split above.
REF_C_RAW, REF_E_CV, REF_E_TE, REF_SUBPROBLEMS = 0.696, 19.33, 17.50, 21
REF_GRID_C, REF_GRID_E_CV = 1.778, 18.00
GRID = np.logspace(-3, 3, 25)     # the CLI's default grid
PROBE_REL_TOL = 1e-6              # the acceptance gate's probe-vs-SVD bound


@dataclass
class Command:
    """One CLI invocation of an operation and what it left behind."""

    argv: list
    rc: object = None             # exit code, or the exception it raised
    t0: float = 0.0               # perf_counter() when it started and ended
    t1: float = 0.0
    stdout: str = ""
    calls: dict = field(default_factory=dict)
    outdir: object = None
    probe_rel: list | None = None  # filled once by probe_rel_errs


# --------------------------------------------------------------- oracles

def signed_rows(ds, idx):
    return ds.signed_rows(list(idx)).toarray()


def dual_svc_oracle(R, C):
    """(w, radius) of the L1-SVC on signed rows R; ||w - w*|| <= radius.

    Independent of the package's coordinate descent: L-BFGS-B on the dual
    box QP, then a polish that pins each dual variable at the bound its
    margin implies and solves r_i^T w = 1 for the margin support vectors.
    The primal is 1-strongly convex, so radius = sqrt(2 * duality gap) of
    the better of the two dual points.
    """
    from scipy.optimize import minimize

    Q = R @ R.T

    def dual(a):
        Qa = Q @ a
        return 0.5 * a @ Qa - a.sum(), Qa - 1.0

    def gap(a):
        w = R.T @ a
        return w @ w + C * np.maximum(0.0, 1.0 - R @ w).sum() - a.sum()

    a = minimize(dual, np.zeros(len(R)), jac=True, method="L-BFGS-B",
                 bounds=[(0.0, C)] * len(R),
                 options={"ftol": 0.0, "gtol": 0.0, "maxiter": 100000,
                          "maxfun": 100000}).x
    best = (gap(a), a)
    margins = Q @ a
    for delta in (1e-3, 1e-4, 1e-5, 1e-6):
        free = np.abs(margins - 1.0) <= delta
        b = np.where(margins < 1.0 - delta, C, 0.0)
        RF = R[free]
        b[free] = np.linalg.lstsq(RF @ RF.T, 1.0 - RF @ (R.T @ b), rcond=None)[0]
        if np.all((b >= 0.0) & (b <= C)) and gap(b) < best[0]:
            best = (gap(b), b)
    return R.T @ best[1], float(np.sqrt(2.0 * max(best[0], 0.0)))


def error_pct(ds, idx, w, radius=0.0):
    """Misclassification percentage; a zero margin counts as an error.

    None when some point's sign could differ for a w' within radius of w.
    """
    X = ds.to_csr(list(idx))
    y = np.array([ds.labels[i] for i in idx], dtype=float)
    margins = y * (X @ w)
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
    if np.any(np.abs(margins) <= radius * norms):
        return None
    return 100.0 * float(np.mean(margins <= 0.0))


@functools.lru_cache(maxsize=None)
def cv_error_oracle(ds, plan, C):
    errs = []
    for t in range(plan.T):
        train = [i for s in range(plan.T) if s != t for i in plan.folds[s]]
        errs.append(error_pct(ds, plan.folds[t],
                              *dual_svc_oracle(signed_rows(ds, train), C)))
    return None if None in errs else float(np.mean(errs))


def sigma_min_oracle(p, v, eps):
    """Smallest singular value of the dense constraint Jacobian J_v Phi.

    Cached on the problem's and the point's values: every repeat of a
    command probes the same point, and one SVD takes about a second.
    """
    key = (fingerprint(p), np.asarray(v, dtype=float).tobytes(), eps)
    if key not in _SIGMA_MIN:
        from mpecsvc.kkt import KktOperator, KktPoint

        op = KktOperator(p, KktPoint(v=v, lam=np.zeros(p.m), eps=eps))
        _SIGMA_MIN[key] = float(np.linalg.svd(op.materialize_jacobian(),
                                              compute_uv=False)[-1])
    return _SIGMA_MIN[key]


_SIGMA_MIN = {}


def fingerprint(p):
    """Hashable value of an MpecProblem's fields."""
    return (p.T, p.m1, p.m2, p.n,
            *((M.shape, M.data.tobytes(), M.indices.tobytes(),
               M.indptr.tobytes()) for M in (p.A, p.B)))


def close(a, b, tol):
    """|a - b| <= tol; an undecided oracle (None) never agrees."""
    return a is not None and b is not None and abs(a - b) <= tol


# ---------------------------------------------------------------- checks

def check_solve(cmd, inputs):
    ds, plan, _ = inputs
    if not isinstance(cmd.rc, int):
        return [("solve ran", False, "output")]
    statuses = [out[2] for _, _, out in cmd.calls["subproblem"]]
    checks = [(f"subproblem {t} converged", s == "converged", "op")
              for t, s in enumerate(statuses)]
    rep = json.loads((cmd.outdir / "report.json").read_text())
    failed = any(s != "converged" for s in statuses)
    checks += [
        ("exit code reflects subproblem statuses", cmd.rc == (4 if failed else 0),
         "output"),
        ("21 subproblems", rep["outer_iters"] == len(statuses) == REF_SUBPROBLEMS,
         "output"),
        ("C_hat = C_raw * T/(T-1)",
         close(rep["C_hat"], rep["C_raw"] * plan.T / (plan.T - 1),
               1e-12 * rep["C_hat"]), "output"),
        ("reference C_raw 0.696", close(rep["C_raw"], REF_C_RAW, 5e-4), "output"),
        ("reference E_cv 19.33%", close(rep["E_cv"], REF_E_CV, 5e-3), "output"),
        ("reference E_te 17.50%", close(rep["E_te"], REF_E_TE, 5e-3), "output"),
        ("E_cv equals the oracle CV error at C_raw",
         close(rep["E_cv"], cv_error_oracle(ds, plan, rep["C_raw"]), 1e-6),
         "output"),
        ("E_te equals the oracle retrained at C_hat",
         close(rep["E_te"], error_pct(ds, plan.test_indices, *dual_svc_oracle(
             signed_rows(ds, plan.cv_indices), rep["C_hat"])), 1e-9),
         "output"),
    ]
    return checks


def check_grid(cmd, inputs):
    ds, plan, _ = inputs
    if cmd.rc != 0:
        return [("grid ran", False, "output")]
    (_, _, result), = cmd.calls["grid"]
    checks = [(f"cell C={C:.4g} fold {t} converged", s == "converged", "op")
              for C, cell in zip(GRID, result.statuses)
              for t, s in enumerate(cell)]
    table = read_grid(cmd)
    oracle = [cv_error_oracle(ds, plan, C) for C in GRID]
    checks += [(f"row C={C:.4g} equals the oracle CV error",
                close(e, o, 1e-9), "op")
               for (C, e), o in zip(table, oracle)]
    best_C, best_err = min(table, key=lambda row: (row[1], row[0]))
    checks += [
        ("grid.csv holds the default grid",
         len(table) == len(GRID)
         and np.allclose([c for c, _ in table], GRID, rtol=1e-12, atol=0),
         "output"),
        ("grid.csv matches the returned table", table == result.table, "output"),
        ("reference best E_cv 18.00% at C=1.778",
         close(best_err, REF_GRID_E_CV, 5e-3) and close(best_C, REF_GRID_C, 1e-3),
         "output"),
        ("best row equals the oracle CV error",
         close(best_err, oracle[table.index((best_C, best_err))], 1e-9),
         "output"),
    ]
    return checks


def check_diagnostics(cmd, inputs):
    eps = cmd.argv[cmd.argv.index("--eps") + 1] if "--eps" in cmd.argv else "0.1"
    if not isinstance(cmd.rc, int):
        return [(f"check eps={eps} ran", False, "output")]
    lines = [ln.split() for ln in cmd.stdout.splitlines()
             if ln.startswith(("PASS", "FAIL"))]
    checks = [(f"eps={eps} {name}", verdict == "PASS", "op")
              for verdict, name in lines]
    checks.append((f"eps={eps} exit code reflects its check lines",
                   bool(lines) and cmd.rc == (
                       0 if all(v == "PASS" for v, _ in lines) else 1),
                   "output"))
    checks += [(f"eps={eps} probe within {PROBE_REL_TOL:g} of the dense SVD "
                f"(rel {rel:.2e})", rel <= PROBE_REL_TOL, "op")
               for rel in probe_rel_errs(cmd)]
    return checks


def check_commands(op, inputs):
    """Every check of one operation, by the subcommand each command ran."""
    by_subcommand = {"solve": check_solve, "grid": check_grid,
                     "check": check_diagnostics}
    return [c for cmd in op for c in by_subcommand[cmd.argv[0]](cmd, inputs)]


def probe_rel_errs(cmd):
    """Relative error of each licq_probe estimate against the dense SVD."""
    if cmd.probe_rel is None:
        cmd.probe_rel = []
        for (p, v, eps, *_), _, out in cmd.calls.get("probe", ()):
            smin = sigma_min_oracle(p, v, eps)
            cmd.probe_rel.append(abs(out[0] - smin) / smin)
    return cmd.probe_rel


def quality(op):
    """E_cv/E_te of the selected C, where the operation selects one."""
    out = {}
    for cmd in op:
        if not isinstance(cmd.rc, int):
            continue
        if (cmd.outdir / "report.json").is_file():
            rep = json.loads((cmd.outdir / "report.json").read_text())
            out.update(E_cv_pct=rep["E_cv"], E_te_pct=rep["E_te"])
        elif (cmd.outdir / "grid.csv").is_file():
            out["E_cv_pct"] = min(e for _, e in read_grid(cmd))
    return out


def read_grid(cmd):
    """The (C, E_cv) rows of a grid command's grid.csv."""
    with open(cmd.outdir / "grid.csv", newline="") as fh:
        return [(float(c), float(e)) for c, e in list(csv.reader(fh))[1:]]


def capture_targets():
    """Calls whose results the checks read; recorded in every run."""
    from mpecsvc import driver, kkt, svc

    return {"subproblem": (driver, "solve_subproblem"),
            "grid": (svc, "grid_search"),
            "probe": (kkt, "licq_probe")}


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple               # CLI argv lists, without --data/--out
    data: str                     # relative to the checkout, or absolute
    split: tuple = SPLIT
    check: object = check_commands  # check(op, inputs) -> [(name, ok, kind)]

    def argv(self, root):
        return [[*cmd, "--data", str(root / self.data), *self.split]
                for cmd in self.commands]


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload(name="heart-solve", commands=(("solve", "--quiet"),),
                 data=HEART),
        Workload(name="heart-grid-check",
                 commands=(("grid", "--quiet"), ("check", "--eps", "1.0"),
                           ("check",)),
                 data=HEART),
    )
}
