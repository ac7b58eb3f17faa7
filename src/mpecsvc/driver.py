"""Outer smoothing loop, post-processing, metrics, and diagnostics.

The smoothing loop solves the equality-constrained subproblem for a
geometrically shrinking eps schedule, warm-starting each solve from the
previous solution.  The schedule includes the first value at or below
eps_min, so eps0=1, kappa=0.5, eps_min=1e-6 yields exactly 21 subproblems.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import problem as pb
from .kkt import (KktOperator, KktPoint, SingularSystemError,
                  constraint_fold_solves)
from .newton import NewtonConfig, next_route, solve_subproblem
from .svc import solve_l1svc_dual, validation_error


@dataclass(frozen=True)
class OuterConfig:
    eps0: float = 1.0
    eps_min: float = 1e-6
    kappa: float = 0.5
    initial_C: float = 1.0

    def __post_init__(self):
        if not (self.eps0 >= self.eps_min > 0):
            raise ValueError("require eps0 >= eps_min > 0")
        if not (0.0 < self.kappa < 1.0):
            raise ValueError("kappa must lie in (0, 1)")
        if not self.initial_C > 0:
            raise ValueError("initial_C must be positive")


@dataclass
class OuterRecord:
    t: int
    eps: float
    f_tol: float
    status: str
    normF: float
    inner_iters: int
    max_comp_gap: float     # max_i |G_i H_i - eps^2/2| at the solution
    min_G: float
    min_H: float
    trace: list             # one newton.TraceRow per Newton step
    wall_ms: float = 0.0    # wall time of the subproblem's Newton solve


@dataclass
class SolveReport:
    C_raw: float = 0.0
    C_hat: float = 0.0
    E_cv: float = 0.0
    E_te: float = 0.0
    A2_paper: float = 0.0
    A2_cone: float = 0.0
    index_set_sizes: dict = field(default_factory=dict)
    outer_iters: int = 0
    inner_iters_total: int = 0
    outer_records: list = field(default_factory=list)
    final_point: KktPoint | None = None
    wall_ms: float = 0.0    # run_smoothing wall time, kept out of to_dict

    def to_dict(self, dataset, dims, config):
        return {
            "dataset": dataset,
            "dims": dims,
            "config": config,
            "C_raw": self.C_raw,
            "C_hat": self.C_hat,
            "E_cv": self.E_cv,
            "E_te": self.E_te,
            "A2_paper": self.A2_paper,
            "A2_cone": self.A2_cone,
            "index_set_sizes": self.index_set_sizes,
            "outer_iters": self.outer_iters,
            "inner_iters_total": self.inner_iters_total,
            "subproblems": [
                {"t": rec.t, "eps": rec.eps, "status": rec.status,
                 "inner_iters": rec.inner_iters, "normF": rec.normF}
                for rec in self.outer_records],
        }


def eps_schedule(cfg):
    """Subproblem parameters eps0 * kappa^t, ending at the first <= eps_min."""
    schedule = []
    eps = cfg.eps0
    while True:
        schedule.append(eps)
        if eps <= cfg.eps_min:
            return schedule
        eps *= cfg.kappa


def initial_point(p, C0):
    """Interior starting point: C = C0, alpha at 0.5*min(1, C0) (inside its
    box 0 <= alpha <= C), zeta, z and xi at 0.5, lambda = 0."""
    if C0 <= 0:
        raise ValueError("C0 must be positive")
    v = np.full(p.m + 1, 0.5)
    v[0] = C0
    p.split_v(v)[3][:] = 0.5 * min(1.0, C0)       # alpha
    return KktPoint(v=v, lam=np.zeros(p.m), eps=0.0)


def run_smoothing(p, ocfg=None, ncfg=None):
    """Algorithm: solve the eps-schedule of subproblems with warm starts.

    Returns (v, SolveReport) with v a float64 copy of the final point's v;
    the report carries the final KktPoint and the per-eps trace.  A failed
    subproblem is recorded and the loop continues from its last accepted
    iterate.

    Each subproblem's first step starts on the route that newton.next_route
    picks from the subproblem before it; the first starts on bicgstab.
    """
    ocfg = ocfg or OuterConfig()
    ncfg = ncfg or NewtonConfig()
    t0 = time.perf_counter()
    r = initial_point(p, ocfg.initial_C)
    report = SolveReport()
    route = "bicgstab"
    for t, eps in enumerate(eps_schedule(ocfg)):
        # solving much below the eps^2/2 complementarity scale wastes work,
        # so the tolerance is relaxed while eps is large and floors at f_tol
        f_tol = max(ncfg.f_tol, 1e-2 * eps * eps)
        sub_cfg = replace(ncfg, f_tol=f_tol)
        t1 = time.perf_counter()
        r, trace, status = solve_subproblem(p, eps, r, sub_cfg, route=route)
        wall_ms = 1000.0 * (time.perf_counter() - t1)
        route = next_route(trace, status)
        op = KktOperator(p, r)
        normF = float(np.linalg.norm(op.residual()))
        gap = float(np.max(np.abs(op.G * op.H - 0.5 * eps * eps)))
        report.outer_records.append(OuterRecord(
            t=t, eps=eps, f_tol=f_tol, status=status, normF=normF,
            inner_iters=len(trace), max_comp_gap=gap,
            min_G=float(op.G.min()), min_H=float(op.H.min()), trace=trace,
            wall_ms=wall_ms,
        ))
    report.outer_iters = len(report.outer_records)
    report.inner_iters_total = sum(rec.inner_iters for rec in report.outer_records)
    report.final_point = r
    report.C_raw = float(r.v[0])
    report.E_cv = cv_error(p, r.v)
    report.wall_ms = 1000.0 * (time.perf_counter() - t0)
    return np.array(r.v, dtype=float), report


def postprocess(p, v_star, ds, plan):
    """Rescale C by T/(T-1) and retrain on the full cv set.

    Returns (C_hat, w) with w = sum_i alpha_i y_i x_i over the cv points.
    """
    C_raw = float(v_star[0])
    C_hat = C_raw * p.T / (p.T - 1)
    rows = ds.signed_rows(plan.cv_indices)
    res = solve_l1svc_dual(rows, C_hat)
    if res.status != "converged":
        import warnings
        warnings.warn(f"baseline retraining stopped at {res.status} "
                      f"(violation {res.max_violation:.2e})")
    return C_hat, res.w


def cv_error(p, v):
    """E_cv percent = 100 * f(v) = 100 * mean(zeta)."""
    return 100.0 * p.objective(np.asarray(v))


def test_error(ds, test_indices, w):
    """E_te percent on the hold-out set; sign(0) counts as misclassified."""
    if len(test_indices) == 0:
        return 0.0
    return 100.0 * validation_error(ds, test_indices, w)


def _cone_direction(op):
    """Direction U spanning the critical cone null(J_v Phi), unit C component.

    With J_v Phi = [c | J_f] split as in kkt.constraint_fold_solves,
    U = (1, -J_f^{-1} c), J_f^{-1} by fold_solve's elimination at lambda = 0,
    where fold t's block of J_r F_eps is [[0, -J_f^T], [-J_f, 0]].  U is NaN
    when a point block or fold system is singular (a weight rounds to 0).
    """
    try:
        solve, _, c = constraint_fold_solves(op)
        return np.concatenate([[1.0], -solve(c)])
    except SingularSystemError:
        return np.full(op.p.m + 1, np.nan)


def assumption2_value(p, r_star):
    """Curvature diagnostics at a converged subproblem solution.

    Returns a dict with:
      A2_paper     v*^T hess_vv L v*, a form along v* itself.  v* does not
                   lie in the critical cone null(J_v Phi) (on the heart
                   instance ||J v*|| / ||v*|| is 0.79-0.97), so its sign
                   says nothing about minimality.  The paper's statement of
                   Assumption 2 is not in this repository; whether this
                   form is the one it names is unsettled.
      A2_cone      U^T hess_vv L U with U the critical-cone direction.
                   With J_v Phi of full row rank, null(J_v Phi) is
                   one-dimensional and U is the tangent (1, dy/dC) of the
                   feasible curve C -> v(C) = (C, y(C)) on which Phi_eps = 0;
                   at a KKT point A2_cone is d^2 f(v(C)) / dC^2,
                   the curvature of the smoothed CV error along C.  A
                   positive value certifies a strict local minimizer of the
                   subproblem, a negative one a maximizer along C.
      A2_cone_alt  the same quadratic form via the G/H decomposition
                   (U^G)^T M^G U^G + (U^H)^T M^H U^H + 2 (U^G)^T M^GH U^H
    Both A2_cone values are NaN when a smoothing weight rounds to 0.
    """
    op = KktOperator(p, r_star)
    v = op.v
    A2_paper = float(v @ op.hess_apply(v))
    U = _cone_direction(op)
    A2_cone = float(U @ op.hess_apply(U))
    UG = pb.apply_LG(p, U)
    UH = pb.apply_LH(p, U)
    c = op.curvature
    A2_alt = float(UG @ (c.mG * UG) + UH @ (c.mH * UH) + 2.0 * UG @ (c.mGH * UH))
    return {"A2_paper": A2_paper, "A2_cone": A2_cone, "A2_cone_alt": A2_alt,
            "U": U}


def classify_index_sets(p, v):
    """Count I_{0+}, I_{+0}, I_{00} at v.

    G_i counts as zero when |G_i| <= 1e-6 * (1 + |G_i|), and H_i likewise.
    Returns (sizes, listing): the size and the indices of each set.
    """
    G = pb.eval_G(p, v)
    H = pb.eval_H(p, v)
    g_zero = np.abs(G) <= 1e-6 * (1.0 + np.abs(G))
    h_zero = np.abs(H) <= 1e-6 * (1.0 + np.abs(H))
    i00 = g_zero & h_zero
    i0p = g_zero & ~h_zero
    ip0 = ~g_zero & h_zero
    listing = {
        "I_0+": np.flatnonzero(i0p),
        "I_+0": np.flatnonzero(ip0),
        "I_00": np.flatnonzero(i00),
    }
    sizes = {k: int(len(idx)) for k, idx in listing.items()}
    return sizes, listing

