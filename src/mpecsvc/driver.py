"""Outer smoothing loop, post-processing, metrics, and diagnostics.

The smoothing loop solves the equality-constrained subproblem for a
geometrically shrinking eps schedule, warm-starting each solve from the
previous solution.  The schedule starts at eps0 = 1, halves (kappa = 0.5)
and includes the first value at or below eps_min, so the default
eps_min = 1e-6 yields exactly 21 subproblems.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import problem as pb
from .kkt import (KktOperator, KktPoint, SingularSystemError,
                  constraint_fold_solves)
from .newton import next_route, solve_subproblem
from .svc import solve_l1svc_dual, validation_error


@dataclass(frozen=True)
class OuterConfig:
    eps0: ClassVar[float] = 1.0    # first eps of the schedule
    kappa: ClassVar[float] = 0.5   # eps shrink factor per subproblem
    eps_min: float = 1e-6
    initial_C: float = 1.0

    def __post_init__(self):
        if not (self.eps0 >= self.eps_min > 0):
            raise ValueError("require eps0 >= eps_min > 0")
        if not 0 < self.initial_C < np.inf:
            raise ValueError("initial_C must be positive and finite")


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


@dataclass(frozen=True)
class SolveReport:
    """What run_smoothing computes: C and E_cv at the final point, one
    OuterRecord per subproblem, the final KktPoint and the run's wall time
    in ms.  C_hat, E_te and the diagnostics at the final point come from
    postprocess, test_error, assumption2_value and classify_index_sets."""

    C_raw: float
    E_cv: float
    outer_records: list
    final_point: KktPoint
    wall_ms: float

    @property
    def outer_iters(self):
        return len(self.outer_records)

    @property
    def inner_iters_total(self):
        return sum(rec.inner_iters for rec in self.outer_records)


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
    """Interior starting point at the schedule's first eps (eps0): C = C0,
    alpha at 0.5*min(1, C0) (inside its box 0 <= alpha <= C), zeta, z and
    xi at 0.5, lambda = 0."""
    if C0 <= 0:
        raise ValueError("C0 must be positive")
    v = np.full(p.m + 1, 0.5)
    v[0] = C0
    p.split_v(v)[3][:] = 0.5 * min(1.0, C0)       # alpha
    return KktPoint(v=v, lam=np.zeros(p.m), eps=OuterConfig.eps0)


def run_smoothing(p, ocfg, ncfg):
    """Algorithm: solve the eps-schedule of subproblems with warm starts.

    Returns the SolveReport, which carries the final KktPoint and the
    per-eps trace.  A failed subproblem is recorded and the loop continues
    from its last accepted iterate.

    newton.next_route picks every subproblem's start route from the one
    before it, and the first one's from ([], None).
    """
    t0 = time.perf_counter()
    r = initial_point(p, ocfg.initial_C)
    records = []
    trace, status = [], None
    for t, eps in enumerate(eps_schedule(ocfg)):
        # solving much below the eps^2/2 complementarity scale wastes work,
        # so the tolerance is relaxed while eps is large and floors at f_tol
        f_tol = max(ncfg.f_tol, 1e-2 * eps * eps)
        sub_cfg = replace(ncfg, f_tol=f_tol)
        route = next_route(trace, status)
        t1 = time.perf_counter()
        r, trace, status = solve_subproblem(p, eps, r, sub_cfg, route)
        wall_ms = 1000.0 * (time.perf_counter() - t1)
        op = KktOperator(p, r)
        normF = float(np.linalg.norm(op.residual()))
        gap = float(np.max(np.abs(op.G * op.H - 0.5 * eps * eps)))
        records.append(OuterRecord(
            t=t, eps=eps, f_tol=f_tol, status=status, normF=normF,
            inner_iters=len(trace), max_comp_gap=gap,
            min_G=float(op.G.min()), min_H=float(op.H.min()), trace=trace,
            wall_ms=wall_ms,
        ))
    return SolveReport(C_raw=float(r.v[0]), E_cv=cv_error(p, r.v),
                       outer_records=records, final_point=r,
                       wall_ms=1000.0 * (time.perf_counter() - t0))


def postprocess(C_raw, ds, plan):
    """Rescale the selected C_raw by T/(T-1) and retrain on the full cv set.

    Returns (C_hat, w) with w = sum_i alpha_i y_i x_i over the cv points.
    """
    C_hat = C_raw * plan.T / (plan.T - 1)
    rows = ds.signed_rows(plan.cv_indices).toarray()
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
    UG = U[1:]                                    # L^G U
    UH = pb.apply_LH(p, U)
    c = op.curvature
    A2_alt = float(UG @ (c.mG * UG) + UH @ (c.mH * UH) + 2.0 * UG @ (c.mGH * UH))
    return {"A2_paper": A2_paper, "A2_cone": A2_cone, "A2_cone_alt": A2_alt,
            "U": U}


def classify_index_sets(p, v):
    """Count I_{0+}, I_{+0}, I_{00} at v.

    G_i counts as zero when |G_i| <= 1e-6 * (1 + |G_i|), and H_i likewise.
    Returns the size of each set, by name.
    """
    G = pb.eval_G(p, v)
    H = pb.eval_H(p, v)
    g_zero = np.abs(G) <= 1e-6 * (1.0 + np.abs(G))
    h_zero = np.abs(H) <= 1e-6 * (1.0 + np.abs(H))
    return {"I_0+": int(np.count_nonzero(g_zero & ~h_zero)),
            "I_+0": int(np.count_nonzero(~g_zero & h_zero)),
            "I_00": int(np.count_nonzero(g_zero & h_zero))}

