"""Damped Newton iteration on F_eps(r) = 0 with Armijo backtracking.

Each step solves J_r F_eps(r) d = -F_eps(r), and no matrix is assembled.
BiCGStab is tried first on the matrix-free product KktOperator.kkt_apply;
when it misses its forcing target, the step is solved exactly by
kkt.fold_solve, which works from the fold structure: one 4x4 block per data
point, a rank-2n coupling per fold and a Schur complement on C.  After a
collapsed line search the subproblem switches to Levenberg-Marquardt
directions, the real part of the same fold solve with the complex shift
-i*||F||.  When no route yields a descent direction for the merit
g = 0.5*||F||^2, the step is steepest descent on g.  Each trace row
records the route its step took, the relative residual of the step in the
Newton system and the shift used, and the wall time of the step's two
phases, which rows ignore when compared.
The linear solvers' tolerances and budgets are the module constants below.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .kkt import KktOperator, KktPoint, SingularSystemError, fold_solve
from .krylov import KrylovConfig, bicgstab

LIN_RTOL = 1e-10   # floor of the BiCGStab forcing target
REG_MU = 1e-8      # least LM damping sqrt(mu)


@dataclass(frozen=True)
class NewtonConfig:
    sigma: float = 1e-4        # Armijo slope fraction, in (0, 1/2)
    rho: float = 0.5           # backtracking factor, in (0, 1)
    f_tol: float = 1e-8        # absolute tolerance on ||F||
    max_iters: int = 200
    max_backtracks: int = 40

    def __post_init__(self):
        if not (0.0 < self.sigma < 0.5):
            raise ValueError("sigma must lie in (0, 1/2)")
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (0, 1)")


@dataclass
class TraceRow:
    k: int
    normF: float
    step: float
    lin_iters: int
    backtracks: int
    route: str           # bicgstab | direct | lm | steepest
    lin_resid: float     # ||J d + F|| / ||F|| of the step d
    shift: float         # LM damping sigma on lm steps, else 0
    # wall time of the direction (with lin_resid) and of the line search
    direction_ms: float = field(default=0.0, compare=False)
    line_search_ms: float = field(default=0.0, compare=False)


@dataclass
class NewtonTrace:
    rows: list = field(default_factory=list)

    def append(self, **kw):
        self.rows.append(TraceRow(**kw))

    @property
    def norms(self):
        return [row.normF for row in self.rows]

    @property
    def total_lin_iters(self):
        return sum(row.lin_iters for row in self.rows)


class LineSearchError(RuntimeError):
    pass


def armijo_search(merit_fn, g0, grad_dot_d, cfg):
    """Smallest i with g(rho^i) <= g0 + sigma*rho^i*grad_dot_d; returns rho^i.

    `merit_fn(s)` evaluates the merit at step length s along the direction.
    """
    if grad_dot_d >= 0:
        raise ValueError("armijo_search requires a descent direction")
    s = 1.0
    for _ in range(cfg.max_backtracks + 1):
        if merit_fn(s) <= g0 + cfg.sigma * s * grad_dot_d:
            return s
        s *= cfg.rho
    raise LineSearchError("backtracking exhausted")


def lm_sigma(normF):
    """The LM damping sigma = sqrt(mu) for mu = ||F||^2, at least REG_MU."""
    return max(normF, REG_MU)


def _direction(op, F, lm=False):
    """Newton direction with damped and steepest-descent fallbacks.

    BiCGStab is tried first, capped at min(2*dim, 400) iterations, with the
    relative forcing target min(1e-2, 0.3*sqrt(||F||)), floored at LIN_RTOL.
    A target that shrinks like sqrt(||F||) gives an inexact
    Newton tail of order 3/2, ||F_{k+1}|| <= c ||F_k||^{3/2} with a constant
    c that depends on the problem and on the units of F (Dembo, Eisenstat
    & Steihaug, 1982); the cap at 1e-2 holds the target fixed while
    ||F|| > 1.1e-3.  Its operator is kkt_apply, the product that also gives
    the merit gradient, at every m.  BiCGStab's iterates depend on the
    rounding of every product, so the heart results are those of
    kkt_apply's products.  If its (true, recomputed) residual misses the
    target, the step is recomputed by kkt.fold_solve, an exact Newton step
    (order 2, again up to a constant) built from the fold structure: one
    4x4 block per data point, a rank-2n Woodbury term per fold and a 1x1
    Schur complement on C.  A singular system (a Schur complement that is
    zero to rounding, as at lambda = 0 where the Hessian vanishes) gives no
    direct step.

    With `lm=True` the exact solve is replaced by a Levenberg-Marquardt
    direction (J^2 + mu*I) d = -J F with mu = ||F||^2 (at least REG_MU^2),
    and BiCGStab is not tried.  The caller switches this on when the line
    search collapses: near a flat valley the Jacobian is nearly singular
    and the exact direction blows up along its null space, while the
    mu = ||F||^2 damping is known to keep quadratic local convergence
    under a local error bound without any nonsingularity (Yamashita &
    Fukushima, 2001).  J is real symmetric, so
    Re (J - i sqrt(mu) I)^{-1} = J (J^2 + mu*I)^{-1} and the step is
    d = Re fold_solve(op, -F, shift=-i sqrt(mu)): the same fold solve in
    complex arithmetic, without forming J^2.  The shifted system is
    nonsingular for every mu > 0 and d is a descent direction in exact
    arithmetic.  Every route falls back to steepest descent, d = -grad.

    Returns (d, grad, grad_dot_d, lin_iters, route) with route one of
    bicgstab, direct, lm or steepest.
    """
    grad = op.kkt_apply(F)          # merit gradient (J symmetric)
    norm_grad = float(np.linalg.norm(grad))
    normF = float(np.linalg.norm(F))
    target = max(LIN_RTOL, min(1e-2, 0.3 * np.sqrt(normF)))
    dim = F.shape[0]

    def is_descent(d, gd):
        return gd < -1e-12 * np.linalg.norm(d) * norm_grad

    lin_iters = 0
    if not lm:
        res = bicgstab(op.kkt_apply, -F, cfg=KrylovConfig(
            rel_tol=target, max_iters=min(2 * dim, 400)))
        lin_iters = res.iterations
        d = res.x
        gd = float(np.dot(grad, d))
        if res.residual_norm <= target * normF and is_descent(d, gd):
            return d, grad, gd, lin_iters, "bicgstab"

    shift = -1j * lm_sigma(normF) if lm else 0.0
    try:
        d = fold_solve(op, -F, shift=shift).real
        lin_iters += 1
        gd = float(np.dot(grad, d))
        if np.all(np.isfinite(d)) and is_descent(d, gd):
            return d, grad, gd, lin_iters, "lm" if lm else "direct"
    except SingularSystemError:
        pass
    d = -grad
    return d, grad, float(np.dot(grad, d)), lin_iters, "steepest"


def solve_subproblem(p, eps, r0, cfg=None):
    """Run the damped Newton method on F_eps = 0 from r0.

    Returns (KktPoint, NewtonTrace, status) with status in
    {converged, max_iters, line_search_failure}.
    """
    cfg = cfg or NewtonConfig()
    r = KktPoint(v=np.asarray(r0.v, dtype=float).copy(),
                 lam=np.asarray(r0.lam, dtype=float).copy(), eps=eps)
    trace = NewtonTrace()

    op = KktOperator(p, r)
    F = op.residual()
    normF = float(np.linalg.norm(F))
    status = "max_iters"
    lm = False
    stagnant = 0
    for k in range(cfg.max_iters):
        if normF <= cfg.f_tol:
            status = "converged"
            break
        # a string of accepted steps with vanishing merit decrease means the
        # iterate is numerically merit-stationary (the residual has a component
        # outside the Jacobian range, e.g. on a flat stretch of the smoothed
        # problem); no line search can progress from there, so stop early
        if stagnant >= 5:
            status = "line_search_failure"
            break
        t0 = time.perf_counter()
        d, grad, gd, lin_iters, route = _direction(op, F, lm)
        step_info = dict(
            lin_iters=lin_iters, route=route,
            lin_resid=float(np.linalg.norm(op.kkt_apply(d) + F)) / normF,
            shift=lm_sigma(normF) if route == "lm" else 0.0)
        t1 = time.perf_counter()
        step_info["direction_ms"] = 1000.0 * (t1 - t0)
        nv = p.m + 1
        dv, dl = d[:nv], d[nv:]
        g0 = 0.5 * normF * normF

        cache = {}

        def merit_at(s):
            trial = KktPoint(v=r.v + s * dv, lam=r.lam + s * dl, eps=eps)
            trial_op = KktOperator(p, trial)
            Ft = trial_op.residual()
            cache[s] = (trial, trial_op, Ft)
            return 0.5 * float(np.dot(Ft, Ft))

        try:
            s = armijo_search(merit_at, g0, gd, cfg)
        except LineSearchError:
            s = None
        step_info["line_search_ms"] = 1000.0 * (time.perf_counter() - t1)
        if s is None:
            status = "line_search_failure"
            trace.append(k=k, normF=normF, step=0.0,
                         backtracks=cfg.max_backtracks, **step_info)
            break
        backtracks = int(round(np.log(s) / np.log(cfg.rho))) if s < 1.0 else 0
        r, op, F = cache[s]
        prev_normF = normF
        normF = float(np.linalg.norm(F))
        stagnant = stagnant + 1 if normF > (1.0 - 1e-3) * prev_normF else 0
        # a collapsed step means the exact direction is exploding along a
        # near-null space of the Jacobian; switch to the damped direction
        # for the rest of this subproblem (it self-tunes as mu = ||F||^2)
        if backtracks >= 4:
            lm = True
        trace.append(k=k, normF=normF, step=s, backtracks=backtracks,
                     **step_info)
    else:
        if normF <= cfg.f_tol:
            status = "converged"
    return r, trace, status
