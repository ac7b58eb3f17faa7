"""Damped Newton iteration on F_eps(r) = 0 with Armijo backtracking.

Each step solves J_r F_eps(r) d = -F_eps(r).  BiCGStab on the assembled
sparse matrix is tried first; when it misses its forcing target, the step is
solved exactly by kkt.fold_solve, one dense factorization per fold closed by
a Schur complement on C.  After a collapsed line search the subproblem
switches to Levenberg-Marquardt directions, solved the same way on the
augmented system.  Instances too large to assemble use restarted MINRES with
a J + mu*I shift ladder.  When no route yields a descent direction for the
merit g = 0.5*||F||^2, the step is steepest descent on g.  Each trace row
records the route its step took.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .kkt import KktOperator, KktPoint, SingularSystemError, fold_solve
from .krylov import KrylovConfig, bicgstab


@dataclass(frozen=True)
class NewtonConfig:
    sigma: float = 1e-4        # Armijo slope fraction, in (0, 1/2)
    rho: float = 0.5           # backtracking factor, in (0, 1)
    f_tol: float = 1e-8        # absolute tolerance on ||F||
    max_iters: int = 200
    max_backtracks: int = 40
    reg_mu: float = 1e-8       # initial shift for the regularized retry
    krylov: KrylovConfig | None = None

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
    route: str           # bicgstab | direct | lm | minres | steepest


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


def _direction(op, F, cfg, lm=False):
    """Newton direction with damped and steepest-descent fallbacks.

    BiCGStab is tried first with a small iteration budget and the relative
    forcing target min(1e-2, 0.3*sqrt(||F||)), floored at the Krylov
    rel_tol.  A target that shrinks like sqrt(||F||) gives an inexact
    Newton tail of order 3/2, ||F_{k+1}|| <= c ||F_k||^{3/2} with a constant
    c that depends on the problem and on the units of F (Dembo, Eisenstat
    & Steihaug, 1982); the cap at 1e-2 holds the target fixed while
    ||F|| > 1.1e-3.  If its (true, recomputed) residual misses the target,
    the step is recomputed from the assembled sparse system by a direct
    solve, an exact Newton step (order 2, again up to a constant).  The
    direct solve is kkt.fold_solve: the system is block diagonal over the
    folds apart from the border {C}, so it takes one dense LU factorization
    per fold and a 1x1 Schur complement on C.  A singular system (an exactly
    zero fold pivot, or a Schur complement that is zero to rounding, as at
    lambda = 0 where the Hessian vanishes) gives no direct step.  For
    instances too large to assemble, restarted MINRES with true-residual
    checks stands in (MINRES's recursive residual estimate drifts badly
    here), backed by a J + mu*I ladder (mu = reg_mu, then x100 up to 1e-2)
    when the direction is not descent.

    With `lm=True` the exact solve is replaced by a Levenberg-Marquardt
    direction (J^2 + mu*I) d = -J F with mu = ||F||^2.  The caller switches
    this on when the line search collapses: near a flat valley the Jacobian
    is nearly singular and the exact direction blows up along its null
    space, while the mu = ||F||^2 damping is known to keep quadratic local
    convergence under a local error bound without any nonsingularity.  The
    solve runs through the augmented form [[I, J], [J, -mu*I]], which avoids
    forming J^2, again fold by fold with a 2x2 Schur complement on the two
    copies of C; mu grows by x100 (up to 1e4) while the direction is not
    descent.  Every route falls back to steepest descent, d = -grad.

    Returns (d, grad, grad_dot_d, lin_iters, route) with route one of
    bicgstab, direct, lm, minres or steepest.
    """
    try:
        K = op.materialize_kkt()
    except ValueError:
        K = None
    apply = op.kkt_apply if K is None else (lambda x: K @ x)
    grad = apply(F)                 # merit gradient (J symmetric)
    norm_grad = float(np.linalg.norm(grad))
    kcfg = cfg.krylov or KrylovConfig()
    normF = float(np.linalg.norm(F))
    target = max(kcfg.rel_tol, min(1e-2, 0.3 * np.sqrt(normF)))
    budget = kcfg.max_iters if kcfg.max_iters is not None else 2 * F.shape[0]

    def is_descent(d, gd):
        return gd < -1e-12 * np.linalg.norm(d) * norm_grad

    dim = F.shape[0]
    folds, border = op.p.fold_index

    lin_iters = 0
    if not lm:
        res = bicgstab(apply, -F,
                       cfg=replace(kcfg, rel_tol=target,
                                   max_iters=min(budget, 400)))
        lin_iters = res.iterations
        d = res.x
        gd = float(np.dot(grad, d))
        if res.residual_norm <= target * normF and is_descent(d, gd):
            return d, grad, gd, lin_iters, "bicgstab"

    if K is not None and lm:
        rhs = np.concatenate([-F, np.zeros(dim)])
        mu = max(normF * normF, cfg.reg_mu * cfg.reg_mu)
        while mu <= 1e4:
            try:
                d = fold_solve(K, rhs, folds, border, shift=mu)[dim:]
                lin_iters += 1
                gd = float(np.dot(grad, d))
                if np.all(np.isfinite(d)) and is_descent(d, gd):
                    return d, grad, gd, lin_iters, "lm"
            except SingularSystemError:
                pass
            mu *= 100.0
    elif K is not None:
        try:
            d = fold_solve(K, -F, folds, border)
            lin_iters += 1
            gd = float(np.dot(grad, d))
            if np.all(np.isfinite(d)) and is_descent(d, gd):
                return d, grad, gd, lin_iters, "direct"
        except SingularSystemError:
            pass
    else:
        import scipy.sparse.linalg as spla
        mu = 0.0
        while True:
            def matvec(x, _m=mu):
                y = op.kkt_apply(x)
                return y if _m == 0.0 else y + _m * x

            lin_op = spla.LinearOperator((dim, dim), matvec=matvec)
            d = np.zeros(dim)
            rel = prev_rel = np.inf
            for _ in range(4):
                rr = -F - matvec(d)
                counter = [0]
                dx, _ = spla.minres(
                    lin_op, rr, rtol=1e-5, maxiter=budget,
                    callback=lambda _x: counter.__setitem__(0, counter[0] + 1))
                lin_iters += counter[0]
                d += dx
                rel = float(np.linalg.norm(matvec(d) + F)) / normF
                if rel <= target or rel > 0.5 * prev_rel:
                    break
                prev_rel = rel
            gd = float(np.dot(grad, d))
            if np.all(np.isfinite(d)) and is_descent(d, gd):
                return d, grad, gd, lin_iters, "minres"
            mu = cfg.reg_mu if mu == 0.0 else mu * 100.0
            if mu > 1e-2:
                break
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
        d, grad, gd, lin_iters, route = _direction(op, F, cfg, lm)
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
            status = "line_search_failure"
            trace.append(k=k, normF=normF, step=0.0,
                         lin_iters=lin_iters, backtracks=cfg.max_backtracks,
                         route=route)
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
        trace.append(k=k, normF=normF, step=s,
                     lin_iters=lin_iters, backtracks=backtracks, route=route)
    else:
        if normF <= cfg.f_tol:
            status = "converged"
    return r, trace, status
