"""Damped Newton iteration on F_eps(r) = 0 with Armijo backtracking.

Each step solves J_r F_eps(r) d = -F_eps(r), and no matrix is assembled.
A subproblem's steps take one of three routes, and its route only moves
forward from the one it starts on.  next_route alone picks it, from the
subproblem before, or from ([], None) for the first.  On BiCGStab, each step
runs on the matrix-free product KktOperator.kkt_apply.  The first time
BiCGStab misses its forcing target, that step and the rest of the subproblem
are solved exactly by kkt.fold_solve, which works from the fold structure:
one 4x4 block per data point, a rank-2n coupling per fold and a Schur
complement on C.  After a collapsed line search the rest of the subproblem
takes Levenberg-Marquardt directions, the real part of the same fold solve
with the complex shift -i*||F||.  When the fold solve is singular or gives
no descent direction for the merit g = 0.5*||F||^2, no step is taken and the
subproblem ends with the status no_descent.  A subproblem's trace is a list
with one TraceRow per step: the route the step took, the relative residual
of the step in the Newton system, the shift used, the backtracks of its line
search, and the wall time of the step's two phases, which rows ignore when
compared.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .kkt import KktOperator, KktPoint, SingularSystemError, fold_solve
from .krylov import bicgstab


MAX_BACKTRACKS = 40       # an Armijo search tries at most 1 + this many steps


@dataclass(frozen=True)
class NewtonConfig:
    """Settings of the damped Newton method.

    Each field has a `solve` flag; the Armijo constants are fixed.
    """

    sigma: ClassVar[float] = 1e-4  # Armijo slope fraction
    rho: ClassVar[float] = 0.5     # backtracking factor
    f_tol: float = 1e-8        # absolute tolerance on ||F||
    max_iters: int = 200       # Newton steps per subproblem

    def __post_init__(self):
        if not 0.0 < self.f_tol < np.inf:
            raise ValueError("f_tol must be positive and finite")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")


@dataclass
class TraceRow:
    k: int
    normF: float
    step: float
    lin_iters: int
    backtracks: int
    route: str           # bicgstab | direct | lm
    lin_resid: float     # ||J d + F|| / ||F|| of the step d
    shift: float         # LM damping sigma = ||F|| on lm steps, else 0
    # wall time of the direction (with lin_resid) and of the line search
    direction_ms: float = field(default=0.0, compare=False)
    line_search_ms: float = field(default=0.0, compare=False)


class LineSearchError(RuntimeError):
    pass


class NoDescentError(RuntimeError):
    """The fold solve gave no finite descent direction for the merit."""


def armijo_search(merit_fn, g0, grad_dot_d, cfg):
    """Smallest i with g(rho^i) <= g0 + sigma*rho^i*grad_dot_d; returns rho^i.

    `merit_fn(s)` evaluates the merit at step length s along the direction.
    Raises LineSearchError when no i <= MAX_BACKTRACKS qualifies.
    """
    if grad_dot_d >= 0:
        raise ValueError("armijo_search requires a descent direction")
    s = 1.0
    for _ in range(MAX_BACKTRACKS + 1):
        if merit_fn(s) <= g0 + cfg.sigma * s * grad_dot_d:
            return s
        s *= cfg.rho
    raise LineSearchError("backtracking exhausted")


def _direction(op, F, route):
    """Newton direction by `route`: bicgstab, direct or lm.

    On the bicgstab route BiCGStab is tried first, capped at
    min(2*dim, 400) iterations, with the relative forcing target
    min(1e-2, 0.3*sqrt(||F||)).  A target that shrinks like sqrt(||F||)
    gives an inexact Newton tail of order 3/2, ||F_{k+1}|| <= c ||F_k||^{3/2}
    with a constant c that depends on the problem and on the units of F
    (Dembo, Eisenstat & Steihaug, 1982); the cap at 1e-2 holds the target
    fixed while ||F|| > 1.1e-3.  Its operator is kkt_apply, the product that
    also gives the merit gradient, at every m.  BiCGStab's iterates depend on
    the rounding of every product, so the heart results are those of
    kkt_apply's products.  If its (true, recomputed) residual misses the
    target, or its step is no descent direction, the step is recomputed as
    on the direct route.  The caller asks for BiCGStab only until it has
    missed once: solve_subproblem goes direct for the rest of the
    subproblem, and next_route starts the next subproblem direct too when
    this one converges.

    The direct route is kkt.fold_solve, an exact Newton step (order 2,
    again up to a constant) built from the fold structure: one 4x4 block per
    data point, a rank-2n Woodbury term per fold and a 1x1 Schur complement
    on C.  A singular system (a Schur complement that is zero to rounding,
    as at lambda = 0 where the Hessian vanishes) gives no direct step.

    The lm route is a Levenberg-Marquardt direction (J^2 + mu*I) d = -J F
    with mu = ||F||^2.  The caller takes it after a collapsed line search:
    near a flat valley the Jacobian is nearly singular and the exact
    direction blows up along its null space, while the mu = ||F||^2 damping
    is known to keep quadratic local convergence under a local error bound
    without any nonsingularity (Yamashita & Fukushima, 2001).  J is real
    symmetric, so Re (J - i sqrt(mu) I)^{-1} = J (J^2 + mu*I)^{-1} and the
    step is d = Re fold_solve(op, -F, shift=-i ||F||): the same fold solve
    in complex arithmetic, without forming J^2.  The shifted system is
    nonsingular whenever F != 0 (the driver steps only while
    ||F|| > f_tol > 0), and d is a descent direction in exact arithmetic.

    Returns (d, grad, grad_dot_d, lin_iters, route, lin_resid), where
    route is the one the step took: direct when BiCGStab missed, else the
    route asked for.  lin_iters counts BiCGStab's iterations plus one for a
    fold solve.  lin_resid is ||J d + F|| / ||F||: BiCGStab's own true
    residual ||apply(d) - (-F)||, the same norm of the same vector (a - (-b)
    is a + b in floating point), or for a fold solve one more product.
    Raises NoDescentError when the fold solve is singular or its d is not
    finite or not a descent direction.
    """
    grad = op.kkt_apply(F)          # merit gradient (J symmetric)
    norm_grad = float(np.linalg.norm(grad))
    normF = float(np.linalg.norm(F))
    target = min(1e-2, 0.3 * np.sqrt(normF))
    dim = F.shape[0]

    def is_descent(d, gd):
        return gd < -1e-12 * np.linalg.norm(d) * norm_grad

    lin_iters = 0
    if route == "bicgstab":
        res = bicgstab(op.kkt_apply, -F, rel_tol=target,
                       max_iters=min(2 * dim, 400))
        lin_iters = res.iterations
        d = res.x
        gd = float(np.dot(grad, d))
        if res.residual_norm <= target * normF and is_descent(d, gd):
            return (d, grad, gd, lin_iters, "bicgstab",
                    res.residual_norm / normF)
        route = "direct"

    shift = -1j * normF if route == "lm" else 0.0
    try:
        d = fold_solve(op, -F, shift=shift).real
    except SingularSystemError as exc:
        raise NoDescentError(str(exc)) from exc
    gd = float(np.dot(grad, d))
    if not (np.all(np.isfinite(d)) and is_descent(d, gd)):
        raise NoDescentError("the fold solve gave no descent direction")
    lin_resid = float(np.linalg.norm(op.kkt_apply(d) + F)) / normF
    return d, grad, gd, lin_iters + 1, route, lin_resid


def next_route(trace, status):
    """The route the next subproblem's first step starts on, given this
    subproblem's trace and status: direct when it converged and its first
    step was not a BiCGStab step (BiCGStab missed there, or the subproblem
    started direct), else bicgstab.  Before the first subproblem there is
    no trace, and next_route([], None) is bicgstab.

    A converged subproblem hands on a point on the path at a smaller eps,
    where the system is worse conditioned and the forcing target tighter,
    so a BiCGStab that missed here would miss again.  A failed subproblem
    hands on a point off the path, so the next one tries BiCGStab again.
    """
    if status == "converged" and trace and trace[0].route != "bicgstab":
        return "direct"
    return "bicgstab"


def solve_subproblem(p, eps, r0, cfg, route):
    """Run the damped Newton method on F_eps = 0 from r0.

    The first step starts on `route`, bicgstab or direct, the one next_route
    picks (anything else raises ValueError), and the route only moves
    forward from there: to direct after BiCGStab's first miss, and to lm
    after a collapsed line search.
    Returns (KktPoint, trace, status): trace is a list with one TraceRow per
    step, and status is one of
      converged            ||F|| <= cfg.f_tol;
      max_iters            cfg.max_iters steps taken;
      line_search_failure  the Armijo search exhausted its backtracks (the
                           failed step is the last trace row);
      stagnated            five accepted steps in a row each cut ||F|| by
                           less than 0.1%;
      no_descent           _direction found no descent direction (no row
                           is written, as no step was taken).
    The point returned is the last accepted iterate, held by its operator
    alone (KktOperator copies its point, so r0 is left as it was).
    """
    if route not in ("bicgstab", "direct"):
        raise ValueError(f"unknown route {route!r}")
    trace = []
    op = KktOperator(p, KktPoint(v=r0.v, lam=r0.lam, eps=eps))
    F = op.residual()
    normF = float(np.linalg.norm(F))
    stagnant = 0
    for k in range(cfg.max_iters + 1):
        if normF <= cfg.f_tol:
            status = "converged"
            break
        if k == cfg.max_iters:
            status = "max_iters"
            break
        # a string of accepted steps with vanishing merit decrease means the
        # iterate is numerically merit-stationary (the residual has a component
        # outside the Jacobian range, e.g. on a flat stretch of the smoothed
        # problem); no line search can progress from there, so stop early
        if stagnant >= 5:
            status = "stagnated"
            break
        t0 = time.perf_counter()
        try:
            d, grad, gd, lin_iters, route, lin_resid = _direction(op, F,
                                                                  route)
        except NoDescentError:
            status = "no_descent"
            break
        t1 = time.perf_counter()
        nv = p.m + 1
        dv, dl = d[:nv], d[nv:]
        # the search keeps a count and its latest trial, the one it accepts
        n_trials, trial = 0, None

        def merit_at(s):
            nonlocal n_trials, trial
            trial_op = KktOperator(p, KktPoint(v=op.v + s * dv,
                                               lam=op.lam + s * dl, eps=eps))
            Ft = trial_op.residual()
            n_trials, trial = n_trials + 1, (trial_op, Ft)
            return 0.5 * float(np.dot(Ft, Ft))

        try:
            s = armijo_search(merit_at, 0.5 * normF * normF, gd, cfg)
        except LineSearchError:
            s = None
        t2 = time.perf_counter()
        backtracks = n_trials - 1
        prev_normF = normF
        if s is not None:
            op, F = trial             # armijo_search accepts its last trial
            normF = float(np.linalg.norm(F))
        trace.append(TraceRow(
            k=k, normF=normF, step=0.0 if s is None else s,
            lin_iters=lin_iters, backtracks=backtracks, route=route,
            lin_resid=lin_resid, shift=prev_normF if route == "lm" else 0.0,
            direction_ms=1000.0 * (t1 - t0),
            line_search_ms=1000.0 * (t2 - t1)))
        if s is None:
            status = "line_search_failure"
            break
        stagnant = stagnant + 1 if normF > (1.0 - 1e-3) * prev_normF else 0
        # the route only moves forward within a subproblem: a BiCGStab miss
        # shows the system too ill-conditioned for the inexact solve, so the
        # step above came back direct and the rest stay direct; a collapsed
        # step means the exact direction is exploding along a near-null
        # space of the Jacobian, so the rest take the damped direction (it
        # self-tunes as mu = ||F||^2)
        if backtracks >= 4:
            route = "lm"
    return KktPoint(v=op.v, lam=op.lam, eps=eps), trace, status
