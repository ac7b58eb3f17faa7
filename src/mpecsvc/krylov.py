"""BiCGStab for arbitrary linear-operator applies (van der Vorst's recursion).

Deterministic by construction: the shadow residual is fixed to the initial
residual.  Breakdown never raises; the iterate the recursion stopped at is
returned, with its true residual and a status the caller can act on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BREAKDOWN_EPS = 1e-30
STALL_ITERS = 150       # bail out if the best residual stops improving


@dataclass
class KrylovResult:
    """The iterate bicgstab stopped at and its true residual."""
    x: np.ndarray
    residual_norm: float   # true residual ||apply(x) - rhs||, recomputed
    iterations: int
    status: str            # converged | max_iters | breakdown | stalled


def _norm(x):
    """||x||_2 by np.linalg.norm's formula for a real vector, sqrt(x . x)."""
    return math.sqrt(np.dot(x, x))


def bicgstab(apply, rhs, rel_tol, max_iters):
    """Solve apply(x) = rhs from x = 0, with r = rhs, to the residual target
    rel_tol*||rhs|| alone in at most max_iters iterations, and return the
    iterate it stopped at, with its true residual and why it stopped.

    apply runs in the iterations and once on the x returned, for its true
    residual, and must return a new array, or its argument: the recursion
    keeps v across the call that gives t.
    """
    if not (rel_tol > 0):
        raise ValueError("rel_tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    x = np.zeros(n)

    norm_b = _norm(rhs)
    target = rel_tol * norm_b

    r = r_hat = rhs
    if norm_b <= target:
        return KrylovResult(x=x, residual_norm=norm_b, iterations=0,
                            status="converged")

    rho = alpha = omega = 1.0
    vv = pp = np.zeros(n)
    status = "max_iters"
    best_norm, since_improved = norm_b, 0
    for k in range(1, max_iters + 1):
        if since_improved >= STALL_ITERS:
            status = "stalled"
            break
        rho_new = float(np.dot(r_hat, r))
        if abs(rho_new) < BREAKDOWN_EPS:
            status = "breakdown"
            break
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        pp = r + beta * (pp - omega * vv)
        vv = apply(pp)
        denom = float(np.dot(r_hat, vv))
        if abs(denom) < BREAKDOWN_EPS:
            status = "breakdown"
            break
        alpha = rho / denom
        s = r - alpha * vv
        norm_s = _norm(s)
        if norm_s <= target:
            x = x + alpha * pp
            status = "converged"
            break
        t = apply(s)
        tt = float(np.dot(t, t))
        if tt < BREAKDOWN_EPS:
            status = "breakdown"
            break
        omega = float(np.dot(t, s)) / tt
        if abs(omega) < BREAKDOWN_EPS:
            status = "breakdown"
            break
        x = x + alpha * pp + omega * s
        r = s - omega * t
        norm_r = _norm(r)
        if norm_r < 0.999 * best_norm:
            since_improved = 0
        else:
            since_improved += 1
        best_norm = min(best_norm, norm_r)
        if norm_r <= target:
            status = "converged"
            break

    true_res = _norm(apply(x) - rhs)
    return KrylovResult(x=x, residual_norm=true_res, iterations=k, status=status)
