"""BiCGStab for arbitrary linear-operator applies (van der Vorst's recursion).

Deterministic by construction: the shadow residual is fixed to the initial
residual.  Breakdown never raises; the best iterate seen is returned with a
status the caller can act on.

The iterate, the residuals and the search direction are updated in place,
in preallocated vectors, the best iterate seen is copied into one, and the
norms are np.linalg.norm's formula for a real vector, sqrt(x . x): every
value is rounded as in the textbook expressions written in the comments,
so the iterates are bit for bit theirs, with no temporary vector per
update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BREAKDOWN_EPS = 1e-30
STALL_ITERS = 150       # bail out if the best residual stops improving


@dataclass(frozen=True)
class KrylovConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_iters: int | None = None   # defaults to 10 * dimension

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol < 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class KrylovResult:
    x: np.ndarray
    residual_norm: float   # true residual ||apply(x) - rhs||, recomputed
    iterations: int
    status: str            # converged | max_iters | breakdown | stalled | degraded


def _norm(x):
    """||x||_2 by np.linalg.norm's formula for a real vector, sqrt(x . x)."""
    return math.sqrt(np.dot(x, x))


def bicgstab(apply, rhs, x0=None, cfg=None):
    """Solve apply(x) = rhs.

    apply may return its argument, but not an array that a later call
    overwrites: the recursion keeps v across the call that gives t.
    """
    cfg = cfg or KrylovConfig()
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    max_iters = cfg.max_iters if cfg.max_iters is not None else 10 * n

    norm_b = _norm(rhs)
    target = max(cfg.rel_tol * norm_b, cfg.abs_tol)

    r = rhs - apply(x)
    r_hat = r.copy()
    norm_r = _norm(r)
    best_x, best_norm = x.copy(), norm_r
    if norm_r <= target:
        return KrylovResult(x=x, residual_norm=norm_r, iterations=0,
                            status="converged")

    rho = alpha = omega = 1.0
    vv = np.zeros(n)
    pp = np.zeros(n)
    s = np.empty(n)
    tmp = np.empty(n)
    status = "max_iters"
    k = 0
    since_improved = 0
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
        # pp = r + beta * (pp - omega * vv)
        pp -= np.multiply(omega, vv, out=tmp)
        np.add(r, np.multiply(beta, pp, out=pp), out=pp)
        vv = apply(pp)
        denom = float(np.dot(r_hat, vv))
        if abs(denom) < BREAKDOWN_EPS:
            status = "breakdown"
            break
        alpha = rho / denom
        np.subtract(r, np.multiply(alpha, vv, out=s), out=s)
        norm_s = _norm(s)
        if norm_s <= target:
            x += np.multiply(alpha, pp, out=tmp)
            norm_r = norm_s
            if norm_r < best_norm:
                np.copyto(best_x, x)
                best_norm = norm_r
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
        # x = x + alpha * pp + omega * s;  r = s - omega * t
        x += np.multiply(alpha, pp, out=tmp)
        x += np.multiply(omega, s, out=tmp)
        np.subtract(s, np.multiply(omega, t, out=tmp), out=r)
        norm_r = _norm(r)
        if norm_r < 0.999 * best_norm:
            since_improved = 0
        else:
            since_improved += 1
        if norm_r < best_norm:
            np.copyto(best_x, x)
            best_norm = norm_r
        if norm_r <= target:
            status = "converged"
            break

    if status != "converged":
        x = best_x
    true_res = _norm(apply(x) - rhs)
    if status == "converged" and true_res > max(target, 1e-8 * norm_b):
        # recursive residual drifted away from the true one
        status = "degraded"
    return KrylovResult(x=x, residual_norm=true_res, iterations=k, status=status)
