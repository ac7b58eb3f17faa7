"""Smoothed KKT residual, merit function, and matrix-free Jacobian/Hessian.

The unknown is r = (v, lambda) of length 2m+1.  With the Lagrangian
L_eps(v, lam) = f(v) - lam^T Phi_eps(G(v), H(v)), the residual is

    F_eps(r) = [ grad_v L_eps(v, lam) ; -Phi_eps(G(v), H(v)) ],

and its Jacobian

    J_r F_eps = [ hess_vv L_eps   -(J_v Phi)^T ]
                [ -J_v Phi              0      ]

is symmetric, so the merit gradient of g = 0.5*||F||^2 is J_r F applied to F.
All applications are matrix-free through the L^G/L^H maps of the problem
module; nothing denser than the data matrices is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import problem as pb
from .krylov import KrylovConfig, bicgstab
from .smoothing import fb_curvature, fb_value, fb_weights


@dataclass
class KktPoint:
    """r = (v, lambda) with the smoothing parameter as context."""

    v: np.ndarray        # length m+1
    lam: np.ndarray      # length m
    eps: float

    def to_vector(self):
        return np.concatenate([self.v, self.lam])

    @classmethod
    def from_vector(cls, p, r, eps):
        r = np.asarray(r, dtype=float)
        return cls(v=r[:p.m + 1].copy(), lam=r[p.m + 1:].copy(), eps=eps)

    def copy(self):
        return KktPoint(v=self.v.copy(), lam=self.lam.copy(), eps=self.eps)


class KktOperator:
    """Linearization of F_eps at a fixed point; caches weights and curvature.

    The point is copied at construction, so the caches cannot go stale.
    """

    def __init__(self, p, point):
        self.p = p
        self.v = np.asarray(point.v, dtype=float).copy()
        self.lam = np.asarray(point.lam, dtype=float).copy()
        self.eps = float(point.eps)
        if self.eps <= 0:
            raise ValueError("KktOperator requires eps > 0")
        self.G = pb.eval_G(p, self.v)
        self.H = pb.eval_H(p, self.v)
        self.weights = fb_weights(self.G, self.H, self.eps)
        self._curv = None

    @property
    def curvature(self):
        if self._curv is None:
            self._curv = fb_curvature(self.G, self.H, self.lam, self.eps,
                                      denom=self.weights.denom)
        return self._curv

    def phi(self):
        return fb_value(self.G, self.H, self.eps)

    def residual(self):
        grad_v = self.p.obj_grad - self.jac_t_apply(self.lam)
        return np.concatenate([grad_v, -self.phi()])

    def jac_apply(self, d):
        """J_v Phi applied to d: W^G (L^G d) + W^H (L^H d)."""
        d = np.asarray(d, dtype=float)
        if d.shape != (self.p.m + 1,):
            raise ValueError(f"expected length {self.p.m + 1}, got {d.shape}")
        w = self.weights
        return w.wG * pb.apply_LG(self.p, d) + w.wH * pb.apply_LH(self.p, d)

    def jac_t_apply(self, y):
        """(J_v Phi)^T applied to y of length m."""
        y = np.asarray(y, dtype=float)
        w = self.weights
        return (pb.apply_LG_T(self.p, w.wG * y)
                + pb.apply_LH_T(self.p, w.wH * y))

    def hess_apply(self, d):
        """hess_vv L_eps applied to d (four structured products, symmetric)."""
        d = np.asarray(d, dtype=float)
        c = self.curvature
        u = pb.apply_LG(self.p, d)
        w = pb.apply_LH(self.p, d)
        return (pb.apply_LG_T(self.p, c.mG * u + c.mGH * w)
                + pb.apply_LH_T(self.p, c.mH * w + c.mGH * u))

    def kkt_apply(self, d):
        """J_r F_eps applied to d of length 2m+1 (symmetric indefinite)."""
        d = np.asarray(d, dtype=float)
        nv = self.p.m + 1
        if d.shape != (nv + self.p.m,):
            raise ValueError(f"expected length {nv + self.p.m}, got {d.shape}")
        dv, dl = d[:nv], d[nv:]
        return np.concatenate([
            self.hess_apply(dv) - self.jac_t_apply(dl),
            -self.jac_apply(dv),
        ])

    def materialize_kkt(self, max_m=4000):
        """Assembled sparse J_r F_eps (same operator as kkt_apply).

        One CSR matvec replaces the ~10 structured products of kkt_apply,
        which pays off inside Krylov loops; the assembly itself is a few
        sparse products per Newton iterate.  Guarded by max_m like L^H.
        """
        import scipy.sparse as sp
        LG = pb.materialize_LG(self.p)
        LH = pb.materialize_LH(self.p, max_m=max_m)
        w, c = self.weights, self.curvature
        J = sp.diags(w.wG) @ LG + sp.diags(w.wH) @ LH
        cross = LG.T @ sp.diags(c.mGH) @ LH
        hess = (LG.T @ sp.diags(c.mG) @ LG + LH.T @ sp.diags(c.mH) @ LH
                + cross + cross.T)
        return sp.bmat([[hess, -J.T], [-J, None]], format="csr")

    def materialize_jacobian(self, max_m=2000):
        """Explicit sparse-backed dense J_v Phi (small-instance diagnostics)."""
        if self.p.m > max_m:
            raise ValueError(f"refusing to materialize for m={self.p.m} > {max_m}")
        import scipy.sparse as sp
        w = self.weights
        LG = pb.materialize_LG(self.p)
        LH = pb.materialize_LH(self.p)
        return (sp.diags(w.wG) @ LG + sp.diags(w.wH) @ LH).toarray()


class SingularSystemError(RuntimeError):
    """A direct solve met a singular system (see fold_solve)."""


def fold_solve(K, rhs, folds, border, shift=None):
    """Solve a fold-bordered system by per-fold dense factors.

    K is J_r F_eps as assembled by materialize_kkt; its entries couple two
    folds only through the border (MpecProblem.fold_index gives the sets).
    Without `shift` the system is K x = rhs.  With it, the system is the
    Levenberg-Marquardt augmented form [[I, K], [K, -shift*I]] (u; x) = rhs
    of twice the dimension, whose folds and border are the same index sets
    taken in both halves.

    Each fold's dense diagonal block M_t is LU-factored (LAPACK getrf) and
    solved for the fold's right-hand side together with its border columns
    E_t.  With R_t the border rows of fold t, the border is closed by the
    dense Schur complement S = M_bb - sum_t R_t M_t^{-1} E_t and the folds
    are back-substituted.  One fold block is held at a time.

    Raises SingularSystemError when a fold factor has an exactly zero pivot
    or S is zero to within the rounding error of its own computation,
    sigma_min(S) <= eps_mach * kappa * ||M_bb| + sum_t |R_t| |M_t^{-1} E_t||
    (Frobenius norm) with kappa the largest condition number of the fold
    blocks as LAPACK gecon estimates it, or is not finite.
    """
    from scipy.linalg.lapack import dgecon, dgetrf, dgetrs

    K = K.tocsr()
    n = K.shape[0]

    def dense(Kb, rows, cols):
        """The system's rows x cols block from K's, Fortran-ordered."""
        Kb = Kb.toarray(order="F")
        if shift is None:
            return Kb
        eye = np.equal.outer(rows, cols)
        out = np.empty((2 * len(rows), 2 * len(cols)), order="F")
        out[:len(rows), :len(cols)] = eye
        out[:len(rows), len(cols):] = Kb
        out[len(rows):, :len(cols)] = Kb
        out[len(rows):, len(cols):] = -shift * eye
        return out

    def pos(idx):
        return idx if shift is None else np.concatenate([idx, n + idx])

    rhs = np.asarray(rhs, dtype=float)
    K_border = K[border]
    S = dense(K_border[:, border], border, border)
    S_scale = np.abs(S)
    r_border = rhs[pos(border)]
    kappa = 1.0
    solved = []
    for idx in folds:
        K_fold = K[idx]
        M = dense(K_fold[:, idx], idx, idx)
        E = dense(K_fold[:, border], idx, border)
        R = dense(K_border[:, idx], border, idx)
        anorm = float(np.abs(M).sum(axis=0).max())
        lu, piv, info = dgetrf(M, overwrite_a=True)
        if info > 0:
            raise SingularSystemError(f"zero pivot {info} in a fold factor")
        rcond, _ = dgecon(lu, anorm)
        kappa = max(kappa, 1.0 / rcond if rcond > 0 else np.inf)
        YZ, _ = dgetrs(lu, piv, np.column_stack([rhs[pos(idx)], E]))
        y, Z = YZ[:, 0], YZ[:, 1:]
        S -= R @ Z
        S_scale += np.abs(R) @ np.abs(Z)
        r_border -= R @ y
        solved.append((y, Z))
    tol = np.finfo(float).eps * kappa * np.linalg.norm(S_scale)
    if not (np.all(np.isfinite(S))
            and np.linalg.svd(S, compute_uv=False)[-1] > tol):
        raise SingularSystemError("Schur complement zero to rounding")
    x_border = np.linalg.solve(S, r_border)
    x = np.empty_like(rhs)
    x[pos(border)] = x_border
    for idx, (y, Z) in zip(folds, solved):
        x[pos(idx)] = y - Z @ x_border
    return x


def residual(p, r):
    """F_eps(r) of length 2m+1."""
    return KktOperator(p, r).residual()


def merit(p, r):
    """g_eps(r) = 0.5 * ||F_eps(r)||^2."""
    F = residual(p, r)
    return 0.5 * float(np.dot(F, F))


def merit_grad(p, r):
    """grad g_eps(r) = J_r F_eps(r) F_eps(r) (Jacobian is symmetric)."""
    op = KktOperator(p, r)
    return op.kkt_apply(op.residual())


def jacobi_precond(op, floor=1e-8, max_m=4000):
    """Diagonal preconditioner from the assembled diagonal of J_r F_eps.

    The lambda-lambda block of J_r F is zero, so those entries (and any other
    near-zero diagonal) fall back to 1.  Small instances only: the assembly
    materializes L^H.
    """
    import scipy.sparse as sp
    LG = pb.materialize_LG(op.p)
    LH = pb.materialize_LH(op.p, max_m=max_m)
    c = op.curvature
    LG2 = LG.multiply(LG)
    LH2 = LH.multiply(LH)
    cross = LG.multiply(LH)
    diag_h = (np.asarray(LG2.T @ c.mG).ravel()
              + np.asarray(LH2.T @ c.mH).ravel()
              + 2.0 * np.asarray(cross.T @ c.mGH).ravel())
    diag = np.concatenate([diag_h, np.zeros(op.p.m)])
    diag = np.where(np.abs(diag) > floor, np.abs(diag), 1.0)
    inv = 1.0 / diag

    def apply(u):
        return inv * u

    return apply


def licq_probe(p, v, eps, max_iters=50, tol=1e-10, seed=0):
    """Estimate sigma_min(J_v Phi) by inverse power iteration on J J^T.

    The inner SPD solves run matrix-free through BiCGStab.  Returns
    (estimate, iterations); non-convergence yields the last estimate.
    """
    point = KktPoint(v=np.asarray(v, dtype=float),
                     lam=np.zeros(p.m), eps=eps)
    op = KktOperator(p, point)

    def jjt(y):
        return op.jac_apply(op.jac_t_apply(y))

    rng = np.random.default_rng(seed)
    y = rng.standard_normal(p.m)
    y /= np.linalg.norm(y)
    cfg = KrylovConfig(rel_tol=1e-12, abs_tol=0.0, max_iters=20 * p.m)
    mu_prev = None
    for k in range(1, max_iters + 1):
        res = bicgstab(jjt, y, cfg=cfg)
        x = res.x
        nx = np.linalg.norm(x)
        if nx == 0.0:
            break
        y = x / nx
        mu = float(np.dot(y, jjt(y)))  # Rayleigh quotient, -> lambda_min(JJ^T)
        if mu_prev is not None and abs(mu - mu_prev) <= tol * max(mu, 1e-300):
            return float(np.sqrt(max(mu, 0.0))), k
        mu_prev = mu
    mu = float(np.dot(y, jjt(y)))
    return float(np.sqrt(max(mu, 0.0))), max_iters
