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
# bicgstab stays importable here: the benchmark's tracer wraps kkt.bicgstab.
from .krylov import bicgstab  # noqa: F401
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


def fold_solve(K, rhs, folds, border, shift=0.0):
    """Solve (K + shift*I) x = rhs by per-fold dense factors.

    K is J_r F_eps as assembled by materialize_kkt; its entries couple two
    folds only through the border (MpecProblem.fold_index gives the sets).
    The scalar shift may be real or complex; a complex shift makes the whole
    solve complex (LAPACK zgetrf in place of dgetrf).  With the real
    symmetric K and shift = -i*sigma, Re x = K (K^2 + sigma^2 I)^{-1} rhs,
    the Levenberg-Marquardt solve, with no matrix larger than K's folds.

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
    from scipy.linalg.lapack import get_lapack_funcs

    K = K.tocsr()
    rhs = np.asarray(rhs)
    dtype = np.result_type(K.dtype, rhs.dtype, shift)
    getrf, getrs, gecon = get_lapack_funcs(("getrf", "getrs", "gecon"),
                                           dtype=dtype)

    def dense(Kb, diagonal=False):
        """K's block, shifted when it is a diagonal block, Fortran-ordered."""
        out = Kb.toarray(order="F").astype(dtype, copy=False)
        if diagonal and shift:
            out[np.diag_indices(out.shape[0])] += shift
        return out

    K_border = K[border]
    S = dense(K_border[:, border], diagonal=True)
    S_scale = np.abs(S)
    r_border = rhs[border].astype(dtype)
    kappa = 1.0
    solved = []
    for idx in folds:
        K_fold = K[idx]
        M = dense(K_fold[:, idx], diagonal=True)
        E = dense(K_fold[:, border])
        R = dense(K_border[:, idx])
        anorm = float(np.abs(M).sum(axis=0).max())
        lu, piv, info = getrf(M, overwrite_a=True)
        if info > 0:
            raise SingularSystemError(f"zero pivot {info} in a fold factor")
        rcond, _ = gecon(lu, anorm)
        kappa = max(kappa, 1.0 / rcond if rcond > 0 else np.inf)
        YZ, _ = getrs(lu, piv, np.column_stack([rhs[idx], E]))
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
    x = np.empty(rhs.shape, dtype=dtype)
    x[border] = x_border
    for idx, (y, Z) in zip(folds, solved):
        x[idx] = y - Z @ x_border
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


def constraint_fold_solves(op):
    """Exact solves with the fold part of J = J_v Phi at op's weights.

    J = [c | J_f]: the column of C is c = w^H on the xi-pair rows, the only
    entries coupling two folds, and J_f is block diagonal over the folds.
    With fold t's rows and columns ordered (zeta, z, alpha, xi), its block is
    block upper triangular: m1 independent 2x2 (zeta_i, z_i) blocks with
    determinant w^G_1 w^G_2 + w^H_1 w^H_2 > 0, over an (alpha, xi) block
    whose diagonal xi part eliminates to S_t = diag(w^H_3) P_t with the SPD
    P_t = diag(w^G_3/w^H_3 + w^H_4/w^G_4) + B_t B_t^T, m2 x m2.  The weights
    lie in (0, 2) for eps > 0, so every block is nonsingular; a weight that
    rounds to 0 raises SingularSystemError instead.  Each P_t is
    built from the fold's own rows of B, scaled symmetrically to a unit
    diagonal and inverted once; a solve with J_f or J_f^T then costs T
    products with the m2 x m2 inverses and a few products with A and B.
    Returns (solve, solve_t, c) with solve(r) = J_f^{-1} r and
    solve_t(r) = J_f^{-T} r.

    Near a strictly complementary point one weight of each pair vanishes
    like eps^2, and the diagonal of P_t spans some 25 orders of magnitude at
    eps = 1e-6; without the scaling, or with xi always taken from the xi-pair
    row (which divides by w^G_4), a solve at heart's final point keeps only
    about 4 digits.
    """
    p = op.p
    T, m2, n = p.T, p.m2, p.n
    if not (np.all(op.weights.wG > 0) and np.all(op.weights.wH > 0)):
        raise SingularSystemError("a smoothing weight rounds to 0")
    wG1, wG2, wG3, wG4 = p.split_m(op.weights.wG)
    wH1, wH2, wH3, wH4 = p.split_m(op.weights.wH)
    det = wG1 * wG2 + wH1 * wH2
    diag = wG3 / wH3 + wH4 / wG4
    # xi (in solve_t, its multiplier) follows from the alpha-pair or the
    # xi-pair equation; take the one with the larger divisor
    by_row4, by_col_xi = wG4 >= wH3, wG4 >= wH4
    P_inv = np.empty((T, m2, m2))
    scale = np.empty(T * m2)
    for t in range(T):
        rows = slice(t * m2, (t + 1) * m2)
        Bt = p.B[rows, t * n:(t + 1) * n].toarray()
        P = Bt @ Bt.T
        P[np.diag_indices(m2)] += diag[rows]
        scale[rows] = 1.0 / np.sqrt(np.diag(P))
        P_inv[t] = np.linalg.inv(scale[rows, None] * P * scale[rows])

    def p_solve(x):
        y = np.matmul(P_inv, (scale * x).reshape(T, m2, 1)).ravel()
        return scale * y

    def solve(r):
        """J_f^{-1} r; r is indexed by the pairs, the result like G."""
        r1, r2, r3, r4 = p.split_m(r)
        x_alpha = p_solve(r3 / wH3 - r4 / wG4)
        Bt_x = p.B.T @ x_alpha
        x_xi = np.where(by_row4, (r4 + wH4 * x_alpha) / wG4,
                        (r3 - wG3 * x_alpha) / wH3 - p.B @ Bt_x)
        b1 = r1 - wH1 * (p.A @ Bt_x)
        return np.concatenate([(wG2 * b1 - wH1 * r2) / det,
                               (wH2 * b1 + wG1 * r2) / det, x_alpha, x_xi])

    def solve_t(r):
        """J_f^{-T} r; r is indexed like G, the result by the pairs."""
        r1, r2, r3, r4 = p.split_m(r)
        x1 = (wG2 * r1 + wH2 * r2) / det
        x2 = (wG1 * r2 - wH1 * r1) / det
        b3 = r3 - p.B @ (p.A.T @ (wH1 * x1))
        x3 = p_solve(b3 + wH4 * r4 / wG4) / wH3
        x4 = np.where(by_col_xi, (r4 - wH3 * x3) / wG4,
                      (wG3 * x3 + p.B @ (p.B.T @ (wH3 * x3)) - b3) / wH4)
        return np.concatenate([x1, x2, x3, x4])

    c = np.zeros(p.m)
    c[p.m - p.n2:] = wH4
    return solve, solve_t, c


def jjt_inverse(op):
    """(J J^T)^{-1} for J = J_v Phi at op's weights, by exact fold solves.

    With J = [c | J_f] as in constraint_fold_solves, (J J^T)^{-1} =
    (J_f J_f^T + c c^T)^{-1} follows from J_f^{-T} J_f^{-1} by
    Sherman-Morrison, whose denominator is >= 1.
    """
    solve, solve_t, c = constraint_fold_solves(op)
    g = solve_t(solve(c))
    gamma = 1.0 + float(np.dot(c, g))

    def apply(y):
        s = solve_t(solve(y))
        return s - g * (float(np.dot(c, s)) / gamma)

    return apply


def licq_probe(p, v, eps, max_iters=50, tol=1e-10, seed=0):
    """Estimate sigma_min(J_v Phi) by inverse iteration on J J^T.

    The iteration is accelerated by Lanczos: step k applies (J J^T)^{-1}
    exactly (jjt_inverse) to the newest of k orthonormal vectors, which span
    the Krylov space of the iteration's first k iterates, and takes the
    largest Rayleigh-Ritz value theta of (J J^T)^{-1} on that space, so that
    sigma = theta^{-1/2}.  Reorthogonalizing fully against the earlier
    vectors keeps the basis orthonormal.  Plain inverse iteration converges
    at the ratio of the two smallest singular values, which heart's
    Jacobians bring within 1e-3 of 1; Lanczos converges in tens of steps
    there.  The iteration has converged once theta changes by at most
    tol * theta, or the Krylov space is invariant (at the latest when it
    is the whole space, after m steps).  Returns (sigma,
    iterations, converged); without convergence within min(max_iters, m)
    steps sigma is the last estimate and converged is False.  When
    jjt_inverse cannot be built, or a solve is not finite, sigma is the last
    estimate (NaN before the first) and converged is False.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    point = KktPoint(v=np.asarray(v, dtype=float),
                     lam=np.zeros(p.m), eps=eps)
    sigma = float("nan")
    try:
        jjt_inv = jjt_inverse(KktOperator(p, point))
    except SingularSystemError:
        return sigma, 0, False

    dim = min(max_iters, p.m)
    Q = np.empty((dim, p.m))
    T = np.zeros((dim, dim))
    q = np.random.default_rng(seed).standard_normal(p.m)
    Q[0] = q / np.linalg.norm(q)
    theta_prev = None
    for k in range(dim):
        w = jjt_inv(Q[k])
        for _ in range(2):
            h = Q[:k + 1] @ w
            w -= h @ Q[:k + 1]
            T[k, k] += h[k]
        beta = float(np.linalg.norm(w))
        if not np.isfinite(beta):
            return sigma, k + 1, False
        theta = float(np.linalg.eigvalsh(T[:k + 1, :k + 1])[-1])
        sigma = float(1.0 / np.sqrt(theta)) if theta > 0 else 0.0
        spanned = beta == 0.0 or k + 1 == p.m     # the space is invariant
        if spanned or (theta_prev is not None
                       and abs(theta - theta_prev) <= tol * theta):
            return sigma, k + 1, True
        theta_prev = theta
        if k + 1 < dim:
            Q[k + 1] = w / beta
            T[k, k + 1] = T[k + 1, k] = beta
    return sigma, dim, False
