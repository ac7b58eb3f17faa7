"""Smoothed KKT residual, merit function, and matrix-free Jacobian/Hessian.

The unknown is r = (v, lambda) of length 2m+1.  With the Lagrangian
L_eps(v, lam) = f(v) - lam^T Phi_eps(G(v), H(v)), the residual is

    F_eps(r) = [ grad_v L_eps(v, lam) ; -Phi_eps(G(v), H(v)) ],

and its Jacobian

    J_r F_eps = [ hess_vv L_eps   -(J_v Phi)^T ]
                [ -J_v Phi              0      ]

is symmetric, so the merit gradient of g = 0.5*||F||^2 is J_r F applied to F.
The applications are matrix-free through the L^H maps of the problem
module, whose products with the data rows are compiled kernel calls on
A, B, A^T and B^T, bound once per problem (MpecProblem.lh_kernels), seven
per KKT product.  L^G drops C, so L^G d is the slice d[1:] and
(L^G)^T s = (0; s) is not formed: s is added to the result of (L^H)^T.
KktOperator.kkt_apply, the product BiCGStab runs on, shares one product
with L^H and one with (L^H)^T between the Hessian and the Jacobian
blocks.  Every direct solve is one elimination of the fold
structure from the weights, the curvatures and the data rows
(FoldFactorization, built once for any number of right-hand sides; those
known at the build share its one solve of the point blocks): fold_solve,
whose singularity test alone computes its condition number, and at
lambda = 0 constraint_fold_solves.  Its sums over a fold's points
are dense matrix products (BLAS) with the fold's data rows.  The solver
assembles no matrix; the assembled J_r F_eps (materialize_kkt, 245,701
nonzeros on heart) is only the tests' reference for these products and
solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import problem as pb
# bicgstab stays importable here: the benchmark's tracer wraps kkt.bicgstab.
from .krylov import bicgstab  # noqa: F401
from .smoothing import (CurvatureCoeffs, fb_curvature, fb_value,
                        fb_weights)


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


class KktOperator:
    """Linearization of F_eps at a fixed point; caches weights and curvature.

    The point is copied at construction, so the caches cannot go stale.
    kkt_apply is the one formula for the products with J_r F_eps:
    hess_apply and jac_apply are its two blocks on (d; 0).  jac_t_apply,
    which every residual evaluation calls, is a product of its own.
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

    @cached_property
    def curvature(self):
        """Computed on first use: a rejected line-search trial never needs
        it."""
        return fb_curvature(self.G, self.H, self.lam, self.eps,
                            denom=self.weights.denom)

    def phi(self):
        return fb_value(self.G, self.H, self.eps)

    def residual(self):
        grad_v = self.p.obj_grad - self.jac_t_apply(self.lam)
        return np.concatenate([grad_v, -self.phi()])

    def jac_apply(self, d):
        """J_v Phi applied to d of length m+1: W^G (L^G d) + W^H (L^H d),
        the negated lower block of kkt_apply((d; 0)), bit for bit."""
        return -self.kkt_apply(self._lift(d))[self.p.m + 1:]

    def jac_t_apply(self, y):
        """(J_v Phi)^T applied to y of length m."""
        y = np.asarray(y, dtype=float)
        w = self.weights
        out = pb.apply_LH_T(self.p, w.wH * y)
        out[0] += 0.0            # + (L^G)^T (W^G y) in place; see kkt_apply
        out[1:] += w.wG * y
        return out

    def hess_apply(self, d):
        """hess_vv L_eps applied to d of length m+1 (symmetric): the upper
        block of kkt_apply((d; 0)), bit for bit."""
        return self.kkt_apply(self._lift(d))[:self.p.m + 1]

    def _lift(self, d):
        """(d; 0) for d of length m+1."""
        d = np.asarray(d, dtype=float)
        if d.shape != (self.p.m + 1,):
            raise ValueError(f"expected length {self.p.m + 1}, got {d.shape}")
        return np.concatenate([d, np.zeros(self.p.m)])

    def kkt_apply(self, d):
        """J_r F_eps applied to d = (dv; dl) of length 2m+1 (symmetric
        indefinite): [(L^H)^T h + (L^G)^T g ; -(W^G u + W^H w)] with
        u = L^G dv, w = L^H dv, g = M^G u + M^GH w - W^G dl and
        h = M^GH u + M^H w - W^H dl."""
        p = self.p
        d = np.asarray(d, dtype=float)
        nv = p.m + 1
        if d.shape != (nv + p.m,):
            raise ValueError(f"expected length {nv + p.m}, got {d.shape}")
        dv, dl = d[:nv], d[nv:]
        wt, c = self.weights, self.curvature
        u, w = dv[1:], pb.apply_LH(p, dv)          # L^G dv, L^H dv
        # each sum is formed in place, in the formula's order of operations
        g = c.mG * u
        g += c.mGH * w
        g -= wt.wG * dl
        h = c.mGH * u
        h += c.mH * w
        h -= wt.wH * dl
        out = np.empty(nv + p.m)
        # (L^H)^T h + (L^G)^T g with (L^G)^T g = (0; g), summed into out;
        # the + 0.0 on C turns -0.0 into +0.0, as adding two vectors does
        top = pb.apply_LH_T(p, h)
        out[0] = top[0] + 0.0
        np.add(top[1:], g, out=out[1:nv])
        low = out[nv:]
        np.multiply(wt.wG, u, out=low)
        low += wt.wH * w
        np.negative(low, out=low)
        return out

    def materialize_kkt(self):
        """Assembled sparse J_r F_eps, the same operator as kkt_apply.

        The solver never calls it: it is the tests' reference for
        kkt_apply, fold_solve and the LM step.  materialize_LH's m guard
        applies.
        """
        LG = pb.materialize_LG(self.p)
        LH = pb.materialize_LH(self.p)
        w, c = self.weights, self.curvature
        J = sp.diags(w.wG) @ LG + sp.diags(w.wH) @ LH
        cross = LG.T @ sp.diags(c.mGH) @ LH
        hess = (LG.T @ sp.diags(c.mG) @ LG + LH.T @ sp.diags(c.mH) @ LH
                + cross + cross.T)
        return sp.bmat([[hess, -J.T], [-J, None]], format="csr")

    def materialize_jacobian(self):
        """Explicit sparse-backed dense J_v Phi (diagnostics, m <= 2000)."""
        if self.p.m > 2000:
            raise ValueError(f"refusing to materialize for m={self.p.m} > 2000")
        w = self.weights
        LG = pb.materialize_LG(self.p)
        LH = pb.materialize_LH(self.p)
        return (sp.diags(w.wG) @ LG + sp.diags(w.wH) @ LH).toarray()


class SingularSystemError(RuntimeError):
    """A direct solve met a singular system (see fold_solve)."""


FREE_DET = 1e-2   # |det| of a point's constraint block below which it is free


class FoldFactorization:
    """The elimination of every fold block of K = J_r F_eps + shift*I.

    Fold t's block of K, with the weights wt and the curvatures cv, is
    K_t = D_t + U_t Cm U_t^T:
    - D_t is block diagonal with one 4x4 block per data point, on the
      point's unknowns (MpecProblem.point_index).  With the point's pairs a
      and b it is [[Hm, Bm], [Bm^T, 0]] with the constraint block
      Bm = [[-w^G_a, w^H_b], [-w^H_a, -w^G_b]] (columns: multipliers).  So
      det D_p = (w^G_a w^G_b + w^H_a w^H_b)^2 > 0 for positive weights;
    - U_t = [U1, U2] has 2n columns.  U2^T x = w_t = B_t^T dalpha_t: the
      H-values of fold t's pairs 1 and 3 see the alphas only through
      N_t w_t, with N_t = [A_t; B_t].  U1^T x = q_t = N_t^T h_a collects the
      pair-a terms of (L^H)^T h, which reach the alpha rows as B_t q_t;
    - Cm = [[0, I], [I, Q_t]] with Q_t = N_t^T diag(M^H_a) N_t.
    The shift goes on D_t.  Each fold is solved by the smaller of two dense
    systems, both scaled symmetrically to unit row maxima:
    - lifted, of size 2n + 4k: the lifted system [[D_t, U_t],
      [U_t^T, -Cm^{-1}]] by block elimination.  Every 4x4 block is solved
      at once (np.linalg.solve, whose partial pivoting takes each unknown
      from the equation with the larger divisor), and the 2n lifted
      unknowns remain with the k free points.  A point is free when
      |w^G_a w^G_b + w^H_a w^H_b| < FREE_DET, as for an alpha strictly
      between 0 and C near a complementary point; its block is then nearly
      singular (at weights of 1e-12 it amplifies rounding by 1e24), so its
      unknowns stay in the dense system instead of being eliminated.  At
      most 2n points of a fold are free, those with the smallest
      determinants: a nearly singular block has two small eigenvalues, and
      the rank-2n term moves at most 2n eigenvalues, so with more than n
      such blocks K_t is itself nearly singular and eliminating the others
      costs no more than its own conditioning.  (Early iterates at
      m = 6.4e4 had 7,136 points of a fold below FREE_DET.)  The sums over
      the eliminated points are matrix products with their dense rows N_g:
      U_g^T D_g^{-1} U_g is N_g^T (C_g N_g) with each point's 2x2
      coefficients F_p D_p^{-1} F_p^T spread over its row, one product
      of (n, g) by (g, 4n), and Q_t is N_t^T (diag(M^H_a) N_t).  Per fold
      this costs O((m1+m2) n^2 + n^3);
    - dense, of size 4(m1+m2), when 2n + 4k is not smaller (many features,
      few points): K_t itself, formed from the point blocks and the Gram
      matrix N_t N_t^T (MpecProblem.fold_grams, built once per problem),
      since U_t Cm U_t^T only involves the data through products of data
      rows.  Per fold this costs O((m1+m2)^3), and no array of size n is
      formed, so wide data costs no more than its points.
    Built once, it keeps per fold D_p^{-1} U_p of the eliminated points, the
    kept points (the free ones of a lifted fold, all of a dense one) and the
    scaled dense system: its condition number is fold_solve's to compute.
    The build takes the right-hand sides known when it is made, rhs_c
    (shaped as solve's, with no column at all for constraint_fold_solves),
    and solves the point blocks once, for the U factors and rhs_c
    together; `solution` holds K_t^{-1} rhs_c.  numpy keeps no LU factors,
    so a later solve (the rank probe's) factors the point blocks and the
    dense systems again.  A point block with an exactly zero pivot raises
    SingularSystemError here, and so does a dense system when rhs_c has
    a column.
    """

    def __init__(self, p, wt, cv, shift, rhs_c):
        pos, rows = p.point_index
        T, P = pos.shape[:2]
        n = p.n
        train = np.arange(P) >= p.m1
        a, b = pos[..., 0] - 1, pos[..., 1] - 1    # the pairs, positions in G
        wGa, wGb, wHa, wHb = wt.wG[a], wt.wG[b], wt.wH[a], wt.wH[b]
        mHa, mHb, mXa, mXb = cv.mH[a], cv.mH[b], cv.mGH[a], cv.mGH[b]
        zero = np.zeros_like(wGa)
        mX = mXa - mXb
        D = np.stack([(cv.mG[a] + mHb) + shift, mX, -wGa, wHb,
                      mX, (mHa + cv.mG[b]) + shift, -wHa, -wGb,
                      -wGa, -wHa, zero + shift, zero,
                      wHb, -wGb, zero, zero + shift],
                     axis=-1).reshape(T, P, 4, 4)
        # each point's rows of U1 and U2 are factor (4,) times its data row
        factors = np.stack([np.stack([mXa, mHa, -wHa, zero], axis=-1),
                            np.stack([train + zero, zero, zero, zero],
                                     axis=-1)],
                           axis=2)                             # (T, P, 2, 4)
        det = np.abs(wGa * wGb + wHa * wHb)
        kept = np.zeros(det.shape, dtype=bool)
        np.put_along_axis(kept, np.argsort(det, axis=1)[:, :2 * n], True,
                          axis=1)
        kept &= det < FREE_DET
        lifted = 2 * n + 4 * kept.sum(axis=1) < 4 * P
        kept[~lifted] = True
        # the point blocks, identity for the kept points, solved once for
        # the U factors and rhs_c together.  A batched solve of several
        # columns gives each column the bits it gets among any others, so
        # the two U columns, and two or more of rhs_c, keep the bits of
        # their own solve (one column alone rounds otherwise)
        self.blocks = np.where(kept[..., None, None], np.eye(4), D)
        try:
            X = np.linalg.solve(self.blocks, np.concatenate(
                [factors.swapaxes(2, 3), rhs_c], axis=-1))
        except np.linalg.LinAlgError:
            raise SingularSystemError("zero pivot in a point block") from None
        XU = X[..., :2]
        # per fold: the scaled system, its scale, the kept points, and the
        # data rows, U factors and D_p^{-1} U_p of the eliminated points
        self.folds = []
        for t, keep in enumerate(kept):
            if lifted[t]:
                N = rows[t].toarray()
                M = _lifted_fold_system(D[t], keep, XU[t], factors[t], N,
                                        mHa[t])
            else:
                M = _dense_fold_system(D[t], factors[t], p.fold_grams[t],
                                       mHa[t])
                N = np.zeros((P, 0))          # no lifted unknowns
            rmax = np.abs(M).max(axis=1)
            scale = 1.0 / np.sqrt(np.where(rmax > 0, rmax, 1.0))
            self.folds.append((M * (scale[:, None] * scale), scale, keep,
                               N[~keep], factors[t, ~keep], XU[t, ~keep]))
        self.solution = self._fold_solutions(rhs_c, X[..., 2:])

    def solve(self, rhs_c):
        """K_t^{-1} rhs_c for every fold t, by one batched 4x4 solve and
        the per-fold steps of _fold_solutions.

        rhs_c holds k right-hand sides on each point's four unknowns, shape
        (T, m1+m2, 4, k), and the solutions are shaped like it.  A dense
        system with an exactly zero pivot, as from a zero row (a point whose
        weights are all 0), raises SingularSystemError.
        """
        return self._fold_solutions(rhs_c, np.linalg.solve(self.blocks, rhs_c))

    def _fold_solutions(self, rhs_c, X):
        """K_t^{-1} rhs_c for every fold t from X, the point blocks' solution
        of rhs_c: per fold, two matrix products with the data rows of the
        eliminated points (O((m1+m2) n k), one into the lifted unknowns and
        one back) and one dense solve."""
        y = np.empty_like(X)
        ncol = rhs_c.shape[-1]
        if ncol == 0:           # factor no dense system for no column
            return y
        for t, (M, scale, keep, Ng, Fg, XUg) in enumerate(self.folds):
            Xg, nk = X[t, ~keep], 4 * int(keep.sum())
            # U_g^T D_g^{-1} rhs_c on the lifted unknowns, one product with
            # the data rows: its rows are (i; a, c), the system's (a, i; c)
            inner = np.einsum("pai,pic->pac", Fg, Xg)
            low_r = Ng.T @ inner.reshape(len(Ng), 2 * ncol)
            low_r = low_r.reshape(-1, 2, ncol).swapaxes(0, 1)
            r = np.concatenate([rhs_c[t, keep].reshape(nk, ncol),
                                -low_r.reshape(-1, ncol)])
            try:
                sol = scale[:, None] * np.linalg.solve(M, scale[:, None] * r)
            except np.linalg.LinAlgError:
                raise SingularSystemError("zero pivot in a fold system") from None
            back = Ng @ sol[nk:].reshape(2, -1, ncol)        # (a, p, c)
            y[t, ~keep] = Xg - np.einsum("pia,apc->pic", XUg, back)
            y[t, keep] = sol[:nk].reshape(-1, 4, ncol)
        return y


def fold_solve(op, rhs, shift):
    """Solve (K + shift*I) x = rhs for K = J_r F_eps at op's point.

    K is never assembled.  Its folds couple through C alone (see
    MpecProblem.point_index): a FoldFactorization, built once, applies each
    fold block's inverse to rhs and to the column of C in one solve, and
    the 1x1 Schur complement S on C closes the solve.

    The shift goes on the diagonal, C's entry included, and may be real or
    complex.  With shift = -i*sigma the blocks stay
    nonsingular (each is real symmetric, so its eigenvalues theta move to
    theta - i*sigma) and Re x = K (K^2 + sigma^2 I)^{-1} rhs, the
    Levenberg-Marquardt solve.

    Raises SingularSystemError when a point block or a dense system has an
    exactly zero pivot, or S is zero to within the rounding error of its own
    computation,
    |S| <= eps_mach * kappa * (|K_CC + shift| + sum |c_t|^T |K_t^{-1} c_t|)
    with c_t fold t's part of the column of C and kappa the largest 1-norm
    condition number of the scaled dense systems, at least 1, or is not
    finite.  kappa is computed here, and only when S is finite.  At
    lambda = 0, where the Hessian vanishes and K is singular, S is zero.
    """
    p = op.p
    pos, _ = p.point_index
    rhs = np.asarray(rhs)
    train = np.arange(pos.shape[1]) >= p.m1
    b = pos[..., 1] - 1                          # pair b, its position in G
    wHb, mHb, mXb = op.weights.wH[b], op.curvature.mH[b], op.curvature.mGH[b]
    c_col = np.stack([-mHb, mXb, np.zeros_like(mHb), -wHb],
                     axis=-1) * train[:, None]
    # K_t^{-1} [rhs_t, c_t]
    folds = FoldFactorization(p, op.weights, op.curvature, shift,
                              np.stack([rhs[pos], c_col], axis=-1))
    y = folds.solution
    K_CC = np.sum(mHb[:, train]) + shift
    S = K_CC - np.sum(c_col * y[..., 1])
    S_scale = abs(K_CC) + np.sum(np.abs(c_col) * np.abs(y[..., 1]))
    if not (np.isfinite(S) and abs(S) > np.finfo(float).eps
            * max([1.0] + [np.linalg.cond(M, 1) for M, *_ in folds.folds])
            * S_scale):
        raise SingularSystemError("Schur complement zero to rounding")
    x = np.empty(rhs.shape, dtype=y.dtype)
    x[0] = (rhs[0] - np.sum(c_col * y[..., 0])) / S
    x[pos] = y[..., 0] - y[..., 1] * x[0]
    return x


def _lifted_fold_system(D, free, XU, factors, N, mHa):
    """Fold t's lifted system of size 2n + 4k for FoldFactorization.

    XU holds D_p^{-1} U_p for the points that are not free; N is the fold's
    dense data rows.  The system is not yet scaled.
    """
    n = N.shape[1]
    g, f = ~free, free
    k = int(f.sum())
    Ng, XUg, Fg = N[g], XU[g], factors[g]
    # U_g^T D_g^{-1} U_g on the 2n lifted unknowns
    coef = np.einsum("pai,pic->pac", Fg, XUg)                  # (g, 2, 2)
    # one product with the data rows: its rows are (i; a, c, j), the
    # system's (a, i; c, j)
    weighted = coef.reshape(-1, 4)[:, :, None] * Ng[:, None, :]
    low = (Ng.T @ weighted.reshape(len(Ng), 4 * n)).reshape(n, 2, 2, n)
    U_f = np.einsum("pai,pj->piaj", factors[f], N[f])
    M = np.zeros((4 * k + 2 * n,) * 2, dtype=D.dtype)
    at = 4 * np.arange(k)[:, None] + np.arange(4)          # (k, 4)
    M[at[:, :, None], at[:, None, :]] = D[f]
    M[:4 * k, 4 * k:] = U_f.reshape(4 * k, 2 * n)
    M[4 * k:, :4 * k] = M[:4 * k, 4 * k:].T
    # [[Q, -I], [-I, 0]] - low on the lifted unknowns, filled in place;
    # -I's off-diagonal zeros are -0.0, which the subtraction keeps apart
    lifted = M[4 * k:, 4 * k:]
    lifted[:n, :n] = N.T @ (mHa[:, None] * N)
    lifted[:n, n:] = lifted[n:, :n] = -np.eye(n)
    lifted -= low.transpose(1, 0, 2, 3).reshape(2 * n, 2 * n)
    return M


def _dense_fold_system(D, factors, gram, mHa):
    """Fold t's K_t formed densely for FoldFactorization.

    With the fold's Gram matrix G = N_t N_t^T (MpecProblem.fold_grams),
    U_t Cm U_t^T couples points p and q by
    f1_p G_pq f2_q^T + f2_p G_pq f1_q^T + f2_p (G diag(M^H_a) G)_pq f2_q^T,
    f1 and f2 being the point factors of U1 and U2.  Returns K_t of size
    4(m1+m2), its unknowns ordered point by point, not yet scaled.
    """
    P = D.shape[0]
    f1, f2 = factors[:, 0], factors[:, 1]
    cross = np.einsum("pi,pq,qj->piqj", f1, gram, f2)
    K = (cross + cross.transpose(2, 3, 0, 1)
         + np.einsum("pi,pq,qj->piqj", f2, gram @ (mHa[:, None] * gram), f2)
         ).astype(D.dtype)
    at = np.arange(P)
    K[at, :, at, :] += D
    return K.reshape(4 * P, 4 * P)


def merit(p, r):
    """g_eps(r) = 0.5 * ||F_eps(r)||^2."""
    F = KktOperator(p, r).residual()
    return 0.5 * float(np.dot(F, F))


def merit_grad(p, r):
    """grad g_eps(r) = J_r F_eps(r) F_eps(r) (Jacobian is symmetric)."""
    op = KktOperator(p, r)
    return op.kkt_apply(op.residual())


def constraint_fold_solves(op):
    """Exact solves with the fold part of J = J_v Phi at op's weights.

    J = [c | J_f]: the column of C is c = w^H on the xi-pair rows, the only
    entries coupling two folds, and J_f is block diagonal over the folds.
    At lambda = 0 the Hessian vanishes and fold t's block of J_r F_eps is
    [[0, -J_f^T], [-J_f, 0]], so fold_solve's per-fold elimination
    (FoldFactorization, without the closure on C that is singular there)
    with op's weights and zero curvature applies J_f^{-1} and J_f^{-T}
    exactly, at the O(m) cost of a Newton step; solve and solve_t share the
    one elimination built here.  Returns (solve, solve_t, c) with solve(r) =
    J_f^{-1} r and solve_t(r) = J_f^{-T} r.  An exactly zero pivot raises
    SingularSystemError, here in a point block and in a solve in a fold
    system, as when the weights of a point round to 0.
    """
    p, wt = op.p, op.weights
    pos, _ = p.point_index
    nv = p.m + 1
    zero = np.zeros(p.m)
    folds = FoldFactorization(p, wt, CurvatureCoeffs(mG=zero, mH=zero,
                                                     mGH=zero),
                              0.0, np.zeros(pos.shape + (0,)))

    def fold_solution(r, at):
        # the fold blocks map (y_v; y_l) to (-J_f^T y_l; -J_f y_v)
        x = np.zeros(nv + p.m)
        x[at] = r
        x[pos] = folds.solve(x[pos][..., None])[..., 0]
        return x

    def solve(r):
        """J_f^{-1} r; r is indexed by the pairs, the result like G."""
        return -fold_solution(r, slice(nv, None))[1:nv]

    def solve_t(r):
        """J_f^{-T} r; r is indexed like G, the result by the pairs."""
        return -fold_solution(r, slice(1, nv))[nv:]

    c = np.zeros(p.m)
    p.split_m(c)[3][:] = p.split_m(wt.wH)[3]      # the xi-pair rows
    return solve, solve_t, c


def jjt_inverse(op):
    """(J J^T)^{-1} for J = J_v Phi at op's weights, by exact fold solves.

    With J = [c | J_f] as in constraint_fold_solves, (J J^T)^{-1} =
    (J_f J_f^T + c c^T)^{-1} follows from J_f^{-T} J_f^{-1} by
    Sherman-Morrison, whose denominator is >= 1.  An application costs two
    solves with the fold elimination at lambda = 0; a singular one raises.
    """
    solve, solve_t, c = constraint_fold_solves(op)
    g = solve_t(solve(c))
    gamma = 1.0 + float(np.dot(c, g))

    def apply(y):
        s = solve_t(solve(y))
        return s - g * (float(np.dot(c, s)) / gamma)

    return apply


def licq_probe(p, v, eps, max_iters=50):
    """Estimate sigma_min(J_v Phi) by inverse iteration on J J^T.

    The iteration is accelerated by Lanczos: step k applies (J J^T)^{-1}
    exactly (jjt_inverse) to the newest of k orthonormal vectors, which span
    the Krylov space of the iteration's first k iterates, and takes the
    largest Rayleigh-Ritz value theta of (J J^T)^{-1} on that space, so that
    sigma = theta^{-1/2}.  Reorthogonalizing fully against the earlier
    vectors keeps the basis orthonormal; the first is a normal draw seeded
    with 0.  Plain inverse iteration converges
    at the ratio of the two smallest singular values, which heart's
    Jacobians bring within 1e-3 of 1; Lanczos converges in tens of steps
    there.  The iteration has converged once theta changes by at most
    1e-10 * theta, or the Krylov space is invariant (at the latest when it
    is the whole space, after m steps).  Returns (sigma,
    iterations, converged); without convergence within min(max_iters, m)
    steps sigma is the last estimate and converged is False.  When a fold
    system is singular (jjt_inverse raises), or a solve is not finite,
    sigma is the last estimate (NaN before the first) and converged is
    False.
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
    q = np.random.default_rng(0).standard_normal(p.m)
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
                       and abs(theta - theta_prev) <= 1e-10 * theta):
            return sigma, k + 1, True
        theta_prev = theta
        if k + 1 < dim:
            Q[k + 1] = w / beta
            T[k, k + 1] = T[k + 1, k] = beta
    return sigma, dim, False
