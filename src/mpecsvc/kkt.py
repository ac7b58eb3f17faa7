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
blocks.  Every direct solve is one elimination of the fold structure from
the weights, the curvatures and the data rows (FoldFactorization, built
once for any number of right-hand sides; those known at the build share
its one solve of the point blocks): fold_solve, whose singularity test
reads the condition number that the build's dense solves give alongside
its solution, and at lambda = 0 constraint_fold_solves.  Its sums over a
fold's points are dense matrix products (BLAS) with the fold's data rows,
and its per-point contractions are each one einsum over every point of
every fold.  The solver assembles no matrix.  The assembled J_r F_eps
(materialize_kkt, 245,701 nonzeros on heart) is the tests' reference for
these products and solves, and its negated lower-left block J_v Phi
(materialize_jacobian) the benchmark's sigma_min oracle's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import problem as pb
# bicgstab stays importable here: the benchmark's tracer wraps kkt.bicgstab.
from .krylov import bicgstab  # noqa: F401
# fb_value too, though phi takes the root from the weights: the tracer wraps
# the smoothing kernels here by name.
from .smoothing import (CurvatureCoeffs, fb_curvature, fb_value,  # noqa: F401
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
        """phi_eps(G, H), with the weights' denom as its root: the same
        expression as smoothing.fb_value, so the same bits."""
        return self.G + self.H - self.weights.denom

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
        out[1:] += w.wG * y      # + (L^G)^T (W^G y) = (0; W^G y), in place
        return out

    def hess_apply(self, d):
        """hess_vv L_eps applied to d of length m+1 (symmetric): the upper
        block of kkt_apply((d; 0)), bit for bit."""
        return self.kkt_apply(self._lift(d))[:self.p.m + 1]

    def _lift(self, d):
        """(d; 0) for d of length m+1; kkt_apply checks the length."""
        return np.concatenate([np.asarray(d, dtype=float), np.zeros(self.p.m)])

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
        # (L^H)^T h + (L^G)^T g with (L^G)^T g = (0; g), summed into out
        top = pb.apply_LH_T(p, h)
        out[0] = top[0]
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
        LG = sp.eye(self.p.m, self.p.m + 1, k=1, format="csr")
        LH = pb.materialize_LH(self.p)
        w, c = self.weights, self.curvature
        J = sp.diags(w.wG) @ LG + sp.diags(w.wH) @ LH
        cross = LG.T @ sp.diags(c.mGH) @ LH
        hess = (LG.T @ sp.diags(c.mG) @ LG + LH.T @ sp.diags(c.mH) @ LH
                + cross + cross.T)
        return sp.bmat([[hess, -J.T], [-J, None]], format="csr")

    def materialize_jacobian(self):
        """J_v Phi, dense: materialize_kkt's negated lower-left block."""
        m = self.p.m
        if m > 2000:
            raise ValueError(f"refusing to materialize for m={m} > 2000")
        return (-self.materialize_kkt()[m + 1:, :m + 1]).toarray()


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
    Built once, it keeps the U factors F and D_p^{-1} U_p of every point
    (XU), both with the points last (_points_last), the kept points (the
    free ones of a lifted fold, all of a dense one), and per fold the
    scaled dense system and the dense data rows.  The build takes the
    right-hand sides known when it is made, rhs_c (shaped as solve's, with
    no column at all for constraint_fold_solves), and solves the point
    blocks once, for the U factors and rhs_c together, and each scaled
    dense system once, for its part of rhs_c and the identity together:
    `solution` holds K_t^{-1} rhs_c, and `kappa` the largest 1-norm
    condition number of the scaled dense systems, at least 1, which
    fold_solve's singularity test reads (None without a column).  numpy
    keeps no LU factors, so a later solve (the rank probe's) factors the
    point blocks and the dense systems again, for its columns alone.  A
    point block with an exactly zero pivot raises SingularSystemError
    here, and so does a dense system when rhs_c has a column.
    """

    def __init__(self, p, wt, cv, shift, rhs_c):
        pos, rows = p.point_index
        T, P = pos.shape[:2]
        n = p.n
        train = np.arange(P) >= p.m1
        a, b = pos[..., 0] - 1, pos[..., 1] - 1    # the pairs, positions in G
        wGa, wGb, wHa, wHb = wt.wG[a], wt.wG[b], wt.wH[a], wt.wH[b]
        mHa, mHb, mXa, mXb = cv.mH[a], cv.mH[b], cv.mGH[a], cv.mGH[b]
        mX = mXa - mXb
        # the point blocks, filled in place; the two zeros are +0.0
        D = np.zeros((T, P, 4, 4), dtype=np.result_type(wGa, shift))
        D[..., 0, 0] = (cv.mG[a] + mHb) + shift
        D[..., 1, 1] = (mHa + cv.mG[b]) + shift
        D[..., 2, 2] = D[..., 3, 3] = np.add(0.0, shift)
        D[..., 0, 1] = D[..., 1, 0] = mX
        D[..., 0, 2] = D[..., 2, 0] = -wGa
        D[..., 0, 3] = D[..., 3, 0] = wHb
        D[..., 1, 2] = D[..., 2, 1] = -wHa
        D[..., 1, 3] = D[..., 3, 1] = -wGb
        # each point's rows of U1 and U2 are a factor (4,) times its data
        # row, F[a, :, t, p] for a = 1, 2
        F = np.zeros((2, 4, T, P))
        F[0, 0], F[0, 1], F[0, 2], F[1, 0] = mXa, mHa, -wHa, train
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
            X = _points_last(np.linalg.solve(self.blocks, np.concatenate(
                [F.transpose(2, 3, 1, 0), rhs_c], axis=-1)))
        except np.linalg.LinAlgError:
            raise SingularSystemError("zero pivot in a point block") from None
        self.F, self.XU, self.kept = F, X[:, :2], kept
        # F_p D_p^{-1} F_p^T (2x2) of every point of every fold
        coef = np.einsum("aitp,ictp->actp", F, self.XU)
        # per fold: the scaled system, its scale, the kept points, and the
        # dense data rows, all of them and those of the eliminated points
        self.folds = []
        for t, keep in enumerate(kept):
            Ft = F[:, :, t].transpose(2, 0, 1)                 # (P, 2, 4)
            if lifted[t]:
                N = rows[t].toarray()
                M = _lifted_fold_system(D[t], keep,
                                        coef[:, :, t].transpose(2, 0, 1), Ft,
                                        N, mHa[t])
            else:
                M = _dense_fold_system(D[t], Ft, p.fold_grams[t], mHa[t])
                N = np.zeros((P, 0))          # no lifted unknowns
            rmax = np.abs(M).max(axis=1)
            scale = 1.0 / np.sqrt(np.where(rmax > 0, rmax, 1.0))
            self.folds.append((M * (scale[:, None] * scale), scale, keep, N,
                               N[~keep]))
        self.solution, self.kappa = self._fold_solutions(rhs_c, X[:, 2:],
                                                         True)

    def solve(self, rhs_c):
        """K_t^{-1} rhs_c for every fold t, by one batched 4x4 solve and
        the steps of _fold_solutions.

        rhs_c holds k right-hand sides on each point's four unknowns, shape
        (T, m1+m2, 4, k), and the solutions are shaped like it.  A dense
        system with an exactly zero pivot, as from a zero row (a point whose
        weights are all 0), raises SingularSystemError.
        """
        X = _points_last(np.linalg.solve(self.blocks, rhs_c))
        return self._fold_solutions(rhs_c, X, False)[0]

    def _fold_solutions(self, rhs_c, X, inverses):
        """(K_t^{-1} rhs_c for every fold t, kappa) from X, the point blocks'
        solution of rhs_c with the points last: two contractions over every
        point of every fold, and per fold two matrix products with the data
        rows (O((m1+m2) n k), one into the lifted unknowns and one back)
        and one dense solve.  With inverses, each scaled dense system M is
        solved for [r | I] at once, and kappa is the largest
        ||M||_1 ||M^{-1}||_1 (the formula of np.linalg.cond(M, 1)), at
        least 1; otherwise kappa is None."""
        ncol, (T, P) = rhs_c.shape[-1], X.shape[2:]
        y = np.empty((T, P, 4, ncol), dtype=X.dtype)
        if ncol == 0:           # factor no dense system for no column
            return y, None
        inner = np.einsum("aitp,ictp->actp", self.F, X)   # U^T D^{-1} rhs_c
        back = np.empty((2, ncol, T, P), dtype=X.dtype)
        kappa = 1.0 if inverses else None
        for t, (M, scale, keep, N, Ng) in enumerate(self.folds):
            nk = 4 * int(keep.sum())
            # U_g^T D_g^{-1} rhs_c on the lifted unknowns, one product with
            # the data rows: its rows are (i; a, c), the system's (a, i; c)
            low_r = Ng.T @ inner[:, :, t, ~keep].transpose(2, 0, 1).reshape(
                len(Ng), 2 * ncol)
            low_r = low_r.reshape(-1, 2, ncol).swapaxes(0, 1)
            r = np.concatenate([rhs_c[t, keep].reshape(nk, ncol),
                                -low_r.reshape(-1, ncol)])
            r *= scale[:, None]
            if inverses:                        # M^{-1} from the same solve
                r = np.concatenate([r, np.eye(len(r))], axis=1)
            try:
                sol = np.linalg.solve(M, r)
            except np.linalg.LinAlgError:
                raise SingularSystemError("zero pivot in a fold system") from None
            if inverses:
                kappa = max(kappa, np.linalg.norm(M, 1)
                            * np.linalg.norm(sol[:, ncol:], 1))
            sol = scale[:, None] * sol[:, :ncol]
            # every point's back-substitution; the kept points' are
            # overwritten with their own unknowns below
            back[:, :, t] = (N @ sol[nk:].reshape(2, -1, ncol)).transpose(
                0, 2, 1)
            y[t, keep] = sol[:nk].reshape(-1, 4, ncol)
        g = ~self.kept
        y[g] = (X - np.einsum("iatp,actp->ictp", self.XU, back)).transpose(
            2, 3, 0, 1)[g]
        return y, kappa


def _points_last(X):
    """A copy of X, shaped (T, m1+m2, r, c), with the points last: shaped
    (r, c, T, m1+m2).

    einsum runs its loops along the last axis, so a contraction over every
    point of every fold takes one call, many times faster with the points
    last than with them first, and rounds as it does per point.
    """
    return X.transpose(2, 3, 0, 1).copy()


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
    condition number of the scaled dense systems, at least 1
    (FoldFactorization.kappa, from the same dense solves), or is not
    finite.  At lambda = 0, where the Hessian vanishes and K is singular,
    S is zero.
    """
    p = op.p
    pos, _ = p.point_index
    rhs = np.asarray(rhs)
    train = np.arange(pos.shape[1]) >= p.m1
    b = pos[..., 1] - 1                          # pair b, its position in G
    wHb, mHb, mXb = op.weights.wH[b], op.curvature.mH[b], op.curvature.mGH[b]
    # [rhs_t, c_t] on each point's unknowns, c_t fold t's part of the
    # column of C, filled in place
    rc = np.zeros(pos.shape + (2,), dtype=np.result_type(rhs, mHb))
    rc[..., 0] = rhs[pos]
    rc[..., 0, 1] = -mHb * train
    rc[..., 1, 1] = mXb * train
    rc[..., 3, 1] = -wHb * train
    c_col = rc[..., 1]
    folds = FoldFactorization(p, op.weights, op.curvature, shift, rc)
    y = folds.solution                           # K_t^{-1} [rhs_t, c_t]
    K_CC = np.sum(mHb[:, train]) + shift
    S = K_CC - np.sum(c_col * y[..., 1])
    S_scale = abs(K_CC) + np.sum(np.abs(c_col) * np.abs(y[..., 1]))
    if not (np.isfinite(S)
            and abs(S) > np.finfo(float).eps * folds.kappa * S_scale):
        raise SingularSystemError("Schur complement zero to rounding")
    x = np.empty(rhs.shape, dtype=y.dtype)
    x[0] = (rhs[0] - np.sum(c_col * y[..., 0])) / S
    x[pos] = y[..., 0] - y[..., 1] * x[0]
    return x


def _lifted_fold_system(D, free, coef, factors, N, mHa):
    """Fold t's lifted system of size 2n + 4k for FoldFactorization.

    coef holds F_p D_p^{-1} F_p^T (2x2) of every point, read for the points
    that are not free; N is the fold's dense data rows.  The system is not
    yet scaled.
    """
    n = N.shape[1]
    g, f = ~free, free
    k = int(f.sum())
    Ng = N[g]
    # U_g^T D_g^{-1} U_g on the 2n lifted unknowns, one product with the
    # data rows: its rows are (i; a, c, j), the system's (a, i; c, j)
    weighted = coef[g].reshape(-1, 4)[:, :, None] * Ng[:, None, :]
    low = (Ng.T @ weighted.reshape(len(Ng), 4 * n)).reshape(n, 2, 2, n)
    U_f = factors[f].swapaxes(1, 2)[..., None] * N[f][:, None, None, :]
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


PROBE_MAX_ITERS = 50      # licq_probe's iteration budget


def licq_probe(p, v, eps):
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
    is the whole space, after m steps).  Returns (sigma, iterations,
    converged); without convergence within min(PROBE_MAX_ITERS, m) steps
    sigma is the last estimate and converged is False.  When a fold
    system is singular (jjt_inverse raises), or a solve is not finite,
    sigma is the last estimate (NaN before the first) and converged is
    False.
    """
    point = KktPoint(v=np.asarray(v, dtype=float),
                     lam=np.zeros(p.m), eps=eps)
    sigma = float("nan")
    try:
        jjt_inv = jjt_inverse(KktOperator(p, point))
    except SingularSystemError:
        return sigma, 0, False

    dim = min(PROBE_MAX_ITERS, p.m)
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
