"""Assembly of the cross-validation MPEC and matrix-free affine maps.

The decision variable is v = (C, zeta, z, alpha, xi) of length m+1 with
m = 2*T*(m1+m2).  The complementarity pair is G(v) = (zeta; z; alpha; xi)
and H(v) = (A B^T alpha + z; 1 - zeta; B B^T alpha - 1 + xi; C*1 - alpha),
where A and B stack the signed validation/training rows y_i x_i^T fold by
fold.  A B^T and B B^T are never formed densely: H and the linear maps below
cost O(nnz(A) + nnz(B)) per application.

Every product with the data rows runs scipy's compiled kernel csr_matvec
on a CSR matrix whose arguments (shape, indptr, indices, data) are bound
once per problem, on first use, and whose float64 data and canonical form
are checked then (_bind), not at each product.  The kernels
(MpecProblem.lh_kernels) bind A and B in place, sharing their arrays, and
A^T and B^T, each stored once as CSR; these two are the only copies of the
data rows that the maps add.  L^H takes three kernel calls: B^T alpha, then
A and B of it, straight into the A B^T and B B^T blocks of H.  (L^H)^T
takes four: A^T s1 and B^T s3, then B of each, kept apart and summed into
the alpha block.  csr_matvec adds a row's entries in stored order to a
zeroed output, as `@` does into a new zero vector, and a row of a transpose
stored as CSR lists its entries in the order in which the CSC transpose's
columns add them, so each output entry is rounded as in the product with
A, B, A^T or B^T by `@`.  (The row form is also faster than the CSC
scatter: 5.8 against 8.8 us for (A^T s1; B^T s3) on heart.)  So apply_LH,
apply_LH_T and eval_H round every entry as their plain formulas with `@`
do.  The maps check their vector arguments once on entry: the kernel would
cast a vector of another dtype or read past a short one, instead of
raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

def _bind(M):
    """The product x -> M @ x by scipy's compiled csr_matvec, M's arguments
    bound once.

    M is a CSR matrix with float64 data in canonical form (sorted,
    duplicate-free indices); anything else raises ValueError.  The product
    takes x, a float64 vector of length M.shape[1], and out, a C-contiguous
    float64 vector of length M.shape[0] that does not overlap x, or None
    for a new vector; it zeroes out, adds each row's products in stored
    order, and returns out, bit for bit M @ x.  It does not check x and
    out: its callers do, once per map.
    """
    if M.format != "csr" or M.data.dtype != np.float64 \
            or not M.has_canonical_format:
        raise ValueError(f"_bind needs a canonical CSR matrix with float64 "
                         f"data, got {M.format} with {M.data.dtype} data")
    kernel = _sparsetools.csr_matvec
    nrow, ncol = M.shape
    indptr, indices, data = M.indptr, M.indices, M.data

    def product(x, out=None):
        if out is None:
            out = np.empty(nrow)
        out.fill(0.0)
        kernel(nrow, ncol, indptr, indices, data, x, out)
        return out

    return product


class LHKernels(NamedTuple):
    """The bound products that apply L^H and (L^H)^T (module docstring)."""

    A: object        # y (T*n) -> A y (n1), on p.A's own arrays
    B: object        # y (T*n) -> B y (n2), on p.B's own arrays
    At: object       # s1 (n1) -> A^T s1 (T*n)
    Bt: object       # alpha (n2) -> B^T alpha (T*n)


def _check_vector(x, n, name):
    """Raise ValueError unless x is a float64 vector of length n."""
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64
            and x.shape == (n,)):
        raise ValueError(f"{name} must be a float64 vector of length {n}, "
                         f"got {getattr(x, 'dtype', type(x))} "
                         f"{getattr(x, 'shape', '')}")


@dataclass(frozen=True)
class MpecProblem:
    """The CV-MPEC's dimensions and its stacked data rows A and B.

    The maps' bound products and the transposes A^T and B^T (lh_kernels;
    see the module docstring) are built on first use and kept; assemble
    builds none.
    """

    T: int
    m1: int
    m2: int
    n: int
    A: sp.csr_matrix  # (T*m1, T*n), block-diagonal over folds
    B: sp.csr_matrix  # (T*m2, T*n), block-diagonal over folds

    @cached_property
    def m(self):
        return 2 * self.T * (self.m1 + self.m2)

    @cached_property
    def n1(self):
        """Size of the zeta and z blocks."""
        return self.T * self.m1

    @cached_property
    def n2(self):
        """Size of the alpha and xi blocks."""
        return self.T * self.m2

    @property
    def bH(self):
        """Constant part of H: blocks (0; 1; -1; 0)."""
        b = np.zeros(self.m)
        b[self.n1:2 * self.n1] = 1.0
        b[2 * self.n1:2 * self.n1 + self.n2] = -1.0
        return b

    @property
    def obj_grad(self):
        """Gradient of f(v) = mean(zeta)/1: value 1/(T*m1) on the zeta block."""
        g = np.zeros(self.m + 1)
        g[1:1 + self.n1] = 1.0 / (self.T * self.m1)
        return g

    def objective(self, v):
        return float(np.dot(self.obj_grad, v))

    def split_v(self, v):
        """Split v into (C, zeta, z, alpha, xi)."""
        n1, n2 = self.n1, self.n2
        return (
            float(v[0]),
            v[1:1 + n1],
            v[1 + n1:1 + 2 * n1],
            v[1 + 2 * n1:1 + 2 * n1 + n2],
            v[1 + 2 * n1 + n2:],
        )

    def split_m(self, s):
        """Split a length-m vector into the four G/H blocks."""
        n1, n2 = self.n1, self.n2
        return s[:n1], s[n1:2 * n1], s[2 * n1:2 * n1 + n2], s[2 * n1 + n2:]

    @cached_property
    def lh_kernels(self):
        """The maps' four products (LHKernels), bound once, on first use:
        A and B on their own arrays, A^T and B^T stored as CSR."""
        A, B = self.A, self.B
        return LHKernels(A=_bind(A), B=_bind(B), At=_bind(A.T.tocsr()),
                         Bt=_bind(B.T.tocsr()))

    @cached_property
    def fold_index(self):
        """Fold index sets of r = (v, lambda) and the border {C}.

        Returns (folds, border): folds[t] holds the positions in r of fold
        t's zeta, z, alpha and xi and of their multipliers, in that order;
        border holds the position of C.  A B^T and B B^T are block diagonal
        over folds and only the H block C*1 - alpha touches C, so J_r F_eps
        couples two folds through C alone.  Computed on first use.
        """
        n1, n2, m1, m2 = self.n1, self.n2, self.m1, self.m2
        folds = []
        for t in range(self.T):
            zeta = np.arange(t * m1, (t + 1) * m1)
            alpha = np.arange(t * m2, (t + 1) * m2)
            g = np.concatenate([zeta, n1 + zeta, 2 * n1 + alpha,
                                2 * n1 + n2 + alpha])   # positions in G
            folds.append(np.concatenate([1 + g, self.m + 1 + g]))
        return tuple(folds), np.array([0])

    @cached_property
    def point_index(self):
        """Each data point's four unknowns in r = (v, lambda) and its data row.

        Point i of fold t is the fold's validation point i for i < m1 and its
        training point i - m1 otherwise.  A point owns two pairs, a and b:
        pairs 1 and 2 (G = zeta and z) for a validation point, pairs 3 and 4
        (G = alpha and xi) for a training point.  Its unknowns are the G-sides
        of a and b and their two multipliers.  Returns (pos, rows): pos[t, i]
        holds the positions of these four unknowns in r, shape (T, m1+m2, 4),
        and rows[t] is fold t's N_t = [A_t; B_t], the points' rows of A and B
        in the fold's column block, as a sparse (m1+m2) x n CSR matrix.
        Computed on first use.
        """
        T, m1, m2, n, n1, n2 = self.T, self.m1, self.m2, self.n, self.n1, self.n2
        a = np.concatenate([np.arange(n1).reshape(T, m1),
                            2 * n1 + np.arange(n2).reshape(T, m2)], axis=1)
        b = np.concatenate([n1 + np.arange(n1).reshape(T, m1),
                            2 * n1 + n2 + np.arange(n2).reshape(T, m2)], axis=1)
        pos = np.stack([1 + a, 1 + b, self.m + 1 + a, self.m + 1 + b], axis=-1)
        rows = tuple(
            sp.vstack([self.A[t * m1:(t + 1) * m1, t * n:(t + 1) * n],
                       self.B[t * m2:(t + 1) * m2, t * n:(t + 1) * n]],
                      format="csr")
            for t in range(T))
        return pos, rows

    @cached_property
    def fold_grams(self):
        """Dense N_t N_t^T of each fold's rows (point_index), one per fold,
        built on first use: only a fold that fold_solve forms densely reads
        it, so a problem whose folds are all lifted never builds them."""
        return tuple((N @ N.T).toarray() for N in self.point_index[1])


def assemble(ds, plan):
    """Build the MpecProblem for a dataset and split plan.

    Fold t contributes A^t (validation rows of fold t) and B^t (training rows,
    i.e. the other T-1 folds in fold order).
    """
    T, m1, m2 = plan.T, plan.m1, plan.m2
    if m2 == 0:
        raise ValueError(f"T={T} folds of m1={m1} points leave an empty "
                         "training set (m2=0)")
    if any(len(f) != m1 for f in plan.folds):
        raise ValueError("folds are not of equal size")
    folds = np.array(plan.folds, dtype=np.intp).reshape(T, m1)
    outside = folds[(folds < 0) | (folds >= len(ds))]
    if outside.size:
        raise ValueError(f"fold index {outside[0]} outside dataset")
    train = np.stack([np.delete(folds, t, axis=0).ravel() for t in range(T)])
    A, B = (_canonical(_fold_diagonal(ds, rows)) for rows in (folds, train))
    return MpecProblem(T=T, m1=m1, m2=m2, n=ds.n_features, A=A, B=B)


def _fold_diagonal(ds, rows):
    """Block-diagonal CSR matrix whose block t holds the signed rows of the
    points rows[t] (a (T, k) index array), in column block t of n columns.

    One selection of all T*k rows, with each row's column indices shifted
    by t*n; scipy keeps the indices int32 while the shape allows it.
    """
    T, k = rows.shape
    n = ds.n_features
    R = ds.signed_rows(rows.ravel())
    shift = np.repeat(np.repeat(n * np.arange(T), k), np.diff(R.indptr))
    return sp.csr_matrix((R.data, R.indices + shift, R.indptr),
                         shape=(T * k, T * n))


def _canonical(M):
    """M with float64 data and sorted, duplicate-free indices, as _bind
    needs.  Rows from Dataset.signed_rows are so already when the
    Dataset's X is canonical, as parse_libsvm's is."""
    M = M.astype(np.float64, copy=False)
    M.sum_duplicates()
    return M


def _as_vector(p, v):
    v = np.asarray(v, dtype=float)
    if v.shape != (p.m + 1,):
        raise ValueError(f"expected v of length {p.m + 1}, got {v.shape}")
    return v


def eval_G(p, v):
    """G(v) = (zeta; z; alpha; xi) = L^G v."""
    return _as_vector(p, v)[1:].copy()


def eval_H(p, v):
    """H(v) = L^H v + b^H, computed matrix-free."""
    v = _as_vector(p, v)
    C, zeta, z, alpha, xi = p.split_v(v)
    k = p.lh_kernels
    out = np.empty(p.m)
    h1, h2, h3, h4 = p.split_m(out)
    y = k.Bt(alpha)
    k.A(y, h1)
    k.B(y, h3)
    h1 += z
    np.subtract(1.0, zeta, out=h2)
    h3 -= 1.0
    h3 += xi
    np.subtract(C, alpha, out=h4)
    return out


def apply_LG(p, d):
    """L^G d for d of length m+1 (drops the C component)."""
    return d[1:]


def apply_LG_T(p, s):
    """(L^G)^T s for s of length m."""
    out = np.empty(p.m + 1)
    out[0] = 0.0
    out[1:] = s
    return out


def apply_LH(p, d):
    """L^H d (the linear part of H) for d, a float64 vector of length m+1.

    Three kernel calls: B^T dalpha, then A and B of it.
    """
    _check_vector(d, p.m + 1, "d")
    dC, dzeta, dz, dalpha, dxi = p.split_v(d)
    k = p.lh_kernels
    out = np.empty(p.m)
    o1, o2, o3, o4 = p.split_m(out)
    y = k.Bt(dalpha)
    k.A(y, o1)
    k.B(y, o3)
    o1 += dz
    np.negative(dzeta, out=o2)
    o3 += dxi
    np.subtract(dC, dalpha, out=o4)
    return out


def apply_LH_T(p, s):
    """(L^H)^T s for s, a float64 vector of length m.

    Four kernel calls: A^T s1 and B^T s3, then B of each.  The alpha block
    keeps its two B products apart, B (A^T s1) + B (B^T s3) - s4, for
    their rounding.
    """
    _check_vector(s, p.m, "s")
    out = np.empty(p.m + 1)
    s1, s2, s3, s4 = p.split_m(s)
    n1, n2 = p.n1, p.n2
    k = p.lh_kernels
    out[0] = s4.sum()
    np.negative(s2, out=out[1:1 + n1])
    out[1 + n1:1 + 2 * n1] = s1
    o3 = k.B(k.At(s1), out[1 + 2 * n1:1 + 2 * n1 + n2])
    o3 += k.B(k.Bt(s3))
    o3 -= s4
    out[1 + 2 * n1 + n2:] = s3
    return out


def materialize_LG(p):
    """Explicit sparse L^G."""
    return sp.hstack(
        [sp.csr_matrix((p.m, 1)), sp.identity(p.m, format="csr")], format="csr"
    )


def materialize_LH(p):
    """Explicit sparse L^H (contains dense B B^T blocks; m <= 4000 only)."""
    if p.m > 4000:
        raise ValueError(f"refusing to materialize L^H for m={p.m} > 4000")
    n1, n2 = p.n1, p.n2
    I1 = sp.identity(n1)
    I2 = sp.identity(n2)
    Z = sp.csr_matrix
    ABt = p.A @ p.B.T
    BBt = p.B @ p.B.T
    ones = np.ones((n2, 1))
    rows = [
        [Z((n1, 1)), Z((n1, n1)), I1, ABt, Z((n1, n2))],
        [Z((n1, 1)), -I1, Z((n1, n1)), Z((n1, n2)), Z((n1, n2))],
        [Z((n2, 1)), Z((n2, n1)), Z((n2, n1)), BBt, I2],
        [sp.csr_matrix(ones), Z((n2, n1)), Z((n2, n1)), -I2, Z((n2, n2))],
    ]
    return sp.bmat(rows, format="csr")


def sparsity_stats(p):
    """Dimension and nnz bookkeeping (report.json's dims)."""
    return {
        "T": p.T,
        "m1": p.m1,
        "m2": p.m2,
        "n": p.n,
        "m": p.m,
        "n_vars": p.m + 1,
        "nnz_A": int(p.A.nnz),
        "nnz_B": int(p.B.nnz),
    }
