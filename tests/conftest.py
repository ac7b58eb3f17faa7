"""Shared fixtures: tiny synthetic instances and the bundled benchmark."""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import mpecsvc as M
from mpecsvc import problem as pb
from mpecsvc.svc import DualSvcConfig, DualSvcResult

DATA = Path(__file__).resolve().parent.parent / "data" / "heart_synth.libsvm"


def make_tiny_dataset(n_points=12, n_features=4, seed=0):
    """Small dense-ish random dataset with both labels present."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_points, n_features))
    w = rng.standard_normal(n_features)
    y = np.where(X @ w >= 0, 1, -1)
    y[0], y[1] = 1, -1   # both classes guaranteed
    points = tuple(
        tuple((j, float(X[i, j])) for j in range(n_features))
        for i in range(n_points)
    )
    return M.Dataset(points=points, labels=tuple(int(v) for v in y),
                     n_features=n_features)


@pytest.fixture(scope="session")
def tiny_ds():
    return make_tiny_dataset()


@pytest.fixture(scope="session")
def tiny_plan(tiny_ds):
    return M.make_split(tiny_ds, p1=6, T=3, seed=0)


@pytest.fixture(scope="session")
def tiny_p(tiny_ds, tiny_plan):
    # T=3, m1=2, m2=4 -> m = 2*3*6 = 36
    return M.assemble(tiny_ds, tiny_plan)


@pytest.fixture(scope="session")
def micro_p():
    """m=8 instance (T=2, m1=1, m2=1), small enough for dense SVD oracles."""
    ds = make_tiny_dataset(n_points=4, n_features=2, seed=1)
    plan = M.make_split(ds, p1=2, T=2, seed=0)
    return M.assemble(ds, plan)


@pytest.fixture(scope="session")
def heart_ds():
    return M.parse_libsvm(DATA)


@pytest.fixture(scope="session")
def heart_plan(heart_ds):
    return M.make_split(heart_ds, p1=150, T=3, seed=0)


@pytest.fixture(scope="session")
def heart_p(heart_ds, heart_plan):
    return M.assemble(heart_ds, heart_plan)


@pytest.fixture(scope="session")
def tiny_complementary_point(tiny_p):
    """Solution at eps ~ 1e-6: strictly complementary pairs, weights ~ 1e-13."""
    ocfg = M.OuterConfig(eps0=1.0, eps_min=1e-6, kappa=0.5)
    _, report = M.run_smoothing(tiny_p, ocfg, M.NewtonConfig(max_iters=100))
    return report.final_point


@pytest.fixture(scope="session")
def large_p():
    """Generated m = 4014 instance, beyond materialize_LH's m <= 4000 guard,
    so the structured solves there have no assembled reference."""
    ds = make_tiny_dataset(n_points=700, n_features=5, seed=3)
    return M.assemble(ds, M.make_split(ds, p1=669, T=3, seed=0))


@pytest.fixture(scope="session")
def wide_p():
    """Generated instance with more features than points (n = 300, m1 + m2
    = 60 per fold): 2n = 600 > 4(m1 + m2) = 240, so fold_solve forms each
    fold's K_t densely instead of lifting it."""
    ds = make_tiny_dataset(n_points=100, n_features=300, seed=5)
    return M.assemble(ds, M.make_split(ds, p1=60, T=3, seed=0))


@pytest.fixture
def forbid_assembly(monkeypatch):
    """Makes every builder of an explicit matrix (K, L^H, L^G) raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("the solver assembled a matrix")

    monkeypatch.setattr(M.KktOperator, "materialize_kkt", refuse)
    monkeypatch.setattr(pb, "materialize_LH", refuse)
    monkeypatch.setattr(pb, "materialize_LG", refuse)


def random_kkt_point(p, eps, seed=0):
    rng = np.random.default_rng(seed)
    return M.KktPoint(v=rng.standard_normal(p.m + 1),
                      lam=rng.standard_normal(p.m), eps=eps)


def spread(rng, k):
    """k random values of random sign with magnitudes from 1e-8 to 1e8,
    about a tenth of them +0.0 or -0.0."""
    x = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-8.0, 8.0, k)
    zeros = rng.random(k) < 0.1
    x[zeros] = rng.choice([-0.0, 0.0], int(zeros.sum()))
    return x


# The plain formulas of the maps, one scipy `@` per product with A, B or a
# transpose built at the call.  The compiled products must reproduce them
# bit for bit: heart's trajectory rests on the rounding of these products.

def plain_eval_H(p, v):
    C, zeta, z, alpha, xi = p.split_v(v)
    Bt_alpha = p.B.T @ alpha
    return np.concatenate([p.A @ Bt_alpha + z, 1.0 - zeta,
                           p.B @ Bt_alpha - 1.0 + xi, C - alpha])


def plain_apply_LH(p, d):
    dC, dzeta, dz, dalpha, dxi = p.split_v(d)
    Bt_dalpha = p.B.T @ dalpha
    return np.concatenate([p.A @ Bt_dalpha + dz, -dzeta,
                           p.B @ Bt_dalpha + dxi, dC - dalpha])


def plain_apply_LH_T(p, s):
    s1, s2, s3, s4 = p.split_m(s)
    return np.concatenate([[s4.sum()], -s2, s1,
                           p.B @ (p.A.T @ s1) + p.B @ (p.B.T @ s3) - s4, s3])


def plain_jac_t_apply(op, y):
    wt = op.weights
    return (np.concatenate([[0.0], wt.wG * y])
            + plain_apply_LH_T(op.p, wt.wH * y))


def plain_jac_apply(op, d):
    wt = op.weights
    return wt.wG * d[1:] + wt.wH * plain_apply_LH(op.p, d)


def plain_hess_apply(op, d):
    c = op.curvature
    u, w = d[1:], plain_apply_LH(op.p, d)
    return (np.concatenate([[0.0], c.mG * u + c.mGH * w])
            + plain_apply_LH_T(op.p, c.mH * w + c.mGH * u))


def plain_kkt_apply(op, d):
    p, nv = op.p, op.p.m + 1
    dv, dl = d[:nv], d[nv:]
    wt, c = op.weights, op.curvature
    u, w = dv[1:], plain_apply_LH(p, dv)
    g = c.mG * u + c.mGH * w - wt.wG * dl
    h = c.mGH * u + c.mH * w - wt.wH * dl
    return np.concatenate([np.concatenate([[0.0], g])
                           + plain_apply_LH_T(p, h),
                           -(wt.wG * u + wt.wH * w)])


@pytest.fixture
def plain_products(monkeypatch):
    """Runs the package on the plain formulas instead of its compiled
    products: eval_H, apply_LH, apply_LH_T and kkt_apply."""
    from mpecsvc.kkt import KktOperator

    monkeypatch.setattr(pb, "eval_H",
                        lambda p, v: plain_eval_H(p, pb._as_vector(p, v)))
    monkeypatch.setattr(pb, "apply_LH", plain_apply_LH)
    monkeypatch.setattr(pb, "apply_LH_T", plain_apply_LH_T)
    monkeypatch.setattr(KktOperator, "kkt_apply",
                        lambda op, d: plain_kkt_apply(op, np.asarray(d)))


# The fold elimination's contractions over the points as plain einsum loops.
# kkt's lifted fold systems and FoldFactorization.solve contract with BLAS
# products on the data rows instead, and must agree with these to rounding.

def plain_lifted_fold_system(D, free, XU, factors, N, mHa):
    n = N.shape[1]
    g, f = ~free, free
    k = int(f.sum())
    Ng, XUg, Fg = N[g], XU[g], factors[g]
    coef = np.einsum("pai,pic->pac", Fg, XUg)
    low = np.einsum("pi,pac,pj->aicj", Ng, coef, Ng)
    U_f = np.einsum("pai,pj->piaj", factors[f], N[f])
    Q = np.einsum("pi,p,pj->ij", N, mHa, N)
    eye = np.eye(n)
    M = np.zeros((4 * k + 2 * n,) * 2, dtype=D.dtype)
    for i, Dp in enumerate(D[f]):
        M[4 * i:4 * i + 4, 4 * i:4 * i + 4] = Dp
    M[:4 * k, 4 * k:] = U_f.reshape(4 * k, 2 * n)
    M[4 * k:, :4 * k] = M[:4 * k, 4 * k:].T
    M[4 * k:, 4 * k:] = (np.block([[Q, -eye], [-eye, np.zeros((n, n))]])
                         - low.reshape(2 * n, 2 * n))
    return M


def plain_fold_solve(folds, rhs_c):
    """FoldFactorization.solve on a built elimination, by einsum loops."""
    X = np.linalg.solve(folds.blocks, rhs_c)
    y = np.empty_like(X)
    ncol = rhs_c.shape[-1]
    for t, (M, scale, keep, Ng, Fg, XUg) in enumerate(folds.folds):
        Xg, nk = X[t, ~keep], 4 * int(keep.sum())
        low_r = np.einsum("pi,pac->aic", Ng,
                          np.einsum("pai,pic->pac", Fg, Xg))
        r = np.concatenate([rhs_c[t, keep].reshape(nk, ncol),
                            -low_r.reshape(-1, ncol)])
        sol = scale[:, None] * np.linalg.solve(M, scale[:, None] * r)
        back = np.einsum("pj,ajc->pac", Ng, sol[nk:].reshape(2, -1, ncol))
        y[t, ~keep] = Xg - np.einsum("pia,pac->pic", XUg, back)
        y[t, keep] = sol[:nk].reshape(-1, 4, ncol)
    return y


# The plain numpy loop of the dual coordinate descent, on numpy scalars.
# `svc.solve_l1svc_dual` runs the same steps on Python floats and must
# reproduce it bit for bit: alpha, w, epochs, status and violation.

def plain_l1svc_dual(rows, C, cfg=None):
    cfg = cfg or DualSvcConfig()
    R = rows.toarray() if sp.issparse(rows) else np.asarray(rows, dtype=float)
    N, n = R.shape
    qdiag = np.einsum("ij,ij->i", R, R)
    alpha = np.zeros(N)
    w = np.zeros(n)
    if C == 0.0 or N == 0:
        return DualSvcResult(alpha=alpha, w=w, epochs=0, max_violation=0.0,
                             status="converged")
    rng = np.random.default_rng(0)
    status = "max_epochs"
    epoch = 0
    violation = np.inf
    for epoch in range(1, cfg.max_epochs + 1):
        violation = 0.0
        for i in rng.permutation(N):
            if qdiag[i] == 0.0:
                continue
            g = float(R[i] @ w) - 1.0     # (Q alpha - 1)_i
            a = alpha[i]
            if a <= 0.0:
                pg = min(g, 0.0)
            elif a >= C:
                pg = max(g, 0.0)
            else:
                pg = g
            violation = max(violation, abs(pg))
            if pg != 0.0:
                a_new = min(max(a - g / qdiag[i], 0.0), C)
                if a_new != a:
                    w += (a_new - a) * R[i]
                    alpha[i] = a_new
        if violation <= cfg.tol:
            status = "converged"
            break
    return DualSvcResult(alpha=alpha, w=w, epochs=epoch,
                         max_violation=violation, status=status)
