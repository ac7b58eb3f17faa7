"""Shared fixtures: tiny synthetic instances and the bundled benchmark."""

import math
from array import array
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import mpecsvc as M
from mpecsvc import problem as pb
from mpecsvc.data import ParseError
from mpecsvc.kkt import fold_solve
from mpecsvc.svc import (DualSvcResult, GridResult, solve_l1svc_dual,
                         validation_error)

DATA = Path(__file__).resolve().parent.parent / "data" / "heart_synth.libsvm"


def tiny_arrays(n_points=12, n_features=4, seed=0):
    """Dense random points X and labels y of +1/-1 with both present."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_points, n_features))
    w = rng.standard_normal(n_features)
    y = np.where(X @ w >= 0, 1, -1)
    y[0], y[1] = 1, -1   # both classes guaranteed
    return X, y


def make_tiny_dataset(n_points=12, n_features=4, seed=0):
    """Small dense-ish random dataset with both labels present."""
    X, y = tiny_arrays(n_points, n_features, seed)
    return M.Dataset(X=sp.csr_matrix(X), labels=y.astype(float))


# The generated instances' (n_points, n_features, seed) and p1; each is
# split into T = 3 folds with seed 0.
GENERATED = {"tiny_p": ((12, 4, 0), 6), "large_p": ((700, 5, 3), 669),
             "wide_p": ((100, 300, 5), 60)}


def generated(name):
    """The dataset and split plan of a GENERATED instance."""
    args, p1 = GENERATED[name]
    ds = make_tiny_dataset(*args)
    return ds, M.make_split(ds, p1=p1, T=3, seed=0)


@pytest.fixture(scope="session")
def tiny_ds():
    return generated("tiny_p")[0]


@pytest.fixture(scope="session")
def tiny_plan():
    return generated("tiny_p")[1]


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
    ocfg = M.OuterConfig(eps_min=1e-6)
    report = M.run_smoothing(tiny_p, ocfg, M.NewtonConfig(max_iters=100))
    return report.final_point


@pytest.fixture(scope="session")
def large_p():
    """Generated m = 4014 instance, beyond materialize_LH's m <= 4000 guard,
    so the structured solves there have no assembled reference."""
    return M.assemble(*generated("large_p"))


@pytest.fixture(scope="session")
def wide_p():
    """Generated instance with more features than points (n = 300, m1 + m2
    = 60 per fold): 2n = 600 > 4(m1 + m2) = 240, so fold_solve forms each
    fold's K_t densely instead of lifting it."""
    return M.assemble(*generated("wide_p"))


# Rows copied, labels with them, onto the rows after them: LIBSVM files
# often hold the same point twice.
DUPLICATES = {0: 1, 2: 3, 8: 9, 10: 11}


def duplicated(n_points, n_features, p1):
    """tiny_arrays(n_points, n_features, seed=5) with the DUPLICATES copied,
    as (dataset, split plan) split into T = 3 folds with seed 0."""
    X, y = tiny_arrays(n_points, n_features, seed=5)
    src, dst = list(DUPLICATES), list(DUPLICATES.values())
    X[dst], y[dst] = X[src], y[src]
    ds = M.Dataset(X=sp.csr_matrix(X), labels=y.astype(float))
    return ds, M.make_split(ds, p1=p1, T=3, seed=0)


@pytest.fixture(scope="session")
def duplicated_instances():
    """(split plan, problem) with duplicated points, by name: narrow (60
    points, 4 features, p1 = 30; its folds are lifted) and wide (100
    points, 300 features, p1 = 60; its folds are formed densely)."""
    out = {}
    for name, args in (("narrow", (60, 4, 30)), ("wide", (100, 300, 60))):
        ds, plan = duplicated(*args)
        out[name] = plan, M.assemble(ds, plan)
    return out


@pytest.fixture
def forbid_assembly(monkeypatch):
    """Makes every builder of an explicit matrix (K and L^H) raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("the solver assembled a matrix")

    monkeypatch.setattr(M.KktOperator, "materialize_kkt", refuse)
    monkeypatch.setattr(pb, "materialize_LH", refuse)


def schur_cone_rel_errors(p, r):
    """fold_solve(K, e_C, 0) at r against assumption2_value at r: the
    relative errors of 1/x_C against A2_cone and of x_v/x_C against U.

    K x = e_C forces x_v = x_C U (the multiplier rows say J x_v = 0) and
    x_C U^T hess U = 1 (U^T times the v rows), so 1/x_C, the Schur
    complement on C, is the curvature A2_cone along the critical cone.
    """
    diag = M.assumption2_value(p, r)
    e_C = np.zeros(2 * p.m + 1)
    e_C[0] = 1.0
    x = fold_solve(M.KktOperator(p, r), e_C, 0.0)
    U = diag["U"]
    return (abs(1.0 / x[0] - diag["A2_cone"]) / abs(diag["A2_cone"]),
            np.linalg.norm(x[:p.m + 1] / x[0] - U) / np.linalg.norm(U))


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


# The dataset as tuples of (index, value) pairs per point, with the
# tuple-loop views and assembly that `data.Dataset` and `problem.assemble`
# replace.  The CSR views must reproduce them bit for bit: data, indices,
# indptr and their dtypes.  A plain dataset is (points, labels, n_features).

def plain_parse(path):
    """A valid LIBSVM file as a plain dataset, read token by token."""
    points, labels = [], []
    with open(path) as fh:
        for line in fh:
            tokens = line.split()
            if tokens:
                labels.append(int(float(tokens[0])))
                pairs = (tok.split(":") for tok in tokens[1:])
                points.append(tuple((int(j) - 1, float(v)) for j, v in pairs))
    labels = [1 if y == 1 else -1 for y in labels]
    n = max((j + 1 for pt in points for j, _ in pt), default=0)
    return tuple(points), tuple(labels), n


# The token-by-token reader that `data._read`'s blocks replace, verbatim.
# The block reader must return its arrays bit for bit, or raise its
# ParseError with the same message and line number.

_INT32_MAX = int(np.iinfo(np.int32).max)


def plain_parse_label(token, lineno):
    try:
        raw = float(token)
    except ValueError:
        raise ParseError(lineno, f"bad label {token!r}") from None
    if raw not in (-1.0, 0.0, 1.0):
        raise ParseError(lineno, f"label {raw} outside recognized set {{-1, 0, +1}}")
    return int(raw)


def plain_read(fh):
    labels, cols, vals = array("d"), array("i"), array("d")
    indptr, linenos = array("q", [0]), array("q")
    for lineno, line in enumerate(fh, start=1):
        tokens = line.split()
        if not tokens:
            continue
        labels.append(plain_parse_label(tokens[0], lineno))
        linenos.append(lineno)
        prev = 0
        for tok in tokens[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx, val = int(idx_s), float(val_s)
            except ValueError:
                raise ParseError(lineno, f"bad feature token {tok!r}") from None
            if idx < 1:
                raise ParseError(lineno, f"feature index {idx} < 1")
            if idx <= prev:
                raise ParseError(lineno, f"non-increasing feature index {idx}")
            if idx > _INT32_MAX:
                raise ParseError(lineno, f"feature index {idx} > {_INT32_MAX}")
            prev = idx
            cols.append(idx)
            vals.append(val)
        indptr.append(len(cols))
    return labels, cols, vals, indptr, linenos


def write_generated_libsvm(path, n_points=1500, n_features=30, seed=0):
    """A seeded LIBSVM file of n_points rows, about 30% of the features
    set, with every 7th row label-only; returns its Dataset."""
    rng = np.random.default_rng(seed)
    X = sp.random(n_points, n_features, density=0.3, format="csr",
                  random_state=rng, data_rvs=rng.standard_normal)
    X.data[np.repeat(np.arange(n_points) % 7 == 0, np.diff(X.indptr))] = 0.0
    X.eliminate_zeros()
    y = np.where(rng.random(n_points) < 0.5, -1.0, 1.0)
    ds = M.Dataset(X=X, labels=y)
    M.write_libsvm(ds, path)
    return ds


def plain_generated(name):
    """A GENERATED instance's dataset as a plain dataset."""
    (n_points, n_features, seed), _ = GENERATED[name]
    X, y = tiny_arrays(n_points, n_features, seed)
    points = tuple(tuple((j, float(X[i, j])) for j in range(n_features))
                   for i in range(n_points))
    return points, tuple(int(v) for v in y), n_features


def plain_to_csr(plain, indices):
    points, _, n = plain
    data, cols, indptr = [], [], [0]
    for i in indices:
        for j, val in points[i]:
            cols.append(j)
            data.append(val)
        indptr.append(len(data))
    return sp.csr_matrix((np.asarray(data, dtype=float), cols, indptr),
                         shape=(len(indptr) - 1, n))


def plain_signed_rows(plain, indices):
    y = np.asarray([plain[1][i] for i in indices], dtype=float)
    return sp.diags(y) @ plain_to_csr(plain, indices)


def plain_assemble(plain, plan):
    """(A, B) of problem.assemble, from sp.block_diag of the signed rows."""
    T = plan.T
    A_blocks, B_blocks = [], []
    for t in range(T):
        A_blocks.append(plain_signed_rows(plain, plan.folds[t]))
        train = [i for s in range(T) if s != t for i in plan.folds[s]]
        B_blocks.append(plain_signed_rows(plain, train))
    A, B = (sp.block_diag(blocks, format="csr").astype(np.float64, copy=False)
            for blocks in (A_blocks, B_blocks))
    A.sum_duplicates()
    B.sum_duplicates()
    return A, B


def plain_scale_features(plain):
    points, labels, n = plain
    scale = np.zeros(n)
    for pairs in points:
        for j, v in pairs:
            scale[j] = max(scale[j], abs(v))
    scale[scale == 0.0] = 1.0
    points = tuple(
        tuple((j, v / scale[j]) for j, v in pairs) for pairs in points
    )
    return points, labels, n


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

    monkeypatch.setattr(pb, "eval_H", plain_eval_H)
    monkeypatch.setattr(pb, "apply_LH", plain_apply_LH)
    monkeypatch.setattr(pb, "apply_LH_T", plain_apply_LH_T)
    monkeypatch.setattr(KktOperator, "kkt_apply",
                        lambda op, d: plain_kkt_apply(op, np.asarray(d)))


# The fold elimination's contractions over the points as plain einsum loops.
# kkt's lifted fold systems and FoldFactorization.solve contract with BLAS
# products on the data rows instead, and must agree with these to rounding.

def plain_lifted_fold_system(D, free, coef, factors, N, mHa):
    n = N.shape[1]
    g, f = ~free, free
    k = int(f.sum())
    Ng = N[g]
    low = np.einsum("pi,pac,pj->aicj", Ng, coef[g], Ng)
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
    for t, (M, scale, keep, _, Ng) in enumerate(folds.folds):
        Xg, nk = X[t, ~keep], 4 * int(keep.sum())
        # the per-point arrays keep the points last: (row, column, fold,
        # point)
        Fg = folds.F[:, :, t].transpose(2, 0, 1)[~keep]
        XUg = folds.XU[:, :, t].transpose(2, 0, 1)[~keep]
        low_r = np.einsum("pi,pac->aic", Ng,
                          np.einsum("pai,pic->pac", Fg, Xg))
        r = np.concatenate([rhs_c[t, keep].reshape(nk, ncol),
                            -low_r.reshape(-1, ncol)])
        sol = scale[:, None] * np.linalg.solve(M, scale[:, None] * r)
        back = np.einsum("pj,ajc->pac", Ng, sol[nk:].reshape(2, -1, ncol))
        y[t, ~keep] = Xg - np.einsum("pia,pac->pic", XUg, back)
        y[t, keep] = sol[:nk].reshape(-1, 4, ncol)
    return y


# Van der Vorst's BiCGStab recursion with no stopping test, no absolute floor
# and no best iterate.  `krylov.bicgstab` runs the same update expressions
# from the same start and must stop at one of these iterates, bit for bit.

def plain_bicgstab(apply, rhs, iters):
    """The iterates x_0, ..., x_iters of BiCGStab from x_0 = 0 on
    apply(x) = rhs, and their recursive residual norms ||r_k||.  iters must
    end before the recursion converges, which divides by zero."""
    x = np.zeros(rhs.shape[0])
    r = r_hat = rhs
    rho = alpha = omega = 1.0
    v = p = np.zeros(rhs.shape[0])
    xs, norms = [x], [math.sqrt(np.dot(r, r))]
    for _ in range(iters):
        rho_new = float(np.dot(r_hat, r))
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        v = apply(p)
        alpha = rho / float(np.dot(r_hat, v))
        s = r - alpha * v
        t = apply(s)
        omega = float(np.dot(t, s)) / float(np.dot(t, t))
        x = x + alpha * p + omega * s
        r = s - omega * t
        xs.append(x)
        norms.append(math.sqrt(np.dot(r, r)))
    return xs, norms


# The plain numpy loop of the dual coordinate descent, on numpy scalars.
# `svc.solve_l1svc_dual` runs the same steps on Python floats and must
# reproduce it bit for bit: alpha, w, epochs, status and violation.

def plain_l1svc_dual(rows, C, max_epochs=1000, tol=1e-8):
    R = np.asarray(rows, dtype=float)
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
    for epoch in range(1, max_epochs + 1):
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
        if violation <= tol:
            status = "converged"
            break
    return DualSvcResult(alpha=alpha, w=w, epochs=epoch,
                         max_violation=violation, status=status)


# The grid search as one serial loop over the C values and folds in grid
# order.  `svc.grid_search` runs the same cells in worker processes and must
# return the same table, best row, statuses and epochs.

def serial_grid_search(ds, plan, grid):
    fold_rows = []
    for t in range(plan.T):
        train = [i for s in range(plan.T) if s != t for i in plan.folds[s]]
        fold_rows.append((ds.signed_rows(train).toarray(), plan.folds[t]))
    table, statuses, epochs = [], [], []
    for C in grid:
        errs, cell_status, cell_epochs = [], [], []
        for rows, val_idx in fold_rows:
            res = solve_l1svc_dual(rows, C)
            cell_status.append(res.status)
            cell_epochs.append(res.epochs)
            errs.append(validation_error(ds, val_idx, res.w))
        table.append((float(C), 100.0 * float(np.mean(errs))))
        statuses.append(cell_status)
        epochs.append(cell_epochs)
    best_C, best_error = min(table, key=lambda row: (row[1], row[0]))
    return GridResult(table=table, best_C=best_C, best_error=best_error,
                      statuses=statuses, epochs=epochs)
