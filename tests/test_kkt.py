"""KKT residual, Jacobian/Hessian applies, merit calculus, LICQ probe."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import mpecsvc as M
from mpecsvc import kkt
from mpecsvc import problem as pb
from mpecsvc.kkt import (FoldFactorization, KktOperator, KktPoint,
                         SingularSystemError, constraint_fold_solves,
                         fold_solve, jjt_inverse, licq_probe)
from scipy.linalg.lapack import get_lapack_funcs
from mpecsvc.smoothing import fb_value

from conftest import (make_tiny_dataset, plain_fold_solve,
                      plain_lifted_fold_system, random_kkt_point)


def fd_dir(fn, x, d, h):
    return (fn(x + h * d) - fn(x - h * d)) / (2 * h)


class TestResidual:
    def test_structure(self, tiny_p):
        r = random_kkt_point(tiny_p, eps=0.3, seed=0)
        op = KktOperator(tiny_p, r)
        F = op.residual()
        nv = tiny_p.m + 1
        G = pb.eval_G(tiny_p, r.v)
        H = pb.eval_H(tiny_p, r.v)
        np.testing.assert_allclose(F[nv:], -fb_value(G, H, 0.3), atol=1e-12)
        # gradient block: obj_grad - J^T lam
        np.testing.assert_allclose(
            F[:nv], tiny_p.obj_grad - op.jac_t_apply(r.lam), atol=1e-12)

    def test_eps_positive_required(self, tiny_p):
        r = random_kkt_point(tiny_p, eps=0.0)
        with pytest.raises(ValueError):
            KktOperator(tiny_p, r)

    def test_operator_caches_point_copy(self, tiny_p):
        r = random_kkt_point(tiny_p, eps=0.5, seed=1)
        op = KktOperator(tiny_p, r)
        F0 = op.residual()
        r.v[:] = 0.0  # mutating the point must not change the operator
        np.testing.assert_allclose(op.residual(), F0)


class TestDerivatives:
    def test_jac_apply_matches_fd(self, tiny_p):
        rng = np.random.default_rng(2)
        r = random_kkt_point(tiny_p, eps=0.2, seed=2)
        op = KktOperator(tiny_p, r)
        h = 1e-6 * (1.0 + np.linalg.norm(r.v))

        def phi_at(v):
            return fb_value(pb.eval_G(tiny_p, v), pb.eval_H(tiny_p, v), 0.2)

        for _ in range(3):
            d = rng.standard_normal(tiny_p.m + 1)
            fd = fd_dir(phi_at, r.v, d, h)
            got = op.jac_apply(d)
            assert np.linalg.norm(got - fd) <= 1e-6 * max(np.linalg.norm(fd), 1.0)

    def test_jac_matches_materialized(self, tiny_p):
        r = random_kkt_point(tiny_p, eps=0.7, seed=3)
        op = KktOperator(tiny_p, r)
        J = op.materialize_jacobian()
        rng = np.random.default_rng(3)
        d = rng.standard_normal(tiny_p.m + 1)
        np.testing.assert_allclose(op.jac_apply(d), J @ d, atol=1e-10)
        y = rng.standard_normal(tiny_p.m)
        np.testing.assert_allclose(op.jac_t_apply(y), J.T @ y, atol=1e-10)

    def test_hess_apply_matches_fd(self, tiny_p):
        rng = np.random.default_rng(4)
        r = random_kkt_point(tiny_p, eps=0.3, seed=4)
        op = KktOperator(tiny_p, r)
        h = 1e-6 * (1.0 + np.linalg.norm(r.v))

        def gradL(v):
            o = KktOperator(tiny_p, KktPoint(v=v, lam=r.lam, eps=0.3))
            return tiny_p.obj_grad - o.jac_t_apply(r.lam)

        d = rng.standard_normal(tiny_p.m + 1)
        fd = fd_dir(gradL, r.v, d, h)
        got = op.hess_apply(d)
        assert np.linalg.norm(got - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)

    def test_hess_symmetric(self, tiny_p):
        r = random_kkt_point(tiny_p, eps=0.5, seed=5)
        op = KktOperator(tiny_p, r)
        rng = np.random.default_rng(5)
        d = rng.standard_normal(tiny_p.m + 1)
        e = rng.standard_normal(tiny_p.m + 1)
        assert np.dot(e, op.hess_apply(d)) == pytest.approx(
            np.dot(d, op.hess_apply(e)), rel=1e-10, abs=1e-10)

    def test_kkt_apply_symmetric(self, tiny_p):
        r = random_kkt_point(tiny_p, eps=0.4, seed=6)
        op = KktOperator(tiny_p, r)
        rng = np.random.default_rng(6)
        d = rng.standard_normal(2 * tiny_p.m + 1)
        e = rng.standard_normal(2 * tiny_p.m + 1)
        lhs = float(np.dot(e, op.kkt_apply(d)))
        rhs = float(np.dot(d, op.kkt_apply(e)))
        assert abs(lhs - rhs) <= 1e-10 * max(
            np.linalg.norm(d) * np.linalg.norm(e), 1.0)

    @pytest.mark.parametrize("name", ["tiny_p", "heart_p", "complementary"])
    def test_kkt_apply_matches_assembled(self, name, request):
        if name == "complementary":
            p = request.getfixturevalue("tiny_p")
            op = KktOperator(p, request.getfixturevalue(
                "tiny_complementary_point"))
        else:
            p = request.getfixturevalue(name)
            op = KktOperator(p, random_kkt_point(p, eps=0.05, seed=8))
        K = op.materialize_kkt()
        rng = np.random.default_rng(8)
        for _ in range(3):
            d = rng.standard_normal(2 * p.m + 1)
            ref = K @ d
            assert np.linalg.norm(op.kkt_apply(d) - ref) <= (
                1e-14 * np.linalg.norm(ref))

    def test_merit_grad_matches_fd(self, tiny_p):
        r = random_kkt_point(tiny_p, eps=0.3, seed=7)
        rng = np.random.default_rng(7)
        h = 1e-6 * (1.0 + np.linalg.norm(r.to_vector()))
        grad = M.merit_grad(tiny_p, r)
        for _ in range(3):
            dr = rng.standard_normal(2 * tiny_p.m + 1)
            fd = (M.merit(tiny_p, KktPoint.from_vector(tiny_p, r.to_vector() + h * dr, 0.3))
                  - M.merit(tiny_p, KktPoint.from_vector(tiny_p, r.to_vector() - h * dr, 0.3))) / (2 * h)
            assert float(np.dot(grad, dr)) == pytest.approx(fd, rel=1e-5)


def dense_sigma_min(p, v, eps):
    op = KktOperator(p, KktPoint(v=v, lam=np.zeros(p.m), eps=eps))
    return np.linalg.svd(op.materialize_jacobian(), compute_uv=False)[-1]


def complementary_weights_operator(p, rng):
    """Operator at a random point with the weights of a strictly
    complementary point: in each pair the weight of the positive side is
    ~1e-12, the other ~1; zeta in {0, 1}; alpha at 0, free (5 per fold) or
    at C with xi > 0."""
    tiny = 1e-12
    wG, wH = np.empty(p.m), np.empty(p.m)
    G1, G2, G3, G4 = p.split_m(wG)
    H1, H2, H3, H4 = p.split_m(wH)
    zeta_zero = rng.random(p.n1) < 0.5
    for G, H in ((G1, H1), (G2, H2)):
        G[:] = np.where(zeta_zero, 1.0, tiny)
        H[:] = np.where(zeta_zero, tiny, 1.0)
    state = rng.choice([0, 2], size=p.n2)
    for t in range(p.T):
        state[t * p.m2 + rng.choice(p.m2, 5, replace=False)] = 1
    G3[:] = np.where(state == 0, 1.0, tiny)
    H3[:] = np.where(state == 0, tiny, 1.0)
    G4[:] = np.where(state == 2, tiny, 1.0)
    H4[:] = np.where(state == 2, 1.0, tiny)
    op = KktOperator(p, random_kkt_point(p, 1e-6))
    op.weights = replace(op.weights, wG=wG, wH=wH)
    return op


def constraint_fold_systems(op, rng):
    """(A, x, b) with A x = b for solve(r), solve_t(r) and solve(c)."""
    solve, solve_t, c = constraint_fold_solves(op)
    if op.p.m > 4000:
        J_f = matrix_free_fold_jacobian(op)
    else:
        J_f = op.materialize_jacobian()[:, 1:]
    r = rng.standard_normal(op.p.m)
    return [(J_f, solve(r), r), (J_f.T, solve_t(r), r), (J_f, solve(c), c)]


def matrix_free_fold_jacobian(op):
    """J_f = (J_v Phi)[:, 1:] as a LinearOperator on jac_apply/jac_t_apply."""
    m = op.p.m
    return spla.LinearOperator(
        (m, m), dtype=float,
        matvec=lambda x: op.jac_apply(np.concatenate([[0.0], np.ravel(x)])),
        rmatvec=lambda y: op.jac_t_apply(np.ravel(y))[1:])


class TestLicq:
    def test_probe_matches_dense_svd(self, micro_p):
        rng = np.random.default_rng(8)
        for eps in (1.0, 1e-2):
            v = np.abs(rng.standard_normal(micro_p.m + 1)) + 0.1
            est, _, converged = licq_probe(micro_p, v, eps)
            assert converged
            assert est == pytest.approx(dense_sigma_min(micro_p, v, eps),
                                        rel=1e-6)

    @pytest.mark.parametrize("eps", [1.0, 0.1, 1e-2, 1e-4])
    def test_probe_matches_dense_svd_on_heart(self, heart_p, eps):
        rng = np.random.default_rng(9)
        v = np.abs(rng.standard_normal(heart_p.m + 1)) + 0.1
        est, iters, converged = licq_probe(heart_p, v, eps)
        assert converged and iters <= 50
        assert est == pytest.approx(dense_sigma_min(heart_p, v, eps), rel=1e-6)

    @pytest.mark.parametrize("eps", [1.0, 1e-3])
    def test_jjt_inverse_solves_jjt(self, tiny_p, eps):
        rng = np.random.default_rng(10)
        v = rng.standard_normal(tiny_p.m + 1)
        op = KktOperator(tiny_p, KktPoint(v=v, lam=np.zeros(tiny_p.m), eps=eps))
        J = op.materialize_jacobian()
        y = rng.standard_normal(tiny_p.m)
        np.testing.assert_allclose(jjt_inverse(op)(y),
                                   np.linalg.solve(J @ J.T, y), rtol=1e-8)

    def test_jjt_inverse_near_complementarity(self, tiny_p,
                                              tiny_complementary_point):
        # a weight of each pair is ~1e-13 here; dividing by it loses digits
        op = KktOperator(tiny_p, tiny_complementary_point)
        J = op.materialize_jacobian()
        y = np.random.default_rng(14).standard_normal(tiny_p.m)
        z = jjt_inverse(op)(y)
        assert np.linalg.norm(J @ (J.T @ z) - y) <= 1e-10 * np.linalg.norm(y)

    def test_fold_solves_at_strictly_complementary_weights(self, heart_p):
        p = heart_p
        rng = np.random.default_rng(15)
        op = complementary_weights_operator(p, rng)
        J_f = op.materialize_jacobian()[:, 1:]
        assert np.linalg.cond(J_f) < 1e3
        solve, solve_t, c = constraint_fold_solves(op)
        for r in (c, rng.standard_normal(p.m)):
            for A, x in ((J_f, solve(r)), (J_f.T, solve_t(r))):
                assert np.linalg.norm(A @ x - r) <= 1e-12 * np.linalg.norm(r)

    @pytest.mark.parametrize("name", ["tiny_p", "heart_p", "wide_p"])
    def test_constraint_fold_solves_have_small_residuals(self, name, request):
        # J_f^{-1} and J_f^{-T} by fold_solve's per-fold elimination at
        # lambda = 0; wide_p's folds take the dense path
        p = request.getfixturevalue(name)
        rng = np.random.default_rng(16)
        for eps in (1.0, 1e-2, 1e-4):
            v = np.abs(rng.standard_normal(p.m + 1)) + 0.1
            op = KktOperator(p, KktPoint(v=v, lam=np.zeros(p.m), eps=eps))
            for A, x, b in constraint_fold_systems(op, rng):
                assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_constraint_fold_solves_are_backward_stable_beyond_the_guard(
            self, large_p):
        # m > 4000: J_f is applied matrix-free, through jac_apply and
        # jac_t_apply.  At eps = 1e-4 the solutions are 1e4 times longer
        # than the right-hand side and ||J_f|| is about 400, so rounding
        # alone takes the relative residual past 1e-12 (to 8e-12 over seeds
        # 16-18); the normwise backward error
        # ||J_f x - b|| / (||J_f|| ||x|| + ||b||) stays below 1e-16
        p = large_p
        rng = np.random.default_rng(16)
        for eps in (1.0, 1e-2, 1e-4):
            v = np.abs(rng.standard_normal(p.m + 1)) + 0.1
            op = KktOperator(p, KktPoint(v=v, lam=np.zeros(p.m), eps=eps))
            norm_J = spla.svds(matrix_free_fold_jacobian(op), k=1,
                               return_singular_vectors=False,
                               random_state=0)[0]
            for A, x, b in constraint_fold_systems(op, rng):
                assert np.linalg.norm(A @ x - b) <= 1e-15 * (
                    norm_J * np.linalg.norm(x) + np.linalg.norm(b))

    @pytest.mark.parametrize("diagnostic", ["licq_probe", "assumption2_value"])
    def test_diagnostics_factor_once_without_condition_numbers(
            self, heart_p, monkeypatch, diagnostic):
        # every solve of the probe and the cone direction reuses one
        # elimination, and only fold_solve reads its condition number
        p = heart_p
        built, conds = [], []
        init, cond = FoldFactorization.__init__, np.linalg.cond

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        def counting_cond(*args):
            conds.append(args)
            return cond(*args)

        monkeypatch.setattr(FoldFactorization, "__init__", counting_init)
        monkeypatch.setattr(np.linalg, "cond", counting_cond)
        rng = np.random.default_rng(17)
        v = np.abs(rng.standard_normal(p.m + 1)) + 0.1
        if diagnostic == "licq_probe":
            _, iters, converged = licq_probe(p, v, 0.1)
            assert converged and iters > 1
        else:
            r = KktPoint(v=v, lam=rng.standard_normal(p.m), eps=0.1)
            assert np.isfinite(M.assumption2_value(p, r)["A2_cone"])
        assert (len(built), len(conds)) == (1, 0)
        # the counters see fold_solve's elimination and its kappa
        op = KktOperator(p, random_kkt_point(p, 0.1, seed=17))
        fold_solve(op, np.ones(2 * p.m + 1), shift=0.0)
        assert (len(built), len(conds)) == (2, p.T)

    def test_probe_positive_interior(self, tiny_p):
        rng = np.random.default_rng(9)
        v = np.abs(rng.standard_normal(tiny_p.m + 1)) + 0.1
        est, _, converged = licq_probe(tiny_p, v, 0.1)
        assert converged and est > 1e-10

    def test_one_step_is_not_converged(self, heart_p):
        v = np.abs(np.random.default_rng(11).standard_normal(heart_p.m + 1)) + 0.1
        est, iters, converged = licq_probe(heart_p, v, 0.1, max_iters=1)
        assert (iters, converged) == (1, False)
        assert np.isfinite(est)

    def test_weight_rounding_to_zero_is_unconverged(self, tiny_p):
        v = np.abs(np.random.default_rng(13).standard_normal(tiny_p.m + 1)) + 0.1
        v[1 + 2 * tiny_p.n1 + tiny_p.n2:] = 1e10     # G = xi swamps H and eps
        op = KktOperator(tiny_p, KktPoint(v=v, lam=np.zeros(tiny_p.m), eps=1e-3))
        assert op.weights.wG.min() == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est, iters, converged = licq_probe(tiny_p, v, 1e-3)
        assert (iters, converged) == (0, False) and np.isnan(est)

    def test_probe_beyond_the_materialize_guard(self, large_p):
        p = large_p
        assert p.m > 4000
        with pytest.raises(ValueError):
            pb.materialize_LH(p)
        rng = np.random.default_rng(12)
        v = np.abs(rng.standard_normal(p.m + 1)) + 0.1
        for eps in (1.0, 1e-2):
            est, _, converged = licq_probe(p, v, eps)
            assert converged and np.isfinite(est) and est > 0.0
            # sigma_min(J) <= ||J^T y|| / ||y|| for every y
            op = KktOperator(p, KktPoint(v=v, lam=np.zeros(p.m), eps=eps))
            for _ in range(3):
                y = rng.standard_normal(p.m)
                assert est <= np.linalg.norm(op.jac_t_apply(y)) / np.linalg.norm(y)


def fold_labels(p):
    """Fold number of each position of r, -1 on the border."""
    folds, border = p.fold_index
    labels = np.full(2 * p.m + 1, -2)
    for t, idx in enumerate(folds):
        labels[idx] = t
    labels[border] = -1
    return labels


def zero_multiplier_point(p, eps, seed):
    """Interior v with lambda = 0: the Hessian vanishes and rank K <= 2m."""
    rng = np.random.default_rng(seed)
    return KktPoint(v=np.abs(rng.standard_normal(p.m + 1)) + 0.1,
                    lam=np.zeros(p.m), eps=eps)


def lm_system(K, mu):
    n = K.shape[0]
    return sp.bmat([[sp.identity(n), K], [K, -mu * sp.identity(n)]],
                   format="csc")


def rel_err(x, ref):
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def dense_fold_solve(K, rhs, folds, border, shift=0.0):
    """Oracle: (K + shift*I) x = rhs by dense LU of K's fold blocks.

    Each fold's diagonal block M_t of the assembled K is LU-factored (LAPACK
    getrf) and solved for the fold's right-hand side together with its
    border columns E_t; the border is closed by the dense Schur complement
    S = M_bb - sum_t R_t M_t^{-1} E_t.  Raises SingularSystemError on an
    exactly zero fold pivot, or when S is zero to within
    eps_mach * kappa * ||M_bb| + sum_t |R_t| |M_t^{-1} E_t|| with kappa the
    largest condition number of the fold blocks (LAPACK gecon).
    """
    K = K.tocsr()
    rhs = np.asarray(rhs)
    dtype = np.result_type(K.dtype, rhs.dtype, shift)
    getrf, getrs, gecon = get_lapack_funcs(("getrf", "getrs", "gecon"),
                                           dtype=dtype)

    def dense(Kb, diagonal=False):
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


def check_against_oracles(op, rhs, shift=0.0, rtol=1e-10):
    """fold_solve matches SuperLU and the dense fold oracle on K + shift*I."""
    K = op.materialize_kkt()
    x = fold_solve(op, rhs, shift=shift)
    shifted = (K + shift * sp.identity(K.shape[0])).tocsc()
    ref = spla.splu(shifted).solve(rhs.astype(shifted.dtype))
    assert x.dtype == ref.dtype
    assert rel_err(x, ref) <= rtol
    assert rel_err(x, dense_fold_solve(K, rhs, *op.p.fold_index,
                                       shift=shift)) <= rtol
    return x


@pytest.fixture(scope="module")
def heart_ops(heart_p):
    """Operators at random points on heart, one per eps."""
    return [KktOperator(heart_p, random_kkt_point(heart_p, eps, seed=20 + i))
            for i, eps in enumerate((1.0, 1e-2, 1e-4))]


class TestFoldSolve:
    def test_fold_index_partitions_r(self, tiny_p, heart_p):
        for p in (tiny_p, heart_p):
            folds, border = p.fold_index
            labels = fold_labels(p)
            assert (labels >= -1).all()
            assert sum(len(idx) for idx in folds) + len(border) == 2 * p.m + 1
            assert all(len(idx) == 2 * p.m // p.T for idx in folds)
            np.testing.assert_array_equal(border, [0])

    def test_point_index_orders_each_fold(self, tiny_p, heart_p):
        for p in (tiny_p, heart_p):
            folds, _ = p.fold_index
            pos, rows = p.point_index
            N = sp.vstack([p.A, p.B]).toarray()
            for t, idx in enumerate(folds):
                np.testing.assert_array_equal(np.sort(pos[t].ravel()),
                                              np.sort(idx))
                # a point's data row is its row of A or B, in its fold's block
                data_rows = np.concatenate(
                    [np.arange(t * p.m1, (t + 1) * p.m1),
                     p.n1 + np.arange(t * p.m2, (t + 1) * p.m2)])
                assert sp.issparse(rows[t])
                np.testing.assert_array_equal(
                    rows[t].toarray(), N[data_rows, t * p.n:(t + 1) * p.n])

    @pytest.mark.parametrize("name", ["tiny_p", "heart_p"])
    def test_no_entry_couples_two_folds(self, name, request):
        p = request.getfixturevalue(name)
        labels = fold_labels(p)
        for i, eps in enumerate((1.0, 1e-2, 1e-4)):
            K = KktOperator(p, random_kkt_point(p, eps, seed=i)).materialize_kkt()
            coo = K.tocoo()
            a, b = labels[coo.row], labels[coo.col]
            assert not np.any((a >= 0) & (b >= 0) & (a != b))
            assert np.any(a == -1)          # the border does couple to folds

    def test_newton_system_matches_splu(self, heart_ops):
        rng = np.random.default_rng(30)
        for op in heart_ops:
            check_against_oracles(op, rng.standard_normal(2 * op.p.m + 1))

    @pytest.mark.parametrize("shift", [0.5, 0.3 - 0.2j])
    def test_shifted_system_matches_splu(self, heart_ops, shift):
        rng = np.random.default_rng(32)
        for op in heart_ops:
            check_against_oracles(op, rng.standard_normal(2 * op.p.m + 1),
                                  shift=shift)

    @pytest.mark.parametrize("mu", [1e-8, 1e-4, 1e-2, 1.0])
    def test_lm_system_matches_splu(self, heart_ops, mu):
        # the LM step (K^2 + mu I) d = -K F is the x-half of the augmented
        # system with right-hand side (-F, 0), and -Re (K - i sqrt(mu))^{-1} F
        rng = np.random.default_rng(31)
        for op in heart_ops:
            K = op.materialize_kkt()
            n = K.shape[0]
            F = rng.standard_normal(n)
            ref = spla.splu(lm_system(K, mu)).solve(
                np.concatenate([-F, np.zeros(n)]))[n:]
            x = -fold_solve(op, F, shift=-1j * np.sqrt(mu)).real
            assert rel_err(x, ref) <= 1e-10

    @pytest.mark.parametrize("shift", [0.0, 0.5, 0.3 - 0.2j, -1e-4j])
    @pytest.mark.parametrize("case", ["tiny", "tiny_complementary",
                                      "heart_complementary_weights"])
    def test_matches_oracles(self, case, shift, request):
        if case == "tiny":
            p = request.getfixturevalue("tiny_p")
            ops = [KktOperator(p, random_kkt_point(p, eps, seed=40 + i))
                   for i, eps in enumerate((1.0, 1e-2, 1e-4))]
        elif case == "tiny_complementary":
            p = request.getfixturevalue("tiny_p")
            ops = [KktOperator(p, request.getfixturevalue(
                "tiny_complementary_point"))]
        else:
            p = request.getfixturevalue("heart_p")
            ops = [complementary_weights_operator(
                p, np.random.default_rng(15))]
        rng = np.random.default_rng(33)
        for op in ops:
            check_against_oracles(op, rng.standard_normal(2 * p.m + 1),
                                  shift=shift)

    @pytest.mark.parametrize("shift", [0.0, 0.5, -0.1j])
    @pytest.mark.parametrize("name", ["tiny_p", "heart_p", "wide_p"])
    def test_one_factorization_solves_many_right_hand_sides(self, name, shift,
                                                            request):
        # a kept elimination gives the bits of one built for each solve
        p = request.getfixturevalue(name)
        op = KktOperator(p, random_kkt_point(p, 1e-2, seed=70))
        pos, _ = p.point_index
        rng = np.random.default_rng(70)
        folds = FoldFactorization(p, op.weights, op.curvature, shift)
        for k in (1, 2, 1):
            rhs_c = rng.standard_normal(pos.shape + (k,))
            fresh = FoldFactorization(p, op.weights, op.curvature, shift)
            assert np.array_equal(folds.solve(rhs_c), fresh.solve(rhs_c))

    @pytest.mark.parametrize("shift", [0.0, 0.5, -0.1j])
    @pytest.mark.parametrize("name", ["tiny_p", "heart_p", "large_p"])
    def test_contractions_match_the_einsum_formulas(self, name, shift,
                                                     request, monkeypatch):
        # the BLAS products over the points round otherwise than the einsum
        # loops; large_p's operator and heart's second keep free points
        p = request.getfixturevalue(name)
        ops = [KktOperator(p, random_kkt_point(p, 1e-2, seed=71))]
        if name == "heart_p":
            ops.append(complementary_weights_operator(
                p, np.random.default_rng(15)))
        build, systems = kkt._lifted_fold_system, []

        def spy(D, free, *args):
            systems.append((build(D, free, *args),
                            plain_lifted_fold_system(D, free, *args), free))
            return systems[-1][0]

        monkeypatch.setattr(kkt, "_lifted_fold_system", spy)
        pos, _ = p.point_index
        rng = np.random.default_rng(71)
        for op in ops:
            folds = FoldFactorization(p, op.weights, op.curvature, shift)
            for k in (1, 2):
                rhs_c = rng.standard_normal(pos.shape + (k,))
                assert rel_err(folds.solve(rhs_c),
                               plain_fold_solve(folds, rhs_c)) <= 1e-13
        assert len(systems) == p.T * len(ops)
        assert any(free.any() for *_, free in systems) or name == "tiny_p"
        for M, ref, _ in systems:
            assert M.dtype == ref.dtype
            assert rel_err(M, ref) <= 1e-13

    @pytest.mark.parametrize("shift", [0.0, 0.5, -0.1j])
    def test_dense_folds_solve_as_the_einsum_formulas(self, wide_p, shift,
                                                       monkeypatch):
        # no lifted unknowns, so nothing is contracted over the points
        monkeypatch.setattr(kkt, "_lifted_fold_system", None)
        op = KktOperator(wide_p, random_kkt_point(wide_p, 1e-2, seed=72))
        pos, _ = wide_p.point_index
        folds = FoldFactorization(wide_p, op.weights, op.curvature, shift)
        rhs_c = np.random.default_rng(72).standard_normal(pos.shape + (2,))
        y, ref = folds.solve(rhs_c), plain_fold_solve(folds, rhs_c)
        assert y.dtype == ref.dtype
        assert y.tobytes() == ref.tobytes()

    def test_free_points_are_not_eliminated(self, heart_p, monkeypatch):
        # at complementary weights the blocks of the 15 free alphas have
        # determinants near 1e-24; eliminating them as well buries the
        # Schur complement on C in rounding error
        op = complementary_weights_operator(heart_p, np.random.default_rng(15))
        rhs = np.random.default_rng(34).standard_normal(2 * heart_p.m + 1)
        check_against_oracles(op, rhs)
        monkeypatch.setattr(kkt, "FREE_DET", 0.0)
        with pytest.raises(SingularSystemError):
            fold_solve(op, rhs, shift=0.0)

    @pytest.mark.parametrize("name", ["tiny_p", "heart_p"])
    def test_zero_multipliers_are_singular(self, name, request):
        p = request.getfixturevalue(name)
        for i, eps in enumerate((1.0, 1e-2)):
            op = KktOperator(p, zero_multiplier_point(p, eps, seed=i))
            with pytest.raises(SingularSystemError, match="Schur"):
                fold_solve(op, np.ones(2 * p.m + 1), shift=0.0)
            # an imaginary shift makes the system nonsingular
            x = check_against_oracles(op, np.ones(2 * p.m + 1), shift=-0.1j)
            assert np.all(np.isfinite(x))

    @pytest.mark.parametrize("shift", [0.0, 0.5, 0.3 - 0.2j, -1e-4j])
    def test_wide_data_matches_oracles(self, wide_p, shift):
        # every fold is solved through its dense K_t (2n >= 4(m1 + m2))
        rng = np.random.default_rng(35)
        for i, eps in enumerate((1.0, 1e-2, 1e-4)):
            op = KktOperator(wide_p, random_kkt_point(wide_p, eps, seed=50 + i))
            check_against_oracles(op, rng.standard_normal(2 * wide_p.m + 1),
                                  shift=shift)

    def test_wide_data_forms_no_array_of_size_n(self):
        # n = 2000 features, 6 points per fold: an n x n array of floats
        # takes 32 MB, the fold systems 24 x 24
        ds = make_tiny_dataset(n_points=12, n_features=2000, seed=6)
        p = M.assemble(ds, M.make_split(ds, p1=6, T=3, seed=0))
        op = KktOperator(p, random_kkt_point(p, 1e-2, seed=7))
        rhs = np.random.default_rng(7).standard_normal(2 * p.m + 1)
        p.point_index
        op.curvature
        tracemalloc.start()
        try:
            x = fold_solve(op, rhs, shift=-0.1j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        check_against_oracles(op, rhs, shift=-0.1j)
        assert np.all(np.isfinite(x))

    def test_dense_folds_build_their_gram_once(self, monkeypatch):
        # wide_p's generator: every fold takes the dense path, whose Gram
        # matrix N_t N_t^T is built on the first solve and then reused
        ds = make_tiny_dataset(n_points=100, n_features=300, seed=5)
        p = M.assemble(ds, M.make_split(ds, p1=60, T=3, seed=0))
        op = KktOperator(p, random_kkt_point(p, 1e-2, seed=60))
        op.curvature
        transpose = sp.csr_matrix.transpose
        calls = []

        def counting(self, *args, **kwargs):
            calls.append(self.shape)
            return transpose(self, *args, **kwargs)

        monkeypatch.setattr(sp.csr_matrix, "transpose", counting)
        rhs = np.random.default_rng(61).standard_normal(2 * p.m + 1)
        fold_solve(op, rhs, shift=0.0)
        grams = p.fold_grams
        for shift in (0.5, -0.1j, 0.0):
            fold_solve(op, rhs, shift=shift)
        assert len(calls) == p.T
        assert p.fold_grams is grams and len(grams) == p.T

    def test_lifted_folds_build_no_gram(self, heart_ds, heart_plan):
        # heart's folds are all lifted: a direct step builds no Gram matrix
        p = M.assemble(heart_ds, heart_plan)
        op = KktOperator(p, random_kkt_point(p, 1e-2, seed=63))
        fold_solve(op, -op.residual(), shift=0.0)
        assert "fold_grams" not in p.__dict__

    @pytest.mark.parametrize("name", ["tiny_p", "wide_p"])
    def test_zero_weights_at_a_point_are_singular(self, name, request):
        # the point's multiplier rows vanish, in the lifted system (tiny_p)
        # and in the dense K_t (wide_p) alike
        p = request.getfixturevalue(name)
        op = KktOperator(p, random_kkt_point(p, 0.5, seed=9))
        pos, _ = p.point_index
        wG, wH = op.weights.wG.copy(), op.weights.wH.copy()
        wG[pos[1, 0, :2] - 1] = wH[pos[1, 0, :2] - 1] = 0.0
        op.weights = replace(op.weights, wG=wG, wH=wH)
        with pytest.raises(SingularSystemError, match="zero pivot in a fold"):
            fold_solve(op, np.ones(2 * p.m + 1), shift=0.0)

    def test_singular_point_block(self, tiny_p):
        # only a real shift can make a block that is not free singular: with
        # no curvature, w^G = 1 and w^H = 0 at a point, its block plus I is
        # [[I, -I], [-I, I]]
        op = KktOperator(tiny_p, random_kkt_point(tiny_p, 0.5, seed=9))
        pos, _ = tiny_p.point_index
        pairs = pos[1, 0, :2] - 1
        wG, wH = op.weights.wG.copy(), op.weights.wH.copy()
        wG[pairs], wH[pairs] = 1.0, 0.0
        op.weights = replace(op.weights, wG=wG, wH=wH)
        c = op.curvature
        mG, mH, mGH = c.mG.copy(), c.mH.copy(), c.mGH.copy()
        mG[pairs] = mH[pairs] = mGH[pairs] = 0.0
        op.curvature = replace(c, mG=mG, mH=mH, mGH=mGH)
        with pytest.raises(SingularSystemError, match="point block"):
            fold_solve(op, np.ones(2 * tiny_p.m + 1), shift=1.0)
        check_against_oracles(op, np.ones(2 * tiny_p.m + 1), shift=0.5)

    @pytest.mark.parametrize("name", ["tiny_p", "heart_p", "wide_p"])
    @pytest.mark.parametrize("shift", [1e-6, 1e-10])
    def test_small_schur_complement_is_solved(self, name, shift, request):
        # at lambda = 0 the Schur complement on C is zero; a small real
        # shift leaves it of the order of the shift, far above rounding
        p = request.getfixturevalue(name)
        op = KktOperator(p, zero_multiplier_point(p, 1e-2, seed=0))
        x = check_against_oracles(op, np.ones(2 * p.m + 1), shift=shift)
        assert np.linalg.norm(x) > 1e-2 / shift

    def test_zero_fold_pivot_is_singular(self, tiny_p):
        # the dense oracle's own singularity check
        K = KktOperator(tiny_p, random_kkt_point(tiny_p, 0.5)).materialize_kkt()
        folds, border = tiny_p.fold_index
        keep = np.ones(K.shape[0])
        keep[folds[1]] = 0.0       # zero fold 1's rows and columns
        K = sp.diags(keep) @ K @ sp.diags(keep)
        with pytest.raises(SingularSystemError, match="zero pivot"):
            dense_fold_solve(K, np.ones(K.shape[0]), folds, border)

    @pytest.mark.parametrize("ulps, singular", [(0, True), (1, True),
                                                (2.0**32, False)])
    def test_schur_complement_zero_to_rounding_is_singular(self, ulps, singular):
        # the dense oracle's own singularity check: three 1x1 folds
        # (identity) bordered by e = (0.5, 0.25, 0.75); every product is
        # exact, so S = K_bb - 0.875 exactly
        e = np.array([0.5, 0.25, 0.75])
        K = np.eye(4)
        K[0, 1:] = K[1:, 0] = e
        K[0, 0] = 0.875 + ulps * np.spacing(0.875)
        folds, border = (np.array([1]), np.array([2]), np.array([3])), np.array([0])
        rhs = np.arange(1.0, 5.0)
        if singular:
            with pytest.raises(SingularSystemError, match="Schur"):
                dense_fold_solve(sp.csr_matrix(K), rhs, folds, border)
        else:
            x = dense_fold_solve(sp.csr_matrix(K), rhs, folds, border)
            assert np.linalg.norm(K @ x - rhs) <= 1e-12 * np.linalg.norm(x)


class TestKktApplyResults:
    """BiCGStab holds v and t across products, so each result of kkt_apply
    must be a new array that later products leave alone."""

    def test_results_share_no_memory(self, tiny_p):
        op = KktOperator(tiny_p, random_kkt_point(tiny_p, 0.5, seed=30))
        rng = np.random.default_rng(30)
        d1, d2 = (rng.standard_normal(2 * tiny_p.m + 1) for _ in range(2))
        y1 = op.kkt_apply(d1)
        first = y1.tobytes()
        y2 = op.kkt_apply(d2)
        assert not np.shares_memory(y1, y2)
        for y in (y1, y2):
            assert not np.shares_memory(y, d1) and not np.shares_memory(y, d2)
        assert y1.tobytes() == first
        assert op.kkt_apply(d1).tobytes() == first

    def test_interleaved_operators_match_separate_runs(self, heart_p):
        # as the line search's trial operators beside the current one
        rng = np.random.default_rng(31)
        ds = [rng.standard_normal(2 * heart_p.m + 1) for _ in range(4)]

        def operators():
            return [KktOperator(heart_p, random_kkt_point(heart_p, eps,
                                                          seed=31 + i))
                    for i, eps in enumerate((1.0, 1e-3))]

        separate = [[op.kkt_apply(d).tobytes() for d in ds]
                    for op in operators()]
        interleaved = [[], []]
        ops = operators()
        for d in ds:
            for out, op in zip(interleaved, ops):
                out.append(op.kkt_apply(d).tobytes())
        assert interleaved == separate

    def test_residual_alone_computes_no_curvature(self, tiny_p):
        op = KktOperator(tiny_p, random_kkt_point(tiny_p, 0.5, seed=32))
        op.residual()        # all a rejected line-search trial computes
        assert "curvature" not in op.__dict__
        y = op.kkt_apply(np.ones(2 * tiny_p.m + 1))
        c = op.__dict__["curvature"]
        assert op.kkt_apply(np.ones(2 * tiny_p.m + 1)).tobytes() == y.tobytes()
        assert op.curvature is c
