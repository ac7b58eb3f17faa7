"""KKT residual, Jacobian/Hessian applies, merit calculus, LICQ probe."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import mpecsvc as M
from mpecsvc import problem as pb
from mpecsvc.kkt import (KktOperator, KktPoint, SingularSystemError,
                         fold_solve, jjt_inverse, licq_probe)
from mpecsvc.smoothing import fb_value

from conftest import make_tiny_dataset, random_kkt_point


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

    def test_probe_beyond_the_materialize_guard(self):
        ds = make_tiny_dataset(n_points=700, n_features=5, seed=3)
        p = M.assemble(ds, M.make_split(ds, p1=669, T=3, seed=0))
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


@pytest.fixture(scope="module")
def heart_kkts(heart_p):
    """Assembled KKT matrices at random points on heart, one per eps."""
    return [KktOperator(heart_p, random_kkt_point(heart_p, eps, seed=20 + i))
            .materialize_kkt() for i, eps in enumerate((1.0, 1e-2, 1e-4))]


class TestFoldSolve:
    def test_fold_index_partitions_r(self, tiny_p, heart_p):
        for p in (tiny_p, heart_p):
            folds, border = p.fold_index
            labels = fold_labels(p)
            assert (labels >= -1).all()
            assert sum(len(idx) for idx in folds) + len(border) == 2 * p.m + 1
            assert all(len(idx) == 2 * p.m // p.T for idx in folds)
            np.testing.assert_array_equal(border, [0])

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

    def test_newton_system_matches_splu(self, heart_p, heart_kkts):
        rng = np.random.default_rng(30)
        for K in heart_kkts:
            rhs = rng.standard_normal(K.shape[0])
            ref = spla.splu(K.tocsc()).solve(rhs)
            x = fold_solve(K, rhs, *heart_p.fold_index)
            assert rel_err(x, ref) <= 1e-8

    @pytest.mark.parametrize("mu", [1e-8, 1e-4, 1e-2, 1.0])
    def test_lm_system_matches_splu(self, heart_p, heart_kkts, mu):
        rng = np.random.default_rng(31)
        for K in heart_kkts:
            rhs = np.concatenate([rng.standard_normal(K.shape[0]),
                                  np.zeros(K.shape[0])])
            ref = spla.splu(lm_system(K, mu)).solve(rhs)
            x = fold_solve(K, rhs, *heart_p.fold_index, shift=mu)
            assert rel_err(x, ref) <= 1e-8

    @pytest.mark.parametrize("name", ["tiny_p", "heart_p"])
    def test_zero_multipliers_are_singular(self, name, request):
        p = request.getfixturevalue(name)
        for i, eps in enumerate((1.0, 1e-2)):
            K = KktOperator(p, zero_multiplier_point(p, eps, seed=i)).materialize_kkt()
            with pytest.raises(SingularSystemError):
                fold_solve(K, np.ones(K.shape[0]), *p.fold_index)
            # the LM shift makes the augmented system nonsingular
            x = fold_solve(K, np.ones(2 * K.shape[0]), *p.fold_index, shift=1e-2)
            assert np.all(np.isfinite(x))

    def test_zero_fold_pivot_is_singular(self, tiny_p):
        K = KktOperator(tiny_p, random_kkt_point(tiny_p, 0.5)).materialize_kkt()
        folds, border = tiny_p.fold_index
        keep = np.ones(K.shape[0])
        keep[folds[1]] = 0.0       # zero fold 1's rows and columns
        K = sp.diags(keep) @ K @ sp.diags(keep)
        with pytest.raises(SingularSystemError, match="zero pivot"):
            fold_solve(K, np.ones(K.shape[0]), folds, border)

    @pytest.mark.parametrize("ulps, singular", [(0, True), (1, True),
                                                (2.0**32, False)])
    def test_schur_complement_zero_to_rounding_is_singular(self, ulps, singular):
        # three 1x1 folds (identity) bordered by e = (0.5, 0.25, 0.75):
        # every product is exact, so S = K_bb - 0.875 exactly
        e = np.array([0.5, 0.25, 0.75])
        K = np.eye(4)
        K[0, 1:] = K[1:, 0] = e
        K[0, 0] = 0.875 + ulps * np.spacing(0.875)
        folds, border = (np.array([1]), np.array([2]), np.array([3])), np.array([0])
        rhs = np.arange(1.0, 5.0)
        if singular:
            with pytest.raises(SingularSystemError, match="Schur"):
                fold_solve(sp.csr_matrix(K), rhs, folds, border)
        else:
            x = fold_solve(sp.csr_matrix(K), rhs, folds, border)
            assert np.linalg.norm(K @ x - rhs) <= 1e-12 * np.linalg.norm(x)
