"""MPEC assembly and affine-map tests against dense oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import mpecsvc as M
from mpecsvc import problem as pb
from mpecsvc.kkt import KktOperator, KktPoint


def dense_LG(p):
    return pb.materialize_LG(p).toarray()


def dense_LH(p):
    return pb.materialize_LH(p).toarray()


class TestDimensions:
    def test_tiny_dims(self, tiny_p):
        p = tiny_p
        assert (p.T, p.m1, p.m2) == (3, 2, 4)
        assert p.m == 2 * p.T * (p.m1 + p.m2) == 36
        assert p.n1 == 6 and p.n2 == 12
        assert p.A.shape == (6, 12) and p.B.shape == (12, 12)

    def test_heart_dims(self, heart_p):
        p = heart_p
        assert (p.T, p.m1, p.m2, p.n) == (3, 50, 100, 13)
        assert p.m == 900
        assert p.A.shape == (150, 39) and p.B.shape == (300, 39)

    def test_sparsity_stats(self, tiny_p):
        s = pb.sparsity_stats(tiny_p)
        assert s["m"] == 36 and s["n_vars"] == 37
        assert s["nnz_A"] == tiny_p.A.nnz

    def test_assemble_rejects_single_fold(self, tiny_ds):
        plan = M.make_split(tiny_ds, p1=6, T=1, seed=0)
        with pytest.raises(ValueError):
            M.assemble(tiny_ds, plan)


class TestBlockDiagonal:
    def test_A_blocks_are_validation_rows(self, tiny_ds, tiny_plan, tiny_p):
        A = tiny_p.A.toarray()
        n = tiny_ds.n_features
        for t in range(tiny_plan.T):
            block = A[t * 2:(t + 1) * 2, t * n:(t + 1) * n]
            expect = tiny_ds.signed_rows(tiny_plan.folds[t]).toarray()
            np.testing.assert_allclose(block, expect)
            # off-diagonal blocks vanish
            off = A[t * 2:(t + 1) * 2].copy()
            off[:, t * n:(t + 1) * n] = 0.0
            assert np.all(off == 0.0)

    def test_B_blocks_are_training_rows(self, tiny_ds, tiny_plan, tiny_p):
        B = tiny_p.B.toarray()
        n = tiny_ds.n_features
        for t in range(tiny_plan.T):
            train = [i for s in range(tiny_plan.T) if s != t
                     for i in tiny_plan.folds[s]]
            block = B[t * 4:(t + 1) * 4, t * n:(t + 1) * n]
            np.testing.assert_allclose(
                block, tiny_ds.signed_rows(train).toarray())


class TestAffineMaps:
    def test_eval_G_is_tail_of_v(self, tiny_p):
        v = np.random.default_rng(0).standard_normal(tiny_p.m + 1)
        np.testing.assert_allclose(pb.eval_G(tiny_p, v), v[1:])

    def test_eval_H_matches_dense(self, tiny_p):
        rng = np.random.default_rng(1)
        LH = dense_LH(tiny_p)
        for _ in range(5):
            v = rng.standard_normal(tiny_p.m + 1)
            np.testing.assert_allclose(
                pb.eval_H(tiny_p, v), LH @ v + tiny_p.bH, atol=1e-12)

    def test_bH_block_values(self, tiny_p):
        b1, b2, b3, b4 = tiny_p.split_m(tiny_p.bH)
        assert np.all(b1 == 0) and np.all(b2 == 1)
        assert np.all(b3 == -1) and np.all(b4 == 0)

    def test_apply_LH_matches_dense(self, tiny_p):
        rng = np.random.default_rng(2)
        LH = dense_LH(tiny_p)
        d = rng.standard_normal(tiny_p.m + 1)
        np.testing.assert_allclose(pb.apply_LH(tiny_p, d), LH @ d, atol=1e-12)

    def test_transposes_are_adjoints(self, tiny_p):
        rng = np.random.default_rng(3)
        for _ in range(5):
            d = rng.standard_normal(tiny_p.m + 1)
            s = rng.standard_normal(tiny_p.m)
            assert np.dot(pb.apply_LG(tiny_p, d), s) == pytest.approx(
                np.dot(d, pb.apply_LG_T(tiny_p, s)), rel=1e-12)
            assert np.dot(pb.apply_LH(tiny_p, d), s) == pytest.approx(
                np.dot(d, pb.apply_LH_T(tiny_p, s)), rel=1e-12, abs=1e-12)

    def test_objective_is_mean_zeta(self, tiny_p):
        v = np.zeros(tiny_p.m + 1)
        v[1:1 + tiny_p.n1] = np.arange(tiny_p.n1, dtype=float)
        assert tiny_p.objective(v) == pytest.approx(np.mean(np.arange(6.0)))

    def test_bad_length_rejected(self, tiny_p):
        with pytest.raises(ValueError):
            pb.eval_G(tiny_p, np.zeros(5))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_maps_match_dense_property(seed):
    # fresh micro instance per example keeps hypothesis shrinking honest
    from conftest import make_tiny_dataset
    ds = make_tiny_dataset(n_points=6, n_features=3, seed=11)
    plan = M.make_split(ds, p1=4, T=2, seed=0)
    p = M.assemble(ds, plan)
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(p.m + 1)
    LG, LH = dense_LG(p), dense_LH(p)
    np.testing.assert_allclose(pb.apply_LG(p, d), LG @ d, atol=1e-12)
    np.testing.assert_allclose(pb.apply_LH(p, d), LH @ d, atol=1e-11)
    s = rng.standard_normal(p.m)
    np.testing.assert_allclose(pb.apply_LG_T(p, s), LG.T @ s, atol=1e-12)
    np.testing.assert_allclose(pb.apply_LH_T(p, s), LH.T @ s, atol=1e-11)


def spread(rng, k):
    """k random values of random sign with magnitudes from 1e-8 to 1e8."""
    return rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-8.0, 8.0, k)


# The formulas of the maps with a transpose built at each product.  The
# prebuilt At and Bt must reproduce them bit for bit: heart's trajectory
# rests on the rounding of these products.

def per_call_eval_H(p, v):
    C, zeta, z, alpha, xi = p.split_v(v)
    Bt_alpha = p.B.T @ alpha
    return np.concatenate([p.A @ Bt_alpha + z, 1.0 - zeta,
                           p.B @ Bt_alpha - 1.0 + xi, C - alpha])


def per_call_apply_LH(p, d):
    dC, dzeta, dz, dalpha, dxi = p.split_v(d)
    Bt_dalpha = p.B.T @ dalpha
    return np.concatenate([p.A @ Bt_dalpha + dz, -dzeta,
                           p.B @ Bt_dalpha + dxi, dC - dalpha])


def per_call_apply_LH_T(p, s):
    s1, s2, s3, s4 = p.split_m(s)
    return np.concatenate([[s4.sum()], -s2, s1,
                           p.B @ (p.A.T @ s1) + p.B @ (p.B.T @ s3) - s4, s3])


def per_call_kkt_apply(op, d):
    p, nv = op.p, op.p.m + 1
    dv, dl = d[:nv], d[nv:]
    wt, c = op.weights, op.curvature
    u, w = dv[1:], per_call_apply_LH(p, dv)
    g = c.mG * u + c.mGH * w - wt.wG * dl
    h = c.mGH * u + c.mH * w - wt.wH * dl
    return np.concatenate([np.concatenate([[0.0], g])
                           + per_call_apply_LH_T(p, h),
                           -(wt.wG * u + wt.wH * w)])


class TestPrebuiltTransposes:
    def test_built_once_on_the_arrays_of_A_and_B(self, tiny_p):
        p = tiny_p
        assert p.At is p.At and p.Bt is p.Bt
        assert np.shares_memory(p.At.data, p.A.data)
        assert np.shares_memory(p.Bt.data, p.B.data)

    @pytest.mark.parametrize("name", ["tiny_p", "heart_p", "wide_p"])
    def test_products_match_per_call_transposes_bit_for_bit(self, name,
                                                            request):
        p = request.getfixturevalue(name)
        rng = np.random.default_rng(8)
        for _ in range(3):
            v, s = spread(rng, p.m + 1), spread(rng, p.m)
            assert np.array_equal(pb.eval_H(p, v), per_call_eval_H(p, v))
            assert np.array_equal(pb.apply_LH(p, v), per_call_apply_LH(p, v))
            assert np.array_equal(pb.apply_LH_T(p, s),
                                  per_call_apply_LH_T(p, s))
            op = KktOperator(p, KktPoint(v=v, lam=spread(rng, p.m), eps=0.5))
            d = spread(rng, 2 * p.m + 1)
            assert np.array_equal(op.kkt_apply(d), per_call_kkt_apply(op, d))


def spread_with_zeros(rng, k):
    """spread(rng, k) with about a tenth of the entries +0.0 or -0.0."""
    x = spread(rng, k)
    zeros = rng.random(k) < 0.1
    x[zeros] = rng.choice([-0.0, 0.0], int(zeros.sum()))
    return x


class TestKernelProducts:
    """_matvec calls scipy's private csr_matvec/csc_matvec; a scipy that
    changes them must fail here, not shift heart's trajectory."""

    @pytest.mark.parametrize("name", ["tiny_p", "heart_p", "wide_p",
                                      "large_p"])
    def test_matches_matmul_bit_for_bit(self, name, request):
        p = request.getfixturevalue(name)
        rng = np.random.default_rng(10)
        for M in (p.A, p.B, p.At, p.Bt):
            for _ in range(3):
                x = spread_with_zeros(rng, M.shape[1])
                ref = (M @ x).tobytes()
                assert pb._matvec(M, x).tobytes() == ref
                out = np.full(M.shape[0], np.nan)
                assert pb._matvec(M, x, out) is out
                assert out.tobytes() == ref

    def test_rejects_other_dtypes_and_lengths(self, tiny_p):
        A, x = tiny_p.A, np.ones(tiny_p.A.shape[1])
        bad = [(A.astype(np.float32), x, None),
               (A, x.astype(np.float32), None),
               (A, x.astype(complex), None),
               (A, x[:-1], None),
               (A, x, np.zeros(A.shape[0], dtype=np.float32)),
               (A, x, np.zeros(A.shape[0] + 1))]
        for M, xb, out in bad:
            with pytest.raises(ValueError):
                pb._matvec(M, xb, out)

    def test_assemble_gives_float64_canonical_rows(self, tiny_p, heart_p):
        for p in (tiny_p, heart_p):
            for M in (p.A, p.B, p.At, p.Bt):
                assert M.data.dtype == np.float64
                assert M.has_canonical_format

    def test_canonical_sorts_sums_and_casts(self):
        # a float32 CSR row with unsorted, duplicated column indices
        M = sp.csr_matrix((np.array([1.0, 2.0, 4.0], dtype=np.float32),
                           np.array([2, 0, 2]), np.array([0, 3])),
                          shape=(1, 3))
        C = pb._canonical(M)
        assert C.data.dtype == np.float64 and C.has_canonical_format
        np.testing.assert_array_equal(C.indices, [0, 2])
        np.testing.assert_array_equal(C.toarray(), [[2.0, 0.0, 5.0]])


class TestPrimalPoint:
    def test_round_trip(self, tiny_p):
        v = np.random.default_rng(4).standard_normal(tiny_p.m + 1)
        pt = pb.PrimalPoint.from_vector(tiny_p, v)
        np.testing.assert_allclose(pt.to_vector(), v)
        assert pt.C == v[0]
        assert pt.zeta.shape == (tiny_p.n1,)
        assert pt.alpha.shape == (tiny_p.n2,)
