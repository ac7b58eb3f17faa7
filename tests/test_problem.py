"""MPEC assembly and affine-map tests against dense oracles."""

import inspect

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import mpecsvc as M
from mpecsvc import problem as pb
from mpecsvc.kkt import KktOperator, KktPoint

from conftest import (plain_apply_LH, plain_apply_LH_T, plain_eval_H,
                      plain_hess_apply, plain_jac_apply, plain_jac_t_apply,
                      plain_kkt_apply, spread)


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
        plan = M.SplitPlan(cv_indices=tuple(range(6)),
                           test_indices=tuple(range(6, len(tiny_ds))),
                           folds=(tuple(range(6)),))
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


class TestPrebuiltTransposes:
    @pytest.mark.parametrize("name", ["tiny_p", "heart_p", "wide_p",
                                      "large_p"])
    def test_products_match_per_call_transposes_bit_for_bit(self, name,
                                                            request):
        # every map and operator product against its plain formula, on
        # inputs from 1e-8 to 1e8 with zeros of both signs, byte for byte
        # (np.array_equal takes -0.0 for 0.0)
        p = request.getfixturevalue(name)
        rng = np.random.default_rng(8)
        for _ in range(3):
            v, s = spread(rng, p.m + 1), spread(rng, p.m)
            op = KktOperator(p, KktPoint(v=v, lam=spread(rng, p.m), eps=0.5))
            d = spread(rng, 2 * p.m + 1)
            for got, ref in [
                    (pb.eval_H(p, v), plain_eval_H(p, v)),
                    (pb.apply_LH(p, v), plain_apply_LH(p, v)),
                    (pb.apply_LH_T(p, s), plain_apply_LH_T(p, s)),
                    (op.jac_t_apply(s), plain_jac_t_apply(op, s)),
                    (op.jac_apply(v), plain_jac_apply(op, v)),
                    (op.hess_apply(v), plain_hess_apply(op, v)),
                    (op.kkt_apply(d), plain_kkt_apply(op, d))]:
                assert got.tobytes() == ref.tobytes()

    def test_stacked_matrices_built_once_per_problem(self, tiny_ds,
                                                     tiny_plan, monkeypatch):
        binds = []
        bind = pb._bind

        def counted(M):
            binds.append(M.shape)
            return bind(M)

        monkeypatch.setattr(pb, "_bind", counted)
        p = M.assemble(tiny_ds, tiny_plan)
        assert "lh_kernels" not in vars(p) and binds == []
        kernels = p.lh_kernels
        assert len(binds) == len(kernels) == 4
        assert sorted(binds) == sorted([p.A.shape, p.B.shape, p.A.shape[::-1],
                                        p.B.shape[::-1]])
        rng = np.random.default_rng(9)
        op = KktOperator(p, KktPoint(v=rng.standard_normal(p.m + 1),
                                     lam=rng.standard_normal(p.m), eps=0.5))
        for _ in range(3):
            pb.eval_H(p, rng.standard_normal(p.m + 1))
            pb.apply_LH(p, rng.standard_normal(p.m + 1))
            pb.apply_LH_T(p, rng.standard_normal(p.m))
            op.kkt_apply(rng.standard_normal(2 * p.m + 1))
        assert len(binds) == 4 and p.lh_kernels is kernels


class TestKernelProducts:
    """The bound products call scipy's private csr_matvec; a scipy that
    changes it must fail here, not shift heart's trajectory."""

    @pytest.mark.parametrize("name", ["tiny_p", "heart_p", "wide_p",
                                      "large_p"])
    def test_matches_matmul_bit_for_bit(self, name, request):
        p = request.getfixturevalue(name)
        rng = np.random.default_rng(10)
        for M, ref_M in [(p.A, p.A), (p.B, p.B), (p.A.T.tocsr(), p.A.T),
                         (p.B.T.tocsr(), p.B.T)]:
            product = pb._bind(M)
            for _ in range(3):
                x = spread(rng, M.shape[1])
                ref = (ref_M @ x).tobytes()
                assert product(x).tobytes() == ref
                out = np.full(M.shape[0], np.nan)
                assert product(x, out) is out
                assert out.tobytes() == ref
        # each of the problem's kernels against its product with `@`
        k, A, B = p.lh_kernels, p.A, p.B
        y, s1, s3 = (spread(rng, n) for n in (A.shape[1], p.n1, p.n2))
        assert k.A(y).tobytes() == (A @ y).tobytes()
        assert k.B(y).tobytes() == (B @ y).tobytes()
        assert k.At(s1).tobytes() == (A.T @ s1).tobytes()
        assert k.Bt(s3).tobytes() == (B.T @ s3).tobytes()

    @pytest.mark.parametrize("name", ["tiny_p", "heart_p"])
    def test_kernels_share_A_and_B_and_add_only_the_transposes(self, name,
                                                               request):
        p = request.getfixturevalue(name)
        k = p.lh_kernels
        data = {f: inspect.getclosurevars(getattr(k, f)).nonlocals["data"]
                for f in k._fields}
        assert np.shares_memory(data["A"], p.A.data)
        assert np.shares_memory(data["B"], p.B.data)
        added = sum(d.size for d in data.values()
                    if not (np.shares_memory(d, p.A.data)
                            or np.shares_memory(d, p.B.data)))
        assert added <= p.A.nnz + p.B.nnz

    def test_rejects_other_dtypes_and_lengths(self, tiny_p):
        # a matrix when it is bound, a vector when a map is called
        A = tiny_p.A
        unsorted = sp.csr_matrix((np.array([1.0, 2.0]), np.array([1, 0]),
                                  np.array([0, 2])), shape=(1, 2))
        for bad_M in (A.astype(np.float32), A.astype(complex), A.tocoo(),
                      A.tocsc(), unsorted):
            with pytest.raises(ValueError):
                pb._bind(bad_M)
        p, m = tiny_p, tiny_p.m
        d, s = np.ones(m + 1), np.ones(m)
        bad = [(pb.apply_LH, d.astype(np.float32)),
               (pb.apply_LH, d.astype(complex)),
               (pb.apply_LH, d[:-1]),
               (pb.apply_LH_T, s.astype(np.float32)),
               (pb.apply_LH_T, s.astype(complex)),
               (pb.apply_LH_T, np.ones(m + 1))]
        for fn, x in bad:
            with pytest.raises(ValueError):
                fn(p, x)
        with pytest.raises(ValueError):
            pb.eval_H(p, d[:-1])

    def test_assemble_gives_float64_canonical_rows(self, tiny_p, heart_p):
        for p in (tiny_p, heart_p):
            for M in (p.A, p.B):
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
