"""BiCGStab solver tests against dense direct solves."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpecsvc.driver import initial_point
from mpecsvc.kkt import KktOperator, KktPoint
from mpecsvc.krylov import bicgstab

from conftest import plain_bicgstab


def well_conditioned(rng, n, symmetric=False):
    """Random well-conditioned matrix with spectrum away from the origin.

    Symmetric indefinite (eigenvalues +-[1, 2], the shape of the Newton
    systems) or a nonsymmetric diagonal-plus-perturbation.  Both keep the
    eigenvalues off a curve surrounding zero, where any Krylov method is
    hopeless regardless of conditioning.
    """
    if symmetric:
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = rng.uniform(1.0, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        return (Q * s) @ Q.T
    A = np.diag(rng.uniform(1.0, 2.0, size=n))
    A += 0.2 / np.sqrt(n) * rng.standard_normal((n, n))
    return A


class TestExactCases:
    def test_identity(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal(30)
        res = bicgstab(lambda x: x, b, rel_tol=1e-10, max_iters=300)
        assert res.status == "converged"
        np.testing.assert_array_equal(res.x, b)

    def test_scaled_identity(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal(30)
        res = bicgstab(lambda x: 2.5 * x, b, rel_tol=1e-10, max_iters=300)
        assert res.status == "converged"
        np.testing.assert_allclose(res.x, b / 2.5, rtol=1e-15)

    def test_identity_applies_twice(self):
        # once in its one iteration and once for the true residual: the
        # zero start's residual is rhs itself, not a product
        calls = []

        def identity(x):
            calls.append(x.copy())
            return x

        b = np.random.default_rng(0).standard_normal(30)
        res = bicgstab(identity, b, rel_tol=1e-10, max_iters=300)
        assert res.iterations == 1 and len(calls) == 2
        assert all(np.any(x != 0) for x in calls)

    def test_zero_rhs(self):
        res = bicgstab(lambda x: 3.0 * x, np.zeros(10), rel_tol=1e-10,
                       max_iters=100)
        assert res.status == "converged"
        np.testing.assert_array_equal(res.x, np.zeros(10))


class TestRandomSystems:
    def test_matches_direct_solve(self):
        rng = np.random.default_rng(2)
        for k in range(10):
            n = int(rng.integers(5, 120))
            A = well_conditioned(rng, n, symmetric=bool(k % 2))
            b = rng.standard_normal(n)
            res = bicgstab(lambda x: A @ x, b, rel_tol=1e-12, max_iters=10 * n)
            x_ref = np.linalg.solve(A, b)
            assert res.status == "converged"
            err = np.linalg.norm(res.x - x_ref) / np.linalg.norm(x_ref)
            assert err <= 1e-8

    def test_spd(self):
        rng = np.random.default_rng(3)
        n = 60
        Q = well_conditioned(rng, n)
        A = Q @ Q.T + np.eye(n)
        b = rng.standard_normal(n)
        res = bicgstab(lambda x: A @ x, b, rel_tol=1e-13, max_iters=10 * n)
        np.testing.assert_allclose(res.x, np.linalg.solve(A, b),
                                   rtol=0, atol=1e-9)

    def test_residual_norm_is_true(self):
        rng = np.random.default_rng(5)
        A = well_conditioned(rng, 50)
        b = rng.standard_normal(50)
        res = bicgstab(lambda x: A @ x, b, rel_tol=1e-10, max_iters=500)
        assert res.residual_norm == pytest.approx(
            np.linalg.norm(A @ res.x - b), rel=1e-10, abs=1e-13)

    def test_tiny_rhs_meets_its_relative_target(self):
        # the target is rel_tol * ||b|| = 1e-14 however small ||b|| is;
        # an absolute floor of 1e-12 would stop this run at 7e-13
        rng = np.random.default_rng(0)
        d = rng.uniform(1.0, 2.0, size=50)
        b = rng.standard_normal(50)
        b *= 1e-6 / np.linalg.norm(b)
        res = bicgstab(lambda x: d * x, b, rel_tol=1e-8, max_iters=500)
        assert res.status == "converged"
        assert res.residual_norm <= 2e-14


class TestFailureModes:
    def test_max_iters(self):
        # the cap k returns the recursion's k-th iterate and its true
        # residual, also where the residual rose at step k and an earlier
        # iterate was better; this system converges after 35 to 39 steps,
        # by the BLAS kernels, and its residual rises often before
        rng = np.random.default_rng(0)
        A = well_conditioned(rng, 80, symmetric=True)
        b = rng.standard_normal(80)
        xs, norms = plain_bicgstab(lambda x: A @ x, b, 30)
        rose = [k for k in range(1, 31) if norms[k] > norms[k - 1]]
        assert len(rose) >= 5
        for k in rose:
            res = bicgstab(lambda x: A @ x, b, rel_tol=1e-14, max_iters=k)
            assert (res.status, res.iterations) == ("max_iters", k)
            assert res.x.tobytes() == xs[k].tobytes()
            r = A @ xs[k] - b
            assert res.residual_norm == math.sqrt(np.dot(r, r))

    def test_singular_inconsistent_does_not_hang(self):
        # rank-1 operator, rhs outside the range: must return, not loop
        u = np.ones(20) / np.sqrt(20)
        b = np.zeros(20)
        b[0] = 1.0
        res = bicgstab(lambda x: u * np.dot(u, x), b, rel_tol=1e-10,
                       max_iters=500)
        assert res.status in ("breakdown", "stalled", "max_iters")

    def test_breakdown_returns_the_zero_start(self):
        # a rotation by 90 degrees: its product with the first search
        # direction e1 is orthogonal to the shadow residual e1, so the first
        # iteration breaks down before it moves x
        rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
        res = bicgstab(lambda x: rotation @ x, np.array([1.0, 0.0]),
                       rel_tol=1e-10, max_iters=10)
        assert (res.status, res.iterations) == ("breakdown", 1)
        np.testing.assert_array_equal(res.x, np.zeros(2))
        assert res.residual_norm == 1.0

    def test_config_validation(self):
        for rel_tol, max_iters in [(0.0, 10), (np.nan, 10), (1e-10, 0)]:
            with pytest.raises(ValueError):
                bicgstab(lambda x: x, np.ones(3), rel_tol, max_iters)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 40))
def test_diagonal_property(seed, n):
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 5.0, size=n)
    b = rng.standard_normal(n)
    res = bicgstab(lambda x: d * x, b, rel_tol=1e-12, max_iters=10 * n)
    assert res.status == "converged"
    np.testing.assert_allclose(res.x, b / d, rtol=1e-7, atol=1e-9)


class TestPinnedRounding:
    def test_heart_first_newton_system(self, heart_p):
        """Heart's trajectory rests on the rounding of every BiCGStab update
        and kkt_apply product: the first Newton system at eps = 1 must give
        the iterate the textbook updates and scipy's `@` gave (values
        recorded with numpy 2.4.6, scipy 1.17.1 and OpenBLAS 0.3.31).

        Kernel-bound: the 105 iterations and the iterate's bytes are those
        of OpenBLAS's SkylakeX kernels.  It fails under the Haswell kernels,
        which take 90 iterations, and under the Prescott kernels.
        """
        r0 = initial_point(heart_p, 1.0)
        op = KktOperator(heart_p, KktPoint(v=r0.v, lam=r0.lam, eps=1.0))
        res = bicgstab(op.kkt_apply, -op.residual(), rel_tol=1e-2,
                       max_iters=400)
        assert (res.iterations, res.status) == (105, "converged")
        assert hashlib.sha256(res.x.tobytes()).hexdigest() == (
            "84d70c7ab6a5e2b7f1ff32e392b0769fbce3aa70ab3b90304847b9b331cb35c5")
