"""Dual coordinate-descent SVC and the grid-search oracle."""

import itertools
import multiprocessing
import os

import numpy as np
import pytest
import scipy.sparse as sp

import mpecsvc as M
from mpecsvc import svc
from mpecsvc.svc import grid_search, solve_l1svc_dual, validation_error

from conftest import make_tiny_dataset, plain_l1svc_dual, serial_grid_search


def brute_force_box_qp(Q, C, tol=1e-10):
    """Exact min 0.5 a^T Q a - 1^T a over [0,C]^N by active-set enumeration.

    Each coordinate is at its lower bound, upper bound, or free; for every
    assignment the free block is solved exactly and feasibility plus the
    bound-multiplier signs are checked.  Intended for N <= 5.
    """
    N = Q.shape[0]
    best = (np.inf, None)
    for states in itertools.product((0, 1, 2), repeat=N):
        a = np.zeros(N)
        free = [i for i, s in enumerate(states) if s == 2]
        for i, s in enumerate(states):
            if s == 1:
                a[i] = C
        if free:
            QF = Q[np.ix_(free, free)]
            rhs = 1.0 - Q[free, :] @ a
            try:
                a[free] = np.linalg.solve(QF, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(a[free] < -tol) or np.any(a[free] > C + tol):
                continue
        g = Q @ a - 1.0
        ok = True
        for i, s in enumerate(states):
            if s == 0 and g[i] < -tol:
                ok = False
            if s == 1 and g[i] > tol:
                ok = False
            if s == 2 and abs(g[i]) > 1e-6:
                ok = False
        if not ok:
            continue
        obj = 0.5 * a @ Q @ a - a.sum()
        if obj < best[0]:
            best = (obj, a)
    return best


def dual_objective(rows, alpha):
    w = rows.T @ alpha
    return 0.5 * float(w @ w) - float(alpha.sum())


def primal_objective(rows, w, C):
    margins = rows @ w                   # y_i x_i^T w
    hinge = np.maximum(0.0, 1.0 - margins).sum()
    return 0.5 * float(w @ w) + C * float(hinge)


class TestDualSolver:
    def test_single_point_analytic(self):
        # one row r: Q = [r r^T] scalar q; unconstrained min at a = 1/q
        rows = np.array([[2.0, 0.0]])
        q = 4.0
        res = solve_l1svc_dual(rows, C=10.0)
        assert res.status == "converged"
        assert res.alpha[0] == pytest.approx(1.0 / q, abs=1e-8)
        np.testing.assert_allclose(res.w, rows[0] / q, atol=1e-8)

    def test_single_point_clipped_at_C(self):
        rows = np.array([[2.0, 0.0]])
        res = solve_l1svc_dual(rows, C=0.1)  # 1/q = 0.25 > C
        assert res.alpha[0] == pytest.approx(0.1)

    def test_C_zero(self):
        rows = np.array([[1.0, 1.0], [1.0, -1.0]])
        res = solve_l1svc_dual(rows, C=0.0)
        assert res.status == "converged"
        np.testing.assert_array_equal(res.alpha, 0.0)

    def test_negative_C_rejected(self):
        with pytest.raises(ValueError):
            solve_l1svc_dual(np.ones((1, 1)), C=-1.0)

    def test_nan_C_rejected(self):
        # NaN fails every comparison: unchecked, it "converged" with
        # alpha = (0, 0, 1) on this example
        with pytest.raises(ValueError):
            solve_l1svc_dual(np.ones((3, 1)), C=np.nan)

    def test_zero_row_skipped(self):
        rows = np.array([[0.0, 0.0], [1.0, 0.0]])
        res = solve_l1svc_dual(rows, C=5.0)
        assert res.alpha[0] == 0.0
        assert res.status == "converged"

    def test_kkt_box_conditions(self, monkeypatch):
        monkeypatch.setattr(svc, "TOL", 1e-10)
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((12, 4))
        C = 0.7
        res = solve_l1svc_dual(rows, C)
        assert res.status == "converged"
        g = rows @ res.w - 1.0
        for a, gi in zip(res.alpha, g):
            if a <= 1e-12:
                assert gi >= -1e-8
            elif a >= C - 1e-12:
                assert gi <= 1e-8
            else:
                assert abs(gi) <= 1e-8

    def test_matches_brute_force(self, monkeypatch):
        monkeypatch.setattr(svc, "TOL", 1e-12)
        rng = np.random.default_rng(1)
        for k in range(10):
            N = int(rng.integers(1, 6))
            rows = rng.standard_normal((N, 3))
            C = float(rng.uniform(0.1, 3.0))
            res = solve_l1svc_dual(rows, C)
            Q = rows @ rows.T
            ref_obj, _ = brute_force_box_qp(Q, C)
            assert dual_objective(rows, res.alpha) == pytest.approx(
                ref_obj, abs=1e-6)

    def test_weak_duality(self, monkeypatch):
        # -dual objective <= primal objective for any feasible pair
        monkeypatch.setattr(svc, "TOL", 1e-10)
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((15, 4))
        C = 1.3
        res = solve_l1svc_dual(rows, C)
        p_obj = primal_objective(rows, res.w, C)
        d_obj = dual_objective(rows, res.alpha)
        assert -d_obj <= p_obj + 1e-9
        # strong duality at the converged pair
        assert -d_obj == pytest.approx(p_obj, abs=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((10, 3))
        a = solve_l1svc_dual(rows, 1.0)
        b = solve_l1svc_dual(rows, 1.0)
        np.testing.assert_array_equal(a.alpha, b.alpha)


def assert_matches_plain(rows, C):
    """The solver against the plain numpy loop at the solver's MAX_EPOCHS
    and TOL, bit for bit."""
    got = solve_l1svc_dual(rows, C)
    ref = plain_l1svc_dual(rows, C, svc.MAX_EPOCHS, svc.TOL)
    assert got.alpha.dtype == ref.alpha.dtype == np.float64
    assert got.alpha.tobytes() == ref.alpha.tobytes()
    assert got.w.tobytes() == ref.w.tobytes()
    assert (got.epochs, got.status) == (ref.epochs, ref.status)
    assert (np.float64(got.max_violation).tobytes()
            == np.float64(ref.max_violation).tobytes())
    return got


@pytest.fixture(scope="module")
def heart_fold_rows(heart_ds, heart_plan):
    """Signed rows of heart's three training folds, as dense arrays."""
    T = heart_plan.T
    return [heart_ds.signed_rows([i for s in range(T) if s != t
                                  for i in heart_plan.folds[s]]).toarray()
            for t in range(T)]


class TestMatchesPlainLoop:
    # 1e-3 converges in 2 epochs, 1.778 (the grid's best cell) in 156 to
    # 734, and 1000 never does: it runs 50 epochs here (cfg holds the svc
    # constants a case patches)
    @pytest.mark.parametrize("C, cfg", [
        (1e-3, None),
        (np.logspace(-3, 3, 25)[13], None),
        (1000.0, {"MAX_EPOCHS": 50})])
    # "fortran" rows are strided views, walked by a strided ddot
    @pytest.mark.parametrize("form", ["fortran", "dense"])
    def test_heart_folds(self, heart_fold_rows, C, cfg, form, monkeypatch):
        for name, value in (cfg or {}).items():
            monkeypatch.setattr(svc, name, value)
        for rows in heart_fold_rows:
            assert_matches_plain(np.asfortranarray(rows) if form == "fortran"
                                 else rows, C)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_zero_row_and_layouts(self, layout):
        rng = np.random.default_rng(4)
        R = rng.standard_normal((20, 6))
        R[3] = 0.0
        rows = np.asarray(R, order=layout)
        for C in (0.05, 1.0, 30.0):
            res = assert_matches_plain(rows, C)
            assert res.alpha[3] == 0.0

    def test_C_zero_and_no_rows(self):
        assert_matches_plain(np.ones((4, 2)), 0.0)
        assert_matches_plain(np.zeros((0, 3)), 1.0)


class TestValidationError:
    def test_hand_example(self):
        ds = M.Dataset(X=sp.csr_matrix([[1.0], [-1.0], [2.0]]),
                       labels=np.array([1.0, -1.0, -1.0]))
        w = np.array([1.0])
        # margins y*x^T w: +1, +1, -2 -> one error out of three
        assert validation_error(ds, [0, 1, 2], w) == pytest.approx(1 / 3)

    def test_zero_margin_counts_as_error(self):
        # a stored zero
        ds = M.Dataset(X=sp.csr_matrix(([0.0], [0], [0, 1]), shape=(1, 1)),
                       labels=np.array([1.0]))
        assert validation_error(ds, [0], np.array([5.0])) == 1.0


def niceness_cell(rows, C):
    """A grid cell that reports its worker's niceness as its status."""
    return str(os.nice(0)), 0, np.zeros(rows.shape[1])


class TestGridSearch:
    def test_table_shape_and_best(self):
        ds = make_tiny_dataset(n_points=18, n_features=3, seed=5)
        plan = M.make_split(ds, p1=12, T=3, seed=0)
        grid = np.logspace(-2, 2, 7)
        res = grid_search(ds, plan, grid)
        assert len(res.table) == 7
        errs = [e for _, e in res.table]
        assert res.best_error == min(errs)
        assert (res.best_C, res.best_error) in res.table
        assert all(0.0 <= e <= 100.0 for e in errs)

    def test_deterministic(self):
        ds = make_tiny_dataset(n_points=18, n_features=3, seed=5)
        plan = M.make_split(ds, p1=12, T=3, seed=0)
        grid = [0.1, 1.0, 10.0]
        a = grid_search(ds, plan, grid)
        b = grid_search(ds, plan, grid)
        assert a.table == b.table

    def test_empty_grid_rejected(self):
        ds = make_tiny_dataset()
        plan = M.make_split(ds, p1=6, T=3, seed=0)
        with pytest.raises(ValueError):
            grid_search(ds, plan, [])

    @pytest.mark.parametrize("n_points, n_features, seed, p1, T, grid", [
        (18, 3, 5, 12, 3, np.logspace(-2, 2, 7)),
        (12, 4, 0, 6, 2, [10.0, 0.1, 0.0, 1.0, 10.0]),
        (30, 2, 7, 24, 4, np.logspace(-3, 3, 9)[::-1]),
        (20, 6, 2, 15, 5, [1e3]),
    ])
    def test_matches_the_serial_loop(self, n_points, n_features, seed, p1,
                                     T, grid):
        """Cells come back in grid order, unsorted and repeated C included."""
        ds = make_tiny_dataset(n_points=n_points, n_features=n_features,
                               seed=seed)
        plan = M.make_split(ds, p1=p1, T=T, seed=0)
        assert grid_search(ds, plan, grid) == serial_grid_search(ds, plan,
                                                                 grid)

    def test_joins_every_worker(self):
        ds = make_tiny_dataset(n_points=18, n_features=3, seed=5)
        plan = M.make_split(ds, p1=12, T=3, seed=0)
        grid_search(ds, plan, [0.1, 1.0, 10.0])
        assert multiprocessing.active_children() == []

    def test_a_failing_cell_raises_and_joins_every_worker(self):
        ds = make_tiny_dataset(n_points=18, n_features=3, seed=5)
        plan = M.make_split(ds, p1=12, T=3, seed=0)
        with pytest.raises(ValueError, match="C must be >= 0"):
            grid_search(ds, plan, [0.1, -1.0, 10.0])
        assert multiprocessing.active_children() == []

    def test_no_more_workers_than_cells(self, monkeypatch):
        import concurrent.futures
        import os

        started = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        ds = make_tiny_dataset(n_points=18, n_features=3, seed=5)
        plan = M.make_split(ds, p1=12, T=3, seed=0)
        grid_search(ds, plan, [1.0])
        assert started == [3]

    def test_workers_run_at_the_lowest_priority(self, monkeypatch):
        monkeypatch.setattr(M.svc, "_cell", niceness_cell)
        ds = make_tiny_dataset(n_points=18, n_features=3, seed=5)
        plan = M.make_split(ds, p1=12, T=3, seed=0)
        before = os.nice(0)
        result = grid_search(ds, plan, [0.1, 1.0])
        assert {s for cell in result.statuses for s in cell} == {"19"}
        assert os.nice(0) == before     # the caller keeps its priority
