"""Outer smoothing loop, post-processing, and diagnostics."""

import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

import mpecsvc as M
from mpecsvc import kkt
from mpecsvc.driver import (OuterConfig, classify_index_sets, cv_error,
                            eps_schedule, initial_point, postprocess,
                            run_smoothing)
from mpecsvc.driver import test_error as holdout_error
from mpecsvc.kkt import (KktOperator, KktPoint, SingularSystemError,
                         fold_solve)
from mpecsvc.newton import NewtonConfig, NoDescentError, TraceRow

from conftest import random_kkt_point


class TestSchedule:
    def test_default_has_21_values(self):
        sched = eps_schedule(OuterConfig())
        assert len(sched) == 21
        assert sched[0] == 1.0
        assert sched[-1] <= 1e-6 < sched[-2]
        ratios = [b / a for a, b in zip(sched, sched[1:])]
        np.testing.assert_allclose(ratios, 0.5)

    def test_custom(self):
        sched = eps_schedule(OuterConfig(eps0=1.0, eps_min=0.3, kappa=0.5))
        assert sched == [1.0, 0.5, 0.25]

    def test_validation(self):
        with pytest.raises(ValueError):
            OuterConfig(eps0=1e-8, eps_min=1.0)
        with pytest.raises(ValueError):
            OuterConfig(kappa=1.0)


class TestInitialPoint:
    def test_structure(self, tiny_p):
        r = initial_point(tiny_p, 2.0)
        assert r.v[0] == 2.0
        C, zeta, z, alpha, xi = tiny_p.split_v(r.v)
        np.testing.assert_allclose(zeta, 0.5)
        np.testing.assert_allclose(alpha, 0.5)
        np.testing.assert_array_equal(r.lam, 0.0)

    def test_small_C_shrinks_alpha(self, tiny_p):
        r = initial_point(tiny_p, 0.4)
        _, _, _, alpha, _ = tiny_p.split_v(r.v)
        np.testing.assert_allclose(alpha, 0.2)

    def test_rejects_nonpositive_C(self, tiny_p):
        with pytest.raises(ValueError):
            initial_point(tiny_p, 0.0)


@pytest.fixture(scope="module")
def tiny_solution(tiny_p):
    ocfg = OuterConfig(eps0=1.0, eps_min=1e-4, kappa=0.5)
    ncfg = NewtonConfig(max_iters=100)
    return run_smoothing(tiny_p, ocfg, ncfg)


class TestSmoothingLoop:
    def test_record_count_matches_schedule(self, tiny_p, tiny_solution):
        _, report = tiny_solution
        assert report.outer_iters == len(eps_schedule(
            OuterConfig(eps0=1.0, eps_min=1e-4, kappa=0.5)))
        assert report.inner_iters_total == sum(
            rec.inner_iters for rec in report.outer_records)

    def test_converged_subproblems_satisfy_gap(self, tiny_p, tiny_solution):
        _, report = tiny_solution
        converged = [rec for rec in report.outer_records
                     if rec.status == "converged"]
        assert converged, "no subproblem converged on the tiny instance"
        for rec in converged:
            assert rec.normF <= rec.f_tol
            assert rec.max_comp_gap <= 10 * rec.f_tol
            assert rec.min_G > 0 and rec.min_H > 0

    def test_report_consistency(self, tiny_p, tiny_solution):
        v_star, report = tiny_solution
        assert report.C_raw == v_star[0]
        assert report.E_cv == pytest.approx(cv_error(tiny_p, v_star))
        assert report.final_point is not None
        d = report.to_dict(dataset="x", dims={"m": tiny_p.m}, config={})
        assert d["C_raw"] == report.C_raw
        assert d["dims"]["m"] == 36

    def test_deterministic(self, tiny_p, tiny_solution):
        v_a, rep_a = tiny_solution
        ocfg = OuterConfig(eps0=1.0, eps_min=1e-4, kappa=0.5)
        v_b, rep_b = run_smoothing(tiny_p, ocfg, NewtonConfig(max_iters=100))
        np.testing.assert_array_equal(v_a, v_b)
        assert rep_a.E_cv == rep_b.E_cv

    def test_full_solve_assembles_nothing(self, tiny_p,
                                          tiny_complementary_point,
                                          forbid_assembly):
        # every route runs, and the solve is the one without the patches
        _, report = run_smoothing(tiny_p, OuterConfig(),
                                  NewtonConfig(max_iters=100))
        routes = {row.route for rec in report.outer_records
                  for row in rec.trace}
        assert {"bicgstab", "direct", "lm"} <= routes
        np.testing.assert_array_equal(report.final_point.to_vector(),
                                      tiny_complementary_point.to_vector())

    def test_no_descent_is_recorded_and_the_loop_goes_on(self, tiny_p,
                                                         monkeypatch):
        # a subproblem without a descent direction takes no step, and the
        # next one starts from the same point
        def no_descent(op, F, route):
            raise NoDescentError("no descent direction")

        monkeypatch.setattr(M.newton, "_direction", no_descent)
        v, report = run_smoothing(tiny_p, OuterConfig(eps_min=0.25))
        assert [rec.status for rec in report.outer_records] == [
            "no_descent"] * 3
        assert report.inner_iters_total == 0
        np.testing.assert_array_equal(v, initial_point(tiny_p, 1.0).v)


    def test_every_newton_setting_reaches_the_subproblems(self, tiny_p,
                                                          monkeypatch):
        ncfg = NewtonConfig(sigma=1e-3, rho=0.4, f_tol=1e-7, max_iters=60)
        default = NewtonConfig()
        unset = [f.name for f in fields(NewtonConfig)
                 if getattr(ncfg, f.name) == getattr(default, f.name)]
        assert not unset, f"give these a non-default value: {unset}"
        seen = []

        def spy(p, eps, r0, cfg, route):
            # returns its start point at eps, as solve_subproblem does
            seen.append((eps, cfg))
            return KktPoint(v=r0.v, lam=r0.lam, eps=eps), [], "converged"

        monkeypatch.setattr(M.driver, "solve_subproblem", spy)
        run_smoothing(tiny_p, OuterConfig(eps_min=0.25), ncfg)
        assert [eps for eps, _ in seen] == [1.0, 0.5, 0.25]
        for eps, cfg in seen:
            assert cfg.f_tol == max(ncfg.f_tol, 1e-2 * eps * eps)
            for f in fields(NewtonConfig):
                if f.name != "f_tol":
                    assert getattr(cfg, f.name) == getattr(ncfg, f.name), f.name

    def test_each_subproblem_starts_on_the_route_its_predecessor_left(
            self, tiny_p, monkeypatch):
        # (status, first row's route or None for no rows) per subproblem;
        # the next one starts direct only after a converged subproblem
        # whose first step was not a BiCGStab step
        script = [("converged", "direct"), ("converged", "bicgstab"),
                  ("converged", "direct"), ("max_iters", "direct"),
                  ("converged", None), ("converged", "bicgstab")]
        starts = []

        def fake(p, eps, r0, cfg, route):
            status, first = script[len(starts)]
            starts.append(route)
            trace = [] if first is None else [TraceRow(
                k=0, normF=1.0, step=1.0, lin_iters=1, backtracks=0,
                route=first, lin_resid=0.0, shift=0.0)]
            return KktPoint(v=r0.v, lam=r0.lam, eps=eps), trace, status

        monkeypatch.setattr(M.driver, "solve_subproblem", fake)
        run_smoothing(tiny_p, OuterConfig(eps_min=2.0 ** -5))
        assert starts == ["bicgstab", "direct", "bicgstab", "direct",
                          "bicgstab", "bicgstab"]


class TestPostprocess:
    def test_rescales_C(self, tiny_ds, tiny_plan, tiny_p):
        v = initial_point(tiny_p, 1.2).v
        C_hat, w = postprocess(tiny_p, v, tiny_ds, tiny_plan)
        assert C_hat == pytest.approx(1.2 * 3 / 2)
        assert w.shape == (tiny_ds.n_features,)

    def test_test_error_empty_set(self, tiny_ds):
        assert holdout_error(tiny_ds, (), np.zeros(4)) == 0.0


def _curve_slope(p, r, C):
    """grad f . U(C) at the point of Phi_eps(C, y) = 0 next to r.v.

    Newton on y with C held fixed; U(C) = (1, -J_y^{-1} J_C) is the tangent
    of the feasible curve, so the slope is d f(v(C)) / dC.
    """
    v = r.v.copy()
    v[0] = C
    for _ in range(20):
        op = KktOperator(p, KktPoint(v=v, lam=r.lam, eps=r.eps))
        J = op.materialize_jacobian()
        phi = op.phi()
        if np.linalg.norm(phi) <= 1e-14:
            break
        v[1:] -= np.linalg.solve(J[:, 1:], phi)
    else:
        raise AssertionError("feasible-curve Newton did not converge")
    U = np.concatenate([[1.0], -np.linalg.solve(J[:, 1:], J[:, 0])])
    return float(p.obj_grad @ U)


@pytest.fixture(scope="module")
def tiny_final_point(tiny_p):
    ocfg = OuterConfig(eps0=1.0, eps_min=1e-3, kappa=0.5)
    _, report = run_smoothing(tiny_p, ocfg, NewtonConfig(max_iters=100))
    return report.final_point


class TestDiagnostics:
    def test_classify_index_sets(self, tiny_p):
        v = np.abs(np.random.default_rng(0).standard_normal(tiny_p.m + 1)) + 1.0
        sizes, listing = classify_index_sets(tiny_p, v)
        assert set(sizes) == {"I_0+", "I_+0", "I_00"}
        assert sum(sizes.values()) <= tiny_p.m
        assert all(len(listing[k]) == sizes[k] for k in sizes)

    def test_assumption2_two_path_agreement(self, tiny_p, tiny_final_point):
        diag = M.assumption2_value(tiny_p, tiny_final_point)
        rel = abs(diag["A2_cone"] - diag["A2_cone_alt"]) / max(
            abs(diag["A2_cone"]), 1e-300)
        assert rel <= 1e-8
        # U spans null(J_v Phi): apply the constraint Jacobian to it
        op = KktOperator(tiny_p, tiny_final_point)
        JU = op.jac_apply(diag["U"])
        assert np.linalg.norm(JU) <= 1e-6 * max(np.linalg.norm(diag["U"]), 1.0)

    def test_cone_direction_near_complementarity(self, tiny_p,
                                                 tiny_complementary_point):
        diag = M.assumption2_value(tiny_p, tiny_complementary_point)
        op = KktOperator(tiny_p, tiny_complementary_point)
        U = diag["U"]
        assert U[0] == 1.0
        assert np.linalg.norm(op.jac_apply(U)) <= 1e-12 * np.linalg.norm(U)

    def test_weight_rounding_to_zero_gives_nan_cone_values(self, tiny_p):
        v = initial_point(tiny_p, 1.0).v
        v[1 + 2 * tiny_p.n1 + tiny_p.n2:] = 1e10     # G = xi swamps H and eps
        r = KktPoint(v=v, lam=np.full(tiny_p.m, 0.1), eps=1e-3)
        assert KktOperator(tiny_p, r).weights.wG.min() == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diag = M.assumption2_value(tiny_p, r)
        assert np.isnan(diag["A2_cone"]) and np.isnan(diag["A2_cone_alt"])
        assert np.isfinite(diag["A2_paper"])

    def test_singular_point_block_gives_nan_cone_values(self, tiny_p,
                                                         monkeypatch):
        # with no point free, the blocks whose weights round to 0 are
        # eliminated, and their zero pivots raise when the elimination is
        # built, before any solve
        v = initial_point(tiny_p, 1.0).v
        v[1 + 2 * tiny_p.n1 + tiny_p.n2:] = 1e10
        r = KktPoint(v=v, lam=np.full(tiny_p.m, 0.1), eps=1e-3)
        monkeypatch.setattr(kkt, "FREE_DET", 0.0)
        with pytest.raises(SingularSystemError, match="point block"):
            kkt.constraint_fold_solves(KktOperator(tiny_p, r))
        diag = M.assumption2_value(tiny_p, r)
        assert np.isnan(diag["A2_cone"]) and np.isfinite(diag["A2_paper"])

    def test_assumption2_cone_is_curvature_along_feasible_curve(
            self, tiny_p, tiny_final_point):
        # A2_cone is d^2 f(v(C)) / dC^2 on the curve Phi_eps(C, y(C)) = 0;
        # compare with a central difference of its slope grad f . U(C)
        r = tiny_final_point
        diag = M.assumption2_value(tiny_p, r)
        h = 1e-3 * r.eps
        fd = (_curve_slope(tiny_p, r, r.v[0] + h)
              - _curve_slope(tiny_p, r, r.v[0] - h)) / (2 * h)
        assert fd == pytest.approx(diag["A2_cone"], rel=1e-4)

    def test_assumption2_cone_is_inverse_schur_complement(
            self, tiny_p, tiny_final_point):
        # K x = e_C forces x_v = x_C U (the multiplier rows say J x_v = 0)
        # and x_C U^T hess U = 1 (U^T times the v rows), so A2_cone = 1/x_C
        diag = M.assumption2_value(tiny_p, tiny_final_point)
        e_C = np.zeros(2 * tiny_p.m + 1)
        e_C[0] = 1.0
        x = fold_solve(KktOperator(tiny_p, tiny_final_point), e_C,
                       shift=0.0)
        assert diag["A2_cone"] == pytest.approx(1.0 / x[0], rel=1e-10)

    def test_assumption2_memory_is_bounded_by_the_points(self, large_p):
        # the three 446 x 446 inverses of an m2 x m2 elimination alone took
        # 4.8 MB on this instance (m = 4014)
        p = large_p
        r = random_kkt_point(p, 1e-2, seed=80)
        p.point_index, p.lh_kernels
        tracemalloc.start()
        try:
            diag = M.assumption2_value(p, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(diag["A2_cone"])
        assert peak < 4.8e6

