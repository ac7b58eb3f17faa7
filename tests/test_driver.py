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
from mpecsvc.kkt import KktOperator, KktPoint, SingularSystemError
from mpecsvc.newton import NewtonConfig, NoDescentError, TraceRow

from conftest import random_kkt_point, schur_cone_rel_errors


class TestSchedule:
    def test_default_has_21_values(self):
        sched = eps_schedule(OuterConfig())
        assert len(sched) == 21
        assert sched[0] == 1.0
        assert sched[-1] <= 1e-6 < sched[-2]
        ratios = [b / a for a, b in zip(sched, sched[1:])]
        np.testing.assert_allclose(ratios, 0.5)

    def test_custom(self):
        sched = eps_schedule(OuterConfig(eps_min=0.3))
        assert sched == [1.0, 0.5, 0.25]

    def test_validation(self):
        with pytest.raises(ValueError):
            OuterConfig(eps_min=2.0)            # above eps0 = 1
        for initial_C in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                OuterConfig(initial_C=initial_C)


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

    def test_is_at_the_first_eps(self, tiny_p):
        # the start point is the first subproblem's, so an operator builds
        # at it as it stands
        r = initial_point(tiny_p, 1.0)
        assert r.eps == OuterConfig.eps0 == eps_schedule(OuterConfig())[0]
        op = KktOperator(tiny_p, r)
        assert np.all(np.isfinite(op.residual()))


@pytest.fixture(scope="module")
def tiny_solution(tiny_p):
    ocfg = OuterConfig(eps_min=1e-4)
    ncfg = NewtonConfig(max_iters=100)
    return run_smoothing(tiny_p, ocfg, ncfg)


class TestSmoothingLoop:
    def test_record_count_matches_schedule(self, tiny_p, tiny_solution):
        report = tiny_solution
        assert report.outer_iters == len(eps_schedule(
            OuterConfig(eps_min=1e-4)))
        assert report.inner_iters_total == sum(
            rec.inner_iters for rec in report.outer_records)

    def test_converged_subproblems_satisfy_gap(self, tiny_p, tiny_solution):
        report = tiny_solution
        converged = [rec for rec in report.outer_records
                     if rec.status == "converged"]
        assert converged, "no subproblem converged on the tiny instance"
        for rec in converged:
            assert rec.normF <= rec.f_tol
            assert rec.max_comp_gap <= 10 * rec.f_tol
            assert rec.min_G > 0 and rec.min_H > 0

    def test_report_consistency(self, tiny_p, tiny_solution):
        report = tiny_solution
        v_star = report.final_point.v
        assert report.C_raw == v_star[0]
        assert report.E_cv == pytest.approx(cv_error(tiny_p, v_star))
        last = report.outer_records[-1]
        assert report.final_point.eps == last.eps
        # run_smoothing's normF is this norm at its final point, to the bit
        op = KktOperator(tiny_p, report.final_point)
        assert float(np.linalg.norm(op.residual())) == last.normF
        assert report.wall_ms >= sum(rec.wall_ms
                                     for rec in report.outer_records) > 0.0
        assert {f.name for f in fields(report)} == {
            "C_raw", "E_cv", "outer_records", "final_point", "wall_ms"}

    def test_deterministic(self, tiny_p, tiny_solution):
        rep_a = tiny_solution
        ocfg = OuterConfig(eps_min=1e-4)
        rep_b = run_smoothing(tiny_p, ocfg, NewtonConfig(max_iters=100))
        v_a, v_b = rep_a.final_point.v, rep_b.final_point.v
        np.testing.assert_array_equal(v_a, v_b)
        assert rep_a.E_cv == rep_b.E_cv

    def test_full_solve_assembles_nothing(self, tiny_p,
                                          tiny_complementary_point,
                                          forbid_assembly):
        # every route runs, and the solve is the one without the patches
        report = run_smoothing(tiny_p, OuterConfig(),
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
        report = run_smoothing(tiny_p, OuterConfig(eps_min=0.25),
                               NewtonConfig())
        v = report.final_point.v
        assert [rec.status for rec in report.outer_records] == [
            "no_descent"] * 3
        assert report.inner_iters_total == 0
        np.testing.assert_array_equal(v, initial_point(tiny_p, 1.0).v)


    def test_every_newton_setting_reaches_the_subproblems(self, tiny_p,
                                                          monkeypatch):
        ncfg = NewtonConfig(f_tol=1e-7, max_iters=60)
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
        run_smoothing(tiny_p, OuterConfig(eps_min=2.0 ** -5), NewtonConfig())
        assert starts == ["bicgstab", "direct", "bicgstab", "direct",
                          "bicgstab", "bicgstab"]

    def test_duplicated_points_converge(self, duplicated_instances):
        # three pairs of equal points in the cv set, lifted folds
        _, p = duplicated_instances["narrow"]
        report = run_smoothing(p, OuterConfig(), NewtonConfig())
        assert [rec.status for rec in report.outer_records] == [
            "converged"] * 21


class TestPostprocess:
    def test_rescales_C(self, tiny_ds, tiny_plan):
        C_hat, w = postprocess(1.2, tiny_ds, tiny_plan)
        assert C_hat == pytest.approx(1.2 * 3 / 2)
        assert w.shape == (tiny_ds.n_features,)

    def test_retraining_that_stops_early_warns(self, heart_ds, heart_plan):
        # heart's C_hat 3.907, where ROADMAP item 3's design ends: the
        # coordinate descent stops at max_epochs, and the w it stops at
        # still gives the oracle's E_te; at today's 1.044 nothing is said
        with pytest.warns(UserWarning) as record:
            C_hat, w = postprocess(3.907 * 2 / 3, heart_ds, heart_plan)
        assert C_hat == 3.907
        assert [str(r.message) for r in record] == [
            "baseline retraining stopped at max_epochs (violation 1.22e-06)"]
        assert holdout_error(heart_ds, heart_plan.test_indices,
                             w) == pytest.approx(100 * 20 / 120)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            C_hat, _ = postprocess(0.6960167719513022, heart_ds, heart_plan)
        assert C_hat == pytest.approx(1.044, abs=1e-3)

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
    ocfg = OuterConfig(eps_min=1e-3)
    report = run_smoothing(tiny_p, ocfg, NewtonConfig(max_iters=100))
    return report.final_point


class TestDiagnostics:
    def test_classify_index_sets(self, tiny_p):
        v = np.abs(np.random.default_rng(0).standard_normal(tiny_p.m + 1)) + 1.0
        # G pairs zeta with A y + z, z with 1 - zeta and xi with C - alpha:
        # zeta_i = 0 puts a pair in I_0+, zeta_i = 1 one in I_+0, and
        # xi_i = 0 with alpha_i = C one in I_00
        C, zeta, _, alpha, xi = tiny_p.split_v(v)
        zeta[:2] = 0.0
        zeta[2:5] = 1.0
        xi[0], alpha[0] = 0.0, C
        G, H = M.eval_G(tiny_p, v), M.eval_H(tiny_p, v)
        g_zero = np.abs(G) <= 1e-6 * (1.0 + np.abs(G))
        h_zero = np.abs(H) <= 1e-6 * (1.0 + np.abs(H))
        sizes = classify_index_sets(tiny_p, v)
        assert sizes == {"I_0+": int(np.sum(g_zero & ~h_zero)),
                         "I_+0": int(np.sum(~g_zero & h_zero)),
                         "I_00": int(np.sum(g_zero & h_zero))}
        assert sizes == {"I_0+": 2, "I_+0": 3, "I_00": 1}

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
        # 1/x_C = A2_cone and x_v/x_C = U for K x = e_C (heart's points are
        # in test_acceptance)
        assert max(schur_cone_rel_errors(tiny_p, tiny_final_point)) <= 1e-10

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

