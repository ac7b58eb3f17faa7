"""Damped Newton subproblem solver and Armijo line search."""

import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import mpecsvc as M
from mpecsvc import newton
from mpecsvc.driver import OuterConfig, initial_point, run_smoothing
from mpecsvc.kkt import KktOperator, KktPoint
from mpecsvc.krylov import bicgstab
from mpecsvc.newton import (LineSearchError, NewtonConfig, NoDescentError,
                            _direction, armijo_search, solve_subproblem)

ROUTES = {"bicgstab", "direct", "lm"}


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(sigma=0.5)
        with pytest.raises(ValueError):
            NewtonConfig(sigma=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(rho=1.0)
        with pytest.raises(ValueError):
            NewtonConfig(max_iters=-1)
        for f_tol in (float("nan"), 0.0, -1.0):
            with pytest.raises(ValueError):
                NewtonConfig(f_tol=f_tol)


class TestArmijo:
    def test_quadratic_accepts_full_step(self):
        # g(s) = 0.5*(1-s)^2 along the exact Newton direction from s=0
        cfg = NewtonConfig()
        s = armijo_search(lambda s: 0.5 * (1 - s) ** 2, 0.5, -1.0, cfg)
        assert s == 1.0

    def test_backtracks_on_overshoot(self):
        # merit rises for full step, decreases for small ones
        cfg = NewtonConfig()
        s = armijo_search(lambda s: 0.5 * (1 - s) ** 2 + 4 * s**4,
                          0.5, -1.0, cfg)
        assert 0 < s < 1.0

    def test_requires_descent(self):
        with pytest.raises(ValueError):
            armijo_search(lambda s: s, 1.0, 0.0, NewtonConfig())

    def test_exhaustion_raises(self):
        trials = []

        def flat(s):
            trials.append(s)
            return 1.0

        with pytest.raises(LineSearchError):
            armijo_search(flat, 0.5, -1.0, NewtonConfig())
        assert len(trials) == newton.MAX_BACKTRACKS + 1


class TestSubproblem:
    def test_already_converged_returns_immediately(self, tiny_p):
        r0 = initial_point(tiny_p, 1.0)
        cfg = NewtonConfig(f_tol=1e9)
        r, trace, status = solve_subproblem(tiny_p, 1.0, r0, cfg)
        assert status == "converged"
        assert len(trace) == 0
        np.testing.assert_allclose(r.v, r0.v)

    def test_converges_on_tiny_instance(self, tiny_p):
        eps = 0.5
        r0 = initial_point(tiny_p, 1.0)
        cfg = NewtonConfig(f_tol=1e-2 * eps * eps, max_iters=100)
        r, trace, status = solve_subproblem(tiny_p, eps, r0, cfg)
        assert status == "converged"
        op = KktOperator(tiny_p, r)
        normF = np.linalg.norm(op.residual())
        assert normF <= cfg.f_tol
        # complementarity characterization at the subproblem solution
        gap = np.max(np.abs(op.G * op.H - 0.5 * eps * eps))
        assert gap <= 10 * cfg.f_tol
        assert op.G.min() > 0 and op.H.min() > 0

    def test_trace_norm_decreases(self, tiny_p):
        r0 = initial_point(tiny_p, 1.0)
        cfg = NewtonConfig(f_tol=1e-3, max_iters=50)
        _, trace, _ = solve_subproblem(tiny_p, 0.5, r0, cfg)
        norms = [row.normF for row in trace]
        assert len(norms) >= 1
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert sum(row.lin_iters for row in trace) > 0
        assert {row.route for row in trace} <= ROUTES

    def test_max_iters_status(self, tiny_p):
        r0 = initial_point(tiny_p, 1.0)
        cfg = NewtonConfig(f_tol=1e-14, max_iters=1)
        _, trace, status = solve_subproblem(tiny_p, 0.5, r0, cfg)
        assert status in ("max_iters", "line_search_failure")
        assert len(trace) <= 2

    def test_stagnation_has_its_own_status(self, tiny_p, monkeypatch):
        # every line search succeeds, with a step so short that each cuts
        # ||F|| by less than 0.1%: the fifth such step ends the subproblem
        def slight(merit_fn, g0, grad_dot_d, cfg):
            merit_fn(1e-4)
            return 1e-4

        monkeypatch.setattr(newton, "armijo_search", slight)
        r0 = initial_point(tiny_p, 1.0)
        normF0 = np.linalg.norm(KktOperator(
            tiny_p, KktPoint(v=r0.v, lam=r0.lam, eps=0.5)).residual())
        _, trace, status = solve_subproblem(tiny_p, 0.5, r0,
                                            NewtonConfig(f_tol=1e-3))
        assert status == "stagnated"
        assert len(trace) == 5
        norms = [normF0] + [row.normF for row in trace]
        assert all(b > (1.0 - 1e-3) * a for a, b in zip(norms, norms[1:]))

    def test_products_build_no_transpose(self, tiny_ds, tiny_plan,
                                         monkeypatch):
        # every transposed product reuses the problem's bound kernels, so a
        # whole subproblem builds its two transposes once, on a fresh problem
        p = M.assemble(tiny_ds, tiny_plan)
        builds = []
        transpose = sp.csr_matrix.transpose

        def counted(self, *args, **kwargs):
            builds.append(self.shape)
            return transpose(self, *args, **kwargs)

        monkeypatch.setattr(sp.csr_matrix, "transpose", counted)
        _, trace, _ = solve_subproblem(p, 0.01, initial_point(p, 1.0),
                                       NewtonConfig(f_tol=1e-3))
        assert {"bicgstab", "direct"} <= {row.route for row in trace}
        assert len(builds) <= 2

    def test_products_dispatch_no_sparse_matmul(self, tiny_ds, tiny_plan,
                                                monkeypatch):
        # every product with A, B, A^T and B^T runs scipy's compiled kernel
        # directly (problem.lh_kernels), so a whole subproblem, bicgstab and
        # direct steps included, goes through scipy's `@` dispatch not once
        p = M.assemble(tiny_ds, tiny_plan)
        dispatches = []
        for cls in {type(p.A), type(p.B), type(p.A.T), type(p.B.T)}:
            for name in ("__matmul__", "__rmatmul__"):
                def counted(self, other, _orig=getattr(cls, name)):
                    dispatches.append(self.shape)
                    return _orig(self, other)

                monkeypatch.setattr(cls, name, counted)
        _, trace, _ = solve_subproblem(p, 0.01, initial_point(p, 1.0),
                                       NewtonConfig(f_tol=1e-3))
        assert {"bicgstab", "direct"} <= {row.route for row in trace}
        assert dispatches == []

    def test_heart_trajectory_is_that_of_the_plain_formulas(self, heart_p,
                                                            request):
        # heart's first subproblem (eps = 1 from the start point) takes the
        # same steps to the bit on the compiled products as on the plain
        # formulas with `@`: the rounding of every product is the formula's
        def first_subproblem():
            return solve_subproblem(heart_p, 1.0, initial_point(heart_p, 1.0),
                                    NewtonConfig(f_tol=1e-2))

        r, trace, status = first_subproblem()
        request.getfixturevalue("plain_products")
        r_ref, trace_ref, status_ref = first_subproblem()
        assert {"bicgstab", "lm"} <= {row.route for row in trace}
        assert (trace, status) == (trace_ref, status_ref)
        assert r.to_vector().tobytes() == r_ref.to_vector().tobytes()

    def test_only_stepping_operators_compute_curvature(self, tiny_p,
                                                       monkeypatch):
        # the curvature is computed on first use: of the operators a
        # subproblem builds, only the one each step starts from needs it,
        # and the line search's trials do not
        created = []

        class Recorded(KktOperator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(newton, "KktOperator", Recorded)
        _, trace, _ = solve_subproblem(tiny_p, 0.01, initial_point(tiny_p, 1.0),
                                       NewtonConfig(f_tol=1e-3))
        backtracks = sum(row.backtracks for row in trace)
        assert backtracks > 0
        assert len(created) == 1 + len(trace) + backtracks
        assert sum("curvature" in op.__dict__ for op in created) == len(trace)

    def test_line_search_keeps_only_its_latest_trial(self, tiny_p,
                                                     monkeypatch):
        # a trial's operator is dropped once the next trial is built: while
        # one is evaluated, at most it and the one before it are alive.  A
        # trial never computes its curvature; a stepping operator does
        live, most = weakref.WeakSet(), []

        class Recorded(KktOperator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                live.add(self)
                most.append(sum("curvature" not in op.__dict__
                                for op in live))

        monkeypatch.setattr(newton, "KktOperator", Recorded)
        _, report = run_smoothing(tiny_p, OuterConfig(), NewtonConfig())
        rows = [row for rec in report.outer_records for row in rec.trace]
        assert max(row.backtracks for row in rows) >= 3
        assert max(most) == 2

    def test_rows_record_each_line_search_and_lm_shift(self, tiny_p,
                                                       monkeypatch):
        # the default schedule on tiny_p takes mostly lm steps: each row's
        # backtracks is its line search's merit evaluations less the
        # accepted one, and an lm step's shift is ||F|| at its start
        evaluations = []

        def counted(merit_fn, g0, grad_dot_d, cfg):
            evaluations.append(0)

            def merit(s):
                evaluations[-1] += 1
                return merit_fn(s)

            return armijo_search(merit, g0, grad_dot_d, cfg)

        monkeypatch.setattr(newton, "armijo_search", counted)
        _, report = run_smoothing(tiny_p, OuterConfig(), NewtonConfig())
        traces = [rec.trace for rec in report.outer_records]
        rows = [row for trace in traces for row in trace]
        assert [row.backtracks for row in rows] == [n - 1 for n in evaluations]
        assert any(row.backtracks > 0 for row in rows)
        lm_rows = [(trace[k - 1], row) for trace in traces
                   for k, row in enumerate(trace) if k and row.route == "lm"]
        assert len(lm_rows) > 100
        assert all(row.shift == prev.normF for prev, row in lm_rows)

    def test_warm_start_continuation(self, tiny_p):
        # solve at eps=0.5, then warm-start eps=0.25: few iterations needed
        r0 = initial_point(tiny_p, 1.0)
        cfg = NewtonConfig(f_tol=1e-3, max_iters=100)
        r1, _, s1 = solve_subproblem(tiny_p, 0.5, r0, cfg)
        assert s1 == "converged"
        cfg2 = NewtonConfig(f_tol=1e-3 / 4, max_iters=100)
        r2, trace2, s2 = solve_subproblem(tiny_p, 0.25, r1, cfg2)
        assert s2 == "converged"
        cold_cfg = NewtonConfig(f_tol=1e-3 / 4, max_iters=100)
        _, trace_cold, _ = solve_subproblem(tiny_p, 0.25,
                                            initial_point(tiny_p, 1.0), cold_cfg)
        assert len(trace2) <= len(trace_cold)


class TestDirection:
    @pytest.fixture
    def starved(self, monkeypatch):
        """Caps BiCGStab at one iteration, which misses any forcing target;
        the returned list gets one entry per call."""
        calls = []

        def one_iteration(apply, rhs, rel_tol, max_iters):
            calls.append(0)
            return bicgstab(apply, rhs, rel_tol, max_iters=1)

        monkeypatch.setattr(newton, "bicgstab", one_iteration)
        return calls

    def test_direct_route_solves_the_newton_system(self, tiny_p, starved):
        v = initial_point(tiny_p, 1.0).v
        op = KktOperator(tiny_p, KktPoint(v=v, lam=np.full(tiny_p.m, 0.1),
                                          eps=0.5))
        F = op.residual()
        d, grad, gd, lin_iters, route = _direction(op, F, "bicgstab")
        assert route == "direct"
        assert np.linalg.norm(op.kkt_apply(d) + F) <= 1e-10 * np.linalg.norm(F)
        assert gd == pytest.approx(float(grad @ d)) and gd < 0

    @pytest.mark.parametrize("name", ["tiny_p", "heart_p"])
    def test_singular_direct_solve_raises_no_descent(self, name, request,
                                                     starved, capfd):
        # lambda = 0: the Hessian vanishes and J_r F_eps has rank <= 2m
        p = request.getfixturevalue(name)
        v = initial_point(p, 1.0).v
        op = KktOperator(p, KktPoint(v=v, lam=np.zeros(p.m), eps=0.5))
        F = op.residual()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoDescentError):
                _direction(op, F, "bicgstab")
            _, _, gd_lm, _, route_lm = _direction(op, F, "lm")
        assert route_lm == "lm" and gd_lm < 0
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("name", ["tiny_p", "heart_p"])
    def test_no_descent_ends_the_subproblem_without_a_step(self, name,
                                                           request, starved):
        p = request.getfixturevalue(name)
        r0 = KktPoint(v=initial_point(p, 1.0).v, lam=np.zeros(p.m), eps=0.5)
        r, trace, status = solve_subproblem(p, 0.5, r0)
        assert (status, trace) == ("no_descent", [])
        np.testing.assert_array_equal(r.to_vector(), r0.to_vector())

    def test_a_miss_latches_the_subproblem_onto_the_fold_solve(self, tiny_p,
                                                               starved):
        # BiCGStab's first miss sends that step and the rest of its
        # subproblem to the fold solve; a new call started on bicgstab (the
        # default) tries BiCGStab again.  A latched direct row's lin_iters
        # is the fold solve alone.
        r = KktPoint(v=initial_point(tiny_p, 1.0).v,
                     lam=np.full(tiny_p.m, 0.1), eps=0.5)
        for eps in (0.5, 0.25):
            starved.clear()
            r, trace, status = solve_subproblem(tiny_p, eps, r,
                                                NewtonConfig(f_tol=1e-3))
            assert status == "converged" and len(trace) > 1
            assert len(starved) == 1
            assert (trace[0].route, trace[0].lin_iters) == ("direct", 2)
            assert {row.route for row in trace[1:]} <= {"direct", "lm"}
            assert all(row.lin_iters == 1 for row in trace[1:])

    def test_a_subproblem_started_direct_never_runs_bicgstab(self, tiny_p,
                                                             starved):
        r0 = KktPoint(v=initial_point(tiny_p, 1.0).v,
                      lam=np.full(tiny_p.m, 0.1), eps=0.5)
        r, trace, status = solve_subproblem(tiny_p, 0.5, r0,
                                            NewtonConfig(f_tol=1e-3),
                                            route="direct")
        assert status == "converged" and len(trace) > 1 and starved == []
        assert (trace[0].route, trace[0].lin_iters) == ("direct", 1)
        assert {row.route for row in trace} <= {"direct", "lm"}
        with pytest.raises(ValueError):
            solve_subproblem(tiny_p, 0.5, r0, route="splu")

    def test_a_subproblem_cannot_start_on_lm(self, tiny_p):
        # lm is reached only by a collapsed line search within a subproblem;
        # next_route never hands it on
        with pytest.raises(ValueError):
            solve_subproblem(tiny_p, 0.5, initial_point(tiny_p, 1.0),
                             route="lm")

    @pytest.mark.parametrize("lam", [0.1, 0.0])
    def test_lm_route_solves_the_damped_normal_equations(self, tiny_p, lam):
        # (K^2 + mu I) d = -K F with mu = ||F||^2, against a dense solve;
        # at lambda = 0 K itself is singular
        v = initial_point(tiny_p, 1.0).v
        op = KktOperator(tiny_p, KktPoint(v=v, lam=np.full(tiny_p.m, lam),
                                          eps=0.5))
        F = op.residual()
        K = op.materialize_kkt().toarray()
        mu = float(F @ F)
        ref = np.linalg.solve(K @ K + mu * np.eye(K.shape[0]), -K @ F)
        d, grad, gd, lin_iters, route = _direction(op, F, "lm")
        assert (route, lin_iters) == ("lm", 1)
        assert np.linalg.norm(d - ref) <= 1e-10 * np.linalg.norm(ref)
        assert gd == pytest.approx(float(grad @ d)) and gd < 0

    def test_bicgstab_runs_on_kkt_apply(self, heart_p, monkeypatch):
        # BiCGStab's iterates depend on the rounding of each product, and
        # the pinned heart results are those of kkt_apply's, also where
        # m is small enough to assemble K
        assert heart_p.m <= 4000
        captured = []

        def capture(apply, rhs, rel_tol, max_iters):
            captured.append(apply)
            return bicgstab(apply, rhs, rel_tol, max_iters=1)

        monkeypatch.setattr(newton, "bicgstab", capture)
        v = initial_point(heart_p, 1.0).v
        op = KktOperator(heart_p, KktPoint(
            v=v, lam=np.full(heart_p.m, 0.1), eps=0.5))
        _direction(op, op.residual(), "bicgstab")
        x = np.random.default_rng(0).standard_normal(2 * heart_p.m + 1)
        (apply,) = captured
        assert np.array_equal(apply(x), op.kkt_apply(x))

    @pytest.mark.parametrize("lm", [False, True])
    def test_step_assembles_nothing(self, tiny_p, lm, forbid_assembly):
        op = KktOperator(tiny_p, KktPoint(v=initial_point(tiny_p, 1.0).v,
                                          lam=np.full(tiny_p.m, 0.1), eps=0.5))
        F = op.residual()
        asked = "lm" if lm else "bicgstab"
        d, grad, gd, lin_iters, route = _direction(op, F, asked)
        assert route == asked and gd < 0
        assert np.array_equal(grad, op.kkt_apply(F))


class TestLargeInstance:
    def test_direct_route_beyond_the_materialize_guard(self, large_p):
        # m > 4000, where no reference matrix can be assembled: the steps
        # BiCGStab does not finish are solved exactly from the fold structure
        assert large_p.m > 4000
        r, trace, status = solve_subproblem(
            large_p, 1.0, initial_point(large_p, 1.0), NewtonConfig(f_tol=1e-2))
        assert status == "converged"
        routes = [row.route for row in trace]
        assert "direct" in routes and set(routes) <= {"bicgstab", "direct",
                                                       "lm"}
        assert all(row.lin_resid <= 1e-10 for row in trace
                   if row.route == "direct")
