"""CLI subcommands, artifacts, and exit codes."""

import argparse
import ast
import csv
import json
import os
import platform
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy

import mpecsvc as M
from mpecsvc.cli import (EXIT_ASSEMBLY, EXIT_CHECK_FAILED, EXIT_OK,
                         EXIT_PARSE, EXIT_SOLVER, _environment, _load,
                         _settings, build_parser, main)
from mpecsvc.data import scale_features
from mpecsvc.driver import OuterConfig
from mpecsvc.newton import NewtonConfig

from conftest import DATA, make_tiny_dataset


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    ds = make_tiny_dataset(n_points=12, n_features=4, seed=0)
    path = tmp_path_factory.mktemp("cli") / "tiny.libsvm"
    M.write_libsvm(ds, path)
    return path


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def unread(monkeypatch):
    """Fails the test if the command parses its data file."""
    def parse_libsvm(path):
        raise AssertionError("the data file was read")

    monkeypatch.setattr(M.cli.dio, "parse_libsvm", parse_libsvm)


class TestSolve:
    def test_writes_artifacts(self, data_file, tmp_path):
        out = tmp_path / "run1"
        code = run(["solve", "--data", data_file, "--p1", 6, "--folds", 3,
                    "--eps-min", "1e-3", "--out", out, "--quiet"])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        # every key, so that none is dropped or renamed unnoticed
        assert set(report) == {
            "dataset", "dims", "config", "environment", "C_raw", "C_hat",
            "E_cv", "E_te", "A2_paper", "A2_cone", "index_set_sizes",
            "outer_iters", "inner_iters_total", "subproblems"}
        assert report["dataset"] == str(data_file)
        # T folds of m1 = 2 points, m2 = 4 training points per fold and
        # n = 4 dense features: m = 3 * (2 * 2 + 2 * 4) constraints
        assert report["dims"] == {"T": 3, "m1": 2, "m2": 4, "n": 4, "m": 36,
                                  "n_vars": 37, "nnz_A": 24, "nnz_B": 48}
        assert report["outer_iters"] == 11
        assert report["C_hat"] == report["C_raw"] * 3 / 2
        assert 0.0 <= report["E_te"] <= 100.0
        assert set(report["index_set_sizes"]) == {"I_0+", "I_+0", "I_00"}
        assert report["C_raw"] > 0
        assert 0.0 <= report["E_cv"] <= 100.0
        assert report["config"] == {
            "p1": 6, "T": 3, "seed": 0, "scale": False, "eps_min": 1e-3,
            "initial_C": 1.0, "ftol": 1e-8, "newton_maxit": 200}
        assert report["environment"] == _environment()
        trace = list(csv.reader((out / "trace.csv").open()))
        assert trace[0] == ["outer_t", "eps", "k", "normF", "step",
                            "lin_iters", "backtracks", "route", "lin_resid",
                            "shift"]
        assert len(trace) > 1
        rows = [dict(zip(trace[0], row)) for row in trace[1:]]
        assert {row["route"] for row in rows} <= {"bicgstab", "direct", "lm"}
        for row in rows:
            resid, shift = float(row["lin_resid"]), float(row["shift"])
            assert resid <= {"direct": 1e-10, "bicgstab": 1e-2}.get(
                row["route"], np.inf)
            assert (shift > 0) if row["route"] == "lm" else shift == 0.0

    @pytest.mark.parametrize("threads", [None, "1"])
    def test_environment_is_the_running_interpreters(self, monkeypatch,
                                                     threads):
        if threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert _environment() == {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas["name"],
            "blas_version": blas["version"], "OPENBLAS_NUM_THREADS": threads}

    def test_timings_follow_the_trace(self, data_file, tmp_path):
        run(["solve", "--data", data_file, "--p1", 6, "--out", tmp_path,
             "--quiet"])
        timings = json.loads((tmp_path / "timings.json").read_text())
        subs = timings["subproblems"]
        trace = list(csv.DictReader((tmp_path / "trace.csv").open()))
        assert len(subs) == 21
        assert [s["t"] for s in subs] == list(range(21))
        for sub in subs:
            rows = [row for row in trace if int(row["outer_t"]) == sub["t"]]
            assert [step["k"] for step in sub["steps"]] == [
                int(row["k"]) for row in rows]
            assert sub["wall_ms"] >= sum(
                step["direction_ms"] + step["line_search_ms"]
                for step in sub["steps"]) >= 0.0
        assert timings["wall_ms"] >= sum(sub["wall_ms"] for sub in subs)

    @pytest.mark.parametrize("maxit", [200, 1])
    def test_exit_code_follows_listed_statuses(self, data_file, tmp_path,
                                               maxit):
        code = run(["solve", "--data", data_file, "--p1", 6,
                    "--eps-min", "1e-3", "--newton-maxit", maxit,
                    "--out", tmp_path, "--quiet"])
        report = json.loads((tmp_path / "report.json").read_text())
        subs = report["subproblems"]
        assert len(subs) == report["outer_iters"]
        assert [s["t"] for s in subs] == list(range(len(subs)))
        assert all(set(s) == {"t", "eps", "status", "inner_iters", "normF"}
                   for s in subs)
        assert sum(s["inner_iters"] for s in subs) == report["inner_iters_total"]
        failed = [s for s in subs if s["status"] != "converged"]
        assert code == (EXIT_SOLVER if failed else EXIT_OK)
        assert bool(failed) == (maxit == 1)

    def test_scale_loads_the_scaled_dataset(self, data_file, tmp_path):
        def parts(ds):
            X = ds.X
            return (X.shape, X.data.tobytes(), X.indices.tobytes(),
                    X.indptr.tobytes(), ds.labels.tobytes())

        args = build_parser().parse_args(
            ["solve", "--data", str(data_file), "--p1", "6", "--scale"])
        ds, _, _ = _load(args)
        read = M.parse_libsvm(data_file)
        assert parts(ds) == parts(scale_features(read)) != parts(read)
        code = run(["solve", "--data", data_file, "--p1", 6, "--scale",
                    "--eps-min", "1e-3", "--out", tmp_path, "--quiet"])
        report = json.loads((tmp_path / "report.json").read_text())
        assert code == EXIT_OK and report["config"]["scale"] is True


class TestGrid:
    def test_writes_grid_csv(self, data_file, tmp_path):
        code = run(["grid", "--data", data_file, "--p1", 6,
                    "--out", tmp_path, "--quiet"])
        assert code == EXIT_OK
        rows = list(csv.reader((tmp_path / "grid.csv").open()))
        assert rows[0] == ["C", "E_cv"]
        assert len(rows) == 26
        Cs = [float(r[0]) for r in rows[1:]]
        assert Cs == sorted(Cs)
        # one row per (C, fold) cell in grid order, C written as in grid.csv
        cells = list(csv.reader((tmp_path / "grid_cells.csv").open()))
        assert cells[0] == ["C", "fold", "status", "epochs"]
        assert [(C, int(t)) for C, t, *_ in cells[1:]] == [
            (r[0], t) for r in rows[1:] for t in range(3)]
        assert all(s in ("converged", "max_epochs") and 0 < int(n) <= 1000
                   for *_, s, n in cells[1:])


class TestCheck:
    def test_passes_on_tiny(self, data_file, tmp_path, capsys):
        code = run(["check", "--data", data_file, "--p1", 6,
                    "--out", tmp_path])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        lines = [ln for ln in captured.out.splitlines() if ln.strip()]
        assert all(ln.startswith("PASS") for ln in lines)
        names = {ln.split()[1] for ln in lines}
        assert {"jacobian_fd", "hessian_fd", "merit_grad_fd",
                "kkt_symmetry", "licq_probe_positive"} <= names

    def test_unconverged_probe_fails(self, data_file, tmp_path, capsys,
                                     monkeypatch):
        monkeypatch.setattr(M.kkt, "licq_probe",
                            lambda p, v, eps: (1.0, 50, False))
        code = run(["check", "--data", data_file, "--p1", 6,
                    "--out", tmp_path])
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL  licq_probe_positive" in lines
        assert code == EXIT_CHECK_FAILED
        written = json.loads((tmp_path / "check.json").read_text())
        assert written["probe"] == {"sigma": 1.0, "iterations": 50,
                                    "converged": False}
        assert written["checks"][-1] == {
            "name": "licq_probe_positive", "verdict": "FAIL", "value": 1.0,
            "bound": 1e-10}

    @pytest.mark.parametrize("eps", [0.1, 1.0])
    def test_writes_check_json_as_printed(self, data_file, tmp_path, capsys,
                                          eps):
        # the verdicts are the PASS/FAIL lines', and a rerun writes the
        # same bytes
        written = []
        for name in ("a", "b"):
            out = tmp_path / name / "new"      # created by the command
            code = run(["check", "--data", data_file, "--p1", 6,
                        "--eps", eps, "--out", out])
            lines = [ln.split() for ln in capsys.readouterr().out.splitlines()]
            written.append((out / "check.json").read_bytes())
        assert written[0] == written[1]
        result = json.loads(written[0])
        assert result["eps"] == eps
        assert [[c["verdict"], c["name"]] for c in result["checks"]] == lines
        assert code == (EXIT_OK if all(v == "PASS" for v, _ in lines)
                        else EXIT_CHECK_FAILED)
        for c in result["checks"][:-1]:
            assert (c["verdict"] == "PASS") == (c["value"] <= c["bound"])
        probe = result["probe"]
        assert result["checks"][-1]["value"] == probe["sigma"]
        assert probe["converged"] and probe["iterations"] >= 1

    def test_quiet_prints_nothing(self, data_file, tmp_path, capsys,
                                  monkeypatch):
        # --quiet drops the PASS/FAIL lines; the exit code still tells
        code = run(["check", "--data", data_file, "--p1", 6,
                    "--out", tmp_path, "--quiet"])
        assert (code, capsys.readouterr().out) == (EXIT_OK, "")
        monkeypatch.setattr(M.kkt, "licq_probe",
                            lambda p, v, eps: (1.0, 50, False))
        code = run(["check", "--data", data_file, "--p1", 6,
                    "--out", tmp_path, "--quiet"])
        assert (code, capsys.readouterr().out) == (EXIT_CHECK_FAILED, "")

    @pytest.mark.parametrize("eps, sigma, iters", [
        (1.0, 0.03540723381350121, 11), (0.1, 0.001002696642289914, 9)])
    def test_heart_probe_is_pinned(self, tmp_path, monkeypatch, eps, sigma,
                                   iters):
        # any change to the probe's path shows here: the fold elimination,
        # jjt_inverse and the Lanczos steps at the command's probe point
        probe = M.kkt.licq_probe
        results = []

        def recording(*args):
            results.append(probe(*args))
            return results[-1]

        monkeypatch.setattr(M.kkt, "licq_probe", recording)
        run(["check", "--data", DATA, "--p1", 150, "--eps", eps,
             "--out", tmp_path])
        [(est, steps, converged)] = results
        assert converged and steps == iters
        assert est == pytest.approx(sigma, rel=1e-12)

    def test_heart_check_evaluates_its_point_once(self, tmp_path,
                                                  monkeypatch):
        # the operator whose residual was found finite is the one the checks
        # use: one at the drawn point, four for the differences of phi and
        # of the gradient, two for the merit's and one in the probe
        init = M.kkt.KktOperator.__init__
        built = []

        def counted(self, p, point):
            built.append(point.eps)
            init(self, p, point)

        monkeypatch.setattr(M.kkt.KktOperator, "__init__", counted)
        assert run(["check", "--data", DATA, "--p1", 150, "--out", tmp_path,
                    "--quiet"]) == EXIT_OK
        assert built == [0.1] * 8


@pytest.mark.parametrize("command", ["solve", "grid", "check"])
@pytest.mark.parametrize("case, code", [
    ("missing", EXIT_PARSE), ("malformed", EXIT_PARSE),
    ("bad_split", EXIT_ASSEMBLY)], ids=["missing", "malformed", "bad_split"])
def test_load_errors_exit(data_file, tmp_path, capsys, command, case, code):
    path, p1 = data_file, 6
    if case == "missing":
        path = tmp_path / "nope.libsvm"
    elif case == "malformed":
        path = tmp_path / "bad.libsvm"
        path.write_text("+1 2:1 1:2\n")
    else:
        p1 = 5                                   # 3 folds do not divide 5
    assert run([command, "--data", path, "--p1", p1, "--out", tmp_path,
                "--quiet"]) == code
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["solve", "--eps-min", "0"], ["solve", "--newton-maxit", "-1"],
    ["solve", "--initial-C", "0"], ["check", "--eps", "0"],
    ["solve", "--ftol", "nan"], ["solve", "--ftol", "0"],
    ["solve", "--ftol", "-1"], ["solve", "--initial-C", "inf"],
    ["solve", "--ftol", "inf"], ["check", "--eps", "inf"]],
    ids=["eps_min", "newton_maxit", "initial_C", "check_eps", "ftol_nan",
         "ftol_zero", "ftol_negative", "initial_C_inf", "ftol_inf",
         "check_eps_inf"])
def test_bad_option_values_exit_as_parse_errors(data_file, tmp_path, capsys,
                                                unread, argv):
    # an out-of-range value is rejected before the data is read, with one
    # line on stderr and argparse's exit code, and writes nothing
    assert run([*argv, "--data", data_file, "--p1", 6, "--out", tmp_path,
                "--quiet"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, named", [
    (["solve", "--initial-C", "1e300"], "--initial-C"),
    (["check", "--eps", "1e300"], "--eps"),
    (["solve", "--initial-C", "1e150"], "--initial-C"),
    (["check", "--eps", "1e150"], "--eps")],
    ids=["initial_C_overflows", "check_eps_overflows",
         "initial_C_cube_overflows", "check_eps_cube_overflows"])
def test_finite_values_that_overflow_exit_as_parse_errors(
        data_file, tmp_path, capsys, monkeypatch, argv, named):
    # a finite value passes the range checks, but the residual at the start
    # point (solve) or the drawn point (check) overflows, or at 1e150 the
    # cube of the smoothing's denominator that the curvature divides by
    # does: rejected before any subproblem or check runs, without a
    # warning, with one line on stderr, and nothing written
    def never(*args, **kwargs):
        raise AssertionError("ran past the residual check")

    monkeypatch.setattr(M.driver, "run_smoothing", never)
    monkeypatch.setattr(M.kkt.KktOperator, "jac_apply", never)
    assert run([*argv, "--data", data_file, "--p1", 6, "--out", tmp_path,
                "--quiet"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["solve", "grid", "check"])
@pytest.mark.parametrize("split, named", [
    (["--p1", "0"], "--p1"), (["--p1", "-150"], "--p1"),
    (["--p1", "6", "--folds", "0"], "--folds"),
    (["--p1", "6", "--folds", "1"], "--folds"),
    (["--p1", "6", "--seed", "-1"], "--seed")],
    ids=["p1_zero", "p1_negative", "folds_zero", "folds_one", "seed_negative"])
def test_split_sizes_out_of_range_exit_before_reading(data_file, tmp_path,
                                                      capsys, unread,
                                                      command, split, named):
    # a cv set needs a point, every fold a training set and the shuffle a
    # non-negative seed, whatever the data: these are rejected before the
    # file is parsed
    assert run([command, "--data", data_file, *split, "--out", tmp_path,
                "--quiet"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["solve", "grid", "check"])
@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "below_file"])
def test_out_naming_a_file_exits_before_any_work(data_file, tmp_path, capsys,
                                                 unread, command, under):
    # an --out that is, or lies below, an existing file cannot become the
    # output directory
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    assert run([command, "--data", data_file, "--p1", 6, "--out",
                taken / under, "--quiet"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: --out") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == [taken]
    assert taken.read_text() == "keep\n"


def test_solve_defaults_are_the_configs():
    args = build_parser().parse_args(["solve", "--data", "unused",
                                      "--p1", "6"])
    assert _settings(args) == (OuterConfig(), NewtonConfig())


def test_every_solve_setting_has_a_flag():
    # each OuterConfig and NewtonConfig field is settable from the command
    # line; a field that no flag reaches is an option nothing can set
    parser = build_parser()
    [commands] = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    base = ["solve", "--data", "unused", "--p1", "6"]
    defaults = _settings(parser.parse_args(base))
    reached = set()
    for action in commands.choices["solve"]._actions:
        if action.type not in (int, float) or action.default is None:
            continue
        # halving every float default and doubling every integer one stays
        # inside every range the configs check
        value = (action.default * 2 if action.type is int
                 else action.default / 2)
        args = parser.parse_args([*base, action.option_strings[-1],
                                  str(value)])
        for cfg, default in zip(_settings(args), defaults):
            reached |= {(type(cfg).__name__, f.name) for f in fields(cfg)
                        if getattr(cfg, f.name) != getattr(default, f.name)}
    every = {(cls.__name__, f.name) for cls in (OuterConfig, NewtonConfig)
             for f in fields(cls)}
    assert every - reached == set()


def test_command_line_surface():
    # every option each command takes; a new option is a deliberate edit
    # here, and each fixed setting stays a constant, not a field
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    common = {"-h", "--help", "--data", "--p1", "--folds", "--seed",
              "--scale", "--out", "--quiet"}
    extra = {"solve": {"--eps-min", "--initial-C", "--ftol", "--newton-maxit"},
             "grid": set(), "check": {"--eps"}}
    surface = {name: {s for a in sp._actions for s in a.option_strings}
               for name, sp in commands.choices.items()}
    assert surface == {name: common | more for name, more in extra.items()}
    for cls, constants in ((NewtonConfig, {"sigma": 1e-4, "rho": 0.5}),
                           (OuterConfig, {"eps0": 1.0, "kappa": 0.5})):
        assert not set(constants) & {f.name for f in fields(cls)}
        assert {k: getattr(cls(), k) for k in constants} == constants


def test_defaulted_parameters():
    # every parameter of the package that has a default; a new default is
    # a deliberate edit here, as a new option is in test_command_line_surface
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    args = child.args
                    positional = args.posonlyargs + args.args
                    defaulted = positional[len(positional)
                                           - len(args.defaults):]
                    defaulted += [a for a, d in zip(args.kwonlyargs,
                                                    args.kw_defaults)
                                  if d is not None]
                    found.update(f"{name}.{a.arg}" for a in defaulted)
                visit(child, name)
            else:
                visit(child, prefix)

    for path in sorted(Path(M.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert found == {"cli.main.argv", "problem._bind.product.out"}


def test_check_and_grid_leave_heavy_scipy_modules_unloaded(data_file,
                                                          tmp_path):
    """check and grid run on numpy and scipy.sparse alone.

    scipy.linalg, scipy.optimize and scipy.sparse.linalg each add several
    MB to the resident size of a run.
    """
    script = (
        "import sys\n"
        "from mpecsvc.cli import main\n"
        "for cmd in ('check', 'grid'):\n"
        f"    main([cmd, '--data', {str(data_file)!r}, '--p1', '6',\n"
        f"          '--out', {str(tmp_path)!r}, '--quiet'])\n"
        "heavy = ('scipy.linalg', 'scipy.optimize', 'scipy.sparse.linalg')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))\n")
    src = str(Path(M.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"
