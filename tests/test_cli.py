"""CLI subcommands, artifacts, and exit codes."""

import argparse
import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mpecsvc as M
from mpecsvc.cli import (EXIT_ASSEMBLY, EXIT_CHECK_FAILED, EXIT_OK,
                         EXIT_PARSE, EXIT_SOLVER, _settings, build_parser,
                         main)
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
        assert report["dims"]["m"] == 36
        assert report["outer_iters"] == 11
        assert report["C_raw"] > 0
        assert 0.0 <= report["E_cv"] <= 100.0
        assert report["config"] == {
            "p1": 6, "T": 3, "seed": 0, "scale": False, "eps0": 1.0,
            "eps_min": 1e-3, "kappa": 0.5, "initial_C": 1.0, "sigma": 1e-4,
            "rho": 0.5, "ftol": 1e-8, "newton_maxit": 200}
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

    def test_deterministic_reports(self, data_file, tmp_path):
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["solve", "--data", data_file, "--p1", 6, "--eps-min", "1e-3",
                 "--out", out, "--quiet"])
            runs.append([(out / f).read_bytes()
                         for f in ("report.json", "trace.csv")])
        assert runs[0] == runs[1]

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


class TestGrid:
    def test_writes_grid_csv(self, data_file, tmp_path):
        code = run(["grid", "--data", data_file, "--p1", 6,
                    "--grid-points", 5, "--out", tmp_path, "--quiet"])
        assert code == EXIT_OK
        rows = list(csv.reader((tmp_path / "grid.csv").open()))
        assert rows[0] == ["C", "E_cv"]
        assert len(rows) == 6
        Cs = [float(r[0]) for r in rows[1:]]
        assert Cs == sorted(Cs)


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
    ["solve", "--kappa", "2"], ["solve", "--rho", "1.5"],
    ["solve", "--eps-min", "0"], ["solve", "--newton-maxit", "-1"],
    ["solve", "--initial-C", "0"], ["grid", "--grid-points", "0"],
    ["grid", "--grid-min", "0"], ["check", "--eps", "0"],
    ["solve", "--ftol", "nan"], ["solve", "--ftol", "0"],
    ["solve", "--ftol", "-1"], ["check", "--check-seed", "-1"]],
    ids=["kappa", "rho", "eps_min", "newton_maxit", "initial_C",
         "grid_points", "grid_min", "check_eps", "ftol_nan", "ftol_zero",
         "ftol_negative", "check_seed"])
def test_bad_option_values_exit_as_parse_errors(data_file, tmp_path, capsys,
                                                unread, argv):
    # an out-of-range value is rejected before the data is read, with one
    # line on stderr and argparse's exit code, and writes nothing
    assert run([*argv, "--data", data_file, "--p1", 6, "--out", tmp_path,
                "--quiet"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
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
