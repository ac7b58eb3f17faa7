"""Command-line entry point: solve | grid | check.

Exit codes: 0 ok, 1 failed check, 2 parse error or option value out of
range (a finite --initial-C or --eps whose residual overflows included),
3 assembly/dimension error, 4 solver failure (report still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import scipy

from . import data as dio
from . import driver, kkt, problem, svc
from .driver import OuterConfig
from .newton import NewtonConfig, TraceRow

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_ASSEMBLY = 3
EXIT_SOLVER = 4


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mpecsvc",
        description="L1-SVC hyperparameter selection via a smoothing damped "
                    "Newton method on the cross-validation MPEC",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--data", required=True, help="LIBSVM-format file")
        sp.add_argument("--p1", type=int, required=True,
                        help="size of the cross-validation set")
        sp.add_argument("--folds", type=int, default=3, dest="T")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--scale", action="store_true",
                        help="max-abs scale features to [-1,1] (off by default)")
        sp.add_argument("--out", default=".",
                        help="output directory (check writes check.json)")
        sp.add_argument("--quiet", action="store_true")

    sp = sub.add_parser("solve", help="run the full smoothing Newton pipeline")
    add_common(sp)
    sp.add_argument("--eps-min", type=float, default=OuterConfig.eps_min)
    sp.add_argument("--initial-C", type=float, default=OuterConfig.initial_C)
    sp.add_argument("--ftol", type=float, default=NewtonConfig.f_tol)
    sp.add_argument("--newton-maxit", type=int,
                    default=NewtonConfig.max_iters)

    sp = sub.add_parser("grid", help="grid-search baseline over 25 "
                        "log-spaced C on [1e-3, 1e3]")
    add_common(sp)

    sp = sub.add_parser("check", help="derivative and invariant diagnostics")
    add_common(sp)
    sp.add_argument("--eps", type=float, default=0.1)
    return ap


def _settings(args):
    """The command's configs, or its grid, checked before any data is read.

    A value out of range raises ValueError.
    """
    if args.p1 < 1:
        raise ValueError("--p1 must be at least 1")
    if args.T < 2:
        raise ValueError("--folds must be at least 2")
    if args.seed < 0:
        raise ValueError("--seed must be non-negative")
    out = Path(args.out)
    existing = next(q for q in (out, *out.parents) if q.exists())
    if not existing.is_dir():
        raise ValueError(f"--out {out}: {existing} is not a directory")
    if args.command == "solve":
        return (OuterConfig(eps_min=args.eps_min, initial_C=args.initial_C),
                NewtonConfig(f_tol=args.ftol, max_iters=args.newton_maxit))
    if args.command == "grid":
        return (np.logspace(-3, 3, 25),)
    if not 0 < args.eps < np.inf:
        raise ValueError("--eps must be positive and finite")
    return ()


def _load(args):
    ds = dio.parse_libsvm(args.data)
    if args.scale:
        ds = dio.scale_features(ds)
    plan = dio.make_split(ds, args.p1, args.T, args.seed)
    p = problem.assemble(ds, plan)
    return ds, plan, p


def _write_json(path, obj, **options):
    """obj as JSON indented by 2, with a final newline, into path, whose
    directory is made if missing; options go to json.dump."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, **options)
        fh.write("\n")


def _write_csv(path, header, rows):
    """A header and rows in csv's default dialect (lines end in \\r\\n)
    into path, whose directory is made if missing."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


def _environment():
    """The software a solve ran on, for report.json: Python, numpy, scipy,
    numpy's BLAS and its thread setting (None when unset).  The results'
    last digits depend on them; within one environment they are fixed, so
    identical runs still write identical reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _finite_residual(p, point):
    """The KktOperator at point when F_eps and the cube of the smoothing's
    denominator, which the curvature divides by, are finite there, else
    None.  A finite option value can still overflow there (--initial-C
    1e300 in H, --eps 1e300 in eps^2, either at 1e150 in denom^3); both are
    evaluated under np.errstate, so the overflow prints no warning."""
    with np.errstate(all="ignore"):
        op = kkt.KktOperator(p, point)
        finite = (np.all(np.isfinite(op.residual()))
                  and np.all(np.isfinite(op.weights.denom ** 3)))
    return op if finite else None


def cmd_solve(args, ds, plan, p, ocfg, ncfg):
    if _finite_residual(p, driver.initial_point(p, ocfg.initial_C)) is None:
        print(f"error: --initial-C {args.initial_C!r}: the residual or the "
              "curvature at the start point is not finite", file=sys.stderr)
        return EXIT_PARSE
    report = driver.run_smoothing(p, ocfg, ncfg)
    C_hat, w_hat = driver.postprocess(report.C_raw, ds, plan)
    E_te = driver.test_error(ds, plan.test_indices, w_hat)
    diag = driver.assumption2_value(p, report.final_point)
    records = report.outer_records
    outdir = Path(args.out)
    _write_json(outdir / "report.json", {
        "dataset": str(args.data),
        "dims": problem.sparsity_stats(p),
        "config": {key: value for key, value in vars(args).items()
                   if key not in ("command", "data", "out", "quiet")},
        "environment": _environment(),
        "C_raw": report.C_raw, "C_hat": C_hat,
        "E_cv": report.E_cv, "E_te": E_te,
        "A2_paper": diag["A2_paper"], "A2_cone": diag["A2_cone"],
        "index_set_sizes": driver.classify_index_sets(
            p, report.final_point.v),
        "outer_iters": report.outer_iters,
        "inner_iters_total": report.inner_iters_total,
        "subproblems": [{"t": rec.t, "eps": rec.eps, "status": rec.status,
                         "inner_iters": rec.inner_iters, "normF": rec.normF}
                        for rec in records]}, sort_keys=True, default=float)
    # a TraceRow's compared fields are the trajectory, which identical runs
    # repeat byte for byte; its uncompared ones are wall times, which
    # differ from run to run and go to timings.json
    compared = [f.name for f in fields(TraceRow) if f.compare]
    timed = [f.name for f in fields(TraceRow) if not f.compare]
    _write_csv(outdir / "trace.csv", ["outer_t", "eps", *compared],
               ([rec.t, rec.eps, *(getattr(row, name) for name in compared)]
                for rec in records for row in rec.trace))
    _write_json(outdir / "timings.json", {
        "wall_ms": report.wall_ms, "subproblems": [
            {"t": rec.t, "eps": rec.eps, "wall_ms": rec.wall_ms,
             "steps": [{"k": row.k, **{name: getattr(row, name)
                                      for name in timed}}
                       for row in rec.trace]}
            for rec in records]})
    if not args.quiet:
        print(f"C_raw={report.C_raw:.4f}  C_hat={C_hat:.4f}  "
              f"E_cv={report.E_cv:.2f}%  E_te={E_te:.2f}%  "
              f"outer={report.outer_iters}  inner={report.inner_iters_total}")
    failed = [rec for rec in records if rec.status != "converged"]
    return EXIT_SOLVER if failed else EXIT_OK


def cmd_grid(args, ds, plan, p, grid):
    result = svc.grid_search(ds, plan, grid)
    path = Path(args.out) / "grid.csv"
    _write_csv(path, ["C", "E_cv"],
               ([repr(C), repr(err)] for C, err in result.table))
    # one row per (C, fold) cell, in grid order
    _write_csv(path.with_name("grid_cells.csv"),
               ["C", "fold", "status", "epochs"],
               ([repr(C), t, status, n]
                for (C, _), cells, counts in zip(result.table, result.statuses,
                                                 result.epochs)
                for t, (status, n) in enumerate(zip(cells, counts))))
    if not args.quiet:
        print(f"best C={result.best_C:.6g}  E_cv={result.best_error:.2f}%  "
              f"({len(result.table)} grid points) -> {path}")
    return EXIT_OK


def cmd_check(args, ds, plan, p):
    """Each check compares a value with a bound: it passes when value <=
    bound, but for the probe, which passes when it converged and its
    estimate sigma exceeds the bound.  check.json holds every check's name,
    verdict, value and bound, and the probe's sigma, iterations and
    convergence."""
    eps = args.eps
    rng = np.random.default_rng(0)
    r = kkt.KktPoint(v=rng.standard_normal(p.m + 1),
                     lam=rng.standard_normal(p.m), eps=eps)
    op = _finite_residual(p, r)
    if op is None:
        print(f"error: --eps {eps!r}: the residual or the curvature at the "
              "check's point is not finite", file=sys.stderr)
        return EXIT_PARSE
    h = 1e-6 * (1.0 + np.linalg.norm(r.to_vector()))
    results = []

    def compare(name, value, bound):
        results.append((name, value <= bound, float(value), float(bound)))

    def central(f, x, d):
        """The central difference (f(x + h d) - f(x - h d)) / 2h."""
        return (f(x + h * d) - f(x - h * d)) / (2 * h)

    def at(v):
        return kkt.KktOperator(p, kkt.KktPoint(v, r.lam, eps))

    d = rng.standard_normal(p.m + 1)
    fd = central(lambda v: at(v).phi(), r.v, d)
    jd = op.jac_apply(d)
    compare("jacobian_fd", np.linalg.norm(jd - fd),
            1e-5 * max(np.linalg.norm(fd), 1e-12))

    fd = central(lambda v: p.obj_grad - at(v).jac_t_apply(r.lam), r.v, d)
    hd = op.hess_apply(d)
    compare("hessian_fd", np.linalg.norm(hd - fd),
            1e-5 * max(np.linalg.norm(fd), 1e-12))

    dr = rng.standard_normal(2 * p.m + 1)
    gfd = central(lambda x: kkt.merit(p, kkt.KktPoint.from_vector(p, x, eps)),
                  r.to_vector(), dr)
    gdot = float(np.dot(op.kkt_apply(op.residual()), dr))
    compare("merit_grad_fd", abs(gdot - gfd), 1e-5 * max(abs(gfd), 1e-12))

    e = rng.standard_normal(2 * p.m + 1)
    sym = abs(float(e @ op.kkt_apply(dr)) - float(dr @ op.kkt_apply(e)))
    scale = np.linalg.norm(dr) * np.linalg.norm(e)
    compare("kkt_symmetry", sym, 1e-10 * max(scale, 1.0))

    v_int = np.abs(rng.standard_normal(p.m + 1)) + 0.1
    sigma, iters, converged = kkt.licq_probe(p, v_int, eps)
    results.append(("licq_probe_positive", converged and sigma > 1e-10,
                    float(sigma), 1e-10))

    _write_json(Path(args.out) / "check.json", {
        "eps": eps,
        "checks": [{"name": name, "verdict": "PASS" if passed else "FAIL",
                    "value": value, "bound": bound}
                   for name, passed, value, bound in results],
        "probe": {"sigma": float(sigma), "iterations": int(iters),
                  "converged": bool(converged)}})
    if not args.quiet:
        for name, passed, *_ in results:
            print(f"{'PASS' if passed else 'FAIL'}  {name}")
    ok = all(passed for _, passed, *_ in results)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {"solve": cmd_solve, "grid": cmd_grid, "check": cmd_check}[args.command]
    try:
        settings = _settings(args)
    except ValueError as exc:        # an option value out of range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        inputs = _load(args)
    except (OSError, dio.ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, (OSError, dio.ParseError)) else EXIT_ASSEMBLY
    return handler(args, *inputs, *settings)


if __name__ == "__main__":
    sys.exit(main())
