"""Command-line entry point: solve | grid | check.

Exit codes: 0 ok, 1 failed check, 2 parse error or option value out of
range, 3 assembly/dimension error, 4 solver failure (report still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import data as dio
from . import driver, kkt, problem, svc
from .driver import OuterConfig
from .newton import NewtonConfig

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
                        help="output directory (check writes nothing)")
        sp.add_argument("--quiet", action="store_true")

    sp = sub.add_parser("solve", help="run the full smoothing Newton pipeline")
    add_common(sp)
    sp.add_argument("--eps0", type=float, default=OuterConfig.eps0)
    sp.add_argument("--eps-min", type=float, default=OuterConfig.eps_min)
    sp.add_argument("--kappa", type=float, default=OuterConfig.kappa)
    sp.add_argument("--initial-C", type=float, default=OuterConfig.initial_C)
    sp.add_argument("--sigma", type=float, default=NewtonConfig.sigma)
    sp.add_argument("--rho", type=float, default=NewtonConfig.rho)
    sp.add_argument("--ftol", type=float, default=NewtonConfig.f_tol)
    sp.add_argument("--newton-maxit", type=int,
                    default=NewtonConfig.max_iters)

    sp = sub.add_parser("grid", help="grid-search baseline over C")
    add_common(sp)
    sp.add_argument("--grid-min", type=float, default=1e-3)
    sp.add_argument("--grid-max", type=float, default=1e3)
    sp.add_argument("--grid-points", type=int, default=25)

    sp = sub.add_parser("check", help="derivative and invariant diagnostics")
    add_common(sp)
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--check-seed", type=int, default=0)
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
        return (OuterConfig(eps0=args.eps0, eps_min=args.eps_min,
                            kappa=args.kappa, initial_C=args.initial_C),
                NewtonConfig(sigma=args.sigma, rho=args.rho, f_tol=args.ftol,
                             max_iters=args.newton_maxit))
    if args.command == "grid":
        if args.grid_points < 1:
            raise ValueError("--grid-points must be at least 1")
        if not (args.grid_min > 0 and args.grid_max > 0):
            raise ValueError("--grid-min and --grid-max must be positive")
        return (np.logspace(np.log10(args.grid_min), np.log10(args.grid_max),
                            args.grid_points),)
    if not args.eps > 0:
        raise ValueError("--eps must be positive")
    if args.check_seed < 0:
        raise ValueError("--check-seed must be non-negative")
    return ()


def _load(args):
    ds = dio.parse_libsvm(args.data)
    if args.scale:
        ds = dio.scale_features(ds)
    plan = dio.make_split(ds, args.p1, args.T, args.seed)
    p = problem.assemble(ds, plan)
    return ds, plan, p


def _write_report(outdir, report_dict):
    path = Path(outdir) / "report.json"
    with open(path, "w") as fh:
        json.dump(report_dict, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return path


def _write_trace(outdir, records):
    path = Path(outdir) / "trace.csv"
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["outer_t", "eps", "k", "normF", "step",
                     "lin_iters", "backtracks", "route", "lin_resid",
                     "shift"])
        for rec in records:
            for row in rec.trace:
                wr.writerow([rec.t, repr(rec.eps), row.k, repr(row.normF),
                             repr(row.step), row.lin_iters, row.backtracks,
                             row.route, repr(row.lin_resid), repr(row.shift)])
    return path


def _write_timings(outdir, report):
    """timings.json: the solve's wall time, each subproblem's wall time and
    each step's direction and line-search times, in ms.  Timings differ from
    run to run, so they stay out of report.json and trace.csv, which
    identical runs write byte for byte."""
    path = Path(outdir) / "timings.json"
    with open(path, "w") as fh:
        json.dump({"wall_ms": report.wall_ms, "subproblems": [
            {"t": rec.t, "eps": rec.eps, "wall_ms": rec.wall_ms,
             "steps": [{"k": row.k, "direction_ms": row.direction_ms,
                        "line_search_ms": row.line_search_ms}
                       for row in rec.trace]}
            for rec in report.outer_records]}, fh, indent=2)
        fh.write("\n")
    return path


def cmd_solve(args, ds, plan, p, ocfg, ncfg):
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    v_star, report = driver.run_smoothing(p, ocfg, ncfg)
    report.C_hat, w_hat = driver.postprocess(p, v_star, ds, plan)
    report.E_te = driver.test_error(ds, plan.test_indices, w_hat)
    diag = driver.assumption2_value(p, report.final_point)
    report.A2_paper = diag["A2_paper"]
    report.A2_cone = diag["A2_cone"]
    report.index_set_sizes, _ = driver.classify_index_sets(p, v_star)

    config = {key: value for key, value in vars(args).items()
              if key not in ("command", "data", "out", "quiet")}
    rd = report.to_dict(dataset=str(args.data),
                        dims=problem.sparsity_stats(p), config=config)
    _write_report(outdir, rd)
    _write_trace(outdir, report.outer_records)
    _write_timings(outdir, report)
    if not args.quiet:
        print(f"C_raw={report.C_raw:.4f}  C_hat={report.C_hat:.4f}  "
              f"E_cv={report.E_cv:.2f}%  E_te={report.E_te:.2f}%  "
              f"outer={report.outer_iters}  inner={report.inner_iters_total}")
    failed = [rec for rec in report.outer_records if rec.status != "converged"]
    return EXIT_SOLVER if failed else EXIT_OK


def cmd_grid(args, ds, plan, p, grid):
    result = svc.grid_search(ds, plan, grid)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "grid.csv"
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["C", "E_cv"])
        for C, err in result.table:
            wr.writerow([repr(C), repr(err)])
    if not args.quiet:
        print(f"best C={result.best_C:.6g}  E_cv={result.best_error:.2f}%  "
              f"({len(result.table)} grid points) -> {path}")
    return EXIT_OK


def cmd_check(args, ds, plan, p):
    eps = args.eps
    rng = np.random.default_rng(args.check_seed)
    r = kkt.KktPoint(v=rng.standard_normal(p.m + 1),
                     lam=rng.standard_normal(p.m), eps=eps)
    op = kkt.KktOperator(p, r)
    h = 1e-6 * (1.0 + np.linalg.norm(r.to_vector()))
    results = []

    d = rng.standard_normal(p.m + 1)
    fd = (kkt.KktOperator(p, kkt.KktPoint(r.v + h * d, r.lam, eps)).phi()
          - kkt.KktOperator(p, kkt.KktPoint(r.v - h * d, r.lam, eps)).phi()) / (2 * h)
    jd = op.jac_apply(d)
    results.append(("jacobian_fd",
                    np.linalg.norm(jd - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)))

    def vgrad(v):
        o = kkt.KktOperator(p, kkt.KktPoint(v, r.lam, eps))
        return p.obj_grad - o.jac_t_apply(r.lam)

    fd = (vgrad(r.v + h * d) - vgrad(r.v - h * d)) / (2 * h)
    hd = op.hess_apply(d)
    results.append(("hessian_fd",
                    np.linalg.norm(hd - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)))

    dr = rng.standard_normal(2 * p.m + 1)
    gfd = (kkt.merit(p, kkt.KktPoint.from_vector(p, r.to_vector() + h * dr, eps))
           - kkt.merit(p, kkt.KktPoint.from_vector(p, r.to_vector() - h * dr, eps))) / (2 * h)
    gdot = float(np.dot(kkt.merit_grad(p, r), dr))
    results.append(("merit_grad_fd", abs(gdot - gfd) <= 1e-5 * max(abs(gfd), 1e-12)))

    e = rng.standard_normal(2 * p.m + 1)
    sym = abs(float(e @ op.kkt_apply(dr)) - float(dr @ op.kkt_apply(e)))
    scale = np.linalg.norm(dr) * np.linalg.norm(e)
    results.append(("kkt_symmetry", sym <= 1e-10 * max(scale, 1.0)))

    v_int = np.abs(rng.standard_normal(p.m + 1)) + 0.1
    sigma, _, converged = kkt.licq_probe(p, v_int, eps)
    results.append(("licq_probe_positive", converged and sigma > 1e-10))

    if not args.quiet:
        for name, passed in results:
            print(f"{'PASS' if passed else 'FAIL'}  {name}")
    ok = all(passed for _, passed in results)
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
