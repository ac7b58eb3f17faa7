"""Benchmark for the mpecsvc command line: run one workload, print its metrics.

    python3 bench/run.py --workload heart-solve --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all      # every workload, one table

Each workload drives ``mpecsvc.cli.main`` in this process, exactly as the
``mpecsvc`` command does, against the package under ``src/`` of the checkout
that holds this file.  An untraced run (``--trace 0``) repeats the
workload's commands until ``--seconds`` have passed (at least once) and
times the parse + split + assemble set-up SETUP_REPS times before the first
repeat and after each one, so that its samples span the run.  It reports
the medians of these times at the reference host speed (see pace.py), and
prints the raw medians beside them.  A traced run (``--trace 1``) runs the commands once with every
layer boundary wrapped (see tracer.py) and reports the per-layer metrics.
Every output is checked after the timed region (see workloads.py).  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 15
# A single-threaded BLAS keeps two runs on a shared 2-core machine comparable.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("heart-solve", "heart-grid-check")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; every workload runs the fixed "
                         "reference instance, so it selects nothing")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_info():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((ln.split(":", 1)[1].strip()
                for ln in Path("/proc/cpuinfo").read_text().splitlines()
                if ln.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def load_inputs(argv):
    """The set-up part of one command: parse, split and assemble."""
    from mpecsvc import cli, problem
    from mpecsvc import data as dio

    args = cli.build_parser().parse_args(argv)
    ds = dio.parse_libsvm(args.data)
    if args.scale:
        ds = dio.scale_features(ds)
    plan = dio.make_split(ds, args.p1, args.T, args.seed)
    return ds, plan, problem.assemble(ds, plan)


def time_setup(argvs, spans):
    """Append SETUP_REPS (start, end) of the set-up of all commands of an op."""
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        for argv in argvs:
            load_inputs(argv)
        spans.append((t0, time.perf_counter()))


def run_op(argvs, outdir):
    """Run every command of one operation through the CLI entry point."""
    from mpecsvc import cli

    import tracer
    import workloads

    done = []
    for j, argv in enumerate(argvs):
        cmd = workloads.Command(argv=argv, outdir=outdir / f"cmd{j}")
        buf = io.StringIO()
        gc.collect()       # leave no garbage of earlier commands to this one
        with tracer.capture(workloads.capture_targets()) as calls, \
                contextlib.redirect_stdout(buf):
            cmd.t0 = time.perf_counter()
            try:
                cmd.rc = cli.main([*argv, "--out", str(cmd.outdir)])
            except Exception as exc:   # a crash is a failed command, not ours
                cmd.rc = exc
                traceback.print_exc()
            cmd.t1 = time.perf_counter()
        cmd.stdout, cmd.calls = buf.getvalue(), calls
        done.append(cmd)
    return done


def run_workload(wl, seconds, trace, outroot):
    """Returns (result dict for the JSON line, human-readable lines)."""
    import pace
    import tracer
    import workloads

    argvs = wl.argv(ROOT)
    outroot = outroot / wl.name
    shutil.rmtree(outroot, ignore_errors=True)
    outroot.mkdir(parents=True)
    inputs = [load_inputs(argv) for argv in argvs][0]   # also the warm-up

    ops, samples = [], {}
    if trace:
        tr = tracer.Tracer()
        try:
            tracer.install(tr)
            ops.append(run_op(argvs, outroot / "traced"))
        finally:
            tr.restore()
        metrics = tracer.layer_metrics(tr, sum(c.t1 - c.t0 for c in ops[0]))
        metrics["trace.overhead_s"] = (len(tr.start) * tracer.span_cost(), "s")
        rels = [r for c in ops[0] for r in workloads.probe_rel_errs(c)]
        metrics["kkt.licq_probe.rel_err"] = (max(rels, default=0.0), "ratio")
        tr.write(outroot / "spans.npz")
    else:
        setups = []
        with pace.Pace() as host:
            time_setup(argvs, setups)
            deadline = time.perf_counter() + seconds
            while True:
                ops.append(run_op(argvs, outroot / f"op{len(ops)}"))
                time_setup(argvs, setups)
                if time.perf_counter() >= deadline:
                    break
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls = [sum(host.scaled(c.t0, c.t1) for c in op) for op in ops]
        metrics = {"wall_ref_s": (statistics.median(walls), "s"),
                   "setup_s": (statistics.median(host.scaled(*s) for s in setups), "s"),
                   "peak_rss_mb": (peak_mb, "MB")}
        samples = {"wall_ref_s": len(walls), "setup_s": len(setups),
                   "peak_rss_mb": 1}
        raw = [statistics.median(sum(c.t1 - c.t0 for c in op) for op in ops),
               statistics.median(t1 - t0 for t0, t1 in setups)]

    checks = [c for op in ops for c in wl.check(op, inputs)]
    failed = [c for c in checks if not c[1]]
    result = {
        "correct": all(ok for _, ok, kind in checks if kind == "output"),
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    lines = [f"workload {wl.name}  ({'traced' if trace else 'untraced'}, "
             f"{len(ops)} op{'s' if len(ops) > 1 else ''})"]
    for k, (v, u) in metrics.items():
        n = f"  n={samples[k]}" if k in samples else ""
        lines.append(f"  {k:<40} {v:>14.6g} {u}{n}")
    if not trace:
        lines.append(f"  raw medians: wall {raw[0]:.6g} s, setup {raw[1]:.6g} s; "
                     f"host {host.speed():.3f}x the reference time "
                     f"({len(host.start)} samples)")
        lines.append("  op walls at the reference speed: "
                     + " ".join(f"{w:.3f}" for w in walls))
    for k, v in workloads.quality(ops[-1]).items():
        lines.append(f"  {k:<40} {v:>14.6g} %  n=1")
    lines.append(f"  {'fail_rate':<40} {len(failed) / len(checks):>14.6g} "
                 f"({len(failed)}/{len(checks)})  correct={result['correct']}")
    for (check, kind), n in collections.Counter(
            (check, kind) for check, _, kind in failed).items():
        lines.append(f"    FAIL [{kind}] {check}" + (f"  (x{n})" if n > 1 else ""))
    return result, lines


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "mpecsvc" / "cli.py").is_file() \
            or not (ROOT / "data" / "heart_synth.libsvm").is_file():
        print(f"error: {ROOT} holds no mpecsvc checkout (src/mpecsvc, data/)",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    print("machine " + json.dumps(machine_info()))
    result, lines = run_workload(workloads.WORKLOADS[args.workload],
                                 args.seconds, args.trace, HERE / "_out")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process (peak RSS is per process)."""
    import subprocess

    results = {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = child.stdout.strip().splitlines()
        print("\n".join(lines), flush=True)
        results[name] = json.loads(last)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
