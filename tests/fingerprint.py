"""A SHA-256 of each result a checkout gives, to show that a change keeps them.

    python tests/fingerprint.py OUTDIR

Run from a checkout's root, on its src/ and tests/conftest.py.  It runs
heart's solve, grid and checks at eps 1.0 and 0.1 through mpecsvc.cli.main
with CI's arguments, into OUTDIR, and prints each command's exit code and
each file's digest but timings.json's; then one digest per generated
instance's run_smoothing, over its statuses, trace rows and final point.
It exits 1 if a command exited non-zero.
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

sys.path[:0] = ["src", "tests"]

import conftest  # noqa: E402
import mpecsvc as M  # noqa: E402
from mpecsvc.cli import main  # noqa: E402

HEART = ["--data", "data/heart_synth.libsvm", "--p1", "150", "--folds", "3",
         "--seed", "0", "--quiet"]
# each command's arguments, its directory under OUTDIR and the files hashed
RUNS = [(["solve"], "heart", ["report.json", "trace.csv"]),
        (["grid"], "grid", ["grid.csv", "grid_cells.csv"]),
        (["check", "--eps", "1.0"], "check", ["check.json"]),
        (["check"], "check-0.1", ["check.json"])]


def generated_instances():
    yield "tiny_p", conftest.generated("tiny_p"), M.NewtonConfig(max_iters=100)
    yield "wide_p", conftest.generated("wide_p"), M.NewtonConfig()
    (n_points, n_features, _), p1 = conftest.GENERATED["large_p"]
    for seed in (3, 4, 5, 6):
        ds = conftest.make_tiny_dataset(n_points, n_features, seed)
        plan = M.make_split(ds, p1=p1, T=3, seed=0)
        yield f"large_p seed {seed}", (ds, plan), M.NewtonConfig()


def fingerprint(outdir):
    failed = False
    for args, sub, files in RUNS:
        code = main([*args, *HEART, "--out", str(outdir / sub)])
        failed = failed or code != 0
        for name in files:
            digest = hashlib.sha256((outdir / sub / name).read_bytes())
            print(f"{sub}/{name}: exit {code}, {digest.hexdigest()}")
    for name, (ds, plan), ncfg in generated_instances():
        rep = M.run_smoothing(M.assemble(ds, plan), M.OuterConfig(), ncfg)
        h = hashlib.sha256()
        for rec in rep.outer_records:
            h.update(rec.status.encode())
            for row in rec.trace:
                h.update(repr([getattr(row, f.name) for f in
                               dataclasses.fields(row) if f.compare]).encode())
        h.update(rep.final_point.v.tobytes() + rep.final_point.lam.tobytes())
        print(f"{name}: {rep.inner_iters_total} steps, {h.hexdigest()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(fingerprint(Path(sys.argv[1])))
