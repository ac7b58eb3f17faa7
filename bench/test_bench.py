"""Tests of the benchmark itself, on the m=8 micro instance (T=2, m1=m2=1).

Run with ``python -m pytest bench``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pace  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def micro_workload(tmp_path):
    """4 points, 2 features, p1=2, T=2: m = 2*T*(m1+m2) = 8."""
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 2))
    y = np.where(X @ rng.standard_normal(2) >= 0, 1, -1)
    y[0], y[1] = 1, -1
    path = tmp_path / "micro.libsvm"
    path.write_text("".join(f"{lab:+d} 1:{float(a)!r} 2:{float(b)!r}\n"
                            for lab, (a, b) in zip(y, X)))
    ran = lambda op, inputs: [("ran", isinstance(c.rc, int), "output")  # noqa: E731
                              for c in op]
    return workloads.Workload(
        name="micro", commands=(("solve", "--quiet"),),
        data=str(path), check=ran, split=("--p1", "2", "--folds", "2"))


def names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_workloads_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOAD_NAMES) \
        == set(workloads.WORKLOADS)


def test_smoke_untraced(tmp_path):
    result, lines = run.run_workload(micro_workload(tmp_path), 0.0, 0, tmp_path)
    assert result["correct"] and result["attempted"] == 1
    assert set(result["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)


def test_traced_counts_repeat_and_wrappers_restored(tmp_path):
    from mpecsvc import kkt
    targets = tracer.Tracer()
    tracer.install(targets)
    saved = list(targets._saved)
    targets.restore()
    before = [getattr(owner, attr) for owner, attr, _ in saved]
    assert before == [orig for _, _, orig in saved]
    assert kkt.KktOperator.__dict__["materialize_kkt"].__name__ == "materialize_kkt"

    runs = [run.run_workload(micro_workload(tmp_path), 0.0, 1, tmp_path / str(i))[0]
            for i in range(2)]
    assert [getattr(owner, attr) for owner, attr, _ in saved] == before
    for result in runs:
        assert set(result["metrics"]) == names("per_layer")
        assert result["metrics"]["driver.subproblems"]["value"] == 21
        assert result["metrics"]["newton.steps"]["value"] > 0
    counts = [{k: m["value"] for k, m in r["metrics"].items()
               if m["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert (tmp_path / "1" / "micro" / "spans.npz").is_file()


def test_refuses_a_directory_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "heart-solve"]) == 2


@pytest.mark.parametrize("C", [0.1, 1000.0])
def test_dual_svc_oracle_certifies_its_solution(C):
    rng = np.random.default_rng(0)
    R = rng.standard_normal((30, 3))
    w, radius = workloads.dual_svc_oracle(R, C)
    primal = lambda v: 0.5 * v @ v + C * np.maximum(0.0, 1.0 - R @ v).sum()  # noqa: E731
    for _ in range(20):
        d = rng.standard_normal(3)
        assert primal(w + 1e-3 * d / np.linalg.norm(d)) >= primal(w) - 1e-9
    assert radius < 1e-3


def test_pace_scales_an_interval_by_the_samples_near_it():
    host = pace.Pace()
    # Samples take 2x the reference time; one of them lies inside [10, 12].
    for t0 in (9.5, 11.0, 20.0):
        host.start.append(t0)
        host.end.append(t0 + 2 * pace.REF_S)
    net = 2.0 - 2 * pace.REF_S
    assert host.scaled(10.0, 12.0) == pytest.approx(net / 2)
    assert host.speed() == pytest.approx(2.0)
    with pytest.raises(RuntimeError):
        host.scaled(14.0, 15.0)


def test_pace_restores_the_alarm_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with pace.Pace() as host:
        pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(host.start) == len(host.end) == 2
