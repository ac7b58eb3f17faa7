"""Shared fixtures: tiny synthetic instances and the bundled benchmark."""

from pathlib import Path

import numpy as np
import pytest

import mpecsvc as M
from mpecsvc import problem as pb

DATA = Path(__file__).resolve().parent.parent / "data" / "heart_synth.libsvm"


def make_tiny_dataset(n_points=12, n_features=4, seed=0):
    """Small dense-ish random dataset with both labels present."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_points, n_features))
    w = rng.standard_normal(n_features)
    y = np.where(X @ w >= 0, 1, -1)
    y[0], y[1] = 1, -1   # both classes guaranteed
    points = tuple(
        tuple((j, float(X[i, j])) for j in range(n_features))
        for i in range(n_points)
    )
    return M.Dataset(points=points, labels=tuple(int(v) for v in y),
                     n_features=n_features)


@pytest.fixture(scope="session")
def tiny_ds():
    return make_tiny_dataset()


@pytest.fixture(scope="session")
def tiny_plan(tiny_ds):
    return M.make_split(tiny_ds, p1=6, T=3, seed=0)


@pytest.fixture(scope="session")
def tiny_p(tiny_ds, tiny_plan):
    # T=3, m1=2, m2=4 -> m = 2*3*6 = 36
    return M.assemble(tiny_ds, tiny_plan)


@pytest.fixture(scope="session")
def micro_p():
    """m=8 instance (T=2, m1=1, m2=1), small enough for dense SVD oracles."""
    ds = make_tiny_dataset(n_points=4, n_features=2, seed=1)
    plan = M.make_split(ds, p1=2, T=2, seed=0)
    return M.assemble(ds, plan)


@pytest.fixture(scope="session")
def heart_ds():
    return M.parse_libsvm(DATA)


@pytest.fixture(scope="session")
def heart_plan(heart_ds):
    return M.make_split(heart_ds, p1=150, T=3, seed=0)


@pytest.fixture(scope="session")
def heart_p(heart_ds, heart_plan):
    return M.assemble(heart_ds, heart_plan)


@pytest.fixture(scope="session")
def tiny_complementary_point(tiny_p):
    """Solution at eps ~ 1e-6: strictly complementary pairs, weights ~ 1e-13."""
    ocfg = M.OuterConfig(eps0=1.0, eps_min=1e-6, kappa=0.5)
    _, report = M.run_smoothing(tiny_p, ocfg, M.NewtonConfig(max_iters=100))
    return report.final_point


@pytest.fixture(scope="session")
def large_p():
    """Generated m = 4014 instance, beyond materialize_LH's m <= 4000 guard,
    so the structured solves there have no assembled reference."""
    ds = make_tiny_dataset(n_points=700, n_features=5, seed=3)
    return M.assemble(ds, M.make_split(ds, p1=669, T=3, seed=0))


@pytest.fixture(scope="session")
def wide_p():
    """Generated instance with more features than points (n = 300, m1 + m2
    = 60 per fold): 2n = 600 > 4(m1 + m2) = 240, so fold_solve forms each
    fold's K_t densely instead of lifting it."""
    ds = make_tiny_dataset(n_points=100, n_features=300, seed=5)
    return M.assemble(ds, M.make_split(ds, p1=60, T=3, seed=0))


@pytest.fixture
def forbid_assembly(monkeypatch):
    """Makes every builder of an explicit matrix (K, L^H, L^G) raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("the solver assembled a matrix")

    monkeypatch.setattr(M.KktOperator, "materialize_kkt", refuse)
    monkeypatch.setattr(pb, "materialize_LH", refuse)
    monkeypatch.setattr(pb, "materialize_LG", refuse)


def random_kkt_point(p, eps, seed=0):
    rng = np.random.default_rng(seed)
    return M.KktPoint(v=rng.standard_normal(p.m + 1),
                      lam=rng.standard_normal(p.m), eps=eps)
