"""Parser, writer, and split-plan tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpecsvc as M
from mpecsvc.data import ParseError, scale_features


def write(tmp_path, text, name="d.libsvm"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParse:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "+1 1:0.5 3:-2.0\n-1 2:1.0\n")
        ds = M.parse_libsvm(path)
        assert len(ds) == 2
        assert ds.n_features == 3
        assert ds.labels == (1, -1)
        assert ds.points[0] == ((0, 0.5), (2, -2.0))
        assert ds.points[1] == ((1, 1.0),)

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "\n+1 1:1\n\n-1 1:2\n\n")
        assert len(M.parse_libsvm(path)) == 2

    def test_zero_one_labels_remapped(self, tmp_path):
        path = write(tmp_path, "1 1:1\n0 1:2\n")
        assert M.parse_libsvm(path).labels == (1, -1)

    def test_mixed_zero_and_minus_one_rejected(self, tmp_path):
        path = write(tmp_path, "0 1:1\n-1 1:2\n")
        with pytest.raises(ParseError):
            M.parse_libsvm(path)

    def test_bad_label(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            M.parse_libsvm(write(tmp_path, "x 1:1\n"))
        with pytest.raises(ParseError):
            M.parse_libsvm(write(tmp_path, "3 1:1\n"))

    def test_bad_token(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            M.parse_libsvm(write(tmp_path, "+1 1:1\n-1 1:a\n"))

    def test_nonincreasing_index(self, tmp_path):
        with pytest.raises(ParseError, match="non-increasing"):
            M.parse_libsvm(write(tmp_path, "+1 2:1 2:2\n"))

    def test_index_below_one(self, tmp_path):
        with pytest.raises(ParseError):
            M.parse_libsvm(write(tmp_path, "+1 0:1\n"))

    def test_round_trip(self, tmp_path, tiny_ds):
        path = tmp_path / "rt.libsvm"
        M.write_libsvm(tiny_ds, path)
        again = M.parse_libsvm(path)
        assert again == tiny_ds


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from([-1, 1]),
        st.dictionaries(st.integers(0, 9),
                        st.floats(-10, 10, allow_nan=False).filter(lambda v: v != 0),
                        min_size=1, max_size=5),
    ),
    min_size=1, max_size=10,
))
def test_round_trip_property(tmp_path_factory, rows):
    points = tuple(tuple(sorted(feats.items())) for _, feats in rows)
    labels = tuple(lbl for lbl, _ in rows)
    n = 1 + max(j for pt in points for j, _ in pt)
    ds = M.Dataset(points=points, labels=labels, n_features=n)
    path = tmp_path_factory.mktemp("rt") / "p.libsvm"
    M.write_libsvm(ds, path)
    assert M.parse_libsvm(path) == ds


class TestDatasetViews:
    def test_to_csr_matches_dense(self, tiny_ds):
        X = tiny_ds.to_csr().toarray()
        for i, pt in enumerate(tiny_ds.points):
            dense = np.zeros(tiny_ds.n_features)
            for j, v in pt:
                dense[j] = v
            np.testing.assert_allclose(X[i], dense)

    def test_to_csr_subset_order(self, tiny_ds):
        X = tiny_ds.to_csr([3, 1]).toarray()
        full = tiny_ds.to_csr().toarray()
        np.testing.assert_allclose(X, full[[3, 1]])

    def test_signed_rows(self, tiny_ds):
        idx = [0, 1, 5]
        R = tiny_ds.signed_rows(idx).toarray()
        X = tiny_ds.to_csr(idx).toarray()
        y = np.array([tiny_ds.labels[i] for i in idx], dtype=float)
        np.testing.assert_allclose(R, y[:, None] * X)


class TestSplit:
    def test_partition(self, tiny_ds):
        plan = M.make_split(tiny_ds, p1=6, T=3, seed=4)
        all_idx = sorted(plan.cv_indices + plan.test_indices)
        assert all_idx == list(range(len(tiny_ds)))
        assert plan.T == 3 and plan.m1 == 2 and plan.m2 == 4
        flat = [i for f in plan.folds for i in f]
        assert tuple(flat) == plan.cv_indices

    def test_deterministic(self, tiny_ds):
        a = M.make_split(tiny_ds, 6, 3, seed=7)
        b = M.make_split(tiny_ds, 6, 3, seed=7)
        c = M.make_split(tiny_ds, 6, 3, seed=8)
        assert a == b
        assert a.cv_indices != c.cv_indices

    def test_validation(self, tiny_ds):
        with pytest.raises(ValueError):
            M.make_split(tiny_ds, p1=100, T=2, seed=0)
        with pytest.raises(ValueError):
            M.make_split(tiny_ds, p1=5, T=3, seed=0)
        for p1, T in ((0, 3), (-150, 3), (6, 0)):
            with pytest.raises(ValueError):
                M.make_split(tiny_ds, p1=p1, T=T, seed=0)

    def test_scale_features(self, tiny_ds):
        scaled = scale_features(tiny_ds)
        X = np.abs(scaled.to_csr().toarray())
        assert X.max() <= 1.0 + 1e-12
        # each used feature touches 1 in absolute value
        used = X.max(axis=0) > 0
        np.testing.assert_allclose(X.max(axis=0)[used], 1.0)
