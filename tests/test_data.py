"""Parser, writer, and split-plan tests."""

import functools
import sys
import tracemalloc
from array import array
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import mpecsvc as M
from conftest import (DATA, generated, plain_assemble, plain_generated,
                      plain_parse, plain_read, plain_scale_features,
                      plain_signed_rows, plain_to_csr, write_generated_libsvm)
from mpecsvc import data
from mpecsvc.data import ParseError, _dataset, scale_features


def write(tmp_path, text, name="d.libsvm"):
    path = tmp_path / name
    path.write_text(text)
    return path


def csr_parts(M):
    """A CSR matrix's shape, arrays and their dtypes, for exact comparison."""
    return (M.shape, M.data.dtype, M.indices.dtype, M.indptr.dtype,
            M.data.tobytes(), M.indices.tobytes(), M.indptr.tobytes())


class TestParse:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "+1 1:0.5 3:-2.0\n-1 2:1.0\n")
        ds = M.parse_libsvm(path)
        assert len(ds) == 2
        assert ds.n_features == 3
        assert ds.labels.tolist() == [1.0, -1.0]
        assert ds.X.indptr.tolist() == [0, 2, 3]
        assert ds.X.indices.tolist() == [0, 2, 1]
        assert ds.X.data.tolist() == [0.5, -2.0, 1.0]
        assert ds.X.indices.dtype == ds.X.indptr.dtype == np.int32

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "\n+1 1:1\n\n-1 1:2\n\n")
        assert len(M.parse_libsvm(path)) == 2

    def test_zero_one_labels_remapped(self, tmp_path):
        path = write(tmp_path, "1 1:1\n0 1:2\n")
        assert M.parse_libsvm(path).labels.tolist() == [1.0, -1.0]

    def test_label_only_line_is_an_empty_point(self, tmp_path):
        ds = M.parse_libsvm(write(tmp_path, "\n+1 1:1\n\n-1\n"))
        assert ds.labels.tolist() == [1.0, -1.0]
        assert ds.X.indptr.tolist() == [0, 1, 1] and ds.n_features == 1

    def test_no_feature_token_gives_no_features(self, tmp_path):
        ds = M.parse_libsvm(write(tmp_path, "+1\n-1\n"))
        assert len(ds) == 2 and ds.n_features == 0 and ds.X.nnz == 0
        assert len(M.parse_libsvm(write(tmp_path, ""))) == 0

    def test_layouts_read_alike(self, tmp_path):
        # CRLF, tabs, runs of spaces and blanks at either end give the same
        # arrays as single spaces
        want = csr_parts(M.parse_libsvm(write(tmp_path, "+1 1:0.5 3:-2\n-1\n")).X)
        for text in ("+1 1:0.5 3:-2\r\n-1\r\n", "+1\t1:0.5  3:-2 \n -1\t\n"):
            assert csr_parts(M.parse_libsvm(write(tmp_path, text)).X) == want

    def test_stored_zeros_stay_stored(self, tmp_path):
        ds = M.parse_libsvm(write(tmp_path, "+1 1:0 2:-0.0 3:1\n"))
        assert ds.X.nnz == 3
        assert ds.X.data.tobytes() == np.array([0.0, -0.0, 1.0]).tobytes()

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

    @pytest.mark.parametrize("index", ["2147483648", "99999999999999999999"])
    def test_index_beyond_int32_rejected(self, tmp_path, index):
        # named exactly, though float rounds the second
        with pytest.raises(ParseError, match=f"^line 2: feature index "
                           f"{index} > 2147483647$"):
            M.parse_libsvm(write(tmp_path, f"+1 1:1\n+1 {index}:1 2:1\n"))

    def test_nonzeros_beyond_int32_rejected(self):
        # X's indptr is int32: a count past its range is an error, not a wrap
        indptr = array("q", [0, 2**31])
        with pytest.raises(ParseError, match="^line 0: 2147483648 nonzeros"):
            _dataset(array("d", [1.0]), array("i", [1]), array("d", [1.0]),
                     indptr, array("q", [1]))

    @pytest.mark.parametrize("value, written", [
        ("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("1e400", "inf")])
    def test_non_finite_value_rejected(self, tmp_path, value, written):
        # named by its line, past blank lines and a label-only point
        path = write(tmp_path, f"-1 1:0.5\n\n+1\n+1 1:1 3:{value} 4:2\n")
        with pytest.raises(ParseError, match=f"^line 4: feature 3 value "
                           f"{written} is not finite$"):
            M.parse_libsvm(path)

    # each line follows a valid first line; the messages and line numbers
    # are the ones the parser has always given
    @pytest.mark.parametrize("line, message", [
        ("x 1:1", "line 2: bad label 'x'"),
        ("3 1:1", "line 2: label 3.0 outside recognized set {-1, 0, +1}"),
        ("+1 a:1", "line 2: bad feature token 'a:1'"),
        ("+1 1:a", "line 2: bad feature token '1:a'"),
        ("+1 1.0:1", "line 2: bad feature token '1.0:1'"),
        (":1", "line 2: bad label ':1'"),
        ("+1 :1", "line 2: bad feature token ':1'"),
        ("+1 1:", "line 2: bad feature token '1:'"),
        ("+1 1:2:3", "line 2: bad feature token '1:2:3'"),
        ("+1 1:2:3 4", "line 2: bad feature token '1:2:3'"),
        ("+1 1:2:3\t4", "line 2: bad feature token '1:2:3'"),
        ("+1 1:1 a", "line 2: bad feature token 'a'"),
        ("+1 0:1", "line 2: feature index 0 < 1"),
        ("+1 2:1 2:2", "line 2: non-increasing feature index 2"),
        ("+1 3:1 2:2", "line 2: non-increasing feature index 2"),
        ("0 1:1", "line 0: labels mix 0 and -1; cannot normalize"),
    ])
    def test_error_parity(self, tmp_path, line, message):
        path = write(tmp_path, f"-1 1:0.5\n{line}\n")
        with pytest.raises(ParseError) as err:
            M.parse_libsvm(path)
        assert str(err.value) == message
        assert err.value.lineno == int(message.split()[1].rstrip(":"))

    def test_first_error_in_the_file_is_named(self, tmp_path):
        with pytest.raises(ParseError, match="^line 1: non-increasing"):
            M.parse_libsvm(write(tmp_path, "+1 2:1 1:1\n+1 a:1\n"))

    def test_round_trip(self, tmp_path, tiny_ds):
        path = tmp_path / "rt.libsvm"
        M.write_libsvm(tiny_ds, path)
        again = M.parse_libsvm(path)
        assert csr_parts(again.X) == csr_parts(tiny_ds.X)
        assert again.labels.tobytes() == tiny_ds.labels.tobytes()

    def test_writes_plain_floats(self, tmp_path):
        ds = M.Dataset(X=sp.csr_matrix(np.array([[0.1, 0.0, -2.5]])),
                       labels=np.array([-1.0]))
        path = tmp_path / "w.libsvm"
        M.write_libsvm(ds, path)
        assert path.read_text() == "-1 1:0.1 3:-2.5\n"

    def test_heart_round_trip_is_byte_identical(self, tmp_path, heart_ds):
        path = tmp_path / "heart.libsvm"
        M.write_libsvm(heart_ds, path)
        assert path.read_bytes() == DATA.read_bytes()

    def test_dataset_hashes(self, heart_ds):
        # the benchmark caches its CV-error oracle on (ds, plan, C)
        cached = functools.lru_cache(maxsize=None)(len)
        assert cached(heart_ds) == cached(heart_ds) == 270
        assert hash(heart_ds) == hash(heart_ds) and heart_ds == heart_ds


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
    feats = [sorted(f.items()) for _, f in rows]
    n = 1 + max(j for pt in feats for j, _ in pt)
    X = sp.csr_matrix(([v for pt in feats for _, v in pt],
                       [j for pt in feats for j, _ in pt],
                       np.cumsum([0] + [len(pt) for pt in feats])),
                      shape=(len(rows), n))
    ds = M.Dataset(X=X, labels=np.array([lbl for lbl, _ in rows], dtype=float))
    path = tmp_path_factory.mktemp("rt") / "p.libsvm"
    M.write_libsvm(ds, path)
    again = M.parse_libsvm(path)
    assert csr_parts(again.X) == csr_parts(ds.X)
    assert again.labels.tobytes() == ds.labels.tobytes()


class TestDatasetViews:
    def test_to_csr_matches_dense(self, tiny_ds):
        X = tiny_ds.to_csr(range(len(tiny_ds))).toarray()
        np.testing.assert_array_equal(X, tiny_ds.X.toarray())

    def test_to_csr_subset_order(self, tiny_ds):
        X = tiny_ds.to_csr([3, 1]).toarray()
        full = tiny_ds.to_csr(range(len(tiny_ds))).toarray()
        np.testing.assert_allclose(X, full[[3, 1]])

    def test_signed_rows(self, tiny_ds):
        idx = [0, 1, 5]
        R = tiny_ds.signed_rows(idx).toarray()
        X = tiny_ds.to_csr(idx).toarray()
        y = np.array([tiny_ds.labels[i] for i in idx], dtype=float)
        np.testing.assert_allclose(R, y[:, None] * X)


class TestDatasetFields:
    def test_malformed_fields_rejected(self):
        def row(cols, vals, dtype=np.float64, n=3):
            return sp.csr_matrix((np.array(vals, dtype=dtype), cols,
                                  [0, len(cols)]), shape=(1, n))

        one = np.array([1.0])
        bad_X = [row([2, 0], [1.0, 2.0]),            # columns out of order
                 row([1, 1], [1.0, 2.0]),            # a column twice
                 row([0, 2], [1.0, 2.0], np.float32),
                 row([0, 2], [1.0, 2.0]).tocsc(),
                 np.array([[1.0, 0.0, 2.0]])]
        for X in bad_X:
            with pytest.raises(ValueError, match="Dataset.X"):
                M.Dataset(X=X, labels=one)
        X = row([0, 2], [1.0, 0.0])                  # a stored zero is fine
        bad_labels = [np.array([1.0, -1.0]),         # two labels, one row
                      np.array([1]), np.array([0.0]), np.array([[1.0]]),
                      np.array([np.nan]), [1.0]]
        for labels in bad_labels:
            with pytest.raises(ValueError, match="Dataset.labels"):
                M.Dataset(X=X, labels=labels)
        assert len(M.Dataset(X=X, labels=-one)) == 1


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
        for p1, T in ((0, 3), (-150, 3), (6, 0), (6, 1)):
            with pytest.raises(ValueError):
                M.make_split(tiny_ds, p1=p1, T=T, seed=0)

    def test_scale_features(self, tiny_ds):
        scaled = scale_features(tiny_ds)
        X = np.abs(scaled.to_csr(range(len(scaled))).toarray())
        assert X.max() <= 1.0 + 1e-12
        # each used feature touches 1 in absolute value
        used = X.max(axis=0) > 0
        np.testing.assert_allclose(X.max(axis=0)[used], 1.0)


# Each case beside its plain dataset (conftest): heart at three split seeds,
# the generated instances, and a file with stored zeros and a label-only line.
def outcome(read, path):
    """What `read` makes of a file: its five arrays (typecodes and bytes)
    and the Dataset's parts, or its ParseError's message and line number."""
    try:
        with open(path) as fh:
            arrays = read(fh)
        ds = _dataset(*arrays)
    except ParseError as err:
        return str(err), err.lineno
    return ([(a.typecode, a.tobytes()) for a in arrays], csr_parts(ds.X),
            ds.labels.tobytes())


# Label sets of a file: +1/-1, 0/1, or any, which may mix 0 with -1 or hold
# a bad label.
LABEL_SETS = [["-1", "+1", "1", "-1.0"], ["0", "1", "+1", "-0"],
              ["-1", "+1", "1", "0", "2", "x", "1.0"]]
# Index and value spellings beside the plain ones.  int and float accept
# some (+3, 03, 1_0, a non-ASCII digit); the others are errors.
ODD_INDICES = ["0", "+3", "03", "1_0", "\u0663", "2147483647", "2147483648",
               str(10**20), "-1", "", "x"]
ODD_VALUES = ["nan", "inf", "-inf", "1e400", "-0.0", "1_0", "\u0663.5", "",
              "x"]
# ':' mostly; else a token with no ':', two of them, or an empty side
COLONS = [":"] * 6 + ["", "::", ":1:"]


@st.composite
def libsvm_line(draw, labels, noisy):
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(["", " ", "\t", " \t "]))
    cols = sorted(draw(st.sets(st.integers(1, 40), max_size=6)))
    order = draw(st.sampled_from(["sorted"] * 6 + ["repeat", "reverse"])
                 if noisy else st.just("sorted"))
    if cols and order == "repeat":
        cols.insert(draw(st.integers(0, len(cols) - 1)), cols[0])
    elif order == "reverse":
        cols.reverse()
    plain_value = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
    tokens = [draw(st.sampled_from(labels))]
    for j in cols:
        if noisy:
            idx = draw(st.sampled_from([str(j)] * 12 + ODD_INDICES))
            colon = draw(st.sampled_from(COLONS))
            val = draw(st.one_of(*[plain_value] * 8,
                                 st.sampled_from(ODD_VALUES)))
        else:
            idx, colon, val = str(j), ":", draw(plain_value)
        tokens.append(f"{idx}{colon}{val}")
    gap = st.sampled_from([" ", "\t", "  ", " \t"])
    head, tail = draw(st.sampled_from(["", " ", "\t"])), draw(gap) * draw(st.booleans())
    return head + "".join(t + draw(gap) for t in tokens[:-1]) + tokens[-1] + tail


@st.composite
def libsvm_text(draw):
    labels = draw(st.sampled_from(LABEL_SETS))
    noisy = draw(st.booleans())
    lines = draw(st.lists(libsvm_line(labels, noisy), max_size=12))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end * draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(libsvm_text(), st.sampled_from([1, 2, 3, 7, data.READ_BLOCK]))
def test_reader_is_the_token_loop(tmp_path_factory, text, block):
    # a Dataset bit for bit, or the same ParseError: message and line
    path = tmp_path_factory.mktemp("read") / "r.libsvm"
    path.write_bytes(text.encode("utf-8"))
    want = outcome(plain_read, path)
    with mock.patch.object(data, "READ_BLOCK", block):
        assert outcome(data._read, path) == want
        try:
            ds = M.parse_libsvm(path)
        except ParseError as err:
            assert (str(err), err.lineno) == want
        else:
            assert (csr_parts(ds.X), ds.labels.tobytes()) == want[1:]


class TestReadBlocks:
    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_block_sizes_read_alike(self, tmp_path, monkeypatch, block):
        gen = tmp_path / "gen.libsvm"
        write_generated_libsvm(gen)
        want = [outcome(plain_read, path) for path in (DATA, gen)]
        monkeypatch.setattr(data, "READ_BLOCK", block)
        assert [outcome(data._read, path) for path in (DATA, gen)] == want

    @pytest.mark.parametrize("bad", ["x 1:1", "+1 1:2:3 4", "+1 3:1 2:2",
                                     "+1 0:1", "+1 2147483648:1", "+1 1:a",
                                     "+1 1:1 3"])
    @pytest.mark.parametrize("lineno", [5, 8])
    def test_bad_line_at_a_block_edge(self, tmp_path, monkeypatch, bad,
                                      lineno):
        # blocks of 4 lines: line 5 starts the second, line 8 ends it; a
        # later block's bad line 10 is not the one named
        lines = ["+1 1:0.5 2:1", "-1 2:3"] * 5
        lines[lineno - 1], lines[9] = bad, "+1 a:1"
        path = write(tmp_path, "\n".join(lines) + "\n")
        want = outcome(plain_read, path)
        assert want[1] == lineno
        monkeypatch.setattr(data, "READ_BLOCK", 4)
        assert outcome(data._read, path) == want

    def test_memory_stays_within_a_block(self, tmp_path):
        # the peak above the output arrays (their allocation, slack
        # included) is one block's, at 50k and at 200k nonzeros alike
        extra, size = [], []
        for n_points in (5000, 20000):
            path = tmp_path / f"{n_points}.libsvm"
            rng = np.random.default_rng(0)
            X = sp.random(n_points, 10, density=1.0, format="csr",
                          random_state=rng, data_rvs=rng.standard_normal)
            M.write_libsvm(M.Dataset(X=X, labels=np.ones(n_points)), path)
            with open(path) as fh:
                tracemalloc.start()
                try:
                    arrays = data._read(fh)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            size.append(sum(map(sys.getsizeof, arrays)))
            extra.append(peak - size[-1])
        assert extra[1] - extra[0] < 0.2 * (size[1] - size[0])


ZEROS = ("+1 1:0 2:1.5 3:-0.0\n-1\n-1 2:0.0 4:-2.5\n+1 1:3 4:0\n+1 2:1\n"
         "-1 1:-1 3:2\n")


@pytest.fixture(params=["heart-0", "heart-1", "heart-2", "tiny_p", "large_p",
                        "wide_p", "zeros"])
def both(request, tmp_path):
    """(ds, plan, plain dataset) of one case."""
    name = request.param
    if name.startswith("heart"):
        ds = M.parse_libsvm(DATA)
        return ds, M.make_split(ds, 150, 3, int(name[-1])), plain_parse(DATA)
    if name == "zeros":
        path = write(tmp_path, ZEROS)
        ds = M.parse_libsvm(path)
        return ds, M.make_split(ds, 6, 3, 0), plain_parse(path)
    return (*generated(name), plain_generated(name))


class TestPlainOracles:
    def test_dataset(self, both):
        ds, _, (_, labels, n) = both
        assert ds.labels.tolist() == list(labels) and ds.n_features == n

    def test_assemble(self, both):
        ds, plan, plain = both
        p = M.assemble(ds, plan)
        A, B = plain_assemble(plain, plan)
        assert csr_parts(p.A) == csr_parts(A)
        assert csr_parts(p.B) == csr_parts(B)

    def test_to_csr(self, both):
        ds, plan, plain = both
        for idx in (range(len(ds)), plan.cv_indices, plan.folds[1], []):
            assert csr_parts(ds.to_csr(idx)) == csr_parts(plain_to_csr(plain, idx))

    def test_signed_rows(self, both):
        # the plain product diag(y) X lists each row's entries by descending
        # column; signed_rows lists them ascending, as assemble needs them
        ds, plan, plain = both
        for idx in (range(len(ds)), plan.cv_indices, plan.folds[1]):
            assert csr_parts(ds.signed_rows(idx)) \
                == csr_parts(plain_signed_rows(plain, idx).sorted_indices())

    def test_scale_features(self, both):
        ds, _, plain = both
        assert csr_parts(scale_features(ds).X) == csr_parts(
            plain_to_csr(plain_scale_features(plain), range(len(ds))))
