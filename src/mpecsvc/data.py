"""LIBSVM-format parsing and deterministic train/test + fold splits.

A Dataset is one CSR matrix X, a row per point, and a label array.
parse_libsvm reads a file READ_BLOCK lines at a time into flat arrays of
labels, columns, values and row pointers, and builds X from them: no
per-nonzero (index, value) pair is kept.  Each block is split once; its
indices go through one map(int) and its values and labels through one
map(float) each, the same conversions a token-by-token reader makes, so
every value keeps its bits; the checks on the indices run as array
operations.  A block that fails any check is read again line by line, and
that raises the ParseError of its first bad token, the one a token-by-token
reader raises.  The reader holds at most one block's tokens and values
beyond its output arrays.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np
import scipy.sparse as sp

_INT32_MAX = int(np.iinfo(np.int32).max)

# Lines per block of the reader: a block's tokens, their pieces and their
# converted values are all it holds beyond its output arrays.
READ_BLOCK = 512

# Every byte but ':' and ' ', deleted to see the separators of a block's
# feature tokens alone.
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b": ")


class ParseError(ValueError):
    """Malformed LIBSVM input (carries the 1-based line number)."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled sparse feature vectors.

    X is a CSR matrix, one row per point and n_features columns, with
    float64 data and 0-based column indices strictly increasing within a
    row; entries written as zero in the file stay stored.  labels is a
    float64 array of +1/-1, one per row.  Anything else raises ValueError.
    A Dataset compares and hashes by identity (eq=False), as its arrays have
    no hashable value.
    """

    X: sp.csr_matrix
    labels: np.ndarray

    def __post_init__(self):
        X, y = self.X, self.labels
        if not (sp.issparse(X) and X.format == "csr"
                and X.dtype == np.float64 and X.has_canonical_format):
            raise ValueError("Dataset.X must be a CSR matrix with float64 "
                             "data and sorted, duplicate-free columns")
        if not (isinstance(y, np.ndarray) and y.dtype == np.float64
                and y.shape == (X.shape[0],) and np.all(np.abs(y) == 1.0)):
            raise ValueError("Dataset.labels must be a float64 array of "
                             "+1/-1, one per row of X")

    @property
    def n_features(self):
        return self.X.shape[1]

    def __len__(self):
        return self.X.shape[0]

    def to_csr(self, indices):
        """Rows x_i for the given point indices, in their order, as CSR."""
        return self.X[np.asarray(indices, dtype=np.intp)]

    def signed_rows(self, indices):
        """Rows y_i * x_i^T for the given point indices, as CSR.

        Stored zeros are dropped, as the product diag(y) X drops them.
        """
        idx = np.asarray(indices, dtype=np.intp)
        rows = self.to_csr(idx)
        rows.data *= np.repeat(self.labels[idx], np.diff(rows.indptr))
        rows.eliminate_zeros()
        return rows


@dataclass(frozen=True)
class SplitPlan:
    """Deterministic cross-validation / hold-out split.

    folds partition cv_indices into T contiguous blocks of equal size
    (after a seeded shuffle of the whole dataset).
    """

    cv_indices: tuple
    test_indices: tuple
    folds: tuple

    @property
    def T(self):
        return len(self.folds)

    @property
    def m1(self):
        return len(self.folds[0])

    @property
    def m2(self):
        return (self.T - 1) * self.m1


def _check_label(token, lineno):
    """Raise the ParseError of a bad label."""
    try:
        raw = float(token)
    except ValueError:
        raise ParseError(lineno, f"bad label {token!r}") from None
    if raw not in (-1.0, 0.0, 1.0):
        raise ParseError(lineno, f"label {raw} outside recognized set {{-1, 0, +1}}")


def _check_features(tokens, lineno):
    """Raise the ParseError of the first bad feature token of a line."""
    prev = 0
    for tok in tokens:
        try:
            idx_s, val_s = tok.split(":", 1)
            idx = int(idx_s)
            float(val_s)
        except ValueError:
            raise ParseError(lineno, f"bad feature token {tok!r}") from None
        if idx < 1:
            raise ParseError(lineno, f"feature index {idx} < 1")
        if idx <= prev:
            raise ParseError(lineno, f"non-increasing feature index {idx}")
        if idx > _INT32_MAX:
            raise ParseError(lineno, f"feature index {idx} > {_INT32_MAX}")
        prev = idx


def _locate(lines, start):
    """Raise the ParseError of the first bad token of a block whose checks
    failed, running the line checks over its lines in order."""
    for lineno, line in enumerate(lines, start=start):
        tokens = line.split()
        if tokens:
            _check_label(tokens[0], lineno)
            _check_features(tokens[1:], lineno)
    raise AssertionError(f"lines {start}-{start + len(lines) - 1} failed "
                         "a block check but no line check")


def _read_block(lines, start):
    """The labels, 1-based columns, values, feature counts and line numbers
    of the points in a block of lines, or None when a check fails."""
    rows = list(map(str.split, lines))
    linenos = [n for n, tokens in enumerate(rows, start=start) if tokens]
    rows = [tokens for tokens in rows if tokens]
    label_s = [tokens.pop(0) for tokens in rows]
    counts = np.fromiter(map(len, rows), np.int64, len(rows))
    k = int(counts.sum())
    # tokens hold no space, so each holds exactly one ':' iff the joined
    # tokens' separators alternate ':', ' ', ..., ':'
    feats = " ".join(chain.from_iterable(rows))
    seps = feats.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATORS)
    if seps != (b": " * k)[:-1]:
        return None
    pieces = feats.replace(":", " ").split(" ") if k else []
    try:
        labels = np.fromiter(map(float, label_s), np.float64, len(label_s))
        cols = np.fromiter(map(int, pieces[0::2]), np.int64, k)
        vals = np.fromiter(map(float, pieces[1::2]), np.float64, k)
    except (ValueError, OverflowError):   # OverflowError: |index| >= 2**63
        return None
    if not np.isin(labels, (-1.0, 0.0, 1.0)).all():
        return None
    if k and not (cols.min() >= 1 and cols.max() <= _INT32_MAX):
        return None
    # each index above the one before it, unless it starts a row
    row = np.repeat(np.arange(len(rows)), counts)
    if not ((np.diff(cols) > 0) | (np.diff(row) > 0)).all():
        return None
    # + 0.0: a label -0 reads 0, as a token loop's int(label) makes it
    return labels + 0.0, cols, vals, counts, linenos


def _read(fh):
    """The raw labels, 1-based columns, values, row pointers and each row's
    1-based line number of a LIBSVM file, as arrays; raises the ParseError
    of the first bad token."""
    labels, cols, vals = array("d"), array("i"), array("d")
    indptr, linenos = array("q", [0]), array("q")
    start = 1
    while lines := list(islice(fh, READ_BLOCK)):
        block = _read_block(lines, start)
        if block is None:
            _locate(lines, start)
        b_labels, b_cols, b_vals, b_counts, b_linenos = block
        labels.frombytes(b_labels.tobytes())
        cols.frombytes(b_cols.astype(np.intc).tobytes())
        vals.frombytes(b_vals.tobytes())
        indptr.frombytes((indptr[-1] + np.cumsum(b_counts)).tobytes())
        linenos.extend(b_linenos)
        start += len(lines)
    return labels, cols, vals, indptr, linenos


def parse_libsvm(path):
    """Parse a LIBSVM text file into a Dataset.

    Feature indices are 1-based in the file and strictly increasing per line.
    The Dataset's n_features is the largest index used (0 if the file has no
    feature token).  Labels {0,1} are remapped to {-1,+1}; {-1,+1} kept
    as-is; mixing 0 with -1 is rejected.  Blank lines are skipped; a line
    with a label and no feature is a point with no nonzero.  A feature
    value that is not finite is a ParseError.
    """
    with open(path) as fh:
        return _dataset(*_read(fh))


def _dataset(labels, cols, vals, indptr, linenos):
    """The Dataset of _read's arrays; X's indices and indptr are int32.

    A value that is not finite (nan, inf, or one that overflows float64)
    raises the ParseError of the first line that holds one.
    """
    raw = np.asarray(labels)
    if (raw == 0.0).any() and (raw == -1.0).any():
        raise ParseError(0, "labels mix 0 and -1; cannot normalize")
    if indptr[-1] > _INT32_MAX:
        raise ParseError(0, f"{indptr[-1]} nonzeros exceed {_INT32_MAX}")
    data = np.asarray(vals)
    bad = np.flatnonzero(~np.isfinite(data))
    if len(bad):
        k = int(bad[0])
        row = int(np.searchsorted(indptr, k, side="right")) - 1
        raise ParseError(linenos[row], f"feature {cols[k]} value "
                         f"{vals[k]!r} is not finite")
    indices = np.asarray(cols, dtype=np.int32) - 1
    n_features = int(indices.max()) + 1 if len(indices) else 0
    X = sp.csr_matrix((data, indices, np.asarray(indptr, dtype=np.int32)),
                      shape=(len(raw), n_features))
    return Dataset(X=X, labels=np.where(raw == 1.0, 1.0, -1.0))


def write_libsvm(ds, path):
    """Serialize a Dataset back to LIBSVM text (1-based indices, repr values)."""
    X = ds.X
    cols, vals = (X.indices + 1).tolist(), X.data.tolist()
    bounds = X.indptr.tolist()
    with open(path, "w") as fh:
        for y, lo, hi in zip(ds.labels.tolist(), bounds, bounds[1:]):
            feats = " ".join(f"{j}:{v!r}" for j, v in zip(cols[lo:hi], vals[lo:hi]))
            fh.write(f"{'+1' if y > 0 else '-1'} {feats}".rstrip() + "\n")


def make_split(ds, p1, T, seed):
    """Seeded Fisher-Yates shuffle, then first p1 points form the cv set.

    Folds are T contiguous blocks of the shuffled cv set; the remainder is the
    hold-out test set.  Raises ValueError unless 1 <= p1 <= len(ds) and
    T >= 2 divides p1: with T = 1 no fold would have a training set.
    """
    if p1 < 1:
        raise ValueError(f"p1={p1} must be at least 1")
    if p1 > len(ds):
        raise ValueError(f"p1={p1} exceeds dataset size {len(ds)}")
    if T < 2:
        raise ValueError(f"T={T} must be at least 2")
    if p1 % T != 0:
        raise ValueError(f"T={T} does not divide p1={p1}")
    perm = np.random.default_rng(seed).permutation(len(ds))
    cv = tuple(perm[:p1].tolist())
    test = tuple(perm[p1:].tolist())
    m1 = p1 // T
    folds = tuple(cv[t * m1:(t + 1) * m1] for t in range(T))
    return SplitPlan(cv_indices=cv, test_indices=test, folds=folds)


def scale_features(ds):
    """Per-feature max-abs scaling to [-1, 1] (optional preprocessing)."""
    X = ds.X
    scale = np.zeros(ds.n_features)
    np.fmax.at(scale, X.indices, np.abs(X.data))
    scale[scale == 0.0] = 1.0
    scaled = sp.csr_matrix((X.data / scale[X.indices], X.indices.copy(),
                            X.indptr.copy()), shape=X.shape)
    return Dataset(X=scaled, labels=ds.labels)
