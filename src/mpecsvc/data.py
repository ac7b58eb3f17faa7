"""LIBSVM-format parsing and deterministic train/test + fold splits.

A Dataset is one CSR matrix X, a row per point, and a label array.
parse_libsvm reads a file token by token into flat arrays of labels,
columns, values and row pointers, and builds X from them: no per-nonzero
(index, value) pair is kept.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

_INT32_MAX = int(np.iinfo(np.int32).max)


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
    float64 array of +1/-1, one per row.  A Dataset compares and hashes by
    identity (eq=False), as its arrays have no hashable value.
    """

    X: sp.csr_matrix
    labels: np.ndarray

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
        rows = self.X[idx]
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


def _parse_label(token, lineno):
    try:
        raw = float(token)
    except ValueError:
        raise ParseError(lineno, f"bad label {token!r}") from None
    if raw not in (-1.0, 0.0, 1.0):
        raise ParseError(lineno, f"label {raw} outside recognized set {{-1, 0, +1}}")
    return int(raw)


def _read(fh):
    """The raw labels, 1-based columns, values and row pointers of a LIBSVM
    file, as arrays; raises the ParseError of the first bad token."""
    labels, cols, vals = array("d"), array("i"), array("d")
    indptr = array("q", [0])
    for lineno, line in enumerate(fh, start=1):
        tokens = line.split()
        if not tokens:
            continue
        labels.append(_parse_label(tokens[0], lineno))
        prev = 0
        for tok in tokens[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx, val = int(idx_s), float(val_s)
            except ValueError:
                raise ParseError(lineno, f"bad feature token {tok!r}") from None
            if idx < 1:
                raise ParseError(lineno, f"feature index {idx} < 1")
            if idx <= prev:
                raise ParseError(lineno, f"non-increasing feature index {idx}")
            if idx > _INT32_MAX:
                raise ParseError(lineno, f"feature index {idx} > {_INT32_MAX}")
            prev = idx
            cols.append(idx)
            vals.append(val)
        indptr.append(len(cols))
    return labels, cols, vals, indptr


def parse_libsvm(path):
    """Parse a LIBSVM text file into a Dataset.

    Feature indices are 1-based in the file and strictly increasing per line.
    The Dataset's n_features is the largest index used (0 if the file has no
    feature token).  Labels {0,1} are remapped to {-1,+1}; {-1,+1} kept
    as-is; mixing 0 with -1 is rejected.  Blank lines are skipped; a line
    with a label and no feature is a point with no nonzero.
    """
    with open(path) as fh:
        return _dataset(*_read(fh))


def _dataset(labels, cols, vals, indptr):
    """The Dataset of _read's arrays; X's indices and indptr are int32."""
    raw = np.asarray(labels)
    if (raw == 0.0).any() and (raw == -1.0).any():
        raise ParseError(0, "labels mix 0 and -1; cannot normalize")
    if indptr[-1] > _INT32_MAX:
        raise ParseError(0, f"{indptr[-1]} nonzeros exceed {_INT32_MAX}")
    indices = np.asarray(cols, dtype=np.int32) - 1
    n_features = int(indices.max()) + 1 if len(indices) else 0
    X = sp.csr_matrix((np.asarray(vals), indices,
                       np.asarray(indptr, dtype=np.int32)),
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
    cv = tuple(int(i) for i in perm[:p1])
    test = tuple(int(i) for i in perm[p1:])
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
