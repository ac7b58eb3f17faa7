"""LIBSVM-format parsing and deterministic train/test + fold splits."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class ParseError(ValueError):
    """Malformed LIBSVM input (carries the 1-based line number)."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class Dataset:
    """Labeled sparse feature vectors.

    points holds (index, value) pairs with 0-based internal indices that are
    strictly increasing within a point; labels are +1/-1.
    """

    points: tuple
    labels: tuple
    n_features: int

    def __len__(self):
        return len(self.points)

    def to_csr(self, indices=None):
        """Rows x_i (optionally a subset, in the given order) as CSR."""
        if indices is None:
            indices = range(len(self.points))
        data, cols, indptr = [], [], [0]
        for i in indices:
            for j, val in self.points[i]:
                cols.append(j)
                data.append(val)
            indptr.append(len(data))
        return sp.csr_matrix(
            (np.asarray(data, dtype=float), cols, indptr),
            shape=(len(indptr) - 1, self.n_features),
        )

    def signed_rows(self, indices):
        """Rows y_i * x_i^T for the given point indices, as CSR."""
        rows = self.to_csr(indices)
        y = np.asarray([self.labels[i] for i in indices], dtype=float)
        return sp.diags(y) @ rows


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


def parse_libsvm(path):
    """Parse a LIBSVM text file into a Dataset.

    Feature indices are 1-based in the file and strictly increasing per line.
    The Dataset's n_features is the largest index used.  Labels {0,1} are
    remapped to {-1,+1}; {-1,+1} kept as-is; mixing 0 with -1 is rejected.
    """
    points, raw_labels = [], []
    max_index = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            raw_labels.append(_parse_label(tokens[0], lineno))
            pairs = []
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
                prev = idx
                pairs.append((idx - 1, val))
                max_index = max(max_index, idx)
            points.append(tuple(pairs))

    label_set = set(raw_labels)
    if 0 in label_set and -1 in label_set:
        raise ParseError(0, "labels mix 0 and -1; cannot normalize")
    labels = tuple(1 if y == 1 else -1 for y in raw_labels)
    return Dataset(points=tuple(points), labels=labels, n_features=max_index)


def write_libsvm(ds, path):
    """Serialize a Dataset back to LIBSVM text (1-based indices, repr values)."""
    with open(path, "w") as fh:
        for pairs, y in zip(ds.points, ds.labels):
            feats = " ".join(f"{j + 1}:{v!r}" for j, v in pairs)
            fh.write(f"{'+1' if y > 0 else '-1'} {feats}".rstrip() + "\n")


def make_split(ds, p1, T, seed):
    """Seeded Fisher-Yates shuffle, then first p1 points form the cv set.

    Folds are T contiguous blocks of the shuffled cv set; the remainder is the
    hold-out test set.  Raises ValueError unless 1 <= p1 <= len(ds) and
    T >= 1 divides p1; a plan with T = 1 has no training set, which
    assemble rejects.
    """
    if p1 < 1:
        raise ValueError(f"p1={p1} must be at least 1")
    if p1 > len(ds):
        raise ValueError(f"p1={p1} exceeds dataset size {len(ds)}")
    if T < 1 or p1 % T != 0:
        raise ValueError(f"T={T} does not divide p1={p1}")
    perm = np.random.default_rng(seed).permutation(len(ds))
    cv = tuple(int(i) for i in perm[:p1])
    test = tuple(int(i) for i in perm[p1:])
    m1 = p1 // T
    folds = tuple(cv[t * m1:(t + 1) * m1] for t in range(T))
    return SplitPlan(cv_indices=cv, test_indices=test, folds=folds)


def scale_features(ds):
    """Per-feature max-abs scaling to [-1, 1] (optional preprocessing)."""
    scale = np.zeros(ds.n_features)
    for pairs in ds.points:
        for j, v in pairs:
            scale[j] = max(scale[j], abs(v))
    scale[scale == 0.0] = 1.0
    points = tuple(
        tuple((j, v / scale[j]) for j, v in pairs) for pairs in ds.points
    )
    return Dataset(points=points, labels=ds.labels, n_features=ds.n_features)
