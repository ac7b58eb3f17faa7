"""Regenerate the bundled benchmark dataset (data/heart_synth.libsvm).

270 points, 13 features, mimicking the small clinical benchmarks this
problem family is usually demonstrated on.  Six informative features carry
a noisy linear rule, one feature is a decoy that correlates with the label
but drowns in noise, 8% of the labels are flipped, and 10% of the entries
are zeroed out.  The decoy matters: at very small C the classifier leans on
it and misclassifies badly, at very large C it overfits the flipped labels,
so the cross-validation error has an interior minimum over C instead of a
flat plateau.  Features are scaled to [-1, 1] by their max absolute value,
as is standard for these corpora.  Fully deterministic; re-running
reproduces the committed file byte for byte.
"""

from pathlib import Path

import numpy as np
import scipy.sparse as sp

from mpecsvc.data import Dataset, write_libsvm

P, N = 270, 13
N_INFORMATIVE = 6
NOISE = 0.4
DECOY_SCALE = 4.0
FLIP_FRACTION = 0.08
ZERO_FRACTION = 0.10
SEED = 9


def make_dataset():
    rng = np.random.default_rng(SEED)
    w_true = np.zeros(N)
    w_true[:N_INFORMATIVE] = rng.standard_normal(N_INFORMATIVE)
    w_true[:N_INFORMATIVE] /= np.linalg.norm(w_true[:N_INFORMATIVE])
    X = rng.standard_normal((P, N))
    y = np.where(X[:, :N_INFORMATIVE] @ w_true[:N_INFORMATIVE] >= 0.0, 1, -1)
    X[:, -1] = y * 1.0 + DECOY_SCALE * rng.standard_normal(P)
    X[:, :N_INFORMATIVE] += NOISE * rng.standard_normal((P, N_INFORMATIVE))
    flips = rng.choice(P, size=int(round(FLIP_FRACTION * P)), replace=False)
    y[flips] *= -1
    X[rng.random((P, N)) < ZERO_FRACTION] = 0.0   # sparsity, like real corpora
    scale = np.abs(X).max(axis=0)
    scale[scale == 0.0] = 1.0
    X = X / scale
    # keep each nonzero, rounded to 6 decimals by Python's round (correctly
    # rounded, unlike np.round), even where it rounds to zero
    nonzero = X != 0.0
    rows = sp.csr_matrix(nonzero, dtype=float)
    rows.data = np.array([round(v, 6) for v in X[nonzero].tolist()])
    return Dataset(X=rows, labels=y.astype(float))


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "data" / "heart_synth.libsvm"
    out.parent.mkdir(exist_ok=True)
    write_libsvm(make_dataset(), out)
    print(f"wrote {out}")
