"""Baseline L1-SVC: dual coordinate descent and a grid-search oracle.

The dual of the homogeneous soft-margin L1-SVC is the box QP

    min 0.5 * a^T Q a - 1^T a   s.t.  0 <= a <= C,

with Q = R R^T for the signed row matrix R (rows y_i x_i^T).  This solver is
the independent oracle against which the MPEC route is judged.

``solve_l1svc_dual`` is the dual coordinate descent of Hsieh et al. (ICML
2008).  Its inner loop runs on Python floats: alpha and the row norms are
lists, the rows a list of views of R, taken once.  Every value is rounded
as in the plain numpy loop (``plain_l1svc_dual`` in the tests), so alpha, w,
the epoch count, the status and the violation match it bit for bit:

- g_i = R_i . w - 1 is one BLAS ddot on R's row, as ``R[i] @ w`` is.  A
  Python sum, einsum or a batched product rounds differently;
- w is updated by a multiply and then an add, never axpy or FMA;
- each epoch visits a fresh seeded permutation;
- each min/max of the plain loop is written out as the comparison the
  builtin makes, with its operands in the same order, so ties resolve as
  before.  The builtin calls took a third of a step.

A coordinate step costs one ddot and, when alpha_i moves, one multiply and
one add on length-n vectors: about 2 us on heart (n = 13; 2-core Xeon,
single-threaded BLAS), against about 5 us for the plain numpy loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class DualSvcConfig:
    max_epochs: int = 1000
    tol: float = 1e-8          # max projected-gradient violation

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")


@dataclass
class DualSvcResult:
    alpha: np.ndarray
    w: np.ndarray
    epochs: int
    max_violation: float
    status: str                # converged | max_epochs


def solve_l1svc_dual(rows, C, cfg=None):
    """Coordinate descent on the dual box QP; returns alpha and w = rows^T a.

    Coordinate order is a fresh permutation per epoch, seeded with 0.
    Zero-norm rows are skipped (their alpha stays 0).
    """
    cfg = cfg or DualSvcConfig()
    if not (C >= 0):
        raise ValueError("C must be >= 0")
    C = float(C)
    R = rows.toarray() if sp.issparse(rows) else np.asarray(rows, dtype=float)
    N, n = R.shape
    w = np.zeros(n)
    if C == 0.0 or N == 0:
        return DualSvcResult(alpha=np.zeros(N), w=w, epochs=0,
                             max_violation=0.0, status="converged")
    qdiag = np.einsum("ij,ij->i", R, R).tolist()
    alpha = [0.0] * N
    row = list(R)
    tmp = np.empty(n)
    rng = np.random.default_rng(0)
    status = "max_epochs"
    for epoch in range(1, cfg.max_epochs + 1):
        violation = 0.0
        for i in rng.permutation(N).tolist():
            q = qdiag[i]
            if q == 0.0:
                continue
            r = row[i]
            g = float(r.dot(w)) - 1.0     # (Q alpha - 1)_i
            a = alpha[i]
            # min(x, y) is y only if y < x, and max(x, y) only if y > x
            if a <= 0.0:
                pg = 0.0 if g > 0.0 else g        # min(g, 0.0)
            elif a >= C:
                pg = 0.0 if g < 0.0 else g        # max(g, 0.0)
            else:
                pg = g
            if abs(pg) > violation:               # max(violation, abs(pg))
                violation = abs(pg)
            if pg != 0.0:
                a_new = a - g / q                 # min(max(., 0.0), C)
                if a_new < 0.0:
                    a_new = 0.0
                if a_new > C:
                    a_new = C
                if a_new != a:
                    w += np.multiply(a_new - a, r, out=tmp)
                    alpha[i] = a_new
        if violation <= cfg.tol:
            status = "converged"
            break
    return DualSvcResult(alpha=np.array(alpha, dtype=float), w=w,
                         epochs=epoch, max_violation=violation, status=status)


def dual_objective(rows, alpha):
    R = rows.toarray() if sp.issparse(rows) else np.asarray(rows, dtype=float)
    w = R.T @ alpha
    return 0.5 * float(w @ w) - float(alpha.sum())


def primal_objective(rows, w, C):
    R = rows.toarray() if sp.issparse(rows) else np.asarray(rows, dtype=float)
    margins = R @ w                      # y_i x_i^T w
    hinge = np.maximum(0.0, 1.0 - margins).sum()
    return 0.5 * float(w @ w) + C * float(hinge)


def validation_error(ds, indices, w):
    """Misclassification fraction on the given points; sign(0) counts as error."""
    X = ds.to_csr(indices)
    y = np.asarray([ds.labels[i] for i in indices], dtype=float)
    margins = y * (X @ w)
    return float(np.mean(margins <= 0.0))


@dataclass
class GridResult:
    table: list                 # rows (C, E_cv percent)
    best_C: float
    best_error: float
    statuses: list


def grid_search(ds, plan, grid):
    """T-fold CV error (percent) for each C; sign(0) counted as misclassified."""
    if len(grid) == 0:
        raise ValueError("grid must be nonempty")
    fold_rows = []
    for t in range(plan.T):
        train = [i for s in range(plan.T) if s != t for i in plan.folds[s]]
        fold_rows.append((ds.signed_rows(train).toarray(), plan.folds[t]))
    table, statuses = [], []
    for C in grid:
        errs, cell_status = [], []
        for rows, val_idx in fold_rows:
            res = solve_l1svc_dual(rows, C)
            cell_status.append(res.status)
            errs.append(validation_error(ds, val_idx, res.w))
        table.append((float(C), 100.0 * float(np.mean(errs))))
        statuses.append(cell_status)
    best_C, best_error = min(table, key=lambda row: (row[1], row[0]))
    return GridResult(table=table, best_C=best_C, best_error=best_error,
                      statuses=statuses)
