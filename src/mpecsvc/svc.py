"""Baseline L1-SVC: dual coordinate descent and a grid-search oracle.

The dual of the homogeneous soft-margin L1-SVC is the box QP

    min 0.5 * a^T Q a - 1^T a   s.t.  0 <= a <= C,

with Q = R R^T for the signed row matrix R (rows y_i x_i^T).  This solver is
the independent oracle against which the MPEC route is judged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class DualSvcConfig:
    max_epochs: int = 1000
    tol: float = 1e-8          # max projected-gradient violation
    seed: int = 0

    def __post_init__(self):
        if self.tol <= 0:
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

    Coordinate order is a fresh seeded permutation per epoch.  Zero-norm rows
    are skipped (their alpha stays 0).
    """
    cfg = cfg or DualSvcConfig()
    if C < 0:
        raise ValueError("C must be >= 0")
    R = rows.toarray() if sp.issparse(rows) else np.asarray(rows, dtype=float)
    N, n = R.shape
    qdiag = np.einsum("ij,ij->i", R, R)
    alpha = np.zeros(N)
    w = np.zeros(n)
    if C == 0.0 or N == 0:
        return DualSvcResult(alpha=alpha, w=w, epochs=0, max_violation=0.0,
                             status="converged")
    rng = np.random.default_rng(cfg.seed)
    status = "max_epochs"
    epoch = 0
    violation = np.inf
    for epoch in range(1, cfg.max_epochs + 1):
        violation = 0.0
        for i in rng.permutation(N):
            if qdiag[i] == 0.0:
                continue
            g = float(R[i] @ w) - 1.0     # (Q alpha - 1)_i
            a = alpha[i]
            if a <= 0.0:
                pg = min(g, 0.0)
            elif a >= C:
                pg = max(g, 0.0)
            else:
                pg = g
            violation = max(violation, abs(pg))
            if pg != 0.0:
                a_new = min(max(a - g / qdiag[i], 0.0), C)
                if a_new != a:
                    w += (a_new - a) * R[i]
                    alpha[i] = a_new
        if violation <= cfg.tol:
            status = "converged"
            break
    return DualSvcResult(alpha=alpha, w=w, epochs=epoch,
                         max_violation=violation, status=status)


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


def grid_search(ds, plan, grid, cfg=None):
    """T-fold CV error (percent) for each C; sign(0) counted as misclassified."""
    if len(grid) == 0:
        raise ValueError("grid must be nonempty")
    cfg = cfg or DualSvcConfig()
    fold_rows = []
    for t in range(plan.T):
        train = [i for s in range(plan.T) if s != t for i in plan.folds[s]]
        fold_rows.append((ds.signed_rows(train), plan.folds[t]))
    table, statuses = [], []
    for C in grid:
        errs, cell_status = [], []
        for rows, val_idx in fold_rows:
            res = solve_l1svc_dual(rows, C, cfg)
            cell_status.append(res.status)
            errs.append(validation_error(ds, val_idx, res.w))
        table.append((float(C), 100.0 * float(np.mean(errs))))
        statuses.append(cell_status)
    best_C, best_error = min(table, key=lambda row: (row[1], row[0]))
    return GridResult(table=table, best_C=best_C, best_error=best_error,
                      statuses=statuses)
