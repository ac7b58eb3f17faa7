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

``grid_search`` runs its T * len(grid) (C, fold) cells in parallel, one
forked worker process per CPU this process may run on, at nice 19.  The
cells share no state and the results are put back in grid order, so the
table, the best row and the statuses do not depend on the CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass
class DualSvcResult:
    alpha: np.ndarray
    w: np.ndarray
    epochs: int
    max_violation: float
    status: str                # converged | max_epochs


def solve_l1svc_dual(rows, C, max_epochs=1000, tol=1e-8):
    """Coordinate descent on the dual box QP; returns alpha and w = rows^T a.

    Stops when an epoch's largest projected-gradient violation is at most
    tol, or after max_epochs epochs.  Coordinate order is a fresh
    permutation per epoch, seeded with 0.  Zero-norm rows are skipped
    (their alpha stays 0).
    """
    if max_epochs < 1:
        raise ValueError("max_epochs must be >= 1")
    if not (tol > 0):
        raise ValueError("tol must be positive")
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
    for epoch in range(1, max_epochs + 1):
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
        if violation <= tol:
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
    idx = np.asarray(indices, dtype=np.intp)
    margins = ds.labels[idx] * (ds.X[idx] @ w)
    return float(np.mean(margins <= 0.0))


@dataclass
class GridResult:
    table: list                 # rows (C, E_cv percent)
    best_C: float
    best_error: float
    statuses: list


def _cell(rows, C):
    """One (C, fold) cell of the grid: the dual solve's status and w."""
    res = solve_l1svc_dual(rows, C)
    return res.status, res.w


def grid_search(ds, plan, grid):
    """T-fold CV error (percent) for each C; sign(0) counted as misclassified.

    The cells run in min(CPUs, cells) workers, the largest C first (its
    cells run the most epochs).  The workers are forked: they inherit the
    loaded modules, where a spawned worker would import numpy, scipy and
    the caller's main module again.  At nice 19 they leave a CPU at once to
    a thread of the caller that wakes (a timer).  Every worker is joined
    before this returns or raises, and the first failing cell in grid
    order raises.
    """
    import multiprocessing
    import os
    from concurrent.futures import ProcessPoolExecutor

    if len(grid) == 0:
        raise ValueError("grid must be nonempty")
    folds = np.array(plan.folds, dtype=np.intp)
    fold_rows = [(ds.signed_rows(np.delete(folds, t, axis=0).ravel()).toarray(),
                  folds[t]) for t in range(plan.T)]
    cells = [(rows, C) for C in grid for rows, _ in fold_rows]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:        # no affinity call on this platform
        cpus = os.cpu_count() or 1
    pool = ProcessPoolExecutor(max_workers=min(cpus, len(cells)),
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=os.nice, initargs=(19,))
    try:
        order = sorted(range(len(cells)), key=lambda k: -cells[k][1])
        futures = {k: pool.submit(_cell, *cells[k]) for k in order}
        results = [futures[k].result() for k in range(len(cells))]
    finally:
        pool.shutdown(cancel_futures=True)
    table, statuses = [], []
    for j, C in enumerate(grid):
        cell = results[j * plan.T:(j + 1) * plan.T]
        errs = [validation_error(ds, val_idx, w)
                for (_, w), (_, val_idx) in zip(cell, fold_rows)]
        table.append((float(C), 100.0 * float(np.mean(errs))))
        statuses.append([status for status, _ in cell])
    best_C, best_error = min(table, key=lambda row: (row[1], row[0]))
    return GridResult(table=table, best_C=best_C, best_error=best_error,
                      statuses=statuses)
