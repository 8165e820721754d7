"""Dense two-phase simplex with Bland's anti-cycling rule.

Small self-contained LP routine used for the continuous scheduling
subproblems of the built-in exact solver.  Problems here have at most a few
hundred variables, so a dense tableau is fast enough and keeps the solver
dependency-free.

    minimize    c @ x
    subject to  A_ub @ x <= b_ub
                lo <= x <= hi   (lo finite, hi may be None)

The kernel is numpy: each pivot is one rank-1 update of the tableau, and the
entering column and the ratio test are found with array operations.  The
pivot sequence is still Bland's rule, step for step: the lowest-index column
with a negative reduced cost enters, and the leaving row is the minimum
ratio with ties (within the tolerance) going to the lowest basis index,
scanned row by row in index order.  Every tableau entry gets the same
floating-point multiply and subtract as in a row-by-row Gauss-Jordan
elimination, so the pivots and the optimum are bit-for-bit those of the
scalar algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_TOL = 1e-9
_MAX_ITER = 100_000  # pivots per phase before the solve is abandoned


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    objective: float | None


def solve_lp(c, A_ub=None, b_ub=None, bounds=None) -> LpResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    if bounds is None:
        bounds = [(0.0, None)] * n
    lo = np.array([b[0] if b[0] is not None else 0.0 for b in bounds], dtype=float)
    hi = np.array([b[1] if b[1] is not None else np.inf for b in bounds], dtype=float)

    # shift to x' = x - lo >= 0; finite upper bounds become <= rows
    b_ub = b_ub - A_ub @ lo
    capped = np.flatnonzero(np.isfinite(hi))
    m_ub = A_ub.shape[0]
    m = m_ub + capped.size
    n_total = n + m

    # standard form A x' + slack = b with b >= 0 after sign flips; every row
    # gets an artificial variable (simple and robust); slack columns that
    # survived the sign flip could seed the basis, but phase 1 drives the
    # artificials out regardless.
    tableau = np.zeros((m + 1, n_total + m + 1))
    tableau[:m_ub, :n] = A_ub
    tableau[np.arange(m_ub, m), capped] = 1.0
    tableau[np.arange(m), np.arange(n, n_total)] = 1.0
    b = np.concatenate([b_ub, hi[capped] - lo[capped]])
    neg = b < 0
    tableau[:m, :n_total][neg] *= -1.0
    b[neg] = -b[neg]
    tableau[:m, n_total:n_total + m] = np.eye(m)
    tableau[:m, -1] = b
    basis = list(range(n_total, n_total + m))

    # phase 1 objective: minimize sum of artificials.  The rows are
    # subtracted one at a time: a column sum would round differently.
    tableau[m, n_total:n_total + m] = 1.0
    for r in range(m):
        tableau[m] -= tableau[r]

    status = _iterate(tableau, basis, n_total + m)
    if status == UNBOUNDED or tableau[m, -1] < -1e-7:
        return LpResult(INFEASIBLE, None, None)

    # drive remaining artificials out of the basis; a row with no nonzero
    # structural entry is redundant and keeps its artificial
    for r in range(m):
        if basis[r] >= n_total:
            nonzero = np.abs(tableau[r, :n_total]) > _TOL
            piv = int(nonzero.argmax())
            if nonzero[piv]:
                _pivot(tableau, basis, r, piv)

    # phase 2 on the structural and slack columns only; the artificial
    # columns are retired
    tableau = np.delete(tableau, np.s_[n_total:n_total + m], axis=1)
    tableau[m] = 0.0
    tableau[m, :n] = c
    for r in range(m):  # a basic column with zero cost contributes nothing
        if basis[r] < n and c[basis[r]] != 0.0:
            tableau[m] -= c[basis[r]] * tableau[r]

    status = _iterate(tableau, basis, n_total)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)

    x = np.zeros(n_total)
    for r in range(m):
        if basis[r] < n_total:
            x[basis[r]] = tableau[r, -1]
    xs = x[:n] + lo
    return LpResult(OPTIMAL, xs, float(c @ xs))


def _iterate(tableau: np.ndarray, basis: list, n_cols: int) -> str:
    m = tableau.shape[0] - 1
    for _ in range(_MAX_ITER):
        # Bland: entering = lowest-index column with negative reduced cost
        negative = tableau[m, :n_cols] < -_TOL
        enter = int(negative.argmax())
        if not negative[enter]:
            return OPTIMAL
        # leaving: min ratio, ties by lowest basis variable index (Bland).
        # The scan stays sequential: a vectorized minimum would break
        # tolerance ties differently.
        column = tableau[:m, enter]
        rows = (column > _TOL).nonzero()[0]
        if rows.size == 0:
            return UNBOUNDED
        ratios = (tableau[rows, -1] / column[rows]).tolist()
        best_ratio = None
        leave = -1
        for r, ratio in zip(rows.tolist(), ratios):
            if (best_ratio is None or ratio < best_ratio - _TOL
                    or (abs(ratio - best_ratio) <= _TOL and basis[r] < basis[leave])):
                best_ratio = ratio
                leave = r
        _pivot(tableau, basis, leave, enter)
    raise RuntimeError("simplex iteration limit exceeded")


def _pivot(tableau: np.ndarray, basis: list, row: int, col: int) -> None:
    """Gauss-Jordan step as one rank-1 update.  Each entry gets the same
    multiply and subtract as in a row-by-row elimination; rows whose factor
    is zero change at most in the sign of a zero."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    basis[row] = col
