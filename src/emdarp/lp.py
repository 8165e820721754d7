"""Dense dual simplex from the slack basis, for LPs with nonnegative costs.

Small self-contained LP routine used for the continuous scheduling
subproblems of the built-in exact solver.  Problems here have at most a few
hundred variables, so a dense tableau is fast enough and keeps the solver
dependency-free.

    minimize    c @ x
    subject to  A_ub @ x <= b_ub
                lo <= x <= hi   (lo finite, hi finite or inf)

with ``c >= 0``, which ``solve_lp`` checks.  After the shift to ``x - lo``
every row, finite upper bounds included, gets a slack column, and the
tableau is ``[A | I | b]`` with no artificial columns.  Nonnegative costs
are dual feasible at the slack basis, so one phase solves the LP: Lemke's
dual simplex from there.  While a right-hand side is negative, the row whose
basic variable has the lowest index leaves, and the column of least ratio
``d_j / -a_rj`` enters, ties going to the lowest column index (the dual form
of Bland's rule, which cannot cycle).  A violated row with no negative entry
proves the LP infeasible.  Every variable is bounded below and every cost is
nonnegative, so the LP is never unbounded.

The kernel is numpy: each pivot is one rank-1 update of the tableau, and the
leaving row and the ratio test are found with array operations.  Every
tableau entry gets the same floating-point multiply and subtract as in a
row-by-row Gauss-Jordan elimination, so the pivots and the optimum are
bit-for-bit those of the scalar algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_TOL = 1e-9
_MAX_ITER = 100_000  # pivots per solve before it is abandoned


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    pivots: int  # simplex pivots of the solve


def solve_lp(c, A_ub, b_ub, bounds) -> LpResult:
    c = np.asarray(c, dtype=float)
    negative = np.flatnonzero(c < 0.0)
    if negative.size:
        j = int(negative[0])
        raise ValueError(f"solve_lp needs nonnegative costs: c[{j}] = {c[j]}")
    n = c.size
    A_ub = np.asarray(A_ub, dtype=float).reshape(-1, n)
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)

    # shift to x' = x - lo >= 0; finite upper bounds become <= rows
    b_ub = b_ub - A_ub @ lo
    capped = np.flatnonzero(np.isfinite(hi))
    m_ub = A_ub.shape[0]
    m = m_ub + capped.size
    n_total = n + m

    # [A | I | b] with the slacks basic; the cost row c >= 0 is dual
    # feasible there, whatever the signs of b
    tableau = np.zeros((m + 1, n_total + 1))
    tableau[:m_ub, :n] = A_ub
    tableau[np.arange(m_ub, m), capped] = 1.0
    tableau[np.arange(m), np.arange(n, n_total)] = 1.0
    tableau[:m_ub, -1] = b_ub
    tableau[m_ub:m, -1] = hi[capped] - lo[capped]
    tableau[m, :n] = c
    basis = list(range(n, n_total))
    pivots: list = []

    if _dual_iterate(tableau, basis, n_total, pivots) == INFEASIBLE:
        return LpResult(INFEASIBLE, None, None, len(pivots))
    x = np.zeros(n_total)
    x[basis] = tableau[:m, -1]
    xs = x[:n] + lo
    return LpResult(OPTIMAL, xs, float(c @ xs), len(pivots))


def _dual_iterate(tableau: np.ndarray, basis: list, n_cols: int, pivots: list) -> str:
    """Dual simplex from a dual feasible basis (no reduced cost in the last
    row below zero) until every right-hand side is at least ``-_TOL``:
    OPTIMAL, or INFEASIBLE when a violated row has no negative entry.  The
    (row, column) of each pivot is appended to *pivots*."""
    m = tableau.shape[0] - 1
    for _ in range(_MAX_ITER):
        violated = (tableau[:m, -1] < -_TOL).nonzero()[0]
        if violated.size == 0:
            return OPTIMAL
        # dual Bland: the row whose basic variable has the lowest index leaves
        leave = min(violated.tolist(), key=basis.__getitem__)
        row = tableau[leave, :n_cols]
        cols = (row < -_TOL).nonzero()[0]
        if cols.size == 0:
            return INFEASIBLE
        # entering: least ratio d_j / -a_rj, ties (within the tolerance) by
        # the lowest column index, scanned in index order
        ratios = (tableau[m, cols] / -row[cols]).tolist()
        best_ratio = None
        enter = -1
        for j, ratio in zip(cols.tolist(), ratios):
            if best_ratio is None or ratio < best_ratio - _TOL:
                best_ratio = ratio
                enter = j
        _pivot(tableau, basis, leave, enter)
        pivots.append((leave, enter))
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
