"""Dense simplex: a dual phase from the slack basis, then Bland's primal rule.

Small self-contained LP routine used for the continuous scheduling
subproblems of the built-in exact solver.  Problems here have at most a few
hundred variables, so a dense tableau is fast enough and keeps the solver
dependency-free.

    minimize    c @ x
    subject to  A_ub @ x <= b_ub
                lo <= x <= hi   (lo finite, hi may be None)

After the shift to ``x - lo`` every row, finite upper bounds included, gets
a slack column, and the tableau is ``[A | I | b]`` with no artificial
columns.  The costs ``max(c, 0)`` are dual feasible at the slack basis, so
the first phase is Lemke's dual simplex from there: while a right-hand side
is negative, the row whose basic variable has the lowest index leaves, and
the column of least ratio ``d_j / -a_rj`` enters, ties going to the lowest
column index (the dual form of Bland's rule, which cannot cycle).  A
violated row with no negative entry proves the LP infeasible.  Only when
``c`` has a negative entry is the cost row rebuilt from ``c``, and the
second phase is the primal simplex by Bland's rule.  The scheduling LPs
have nonnegative costs, so they end after the dual phase.

The kernel is numpy: each pivot is one rank-1 update of the tableau, and the
entering column and the ratio tests are found with array operations.  The
primal pivot sequence is still Bland's rule, step for step: the lowest-index
column with a negative reduced cost enters, and the leaving row is the
minimum ratio with ties (within the tolerance) going to the lowest basis
index, scanned row by row in index order.  Every tableau entry gets the same
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
    pivots: int  # simplex pivots, both phases


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

    # [A | I | b] with the slacks basic; the cost row max(c, 0) is dual
    # feasible there, whatever the signs of b
    tableau = np.zeros((m + 1, n_total + 1))
    tableau[:m_ub, :n] = A_ub
    tableau[np.arange(m_ub, m), capped] = 1.0
    tableau[np.arange(m), np.arange(n, n_total)] = 1.0
    tableau[:m_ub, -1] = b_ub
    tableau[m_ub:m, -1] = hi[capped] - lo[capped]
    tableau[m, :n] = np.maximum(c, 0.0)
    basis = list(range(n, n_total))
    pivots: list = []

    if _dual_iterate(tableau, basis, n_total, pivots) == INFEASIBLE:
        return LpResult(INFEASIBLE, None, None, len(pivots))

    if (c < 0.0).any():
        # the basis is primal feasible: price it at the true costs.  The rows
        # are subtracted one at a time: a matrix product would round
        # differently
        tableau[m] = 0.0
        tableau[m, :n] = c
        for r in range(m):  # a basic column with zero cost contributes nothing
            if basis[r] < n and c[basis[r]] != 0.0:
                tableau[m] -= c[basis[r]] * tableau[r]
        if _iterate(tableau, basis, n_total, pivots) == UNBOUNDED:
            return LpResult(UNBOUNDED, None, None, len(pivots))

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


def _iterate(tableau: np.ndarray, basis: list, n_cols: int, pivots=None) -> str:
    """Primal simplex from a primal feasible basis: OPTIMAL or UNBOUNDED.
    The (row, column) of each pivot is appended to *pivots* if given."""
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
        if pivots is not None:
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
