import math

import numpy as np
import pytest

from emdarp.lp import INFEASIBLE, OPTIMAL, _dual_iterate, _pivot, solve_lp

scipy_opt = pytest.importorskip("scipy.optimize")


def test_simple_min():
    res = solve_lp([1.0], A_ub=[[-1.0]], b_ub=[-1.0], bounds=[(0.0, math.inf)])
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0)


def test_negative_cost_is_refused():
    # the slack basis is dual feasible only for nonnegative costs
    with pytest.raises(ValueError, match=r"c\[1\] = -0\.5"):
        solve_lp([1.0, -0.5], A_ub=[[1.0, 1.0]], b_ub=[2.0], bounds=[(0.0, math.inf)] * 2)


def _with_equalities(A_ub, b_ub, A_eq, b_eq):
    """The rows A_ub x <= b_ub and A_eq x == b_eq, each equality as two
    opposite inequalities: solve_lp takes inequality rows only."""
    if A_eq is None or len(A_eq) == 0:
        return A_ub, b_ub
    return (np.vstack([A_ub, A_eq, -np.asarray(A_eq)]),
            np.concatenate([b_ub, b_eq, -np.asarray(b_eq)]))


def test_equality_and_bounds():
    # min x + 2y s.t. x + y = 4 (as x + y <= 4 and -x - y <= -4),
    # 1 <= x <= 3, y >= 0
    res = solve_lp([1.0, 2.0], A_ub=[[1.0, 1.0], [-1.0, -1.0]], b_ub=[4.0, -4.0],
                   bounds=[(1.0, 3.0), (0.0, math.inf)])
    assert res.status == OPTIMAL
    assert res.x == pytest.approx([3.0, 1.0])


def test_infeasible():
    res = solve_lp([1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0], bounds=[(0.0, math.inf)])
    assert res.status == INFEASIBLE


def _pivot_by_rows(tableau, row, col):
    """Row-by-row Gauss-Jordan step: the reference for the rank-1 update."""
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 0:
            tableau[r] -= tableau[r, col] * tableau[row]


def test_pivot_matches_row_by_row_elimination():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 12)), int(rng.integers(2, 20))
        # sparse, like the scheduling tableaux: most rows skip the update
        tableau = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.4)
        row, col = int(rng.integers(m)), int(rng.integers(n))
        tableau[row, col] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
        expected = tableau.copy()
        _pivot_by_rows(expected, row, col)
        basis = list(range(m))
        _pivot(tableau, basis, row, col)
        assert np.array_equal(tableau, expected), seed
        assert basis[row] == col


def test_dual_ties_go_to_the_lowest_indices():
    # both rows are violated: row 0 by more, but row 1's basic variable (2)
    # has the lower index, so row 1 leaves.  Columns 0 and 1 compete to
    # enter; column 1's ratio is smaller only by less than the tolerance,
    # so the lower column index (0) enters, and one pivot makes both rows
    # feasible
    tableau = np.array([
        [-6.0, 0.0, 0.0, 1.0, -5.0],
        [-1.0, -1.0, 1.0, 0.0, -1.0],
        [1.0, 1.0 - 5e-10, 0.0, 0.0, 0.0],
    ])
    basis = [3, 2]
    pivots = []
    assert _dual_iterate(tableau, basis, 4, pivots) == OPTIMAL
    assert pivots == [(1, 0)]
    assert basis == [3, 0]
    # primal feasible, and dual feasible within the tolerance
    assert np.all(tableau[:2, -1] >= 0.0) and np.all(tableau[2, :4] >= -1e-9)


def test_dual_phase_proves_infeasibility():
    # row 0 asks x0 + x1 <= -1 with x >= 0: no entry can enter
    tableau = np.array([
        [1.0, 1.0, 1.0, 0.0, -1.0],
        [-1.0, 0.0, 0.0, 1.0, -2.0],
        [1.0, 1.0, 0.0, 0.0, 0.0],
    ])
    basis = [2, 3]
    pivots = []
    assert _dual_iterate(tableau, basis, 4, pivots) == INFEASIBLE
    # row 0 (basic variable 2) is tried first and has no negative entry
    assert pivots == []


def test_dual_degenerate_lp_terminates():
    # the LP dual of Beale's cycling example (min c @ x, A x <= (0, 0, 1),
    # x >= 0, optimum -0.05): its costs are zero on two of three columns,
    # so dual ratio ties at zero are common; the optimum is the negative
    # of Beale's
    A = np.array([[0.25, -60.0, -0.04, 9.0],
                  [0.5, -90.0, -0.02, 3.0],
                  [0.0, 0.0, 1.0, 0.0]])
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    res = solve_lp([0.0, 0.0, 1.0], A_ub=-A.T, b_ub=c, bounds=[(0.0, math.inf)] * 3)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(0.05)
    assert res.pivots > 0


def _scheduling_shaped_lp(rng):
    """Nonnegative costs with many zeros (as phi, xi and station t have),
    and rows of three kinds: precedences ``x_i - x_j <= -gap`` (i < j, as
    along a route) and floors ``-x_i - beta x_j <= -floor``, both with
    negative right-hand sides, and caps ``x_i + beta x_j <= cap``."""
    n = int(rng.integers(3, 12))
    m = int(rng.integers(2, 16))
    c = rng.choice([0.0, 0.0, 1.0, 2.5], size=n) * rng.uniform(0.5, 2.0, size=n)
    A, b = np.zeros((m, n)), np.zeros(m)
    for r in range(m):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        kind = rng.integers(0, 3)
        beta = float(rng.choice([0.0, 0.4, 0.7]))
        if kind == 0:
            A[r, i], A[r, j], b[r] = 1.0, -1.0, -rng.uniform(0.0, 3.0)
        elif kind == 1:
            A[r, i], A[r, j], b[r] = -1.0, -beta, -rng.uniform(0.0, 4.0)
        else:
            A[r, i], A[r, j], b[r] = 1.0, beta, rng.uniform(1.0, 10.0)
    bounds = [(float(rng.choice([0.0, 0.2])),
               [math.inf, math.inf, 3.0, 8.0][int(rng.integers(0, 4))]) for _ in range(n)]
    return c, A, b, bounds


def test_scheduling_shaped_lps_against_scipy():
    # like the leaf LPs, most right-hand sides start negative, so the slack
    # basis is primal infeasible; some draws are infeasible
    statuses, pivots = [], 0
    for seed in range(200):
        c, A, b, bounds = _scheduling_shaped_lp(np.random.default_rng(20_000 + seed))
        ours = solve_lp(c, A_ub=A, b_ub=b, bounds=bounds)
        ref = scipy_opt.linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
        assert ref.status in (0, 2), seed  # nonnegative costs: never unbounded
        expected = OPTIMAL if ref.status == 0 else INFEASIBLE
        assert ours.status == expected, seed
        if expected == OPTIMAL:
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7), seed
            assert np.all(A @ ours.x <= b + 1e-7), seed
            for xj, (lo, hi) in zip(ours.x, bounds):
                assert xj >= lo - 1e-7 and xj <= hi + 1e-7, seed
        statuses.append(expected)
        pivots += ours.pivots
    assert statuses.count(OPTIMAL) >= 50 and statuses.count(INFEASIBLE) >= 20, (
        statuses.count(OPTIMAL), statuses.count(INFEASIBLE))
    assert pivots > 0


@pytest.mark.parametrize("seed", range(30))
def test_random_against_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    m = int(rng.integers(1, 10))
    c = np.abs(rng.normal(size=n))
    A = rng.normal(size=(m, n))
    b = rng.uniform(0.5, 5.0, size=m)
    bounds = []
    for _ in range(n):
        lo = float(rng.uniform(-2, 0))
        hi = float(rng.uniform(0.5, 4)) if rng.random() < 0.7 else math.inf
        bounds.append((lo, hi))
    meq = int(rng.integers(0, 3))
    A_eq = rng.normal(size=(meq, n)) if meq else None
    b_eq = rng.uniform(-1, 1, size=meq) if meq else None

    ours = solve_lp(c, *_with_equalities(A, b, A_eq, b_eq), bounds=bounds)
    sp_bounds = [(lo, hi) for lo, hi in bounds]
    ref = scipy_opt.linprog(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq,
                            bounds=sp_bounds, method="highs")
    assert ref.status in (0, 2)  # nonnegative costs: never unbounded
    if ref.status == 2:
        assert ours.status == INFEASIBLE
    else:
        assert ours.status == OPTIMAL
        assert ours.objective == pytest.approx(ref.fun, abs=1e-7)


def _check_against_scipy(c, A_ub, b_ub, A_eq, b_eq, bounds):
    ours = solve_lp(c, *_with_equalities(A_ub, b_ub, A_eq, b_eq), bounds=bounds)
    ref = scipy_opt.linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                            bounds=bounds, method="highs")
    assert ref.status in (0, 2)  # nonnegative costs: never unbounded
    expected = OPTIMAL if ref.status == 0 else INFEASIBLE
    assert ours.status == expected
    if expected == OPTIMAL:
        assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
        x = ours.x
        assert np.all(A_ub @ x <= b_ub + 1e-7)
        assert np.allclose(A_eq @ x, b_eq, atol=1e-7)
        for xj, (lo, hi) in zip(x, bounds):
            assert xj >= lo - 1e-7 and xj <= hi + 1e-7
    return expected


def test_degenerate_integer_lps_against_scipy():
    # small integer data with many zero costs and right-hand sides: ratio
    # ties (settled by the lowest column index) are common, and the draws
    # include infeasible LPs
    statuses = []
    for seed in range(300):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 8))
        meq = int(rng.integers(0, 3))
        c = np.abs(rng.integers(-3, 4, size=n)).astype(float)
        A_ub = rng.integers(-2, 3, size=(m, n)).astype(float)
        b_ub = rng.integers(0, 3, size=m).astype(float) * (rng.random(m) < 0.6)
        A_eq = rng.integers(-2, 3, size=(meq, n)).astype(float)
        b_eq = rng.integers(-2, 3, size=meq).astype(float)
        bounds = [(float(rng.choice([0.0, -1.0])),
                   [math.inf, 1.0, 2.0, 3.0][int(rng.integers(0, 4))]) for _ in range(n)]
        statuses.append(_check_against_scipy(c, A_ub, b_ub, A_eq, b_eq, bounds))
    for status in (OPTIMAL, INFEASIBLE):
        assert statuses.count(status) >= 10, statuses.count(status)
