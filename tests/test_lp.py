"""Exact rational simplex unit checks."""

import itertools
import random
from fractions import Fraction as F

from compauction.attainability import _revenue_system
from compauction.benchmarks import builtin_table
from compauction.grid import BidGrid
from compauction.lp import LPStatus, _primitive, _Tableau, solve_lp


def test_simple_box():
    res = solve_lp([F(-1), F(-1)], A_ub=[[F(1), F(0)], [F(0), F(1)]],
                   b_ub=[F(2), F(3)])
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == -5
    assert res.x == [F(2), F(3)]


def test_shared_budget():
    res = solve_lp([F(-3), F(-5)], A_ub=[[F(1), F(2)], [F(3), F(2)]],
                   b_ub=[F(14), F(18)])
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == -36
    assert res.x == [F(2), F(6)]


def test_infeasible():
    res = solve_lp([F(0)], A_ub=[[F(1)], [F(-1)]], b_ub=[F(-1), F(0)])
    assert res.status is LPStatus.INFEASIBLE


def test_unbounded():
    res = solve_lp([F(-1)], A_ub=[[F(-1)]], b_ub=[F(0)])
    assert res.status is LPStatus.UNBOUNDED
    res = solve_lp([F(-1), F(0)])
    assert res.status is LPStatus.UNBOUNDED


def test_equality_constraints():
    res = solve_lp([F(1), F(0)], A_eq=[[F(1), F(1)]], b_eq=[F(2)])
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == 0
    assert res.x == [F(0), F(2)]
    res = solve_lp([F(0), F(0)], A_eq=[[F(1), F(1)], [F(1), F(1)]],
                   b_eq=[F(1), F(2)])
    assert res.status is LPStatus.INFEASIBLE


def test_redundant_equalities_survive_phase_one():
    res = solve_lp(
        [F(-1), F(-1)],
        A_ub=[[F(1), F(1)]],
        b_ub=[F(4)],
        A_eq=[[F(1), F(-1)], [F(2), F(-2)]],
        b_eq=[F(0), F(0)],
    )
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == -4
    assert res.x == [F(2), F(2)]


def test_degenerate_cycling_candidate():
    # the classic cycling example for steepest-coefficient pivoting; Bland's
    # rule must terminate at the optimum -1/20
    c = [F(-3, 4), F(150), F(-1, 50), F(6)]
    A = [
        [F(1, 4), F(-60), F(-1, 25), F(9)],
        [F(1, 2), F(-90), F(-1, 50), F(3)],
        [F(0), F(0), F(1), F(0)],
    ]
    b = [F(0), F(0), F(1)]
    res = solve_lp(c, A_ub=A, b_ub=b)
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == F(-1, 20)
    assert res.x == [F(1, 25), F(0), F(1), F(0)]


def test_negative_rhs_needs_artificials():
    # x >= 3 written as -x <= -3
    res = solve_lp([F(1)], A_ub=[[F(-1)]], b_ub=[F(-3)])
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == 3


def test_feasible_wrapper():
    assert solve_lp([0], A_ub=[[F(1)]], b_ub=[F(1)]).status is LPStatus.OPTIMAL
    infeasible = solve_lp([0], A_ub=[[F(1)], [F(-1)]], b_ub=[F(1), F(-2)])
    assert infeasible.status is LPStatus.INFEASIBLE
    assert solve_lp([]).status is LPStatus.OPTIMAL


def test_exactness_no_drift():
    # tiny coefficients that would round under floating point
    eps = F(1, 10**12)
    res = solve_lp([F(-1)], A_ub=[[eps]], b_ub=[eps * 7])
    assert res.status is LPStatus.OPTIMAL
    assert res.x == [F(7)]


def _solve_square(rows, rhs):
    """Exact Gaussian elimination; None if the system is singular."""
    n = len(rhs)
    m = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = F(1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[r][-1] for r in range(n)]


def _vertices(rows, rhs, eq_rows, eq_rhs, n):
    """Every vertex of {rows x <= rhs, eq_rows x = eq_rhs, x >= 0}."""
    nonneg = [[F(-1) if j == i else F(0) for j in range(n)] for i in range(n)]
    candidates = list(rows) + nonneg + list(eq_rows)
    bounds = list(rhs) + [F(0)] * n + list(eq_rhs)
    k = len(rows) + n  # the first k candidates are inequalities
    found = set()
    for chosen in itertools.combinations(range(len(candidates)), n):
        point = _solve_square([candidates[i] for i in chosen],
                              [bounds[i] for i in chosen])
        if point is None:
            continue
        dot = [sum(a * v for a, v in zip(r, point)) for r in candidates]
        if all(d <= b for d, b in zip(dot[:k], bounds)) and dot[k:] == bounds[k:]:
            found.add(tuple(point))
    return found


def _vertex_optimum(c, A, b):
    """Oracle: best objective over vertices of {Ax <= b, x >= 0}.

    Sound for bounded feasible regions, where some vertex is optimal and a
    nonempty region (being pointed) has at least one vertex.
    """
    points = _vertices(A, b, [], [], len(c))
    return min((sum(cv * v for cv, v in zip(c, p)) for p in points), default=None)


def test_random_lps_match_vertex_enumeration():
    rng = random.Random(20240901)
    agreements = {"optimal": 0, "infeasible": 0}
    for _ in range(150):
        n = rng.choice((2, 3))
        m = rng.randrange(2, 5)
        c = [F(rng.randrange(-4, 5)) for _ in range(n)]
        A = [[F(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randrange(-2, 7)) for _ in range(m)]
        # box rows keep every instance bounded, so a vertex is optimal
        for i in range(n):
            A.append([F(5) if j == i else F(0) for j in range(n)])
            b.append(F(25))
        res = solve_lp(c, A_ub=A, b_ub=b)
        oracle = _vertex_optimum(c, A, b)
        if oracle is None:
            assert res.status is LPStatus.INFEASIBLE
            agreements["infeasible"] += 1
        else:
            assert res.status is LPStatus.OPTIMAL
            assert res.objective == oracle
            agreements["optimal"] += 1
    assert agreements["optimal"] > 50 and agreements["infeasible"] > 5


def test_ratio_lp_pivot_counts_are_pinned():
    # Bland's rule fixes the pivot sequence; a change in these counts means a
    # change in the rule or in the system, not in the arithmetic.  Listing each
    # direction's increments from the top level down took 8x2 from 724 pivots
    # to 264.
    for levels, n, ratio, pivots in ((4, 2, F(23, 16), 45), (2, 4, F(19, 16), 124),
                                     (5, 2, F(47, 32), 71), (8, 2, F(383, 256), 264)):
        table = builtin_table(BidGrid(F(1), levels, n), "f2")
        A, b, nvars = _revenue_system(table, None)
        # one cover row per point and one mass row per direction, nothing else
        assert len(A) == levels**n + n * levels ** (n - 1)
        res = solve_lp([F(1)] + [F(0)] * (nvars - 1), A_ub=A, b_ub=b)
        assert (res.status, res.objective, res.pivots) == (LPStatus.OPTIMAL, ratio, pivots)


def _dense_pivot(line, prow, c):
    """Oracle: ``line`` with its entry ``c`` eliminated by the pivot row
    ``prow``, by the dense formula over every column."""
    p, a = prow[c], line[c]
    return _primitive([p * x - a * y for x, y in zip(line, prow)])


def test_sparse_pivot_matches_the_dense_formula():
    # The pivot reads the pivot row only at its nonzeros and first divides p
    # and a by their gcd; each row's primitive form is unique, so every row,
    # and the objective with its denominator, must be what the dense formula
    # gives.  Small entries make gcd(p, a) > 1 and p = 1 common.
    rng = random.Random(20261022)

    def entry():
        return rng.randrange(-6, 7) if rng.random() < 0.5 else 0

    checked = 0
    for _ in range(400):
        m, width = rng.randrange(1, 6), rng.randrange(2, 9)
        rows = [[entry() for _ in range(width)] for _ in range(m)]
        r, c = rng.randrange(m), rng.randrange(width - 1)
        rows[r][c] = rng.randrange(1, 7)
        tab = _Tableau(rows, list(range(m)))
        tab.obj = [entry() for _ in range(width)]
        tab.den = rng.randrange(1, 9)
        before, obj = [list(line) for line in tab.rows], tab.obj + [tab.den]
        prow = before[r]
        expected = [line if i == r or not line[c] else _dense_pivot(line, prow, c)
                    for i, line in enumerate(before)]
        # the denominator is the objective's extra column, where prow is 0
        expected_obj = _dense_pivot(obj, prow + [0], c) if obj[c] else obj
        tab.pivot(r, c)
        assert tab.rows == expected
        assert tab.obj + [tab.den] == expected_obj
        assert tab.basis[r] == c and tab.pivots == 1
        checked += sum(1 for i, line in enumerate(before) if i != r and line[c])
    assert checked > 300


def _brute_force(c, A_ub, b_ub, A_eq, b_eq):
    """Status and optimum from vertex and extreme-ray enumeration.

    The region lies in x >= 0, so it is pointed: it is empty exactly when it
    has no vertex, and it is unbounded in the direction of c exactly when
    some extreme ray d of its recession cone has c.d < 0.  Those rays are the
    vertices of the cone cut by sum(d) = 1.
    """
    n = len(c)
    points = _vertices(A_ub, b_ub, A_eq, b_eq, n)
    if not points:
        return LPStatus.INFEASIBLE, None
    rays = _vertices(A_ub, [F(0)] * len(A_ub), list(A_eq) + [[F(1)] * n],
                     [F(0)] * len(A_eq) + [F(1)], n)
    if any(sum(a * v for a, v in zip(c, d)) < 0 for d in rays):
        return LPStatus.UNBOUNDED, None
    return LPStatus.OPTIMAL, min(sum(a * v for a, v in zip(c, p)) for p in points)


def test_random_lps_with_equalities_match_brute_force():
    rng = random.Random(20261017)

    def coef():
        return F(rng.randrange(-4, 5), rng.choice((1, 1, 2, 3)))

    seen = {status: 0 for status in LPStatus}
    for _ in range(250):
        n = rng.randrange(1, 5)
        m_eq = rng.randrange(0, 3)
        m_ub = rng.randrange(0, 6 - m_eq)
        c = [coef() for _ in range(n)]
        A_ub = [[coef() for _ in range(n)] for _ in range(m_ub)]
        b_ub = [F(rng.randrange(-3, 8)) for _ in range(m_ub)]
        A_eq = [[coef() for _ in range(n)] for _ in range(m_eq)]
        b_eq = [F(rng.randrange(-2, 5)) for _ in range(m_eq)]
        if m_eq == 2 and rng.random() < 0.3:  # a redundant equality row
            A_eq[1], b_eq[1] = [2 * v for v in A_eq[0]], 2 * b_eq[0]
        res = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
        status, best = _brute_force(c, A_ub, b_ub, A_eq, b_eq)
        assert res.status is status
        seen[status] += 1
        if status is LPStatus.OPTIMAL:
            assert res.objective == best
            assert len(res.x) == n and all(v >= 0 for v in res.x)
            assert sum(a * v for a, v in zip(c, res.x)) == res.objective
            for row, bound in zip(A_ub, b_ub):
                assert sum(a * v for a, v in zip(row, res.x)) <= bound
            for row, bound in zip(A_eq, b_eq):
                assert sum(a * v for a, v in zip(row, res.x)) == bound
    assert min(seen.values()) >= 20, seen


def test_row_scaling_and_int_entries_change_nothing():
    # A positive multiple of a row leaves the region, hence the status and
    # the optimum, unchanged.  Where every row is a <= row with rhs >= 0 its
    # slack starts the basis, every reduced cost keeps its sign and every
    # ratio rhs/a its value, so Bland's rule takes the same pivots to the same
    # x.  (A row that needs an artificial is weighted by its scale in phase
    # one, which may change the pivots there.)  Int entries equal to the
    # Fractions they replace give the same primitive integer rows, so they
    # change nothing at all.
    rng = random.Random(20261018)

    def coef():
        return F(rng.randrange(-5, 6), rng.choice((1, 1, 2, 3, 7)))

    def scaled(rows, rhs):
        factors = [rng.randrange(1, 12) for _ in rhs]
        return ([[k * v for v in row] for k, row in zip(factors, rows)],
                [k * v for k, v in zip(factors, rhs)])

    def as_ints(values):
        return [int(v) if v.denominator == 1 else v for v in values]

    def outcome(res):
        return res.status, res.objective, res.x, res.pivots

    slack_started = 0
    for _ in range(300):
        n = rng.randrange(1, 5)
        m_eq = rng.randrange(0, 3)
        m_ub = rng.randrange(0, 6 - m_eq)
        c = [coef() for _ in range(n)]
        A_ub = [[coef() for _ in range(n)] for _ in range(m_ub)]
        b_ub = [coef() for _ in range(m_ub)]
        A_eq = [[coef() for _ in range(n)] for _ in range(m_eq)]
        b_eq = [coef() for _ in range(m_eq)]
        if rng.random() < 0.4:  # no artificials: <= rows with rhs >= 0 only
            A_eq, b_eq, b_ub = [], [], [abs(v) for v in b_ub]
        base = outcome(solve_lp(c, A_ub, b_ub, A_eq, b_eq))
        moved = outcome(solve_lp(c, *scaled(A_ub, b_ub), *scaled(A_eq, b_eq)))
        assert moved[:2] == base[:2]
        if not A_eq and min(b_ub, default=0) >= 0:
            assert moved == base
            slack_started += 1
        ints = [[as_ints(row) for row in A_ub], as_ints(b_ub),
                [as_ints(row) for row in A_eq], as_ints(b_eq)]
        assert outcome(solve_lp(as_ints(c), *ints)) == base
    assert slack_started > 100
    int_only = solve_lp([-3, -5], A_ub=[[1, 2], [3, 2]], b_ub=[14, 18])
    assert (int_only.objective, int_only.x) == (-36, [F(2), F(6)])
