"""Benchmark formulas, tables, and derived constructions."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compauction import benchmarks
from compauction.benchmarks import (
    BenchmarkTable,
    builtin_table,
    check_monotone,
    check_symmetric,
    f2,
    limited_supply_bounds,
    maxv,
    validate_table,
)
from compauction.grid import BidGrid, DomainTooLargeError, arrangements
from tests.conftest import (
    fix_lowest_coordinate, random_monotone_table, scaled, small_grids, two_tier_table,
)

G22 = BidGrid(Fraction(1), 2, 2)


def test_f2_examples():
    assert f2([2, 2]) == 4
    assert f2([4, 1]) == 2
    assert f2([4, 2, 2]) == 6
    with pytest.raises(ValueError):
        f2([5])


def test_maxv_examples():
    assert maxv([4, 2]) == 2
    assert maxv([4, 2, 1]) == 2
    for n in range(2, 6):
        c = Fraction(7, 3)
        assert maxv([c] * n) == (n - 1) * c
    with pytest.raises(ValueError):
        maxv([5])


def test_builtin_tables_two_by_two():
    table = builtin_table(G22, "f2")
    assert dict(table.values) == {
        (0, 0): 2,
        (0, 1): 2,
        (1, 0): 2,
        (1, 1): 4,
    }
    table = builtin_table(G22, "maxv")
    assert dict(table.values) == {
        (0, 0): 1,
        (0, 1): 1,
        (1, 0): 1,
        (1, 1): 2,
    }
    with pytest.raises(ValueError):
        builtin_table(G22, "nope")
    with pytest.raises(ValueError):
        builtin_table(BidGrid(Fraction(1), 2, 1), "f2")


@pytest.mark.parametrize("grid", small_grids(), ids=str)
@pytest.mark.parametrize("kind", ["f2", "maxv"])
def test_builtin_tables_monotone_and_symmetric(grid, kind):
    table = builtin_table(grid, kind)
    ok, witness = check_monotone(table)
    assert ok and witness is None
    assert check_symmetric(table)
    validate_table(table)


def test_builtin_table_runs_the_formula_once_per_sorted_vector(monkeypatch):
    def full_grid(self):
        raise AssertionError("builtin_table walked every grid point")

    # C(levels + n - 1, n) sorted vectors: 17 on 2 levels x 16, 20 on 4 x 3
    for levels, n, expected in ((2, 16, 17), (4, 3, 20)):
        grid = BidGrid(Fraction(1), levels, n)
        with monkeypatch.context() as patch:
            patch.setattr(BidGrid, "points", full_grid)
            table = builtin_table(grid, "f2")
        nodes = table.values.nodes
        assert len(nodes) == expected
        assert all(list(key) == sorted(key) for key in nodes)
        assert len(table.values) == levels**n


def test_builtin_table_on_a_grid_past_any_dict():
    # 2^40 points, 41 sorted vectors: reads sort the point, nothing is expanded
    grid = BidGrid(Fraction(1), 2, 40)
    table = builtin_table(grid, "f2")
    assert len(table.values) == 2**40 and len(table.values.nodes) == 41
    levels = grid.ladder
    rng = random.Random(40)
    for _ in range(50):
        p = tuple(rng.randrange(2) for _ in range(40))
        assert table[p] == f2([levels[t] for t in p])
    assert table[(0,) * 40] == 40 and table[(1,) * 40] == 80
    assert (0,) * 39 not in table.values and (2,) + (0,) * 39 not in table.values


def test_builtin_table_shares_one_value_per_sorted_vector():
    table = builtin_table(BidGrid(Fraction(1, 3), 4, 3), "maxv")
    for p in table.grid.points():
        for q in arrangements(p):
            assert table.values[q] is table.values[p]
    assert dict(table.values) == {p: table[p] for p in table.grid.points()}
    assert table.values == dict(table.values)


@pytest.mark.parametrize("kind", ["f2", "maxv"])
@pytest.mark.parametrize(
    "grid", [BidGrid(Fraction(1), 4, 3), BidGrid(Fraction(1, 3), 3, 5)], ids=str
)
def test_builtin_table_equals_the_formula_everywhere(grid, kind):
    formula = {"f2": f2, "maxv": maxv}[kind]
    levels = grid.ladder
    table = builtin_table(grid, kind)
    assert list(table.values) == list(grid.points())
    for p in grid.points():
        assert table[p] == formula([levels[t] for t in p])


def test_check_monotone_witness():
    values = {(0, 0): Fraction(0), (0, 1): Fraction(1), (1, 0): Fraction(0),
              (1, 1): Fraction(0)}
    ok, witness = check_monotone(BenchmarkTable(G22, values))
    assert not ok
    assert witness == ((0, 1), (1, 1))
    constant = BenchmarkTable(G22, {p: Fraction(5) for p in G22.points()})
    assert check_monotone(constant) == (True, None)


def test_check_symmetric():
    assert check_symmetric(two_tier_table())
    lopsided = {(0, 0): Fraction(0), (0, 1): Fraction(2), (1, 0): Fraction(1),
                (1, 1): Fraction(2)}
    assert not check_symmetric(BenchmarkTable(G22, lopsided))


def test_validate_table_rejects_bad_input():
    with pytest.raises(ValueError):
        validate_table(BenchmarkTable(G22, {p: Fraction(-1) for p in G22.points()}))
    gap = {p: Fraction(1) for p in G22.points()}
    del gap[(1, 1)]
    with pytest.raises(ValueError):
        validate_table(BenchmarkTable(G22, gap))


rational_bids = st.fractions(min_value=Fraction(1), max_value=Fraction(50))


@given(
    st.lists(rational_bids, min_size=2, max_size=5),
    st.fractions(min_value=Fraction(1, 7), max_value=Fraction(9)),
)
def test_benchmarks_scale_linearly(bids, t):
    assert f2([t * b for b in bids]) == t * f2(bids)
    assert maxv([t * b for b in bids]) == t * maxv(bids)


@given(st.lists(rational_bids, min_size=2, max_size=5), rational_bids)
def test_benchmarks_ignore_raising_the_top_bid(bids, bump):
    top = max(range(len(bids)), key=lambda k: bids[k])
    raised = list(bids)
    raised[top] = raised[top] + bump
    assert f2(raised) == f2(bids)
    assert maxv(raised) == maxv(bids)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10**6))
def test_shifted_complement_is_decreasing(seed):
    import random as _random

    grid = BidGrid(Fraction(1), 2, 3)
    table = random_monotone_table(grid, _random.Random(seed))
    c = Fraction(grid.n + 1)
    h = {p: max(Fraction(0), c - table[p]) for p in grid.points()}
    for p in grid.points():
        for j in range(grid.n):
            if p[j] < grid.top:
                q = p[:j] + (p[j] + 1,) + p[j + 1 :]
                assert h[q] <= h[p]


def _top_k_levels(point, k):
    return tuple(sorted(point, reverse=True))[:k]


def test_limited_supply_on_top_k_only_benchmark():
    # fixed-price revenue restricted to at most two winners depends only on
    # the top two bids, so both bounds collapse onto the benchmark itself
    grid = BidGrid(Fraction(1), 2, 3)
    levels = grid.ladder
    values = {
        p: 2 * sorted((levels[t] for t in p), reverse=True)[1] for p in grid.points()
    }
    table = BenchmarkTable(grid, values, kind="custom")
    upper, lower = limited_supply_bounds(table, 2)
    for p in grid.points():
        key = _top_k_levels(p, 2)
        assert upper[key] == table[p] == lower[key]


def test_limited_supply_on_constant_benchmark():
    grid = BidGrid(Fraction(1), 2, 3)
    table = BenchmarkTable(grid, {p: Fraction(5, 2) for p in grid.points()})
    upper, lower = limited_supply_bounds(table, 2)
    assert all(v == Fraction(5, 2) for v in upper.values.values())
    assert all(v == Fraction(5, 2) for v in lower.values.values())


def test_limited_supply_sandwich_random(rng):
    grid = BidGrid(Fraction(1), 2, 3)
    for _ in range(30):
        table = random_monotone_table(grid, rng)
        upper, lower = limited_supply_bounds(table, 2)
        for p in grid.points():
            key = _top_k_levels(p, 2)
            assert upper[key] >= table[p] >= lower[key]
        for derived in (upper, lower):
            ok, _ = check_monotone(derived)
            assert ok


def test_limited_supply_builtin_drops_to_zero():
    # with literal zeros appended, only the top-k terms of the formula survive
    grid = BidGrid(Fraction(1), 2, 3)
    table = builtin_table(grid, "f2")
    _, lower = limited_supply_bounds(table, 2)
    levels = grid.ladder
    for u in lower.grid.points():
        expected = 2 * min(levels[t] for t in u)
        assert lower[u] == expected


@pytest.mark.parametrize("kind", ["f2", "maxv"])
def test_limited_supply_builtin_lookup_matches_the_permutation_route(kind):
    # 6 bidders at k = 2: the custom route scans 6! arrangements per point
    table = builtin_table(BidGrid(Fraction(1), 3, 6), kind)
    upper, lower = limited_supply_bounds(table, 2)
    as_custom = BenchmarkTable(table.grid, table.values, kind="custom")
    custom_upper, _ = limited_supply_bounds(as_custom, 2)
    assert dict(upper.values) == dict(custom_upper.values)
    # the built-in lower table appends literal zeros, which no custom table
    # holds, so only the top two bids count: 2*min for f2, min for maxv
    levels = table.grid.ladder
    scale = 2 if kind == "f2" else 1
    for u in lower.grid.points():
        assert lower[u] == scale * min(levels[t] for t in u)


def test_limited_supply_invalid_k():
    grid = BidGrid(Fraction(1), 2, 3)
    table = builtin_table(grid, "f2")
    for bad in (1, 3, 0):
        with pytest.raises(ValueError):
            limited_supply_bounds(table, bad)


def test_limited_supply_counts_arrangements_first(monkeypatch):
    # each padded vector stands for its own single arrangement, so the sizes
    # the guard admits run instantly and the ones it rejects never start
    monkeypatch.setattr(benchmarks, "arrangements", lambda v: [v])
    grid = BidGrid(Fraction(1), 2, 8)
    table = BenchmarkTable(grid, builtin_table(grid, "f2").values, kind="custom")
    upper, _ = limited_supply_bounds(table, 6)  # 2^6 * (8!/3! + 8!/2!) = 1.7e6
    assert upper.grid.n == 6

    def refuse(vector):
        raise AssertionError("an oversized reduction started")

    monkeypatch.setattr(benchmarks, "arrangements", refuse)
    with pytest.raises(DomainTooLargeError, match="arrangement cap"):
        limited_supply_bounds(table, 7)  # 2^7 * (8!/2! + 8!/1!) = 7.7e6
    # the count is exact: 2^3 * (5!/3! + 5!/2!) = 640 at n = 5, k = 3
    small = BidGrid(Fraction(1), 2, 5)
    monkeypatch.setattr(benchmarks, "MAX_ARRANGEMENTS", 640)
    benchmarks.check_supply(small, 3, "custom")
    monkeypatch.setattr(benchmarks, "MAX_ARRANGEMENTS", 639)
    with pytest.raises(DomainTooLargeError, match="5!/3! \\+ 5!/2! arrangements"):
        benchmarks.check_supply(small, 3, "custom")


@pytest.mark.parametrize("n", [4, 5])
def test_limited_supply_distinct_arrangements_match_the_permutation_route(rng, n):
    # asymmetric tables: the extremes over every permutation of the padded
    # vectors, each arrangement once or n! times over, agree
    grid = BidGrid(Fraction(1), 2, n)
    for _ in range(10):
        table = random_monotone_table(grid, rng)
        for k in range(2, n):
            upper, lower = limited_supply_bounds(table, k)
            for u in upper.grid.points():
                s = tuple(sorted(u, reverse=True))
                raised = s + (s[-1],) * (n - k)
                dropped = s + (0,) * (n - k)
                perms = itertools.permutations
                assert upper[u] == max(table[q] for q in set(perms(raised)))
                assert lower[u] == min(table[q] for q in set(perms(dropped)))


def test_limited_supply_bounds_builtin_kinds_by_their_lookups(monkeypatch):
    # at 10 bidders on two levels and k = 8 a custom table would read up to
    # 2^8 * (10!/3! + 10!/2!) arrangements; a built-in one reads one padded
    # vector per output point
    grid = BidGrid(Fraction(1), 2, 10)
    levels = grid.ladder
    for kind, formula in (("f2", f2), ("maxv", maxv)):
        table = builtin_table(grid, kind)
        upper, _ = limited_supply_bounds(table, 8)
        for u in upper.grid.points():
            raised = sorted(u, reverse=True) + [min(u)] * 2
            assert upper[u] == formula([levels[t] for t in raised])
        as_custom = BenchmarkTable(grid, table.values, kind="custom")
        with pytest.raises(DomainTooLargeError, match="10!/3! \\+ 10!/2! arrangements"):
            limited_supply_bounds(as_custom, 8)
    monkeypatch.setattr(benchmarks, "MAX_ARRANGEMENTS", 3)
    with pytest.raises(DomainTooLargeError, match="2\\^8 points are above"):
        limited_supply_bounds(builtin_table(grid, "f2"), 8)


def test_limited_supply_bounds_go_by_sorted_vector(monkeypatch):
    # 65,536 output points at k = 16 are C(17, 16) = 17 ascending vectors,
    # and the built-in route never evaluates a formula
    def no_formula(values):
        raise AssertionError("a benchmark formula was evaluated")

    monkeypatch.setattr(benchmarks, "f2", no_formula)
    monkeypatch.setattr(benchmarks, "maxv", no_formula)
    grid = BidGrid(Fraction(1), 2, 18)
    for kind in ("f2", "maxv"):
        upper, lower = limited_supply_bounds(builtin_table(grid, kind), 16)
        assert len(upper.values.nodes) == len(lower.values.nodes) == 17
        assert lower.values.nodes == builtin_table(upper.grid, kind).values.nodes


def test_fix_lowest_coordinate_identity():
    grid3 = BidGrid(Fraction(1), 2, 3)
    pinned = fix_lowest_coordinate(builtin_table(grid3, "f2"))
    grid2 = pinned.grid
    assert (grid2.num_levels, grid2.n) == (2, 2)
    base = builtin_table(grid2, "f2")
    for z in grid2.points():
        assert pinned[z] == max(Fraction(3), base[z])
    assert pinned[(0, 0)] == 3
    ok, _ = check_monotone(pinned)
    assert ok


def test_fix_lowest_coordinate_needs_three_bidders():
    with pytest.raises(ValueError):
        fix_lowest_coordinate(builtin_table(G22, "f2"))


def test_scaled_table():
    table = two_tier_table()
    doubled = scaled(table, 2)
    assert doubled[(1, 1)] == 7
    assert doubled[(0, 0)] == 3
