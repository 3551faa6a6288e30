"""Grid, weights, and upward-closed-set machinery."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compauction import grid as grid_module
from compauction.grid import (
    BidGrid,
    DomainTooLargeError,
    Upset,
    arrangements,
    check_size,
    enumerate_upsets,
    is_upward_closed,
    orbit_size,
    project,
    tail_numerator,
    weight_level,
    weight_others,
    weight_vector,
)
from tests.conftest import brute_force_upsets, random_upset, small_grids

G22 = BidGrid(Fraction(1), 2, 2)


def test_level_values_exact():
    grid = BidGrid(Fraction(1, 2), 4, 2)
    assert grid.ladder == (
        Fraction(1),
        Fraction(3, 2),
        Fraction(9, 4),
        Fraction(27, 8),
    )
    assert grid.level_value(0) == 1
    with pytest.raises(ValueError):
        grid.level_value(4)


def test_grid_validation():
    with pytest.raises(ValueError):
        BidGrid(Fraction(0), 2, 2)
    with pytest.raises(ValueError):
        BidGrid(Fraction(1), 0, 2)
    with pytest.raises(ValueError):
        BidGrid(Fraction(1), 2, 0)


def test_weight_level_two_by_two():
    # delta=1, two levels: both masses are exactly one half
    assert weight_level(G22, 0) == Fraction(1, 2)
    assert weight_level(G22, 1) == Fraction(1, 2)
    with pytest.raises(ValueError):
        weight_level(G22, 2)
    with pytest.raises(ValueError):
        weight_level(G22, -1)


grids = st.builds(
    BidGrid,
    st.fractions(min_value=Fraction(1, 10), max_value=Fraction(3)),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
)


@given(grids, st.data())
def test_tail_identity(grid, data):
    k = data.draw(st.integers(min_value=0, max_value=grid.top))
    total = sum(weight_level(grid, t) for t in range(k, grid.num_levels))
    assert total == Fraction(1) / (1 + grid.delta) ** k
    assert Fraction(tail_numerator(grid, k), grid.step[0] ** grid.num_levels) == total
    assert tail_numerator(grid, grid.num_levels) == 0


@given(grids)
@settings(max_examples=40)
def test_weights_normalize(grid):
    assert sum(weight_vector(grid, p) for p in grid.points()) == 1


def test_weight_vector_examples():
    assert weight_vector(G22, (0, 0)) == Fraction(1, 4)
    assert sum(weight_vector(G22, p) for p in G22.points()) == 1
    g = BidGrid(Fraction(1), 3, 3)
    # bids (1, 2, 4): per-level masses 1/2, 1/4, and the top tail 1/4
    assert weight_vector(g, (0, 1, 2)) == Fraction(1, 32)
    with pytest.raises(ValueError):
        weight_vector(G22, (0, 0, 0))


def test_weight_others():
    assert weight_others(G22, (1,)) == Fraction(1, 2)
    g1 = BidGrid(Fraction(1), 2, 1)
    assert weight_others(g1, ()) == 1


def test_upset_requires_closure():
    Upset.of(G22, {(1, 1)})
    with pytest.raises(ValueError):
        Upset.of(G22, {(0, 0)})
    with pytest.raises(ValueError):
        Upset.of(G22, {(2, 0)})


def test_is_upward_closed_examples():
    assert is_upward_closed({(1, 1)}, 2)
    assert not is_upward_closed({(0, 0)}, 2)
    assert is_upward_closed(set(G22.points()), 2)
    assert is_upward_closed(set(), 2)


def test_enumerate_upsets_counts():
    assert len(enumerate_upsets(G22)) == 6
    assert len(enumerate_upsets(BidGrid(Fraction(1), 3, 2))) == 20
    assert len(enumerate_upsets(BidGrid(Fraction(1), 1, 1))) == 2
    assert len(enumerate_upsets(BidGrid(Fraction(1), 2, 3))) == 20


@pytest.mark.parametrize("grid", small_grids(), ids=str)
def test_enumerate_upsets_matches_brute_force(grid):
    enumerated = [s.points for s in enumerate_upsets(grid)]
    assert len(set(enumerated)) == len(enumerated)
    assert set(enumerated) == set(brute_force_upsets(grid))
    assert enumerated[0] == frozenset()
    assert enumerated[-1] == frozenset(grid.points())


def test_enumeration_cap(monkeypatch):
    big = BidGrid(Fraction(1), 5, 2)
    with pytest.raises(DomainTooLargeError):
        enumerate_upsets(big)
    monkeypatch.setattr(grid_module, "DEFAULT_POINT_CAP", 25)
    assert len(enumerate_upsets(big)) == 252


def test_check_size_never_builds_the_power():
    check_size(129, 2, 2**16, "test")
    check_size(1, 2**16, 2**16, "test")  # one point, many bidders
    for levels, n in ((10**6, 10**9), (2, 10**18), (1, 10**18), (2**17, 1), (2, 17)):
        with pytest.raises(DomainTooLargeError):
            check_size(levels, n, 2**16, "test")


def level_mass(delta: Fraction, num_levels: int, t: int) -> Fraction:
    """``delta/(1+delta)^(t+1)`` below the top level, ``(1+delta)^-N`` at it."""
    top = num_levels - 1
    return (1 + delta) ** -top if t == top else delta / (1 + delta) ** (t + 1)


# small_grids(), the original 3x3 grid and the BENCH_synthesis.json shapes
WEIGHT_SHAPES = [(g.num_levels, g.n) for g in small_grids()] + [
    (3, 3), (8, 2), (4, 3), (3, 4), (6, 3), (4, 4), (16, 2), (32, 2),
]


@pytest.mark.parametrize("delta", [Fraction(1), Fraction(1, 3), Fraction(5, 2)], ids=str)
@pytest.mark.parametrize("shape", WEIGHT_SHAPES, ids=str)
def test_weights_are_one_product_formula(shape, delta):
    grid = BidGrid(delta, *shape)
    mass = [level_mass(delta, grid.num_levels, t) for t in range(grid.num_levels)]
    assert grid.level_weights == tuple(mass)
    for p in grid.points():
        expected = math.prod(mass[t] for t in p)
        assert weight_vector(grid, p) == expected
        assert weight_others(grid, p[1:]) == expected / mass[p[0]]
    for bad in ((grid.num_levels,) + (0,) * (grid.n - 1), (-1,) * grid.n):
        with pytest.raises(ValueError):
            weight_vector(grid, bad)
        with pytest.raises(ValueError):
            weight_others(grid, bad[:-1])


def test_weight_range_is_checked_before_the_class_memo():
    grid = BidGrid(Fraction(1, 3), 3, 3)
    assert weight_vector(grid, (1, 1, 1)) == weight_level(grid, 1) ** 3
    # (0, 0, 3) has level sum 3 and no top coordinate, the class of (1, 1, 1)
    assert (3, 3, 0) in grid.weight_classes
    with pytest.raises(ValueError):
        weight_vector(grid, (0, 0, 3))
    with pytest.raises(ValueError):
        weight_others(grid, (3, 0))


@pytest.mark.parametrize("shape", [(10, 6), (20, 5)], ids=str)
def test_weights_need_no_table_past_the_cap(shape):
    """10^6 and 3.2x10^6 points: each weight is one class, never a table."""
    delta = Fraction(1, 3)
    grid = BidGrid(delta, *shape)
    n, top = grid.n, grid.top
    mass = [level_mass(delta, grid.num_levels, t) for t in range(grid.num_levels)]
    points = [
        (0,) * n, (top,) * n, tuple(range(n)), tuple(range(n))[::-1],
        (top,) + (1,) * (n - 1), (2, top, 0) + (top,) * (n - 3),
    ]
    classes = set()
    for p in points:
        expected = math.prod(mass[t] for t in p)
        assert weight_vector(grid, p) == expected
        assert weight_others(grid, p[1:]) == expected / mass[p[0]]
        classes |= {(len(q), sum(q), q.count(top)) for q in (p, p[1:])}
    assert len(grid.weight_classes) == len(classes)


def test_project_examples():
    s = Upset.of(G22, {(0, 1), (1, 1)})  # bids {(1,2),(2,2)}
    assert project(s, 0) == {(1,)}
    assert project(s, 1) == {(0,), (1,)}
    assert project(Upset.empty(G22), 0) == frozenset()
    with pytest.raises(ValueError):
        project(s, 2)


@pytest.mark.parametrize("grid", small_grids(), ids=str)
def test_project_equals_top_slice(grid):
    for s in enumerate_upsets(grid):
        for i in range(grid.n):
            expected = frozenset(
                o
                for o in grid.others_points()
                if o[:i] + (grid.top,) + o[i:] in s
            )
            assert project(s, i) == expected


@pytest.mark.parametrize("grid", small_grids(), ids=str)
def test_union_intersection_closed(grid):
    upsets = enumerate_upsets(grid)
    for a in upsets:
        for b in upsets:
            assert is_upward_closed(a.points | b.points, grid.num_levels)
            assert is_upward_closed(a.points & b.points, grid.num_levels)


def test_random_upsets_are_valid(rng):
    for grid in small_grids():
        for _ in range(25):
            s = random_upset(grid, rng)
            assert is_upward_closed(s.points, grid.num_levels)


@given(st.lists(st.integers(0, 3), max_size=7))
@settings(max_examples=200, deadline=None)
def test_arrangements_are_the_distinct_permutations(point):
    point = tuple(point)
    found = list(arrangements(point))
    assert found == sorted(set(itertools.permutations(point)))
    assert orbit_size(point) == len(found)


def test_orbit_size_is_the_multinomial():
    assert orbit_size((2, 0, 2, 1)) == 12  # 4!/(2! 1! 1!)
    assert orbit_size((5,) * 9) == 1
    assert orbit_size(tuple(range(6))) == 720
    assert orbit_size(()) == 1
