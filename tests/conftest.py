"""Shared fixtures: tiny grids, random monotone benchmarks, brute oracles."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from compauction.benchmarks import BenchmarkTable
from compauction.grid import BidGrid, Upset, is_upward_closed
from compauction.ratios import EqualRevenueSampler
from compauction.serialize import FormatError, _point_from_doc


def two_tier_table() -> BenchmarkTable:
    """2x2 benchmark worth 3/2 everywhere except 7/2 at the top corner.

    Its optimal competitive ratio is exactly 1, attained by the full grid,
    which makes it the canonical end-to-end example.
    """
    grid = BidGrid(Fraction(1), 2, 2)
    values = {
        (0, 0): Fraction(3, 2),
        (0, 1): Fraction(3, 2),
        (1, 0): Fraction(3, 2),
        (1, 1): Fraction(7, 2),
    }
    return BenchmarkTable(grid, values, kind="custom")


def small_grids() -> list[BidGrid]:
    """The three enumeration-scale grids used by the randomized suites."""
    return [
        BidGrid(Fraction(1), 2, 2),
        BidGrid(Fraction(1), 3, 2),
        BidGrid(Fraction(1), 2, 3),
    ]


def fix_lowest_coordinate(table: BenchmarkTable) -> BenchmarkTable:
    """Pin one coordinate of an (n+1)-bidder benchmark to the grid minimum.

    Produces the n-bidder benchmark ``z -> f(1, z)``.  For the built-in
    fixed-price benchmark this equals ``max(n+1, f_n(z))`` pointwise, which is
    the restricted target the scaling reduction synthesizes against.
    """
    grid = table.grid
    if grid.n < 3:
        raise ValueError("need at least three bidders to pin one coordinate")
    out_grid = BidGrid(grid.delta, grid.num_levels, grid.n - 1)
    values = {z: table[(0,) + z] for z in out_grid.points()}
    return BenchmarkTable(out_grid, values, kind="custom")


def is_symmetric(upset: Upset) -> bool:
    """Invariant under every permutation of the coordinates."""
    return all(
        tuple(q) in upset.points
        for p in upset.points
        for q in itertools.permutations(p)
    )


def sample_bids(sampler: EqualRevenueSampler):
    """One bid vector of length n."""
    return sampler.sample(1)[0]


def upset_from_doc(doc, grid: BidGrid) -> Upset:
    """The witness upset of a ``check`` document, checked like any input."""
    if not isinstance(doc, list):
        raise FormatError("witness upset must be a list of level vectors")
    points = frozenset(_point_from_doc(p, grid, grid.n) for p in doc)
    try:
        return Upset(grid.num_levels, grid.n, points)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def predecessors(point, grid):
    for j in range(grid.n):
        if point[j] > 0:
            yield point[:j] + (point[j] - 1,) + point[j + 1 :]


def random_monotone_table(
    grid: BidGrid,
    rng: random.Random,
    zero_bias: float = 0.35,
    nonzero: bool = False,
) -> BenchmarkTable:
    """Random non-negative monotone benchmark built from random increments."""
    values: dict[tuple, Fraction] = {}
    for p in sorted(grid.points(), key=lambda q: (sum(q), q)):
        floor = max((values[q] for q in predecessors(p, grid)), default=Fraction(0))
        if rng.random() < zero_bias:
            step = Fraction(0)
        else:
            step = Fraction(rng.randrange(1, 9), rng.choice((1, 2, 3, 4)))
        values[p] = floor + step
    table = BenchmarkTable(grid, values, kind="custom")
    if nonzero and table.is_zero():
        top = tuple([grid.top] * grid.n)
        values[top] = Fraction(1)
        table = BenchmarkTable(grid, values, kind="custom")
    return table


def random_symmetric_monotone_table(
    grid: BidGrid, rng: random.Random
) -> BenchmarkTable:
    """Symmetrize a random monotone table by reading it at the sorted point."""
    base = random_monotone_table(grid, rng)
    values = {p: base[tuple(sorted(p))] for p in grid.points()}
    return BenchmarkTable(grid, values, kind="custom")


def brute_force_upsets(grid: BidGrid) -> list[frozenset]:
    """Oracle: filter all subsets of the grid by the closure predicate."""
    points = list(grid.points())
    found = []
    for mask in range(1 << len(points)):
        subset = frozenset(p for k, p in enumerate(points) if mask >> k & 1)
        if is_upward_closed(subset, grid.num_levels, grid.n):
            found.append(subset)
    return found


def random_upset(grid: BidGrid, rng: random.Random) -> Upset:
    """Upward closure of a random handful of generator points."""
    points = list(grid.points())
    seeds = rng.sample(points, k=rng.randrange(0, min(3, len(points)) + 1))
    members = {
        q
        for s in seeds
        for q in itertools.product(*(range(t, grid.num_levels) for t in s))
    }
    return Upset(grid.num_levels, grid.n, frozenset(members))


def random_decreasing_values(grid: BidGrid, rng: random.Random) -> dict:
    """Random non-negative decreasing function on the grid."""
    values: dict[tuple, Fraction] = {}
    order = sorted(grid.points(), key=lambda q: (sum(q), q), reverse=True)
    for p in order:
        successors = []
        for j in range(grid.n):
            if p[j] < grid.top:
                successors.append(p[:j] + (p[j] + 1,) + p[j + 1 :])
        floor = max((values[q] for q in successors), default=Fraction(0))
        values[p] = floor + Fraction(rng.randrange(0, 5), rng.choice((1, 2, 4)))
    return values


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240815)
