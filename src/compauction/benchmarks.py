"""Revenue benchmarks over bid grids.

Two built-in benchmarks are provided, both written on the sorted bids
``b_(1) >= b_(2) >= ... >= b_(n)``:

* fixed-price revenue with at least two winners, ``max_{2<=k<=n} k * b_(k)``;
* best k-item Vickrey revenue, ``max_{1<=k<n} k * b_(k+1)``.

A :class:`BenchmarkTable` tabulates any non-negative monotone benchmark on a
grid; user-supplied tables arrive as explicit values and are validated, since
the attainability characterization is only meaningful for monotone targets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from compauction.grid import BidGrid, DomainTooLargeError, Point, covers

BUILTIN_KINDS = ("f2", "maxv")

# Most table reads ``limited_supply_bounds`` may make: one per output point
# for a built-in kind, n! arrangements per point for a custom table; 9
# bidders on two levels at k = 2 make 1.45 * 10^6 and take 0.4 s.
MAX_ARRANGEMENTS = 2 * 10**6

RationalLike = Fraction | int


def f2(values: Sequence[RationalLike]) -> Fraction:
    """Largest fixed-price revenue with at least two winners."""
    if len(values) < 2:
        raise ValueError("fixed-price benchmark needs at least two bidders")
    ordered = sorted((Fraction(v) for v in values), reverse=True)
    return max(k * ordered[k - 1] for k in range(2, len(ordered) + 1))


def maxv(values: Sequence[RationalLike]) -> Fraction:
    """Best revenue of a k-item Vickrey auction over all supplies k < n."""
    if len(values) < 2:
        raise ValueError("Vickrey benchmark needs at least two bidders")
    ordered = sorted((Fraction(v) for v in values), reverse=True)
    return max(k * ordered[k] for k in range(1, len(ordered)))


_FORMULAS = {"f2": f2, "maxv": maxv}


@dataclass(frozen=True)
class BenchmarkTable:
    """A benchmark tabulated at every grid point.

    ``values`` maps each level-index vector to a rational.  ``kind`` records
    whether the table came from a built-in formula, which lets derived
    constructions (limited supply, coordinate pinning) fall back to the
    formula where a literal table lookup is impossible.
    """

    grid: BidGrid
    values: Mapping[Point, Fraction]
    kind: str = "custom"

    def __getitem__(self, point: Point) -> Fraction:
        return self.values[tuple(point)]

    def scaled(self, c: RationalLike) -> "BenchmarkTable":
        c = Fraction(c)
        return BenchmarkTable(
            self.grid, {p: c * v for p, v in self.values.items()}, kind="custom"
        )

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())


def builtin_table(grid: BidGrid, which: str) -> BenchmarkTable:
    """Tabulate one of the built-in benchmarks at every grid point.

    The formulas are symmetric, so each runs once per sorted index vector.
    """
    if which not in BUILTIN_KINDS:
        raise ValueError(f"unknown builtin benchmark {which!r}")
    if grid.n < 2:
        raise ValueError("built-in benchmarks need at least two bidders")
    formula = _FORMULAS[which]
    levels = grid.ladder
    by_sorted: dict[Point, Fraction] = {}
    values = {}
    for p in grid.points():
        key = tuple(sorted(p))
        if key not in by_sorted:
            by_sorted[key] = formula([levels[t] for t in key])
        values[p] = by_sorted[key]
    return BenchmarkTable(grid, values, kind=which)


def check_monotone(
    table: BenchmarkTable,
) -> tuple[bool, tuple[Point, Point] | None]:
    """Exact monotonicity check over all covering pairs.

    Returns ``(True, None)`` or ``(False, (lower, upper))`` with the first
    covering pair (in lexicographic order) whose values decrease.
    """
    grid = table.grid
    for p in grid.points():
        fp = table[p]
        for q in covers(p, grid.top):
            if table[q] < fp:
                return False, (p, q)
    return True, None


def check_symmetric(table: BenchmarkTable) -> bool:
    """True iff the table is invariant under coordinate permutations."""
    canonical: dict[Point, Fraction] = {}
    for p, v in table.values.items():
        key = tuple(sorted(p))
        if canonical.setdefault(key, v) != v:
            return False
    return True


def validate_table(table: BenchmarkTable) -> None:
    """Reject tables that are negative somewhere or not monotone."""
    grid = table.grid
    for p in grid.points():
        if p not in table.values:
            raise ValueError(f"benchmark table is missing grid point {p}")
        if table[p] < 0:
            raise ValueError(f"benchmark is negative at {p}")
    ok, witness = check_monotone(table)
    if not ok:
        assert witness is not None
        raise ValueError(
            f"benchmark is not monotone: value drops from {witness[0]} to {witness[1]}"
        )


def _sorted_desc(point: Point) -> tuple[int, ...]:
    return tuple(sorted(point, reverse=True))


def check_supply(grid: BidGrid, k: int, kind: str) -> None:
    """Reject a supply ``k`` outside ``[2, n)`` or past ``MAX_ARRANGEMENTS``.

    ``limited_supply_bounds`` makes one lookup at each of the ``levels^k``
    output points of a built-in ``kind``, and expands the ``n!``
    arrangements of a padded bid vector at each point of any other table;
    ``n!`` is multiplied in factor by factor, so a large ``n`` stops early.
    """
    if not 2 <= k < grid.n:
        raise ValueError(f"supply k must satisfy 2 <= k < {grid.n}, got {k}")
    count, per_point = grid.num_levels**k, ""
    if kind not in BUILTIN_KINDS:
        per_point = f" times {grid.n}! arrangements"
        for m in range(2, grid.n + 1):
            count *= m
            if count > MAX_ARRANGEMENTS:
                break
    if count > MAX_ARRANGEMENTS:
        raise DomainTooLargeError(
            f"{grid.num_levels}^{k} points{per_point} "
            f"are above the arrangement cap of {MAX_ARRANGEMENTS}"
        )


def limited_supply_bounds(
    table: BenchmarkTable, k: int
) -> tuple[BenchmarkTable, BenchmarkTable]:
    """Upper and lower k-bidder benchmarks sandwiching an n-bidder one.

    Sorting the bids descending, the upper table re-evaluates the benchmark
    with positions k+1..n raised to the k-th bid, the lower one with those
    positions dropped to a zero contribution.  Monotonicity gives
    ``upper >= original >= lower`` pointwise, so the pair brackets the
    competitive ratio of a k-unit (limited supply) auction.

    A k-bidder table must be symmetric in its arguments, so an asymmetric
    source is bracketed by the extreme arrangements: the upper value is the
    maximum of the benchmark over permutations of the padded vector, the
    lower the minimum (for symmetric benchmarks both collapse to a single
    lookup, which built-in kinds take).  For built-in kinds the lower table
    evaluates the formula with literal zeros appended; a custom table has no
    values below the grid, so its bottom level stands in as the floor.
    """
    grid = table.grid
    check_supply(grid, k, table.kind)
    out_grid = BidGrid(grid.delta, grid.num_levels, k)
    levels = grid.ladder
    pad = grid.n - k
    upper: dict[Point, Fraction] = {}
    lower: dict[Point, Fraction] = {}
    for u in out_grid.points():
        s = _sorted_desc(u)
        raised = s + (s[-1],) * pad
        if table.kind in BUILTIN_KINDS:
            upper[u] = table[raised]
            formula = _FORMULAS[table.kind]
            lower[u] = formula([levels[t] for t in s] + [Fraction(0)] * pad)
        else:
            upper[u] = max(
                table[perm] for perm in set(itertools.permutations(raised))
            )
            dropped = s + (0,) * pad
            lower[u] = min(
                table[perm] for perm in set(itertools.permutations(dropped))
            )
    return (
        BenchmarkTable(out_grid, upper, kind="custom"),
        BenchmarkTable(out_grid, lower, kind="custom"),
    )


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
