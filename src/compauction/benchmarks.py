"""Revenue benchmarks over bid grids.

Two built-in benchmarks are provided, both written on the sorted bids
``b_(1) >= b_(2) >= ... >= b_(n)``:

* fixed-price revenue with at least two winners, ``max_{2<=k<=n} k * b_(k)``;
* best k-item Vickrey revenue, ``max_{1<=k<n} k * b_(k+1)``.

A :class:`BenchmarkTable` tabulates any non-negative monotone benchmark on a
grid; user-supplied tables arrive as explicit values and are validated, since
the attainability characterization is only meaningful for monotone targets.
Built-in tables are symmetric, so they hold one value per sorted bid vector
(:class:`SortedValues`) and read any point through its sort.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from compauction.grid import (
    BidGrid,
    DomainTooLargeError,
    Point,
    arrangements,
    covers,
)

BUILTIN_KINDS = ("f2", "maxv")

# Bound on ``limited_supply_bounds``: the levels^k output points of a
# built-in kind, times n!/(n-k+1)! + n!/(n-k)! arrangements for a custom
# table, whose reads go by sorted vector, so the count is an upper bound.
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


class SortedValues(Mapping[Point, Fraction]):
    """Read-only values of a symmetric table, one per sorted vector.

    ``nodes`` maps each ascending level vector to its value; a point reads
    the value of its sort, so all arrangements of a vector share one object.
    As a mapping it is the full table: iteration yields ``grid.points()``
    in lexicographic order and ``len`` is ``num_levels**n`` (which, as for
    ``range``, raises ``OverflowError`` past ``sys.maxsize``).
    """

    def __init__(self, grid: BidGrid, nodes: dict[Point, Fraction]) -> None:
        self.grid = grid
        self.nodes = nodes

    def __getitem__(self, point: Point) -> Fraction:
        return self.nodes[tuple(sorted(point))]

    def __iter__(self) -> Iterator[Point]:
        return self.grid.points()

    def __len__(self) -> int:
        return self.grid.num_levels**self.grid.n


@dataclass(frozen=True)
class BenchmarkTable:
    """A benchmark tabulated at every grid point.

    ``values`` maps each level-index vector to a rational; a built-in table
    holds them as :class:`SortedValues`, one per sorted vector.  ``kind``
    records whether the table came from a built-in formula, which lets
    derived constructions (limited supply) fall back to the formula where a
    literal table lookup is impossible.
    """

    grid: BidGrid
    values: Mapping[Point, Fraction]
    kind: str = "custom"

    def __getitem__(self, point: Point) -> Fraction:
        return self.values[tuple(point)]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())


def builtin_ladder(grid: BidGrid, kind: str) -> tuple[list[int], list[int], int]:
    """A built-in benchmark's integer form: ladder, multipliers and ``Q^N``.

    Both formulas are positively 1-homogeneous and read the bids only
    through their order: ``f = max_k m_k b_(k)``, ``k = 2..n``, with
    ``b_(k)`` the k-th largest bid and ``m_k = k`` for f2 (``k * b_(k)``),
    ``k - 1`` for maxv (``(k-1) * b_(k)``).  With ``1 + delta = P/Q``
    (``grid.step``) and ``N`` the top level, the ladder times ``Q^N`` is the
    increasing integer ladder ``P^t Q^(N-t)``.  Returns that ladder, the
    multipliers ``[m_2, ..., m_n]`` and ``Q^N``.
    """
    if kind not in BUILTIN_KINDS:
        raise ValueError(f"unknown builtin benchmark {kind!r}")
    if grid.n < 2:
        raise ValueError("built-in benchmarks need at least two bidders")
    (P, Q), N = grid.step, grid.top
    ladder = [P**t * Q ** (N - t) for t in range(grid.num_levels)]
    offset = 0 if kind == "f2" else 1
    return ladder, [k - offset for k in range(2, grid.n + 1)], Q**N


def builtin_table(grid: BidGrid, which: str) -> BenchmarkTable:
    """Tabulate one of the built-in benchmarks on ``C(L+n-1, n)`` sorted vectors.

    The formulas are symmetric, so the table is a :class:`SortedValues` and
    every arrangement of a vector reads the same object; no work is done per
    grid point.  On an ascending vector ``a``, ``a_j`` is ``b_(n-j)``, so the
    benchmark is ``max_j m_(n-j) P^(a_j) Q^(N-a_j)`` over ``Q^N``,
    ``j < n-1`` (:func:`builtin_ladder`).  That reads only ``a[:-1]``, and
    in ``combinations_with_replacement`` order the vectors sharing a prefix
    are consecutive, the first one ending in a repeat, so the maximum is
    taken there once per ``(n-1)``-prefix.  Each value is some multiplier
    times a level, so nodes of equal value share one ``Fraction`` too: at
    most ``(n - 1) L`` are built.
    """
    ladder, multipliers, den = builtin_ladder(grid, which)
    descending = multipliers[::-1]  # m_n .. m_2, one per ascending position
    shared: dict[int, Fraction] = {}
    nodes = {}
    for key in itertools.combinations_with_replacement(range(len(ladder)), grid.n):
        if key[-1] == key[-2]:
            num = max(m * ladder[t] for m, t in zip(descending, key))
            value = shared.get(num)
            if value is None:
                value = shared[num] = Fraction(num, den)
        nodes[key] = value
    return BenchmarkTable(grid, SortedValues(grid, nodes), kind=which)


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


def check_supply(grid: BidGrid, k: int, kind: str) -> None:
    """Reject a supply ``k`` outside ``[2, n)`` or past ``MAX_ARRANGEMENTS``.

    ``limited_supply_bounds`` makes one lookup at each of the ``levels^k``
    output points of a built-in ``kind``.  For any other table it reads the
    distinct arrangements of two padded vectors at each point: the raised
    one repeats one level ``pad + 1 = n - k + 1`` times, the dropped one
    ``pad`` times, so together they have at most
    ``n!/(pad+1)! + n!/pad! = (pad + 2) * n!/(pad+1)!`` arrangements.  That
    product is multiplied in factor by factor, so a large ``n`` stops early.
    """
    if not 2 <= k < grid.n:
        raise ValueError(f"supply k must satisfy 2 <= k < {grid.n}, got {k}")
    count, per_point = grid.num_levels**k, ""
    if kind not in BUILTIN_KINDS:
        pad = grid.n - k
        per_point = (
            f" times {grid.n}!/{pad + 1}! + {grid.n}!/{pad}! arrangements"
        )
        for m in (pad + 2, *range(pad + 2, grid.n + 1)):
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

    Both tables are symmetric, so they hold one value per ascending vector
    ``a``.  An asymmetric source is bracketed by the extreme arrangements:
    with ``pad = n - k``, upper is the maximum over the arrangements of
    ``(a[0],)*pad + a``, lower the minimum over those of ``(0,)*pad + a`` (a
    custom table has no values below the grid, so its bottom level is the
    floor).  A built-in kind reads the padded vector once, and ``pad`` zero
    bids leave its k-bidder formula, so its lower table is the built-in
    k-bidder table.
    """
    grid = table.grid
    check_supply(grid, k, table.kind)
    out_grid = BidGrid(grid.delta, grid.num_levels, k)
    pad = grid.n - k
    ascending = itertools.combinations_with_replacement(range(grid.num_levels), k)
    vectors = list(ascending)
    if table.kind in BUILTIN_KINDS:
        upper = {a: table[(a[0],) * pad + a] for a in vectors}
        lower = builtin_table(out_grid, table.kind).values.nodes
    else:
        upper = {
            a: max(table[p] for p in arrangements((a[0],) * pad + a)) for a in vectors
        }
        lower = {a: min(table[p] for p in arrangements((0,) * pad + a)) for a in vectors}
    return (
        BenchmarkTable(out_grid, SortedValues(out_grid, upper), kind="custom"),
        BenchmarkTable(out_grid, SortedValues(out_grid, lower), kind="custom"),
    )
