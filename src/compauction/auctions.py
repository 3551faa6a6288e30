"""Bid-independent auctions as price-offer tables, and their evaluation.

An auction is described by tables ``z_i(b_-i, p)``: the probability of
offering price ``p`` to bidder ``i`` when the others bid ``b_-i``.  Bidder
``i`` accepts iff ``p <= b_i``.  Because the table for bidder ``i`` is keyed
only by the other bids, truthfulness holds by construction.

Also here: the scaling reduction that runs an n-bidder auction on n+1 bids by
dividing out the smallest competing bid, used to lift optimal auctions for a
floor-pinned benchmark to one more bidder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from compauction.benchmarks import BenchmarkTable
from compauction.grid import BidGrid, Point


class GridOverflowError(ValueError):
    """A rescaled bid climbed past the top level of the inner grid."""


# z[i][others][level] = probability of offering that level's value to bidder i
OfferTables = list[dict[Point, dict[int, Fraction]]]


@dataclass
class AuctionProfile:
    grid: BidGrid
    z: OfferTables

    def offer_row(self, i: int, others: Point) -> dict[int, Fraction]:
        return self.z[i].get(others, {})


def expected_revenue(profile: AuctionProfile, point: Point) -> Fraction:
    """Expected revenue on one bid vector: sum of accepted offers.

    Bidder ``i`` pays an offered price ``p`` exactly when ``p <= b_i``, so the
    revenue from ``i`` is the price-weighted mass of offers at or below the
    bid.
    """
    grid = profile.grid
    total = Fraction(0)
    for i in range(grid.n):
        others = point[:i] + point[i + 1 :]
        row = profile.offer_row(i, others)
        for level, prob in row.items():
            if level <= point[i]:
                total += grid.level_value(level) * prob
    return total


@dataclass
class RatioReport:
    """Worst-case benchmark/revenue ratio; ``ratio is None`` means unbounded."""

    ratio: Fraction | None
    argmax: Point | None


def competitive_ratio(profile: AuctionProfile, table: BenchmarkTable) -> RatioReport:
    """Maximum of f(b) / expected revenue over the grid.

    Unbounded when the benchmark is positive somewhere the auction earns
    nothing.  Points with zero benchmark contribute nothing.  Each offer row
    is read once, into its revenue at every own level, so the cost is
    ``O(n * L^n)`` rather than ``expected_revenue`` at every point.
    """
    grid = profile.grid
    running: dict[tuple[int, Point], list[Fraction]] = {}
    best: Fraction | None = None
    argmax: Point | None = None
    for p in table.grid.points():  # lexicographic; a tie keeps the first
        fv = table[p]
        if fv == 0:
            continue
        rev = Fraction(0)
        for i in range(grid.n):
            key = (i, p[:i] + p[i + 1 :])
            if key not in running:
                running[key] = _running_revenue(grid, profile.offer_row(*key))
            rev += running[key][p[i]]
        if rev == 0:
            return RatioReport(ratio=None, argmax=p)
        ratio = fv / rev
        if best is None or ratio > best:
            best = ratio
            argmax = p
    if best is None:
        return RatioReport(ratio=Fraction(0), argmax=None)
    return RatioReport(ratio=best, argmax=argmax)


def _running_revenue(grid: BidGrid, row: dict[int, Fraction]) -> list[Fraction]:
    """One offer row's revenue at each own level: its offers at or below it."""
    revenue = [Fraction(0)] * grid.num_levels
    for level, prob in row.items():
        if level <= grid.top:
            revenue[level] += grid.level_value(level) * prob
    for t in range(1, grid.num_levels):
        revenue[t] += revenue[t - 1]
    return revenue


def check_profile_valid(
    profile: AuctionProfile,
) -> tuple[bool, tuple[int, Point] | None]:
    """Probability sanity: entries in [0, 1], row sums at most 1.

    Returns ``(False, (bidder, others))`` for the first offending offer row
    in grid order (bidders in turn, each one's rows lexicographically).  Only
    stored rows are visited, since an absent row is empty and valid; stored
    rows keyed off the grid are ignored.
    """
    grid = profile.grid
    if len(profile.z) != grid.n:
        return False, None
    levels = range(grid.num_levels)
    for i, rows in enumerate(profile.z):
        bad = [
            others
            for others, row in rows.items()
            if isinstance(others, tuple)
            and len(others) == grid.n - 1
            and all(t in levels for t in others)
            and not _row_valid(row, grid.top)
        ]
        if bad:
            return False, (i, min(bad))
    return True, None


def _row_valid(row: dict[int, Fraction], top: int) -> bool:
    total = Fraction(0)
    for level, prob in row.items():
        if not 0 <= level <= top or prob < 0 or prob > 1:
            return False
        total += prob
    return total <= 1


def _level_of(delta: Fraction, value: Fraction) -> int:
    """Exact ladder index of a bid value; rejects off-ladder bids."""
    step = 1 + delta
    v = Fraction(1)
    t = 0
    while v < value:
        v *= step
        t += 1
    if v != value:
        raise ValueError(f"bid {value} is not a power of {step}")
    return t


def _argmin_largest_index(values: Sequence[Fraction], skip: int | None = None) -> int:
    best = None
    for j, v in enumerate(values):
        if j == skip:
            continue
        if best is None or v <= values[best]:
            best = j
    assert best is not None
    return best


def scale_reduce(
    inner: AuctionProfile, bids: Sequence[Fraction | int]
) -> list[dict[Fraction, Fraction]]:
    """Run an n-bidder auction on n+1 bids by rescaling away the smallest.

    For each bidder ``i``, let ``i*`` be the smallest competing bid (largest
    index on ties).  Bidder ``i`` is offered ``p * b_(i*)`` where ``p`` is the
    inner auction's offer on the remaining bids divided by ``b_(i*)``.  The
    globally smallest bidder ``j*`` is skipped (no acceptable offer), matching
    the revenue accounting of the reduction: the remaining bidders alone earn
    ``b_(j*)`` times the inner auction's revenue on the rescaled vector.

    Returns one price-to-probability table per outer bidder.
    """
    grid = inner.grid
    values = [Fraction(b) for b in bids]
    if len(values) != grid.n + 1:
        raise ValueError(f"expected {grid.n + 1} bids, got {len(values)}")
    levels = [_level_of(grid.delta, v) for v in values]
    j_star = _argmin_largest_index(values)

    offers: list[dict[Fraction, Fraction]] = []
    for i in range(len(values)):
        if i == j_star:
            offers.append({})
            continue
        i_star = _argmin_largest_index(values, skip=i)
        base = levels[i_star]
        rescaled = tuple(
            levels[j] - base for j in range(len(values)) if j not in (i, i_star)
        )
        if any(t > grid.top for t in rescaled):
            raise GridOverflowError(
                f"rescaled bids {rescaled} exceed inner grid level {grid.top}"
            )
        inner_bidder = i if i < i_star else i - 1
        row = inner.offer_row(inner_bidder, rescaled)
        scale = values[i_star]
        offers.append(
            {grid.level_value(t) * scale: prob for t, prob in sorted(row.items())}
        )
    return offers
