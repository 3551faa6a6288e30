"""Discrete geometric bid domains, equal-revenue weights, and upward-closed sets.

The bid domain is a geometric ladder ``{(1+delta)^t : t = 0..N}`` shared by all
``n`` bidders, so a bid vector is a tuple of level indices.  The ladder carries
a discrete equal-revenue weight: level ``t`` has mass ``delta/(1+delta)^(t+1)``
and the top level absorbs the remaining tail ``(1+delta)^(-N)``, which makes
every tail sum telescope exactly to ``(1+delta)^(-k)``.  Under this weight any
fixed posted price earns expected revenue exactly 1, which is what makes it the
worst-case prior for competitive analysis.

Vector weights are integers over ``P^((N+1) width)``, ``1 + delta = P/Q``, kept
as one ``Fraction`` per class (:func:`weight_numerator`), and tail masses are
integers over ``P^(N+1)`` (:func:`tail_numerator`).  All else here is an
exact :class:`fractions.Fraction`: tightness detection in the synthesis
procedure compares rationals for equality, so no floating point is allowed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

Point = tuple[int, ...]

DEFAULT_POINT_CAP = 16


class DomainTooLargeError(ValueError):
    """A grid has more points than the work asked of it allows."""


def check_size(num_levels: int, n: int, cap: int, purpose: str) -> None:
    """Reject a ``num_levels^n`` grid past ``cap`` points or ``cap`` bidders.

    The exponent is clipped at ``cap.bit_length()``, which already takes any
    ladder of two or more levels past ``cap``, so a huge ``n`` costs nothing.
    """
    if n > cap or num_levels ** min(n, cap.bit_length()) > cap:
        raise DomainTooLargeError(
            f"grid of {num_levels}^{n} points is above the {purpose} cap of {cap}"
        )


@dataclass(frozen=True)
class BidGrid:
    """A shared bid ladder: ``n`` bidders, levels ``(1+delta)^0 .. (1+delta)^N``.

    ``num_levels`` is N+1, so every level index lies in ``range(num_levels)``.
    Level 0 always has value 1 and values are strictly increasing.
    """

    delta: Fraction
    num_levels: int
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", Fraction(self.delta))
        if self.delta <= 0:
            raise ValueError("grid ratio delta must be positive")
        if self.num_levels < 1:
            raise ValueError("grid needs at least one level")
        if self.n < 1:
            raise ValueError("grid needs at least one bidder")

    @property
    def top(self) -> int:
        """Largest level index N."""
        return self.num_levels - 1

    def level_value(self, t: int) -> Fraction:
        """Bid value ``(1+delta)^t`` at level index ``t``."""
        if not 0 <= t <= self.top:
            raise ValueError(f"level index {t} outside [0, {self.top}]")
        return self.ladder[t]

    @functools.cached_property
    def ladder(self) -> tuple[Fraction, ...]:
        """Every level value ``(1+delta)^t``, computed once per grid."""
        return tuple((1 + self.delta) ** t for t in range(self.num_levels))

    @functools.cached_property
    def step(self) -> tuple[int, int]:
        """``(P, Q)`` with ``1 + delta = P/Q`` in lowest terms."""
        return (1 + self.delta).as_integer_ratio()

    @functools.cached_property
    def level_weights(self) -> tuple[Fraction, ...]:
        """Equal-revenue mass of every level, computed once per grid.

        ``delta/(1+delta)^(t+1)`` below the top; the top level takes the whole
        remaining tail ``(1+delta)^(-N)`` so the masses sum to 1.
        """
        return tuple(_product_weight(self, (t,), 1) for t in range(self.num_levels))

    @functools.cached_property
    def weight_classes(self) -> dict[tuple[int, int, int], Fraction]:
        """Product weights by ``(width, level sum, top count)``, filled on use."""
        return {}

    def points(self) -> Iterator[Point]:
        """All bid vectors, lexicographically."""
        return itertools.product(range(self.num_levels), repeat=self.n)

    def others_points(self) -> Iterator[Point]:
        """All (n-1)-dimensional vectors of the remaining bidders."""
        return itertools.product(range(self.num_levels), repeat=self.n - 1)


def weight_level(grid: BidGrid, t: int) -> Fraction:
    """Equal-revenue mass of ladder level ``t`` (see ``BidGrid.level_weights``)."""
    if not 0 <= t <= grid.top:
        raise ValueError(f"level index {t} outside [0, {grid.top}]")
    return grid.level_weights[t]


def weight_vector(grid: BidGrid, point: Point) -> Fraction:
    """Product weight of a full bid vector; sums to 1 over the whole grid."""
    return _product_weight(grid, point, grid.n)


def weight_others(grid: BidGrid, others: Point) -> Fraction:
    """Product weight of an (n-1)-dimensional vector of the other bidders."""
    return _product_weight(grid, others, grid.n - 1)


def weight_numerator(grid: BidGrid, width: int, s: int, m: int) -> int:
    """Weight of ``width`` levels, sum ``s``, ``m`` on top, over ``P^((N+1) width)``.

    Over ``P^(N+1)`` the level weights are ``(P-Q) Q^t P^(N-t)`` below the
    top ``N`` and ``Q^N P`` at it, so their product depends on ``(s, m)`` only.
    """
    P, Q = grid.step
    return (P - Q) ** (width - m) * Q**s * P ** (width * grid.top - s + m)


def tail_numerator(grid: BidGrid, k: int) -> int:
    """Mass of all levels >= k over ``P^(N+1)``: ``Q^k P^(N+1-k)``, 0 at ``k = N+1``.

    The masses telescope, so this is ``(1+delta)^(-k)`` on the denominator of
    :func:`weight_numerator` at width 1.
    """
    if not 0 <= k <= grid.num_levels:
        raise ValueError(f"level index {k} outside [0, {grid.num_levels}]")
    if k == grid.num_levels:
        return 0
    P, Q = grid.step
    return Q**k * P ** (grid.num_levels - k)


def _product_weight(grid: BidGrid, levels: Point, width: int) -> Fraction:
    if len(levels) != width:
        raise ValueError(f"expected {width} coordinates, got {len(levels)}")
    if levels and not 0 <= min(levels) <= max(levels) <= grid.top:
        raise ValueError(f"level index outside [0, {grid.top}] in {levels}")
    key = (width, sum(levels), levels.count(grid.top))
    weight = grid.weight_classes.get(key)
    if weight is None:
        den = grid.step[0] ** (grid.num_levels * width)
        weight = grid.weight_classes[key] = Fraction(weight_numerator(grid, *key), den)
    return weight


def covers(point: Point, top: int) -> Iterator[Point]:
    """The points one level above ``point`` in a single coordinate."""
    for j, t in enumerate(point):
        if t < top:
            yield point[:j] + (t + 1,) + point[j + 1 :]


def orbit_size(point: Point) -> int:
    """Number of distinct arrangements of ``point``: ``n!/prod m_t!``.

    ``m_t`` counts the coordinates at level ``t``.  Walking the sorted
    coordinates, the ``i``-th one (from 1) multiplies in ``i`` and divides
    out its place ``r`` within its run of equal levels, so the running value
    is always the multinomial of the prefix.
    """
    key = sorted(point)
    size = run = 1
    for i in range(1, len(key)):
        run = run + 1 if key[i] == key[i - 1] else 1
        size = size * (i + 1) // run
    return size


def arrangements(point: Point) -> Iterator[Point]:
    """Every distinct arrangement of ``point`` once, lexicographically.

    Knuth's Algorithm L (TAOCP vol. 4A, 7.2.1.2) steps a sorted vector to
    its lexicographic successor.  Equal coordinates never trade places, so
    a vector with repeated levels yields ``orbit_size`` tuples and no
    ``n!`` intermediate is built.
    """
    a = sorted(point)
    while True:
        yield tuple(a)
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        m = len(a) - 1
        while a[j] >= a[m]:
            m -= 1
        a[j], a[m] = a[m], a[j]
        a[j + 1 :] = a[:j:-1]


def is_upward_closed(points: Iterable[Point], num_levels: int) -> bool:
    """True iff the set is closed under raising any coordinate by one level."""
    pts = frozenset(points)
    return all(q in pts for p in pts for q in covers(p, num_levels - 1))


@dataclass(frozen=True)
class Upset:
    """An upward-closed set of bid vectors on a ``num_levels^n`` grid.

    Stored as a full membership set rather than its minimal antichain.  This
    is the form in which attainability witnesses leave the solvers and in
    which the enumeration oracle lists upsets, a trace's new tight sets among
    them; the cuts and the synthesis chain keep bit masks over the grid
    points instead.  Closure is checked on construction.
    """

    num_levels: int
    n: int
    points: frozenset[Point] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", frozenset(self.points))
        for p in self.points:
            if len(p) != self.n or not all(0 <= t < self.num_levels for t in p):
                raise ValueError(f"point {p} outside the grid")
        if not is_upward_closed(self.points, self.num_levels):
            raise ValueError("set is not upward closed")

    @classmethod
    def of(cls, grid: BidGrid, points: Iterable[Point]) -> "Upset":
        return cls(grid.num_levels, grid.n, frozenset(points))

    @classmethod
    def full(cls, grid: BidGrid) -> "Upset":
        return cls(grid.num_levels, grid.n, frozenset(grid.points()))

    @classmethod
    def empty(cls, grid: BidGrid) -> "Upset":
        return cls(grid.num_levels, grid.n, frozenset())

    def __contains__(self, point: Point) -> bool:
        return point in self.points

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(sorted(self.points))


def project(upset: Upset, i: int) -> frozenset[Point]:
    """Projection along coordinate ``i``: drop that coordinate from each member.

    For an upward-closed set this equals exactly the slices that still contain
    the top level in coordinate ``i``.
    """
    if not 0 <= i < upset.n:
        raise ValueError(f"coordinate {i} outside [0, {upset.n - 1}]")
    return frozenset(p[:i] + p[i + 1 :] for p in upset.points)


def enumerate_upsets(grid: BidGrid) -> list[Upset]:
    """Every upward-closed subset of the grid, exactly once, in a fixed order.

    Points are decided from the top of the grid down; a point may enter only
    when all its upward covers are already in.  The empty set comes first and
    the full grid last.  Past ``DEFAULT_POINT_CAP`` points it raises
    :class:`DomainTooLargeError`.
    """
    check_size(grid.num_levels, grid.n, DEFAULT_POINT_CAP, "enumeration")
    order = sorted(grid.points(), key=lambda p: (sum(p), p), reverse=True)
    results: list[Upset] = []
    members: set[Point] = set()

    def walk(idx: int) -> None:
        if idx == len(order):
            results.append(Upset(grid.num_levels, grid.n, frozenset(members)))
            return
        p = order[idx]
        walk(idx + 1)
        if all(q in members for q in covers(p, grid.top)):
            members.add(p)
            walk(idx + 1)
            members.remove(p)

    walk(0)
    return results
