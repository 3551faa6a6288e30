"""Constructive synthesis of an optimal truthful auction from its benchmark.

Once a benchmark ``f`` passes the attainability condition at ratio ``lam``,
a feasible solution of the revenue system exists and can be built greedily.
The working state holds a copy of ``f`` (driven down to zero), per-direction
mass budgets ``g_i(b_-i)`` (starting at 1), the accumulated revenue tables
``x_i(b_-i, t)``, and a strictly decreasing chain of upward-closed sets

    R = S_0 > S_1 > ... > S_m = empty,

where R is the support of the working ``f`` and every S_j (j >= 1) keeps the
g-weighted attainability inequality tight.  The sets are bit masks over the
grid points in lexicographic order (bit ``k`` is ``points[k]``, a node of
every cut), and an upset meets the fiber of ``b_-i`` along ``i`` exactly when
it holds the fiber's top point.  Each round picks the smallest coordinate
``i`` such that some fiber's top point lies in ``R`` but not in ``S_1`` and
its ``b_-i`` still has budget, finds the lowest level ``c_i(b_-i)`` where
``f`` is positive, and pushes mass ``eps`` onto ``x_i(b_-i, t)`` for all
``t >= c_i``.  Instead of growing ``x`` the update shrinks ``f`` by
``lam*eps`` on the same points and ``g_i`` by ``eps/c_i``, which leaves every
inequality's slack moving linearly in ``eps``.  ``eps`` grows until the first
of three boundary events, handled in this order:

* a value of ``f`` reaches zero: recompute R, intersect the chain with it,
  contract duplicates;
* a budget ``g_i`` reaches zero: pick a fresh direction;
* some set's inequality becomes tight: splice its union with ``S_1`` into the
  chain.

Both an upset's slack and its rate of change are sums of per-point terms, so
no step lists upsets: the step bound is a Dinkelbach iteration over maximum
closures of ``eps*rate - slack`` (Dinkelbach 1967, ``attainability.dinkelbach``),
and the sets a new-tight event splices into the chain are read off the
residual graph of the last closure's minimum cut (Picard and Queyranne 1980).
The state keeps the slack terms, which a step moves only on its direction's
fibers.  They start at ``g = 1``, where one cut of them decides attainability.

The state is integers over one unit ``U`` per run: ``f``, ``g``, ``x`` and the
slack terms hold ``v*U`` (``SynthesisState.exact`` reads ``v`` back), and ``U``
starts as the lcm of the start values' denominators.  The rate terms are
integers over one fixed scale ``K``: the lcm of the denominators of ``lam`` and
every ``lam*w(b)``, times the lcm of the level values' numerators, so
``lam*K`` and ``K/v(c)`` are integers too.  A step's cuts run on these columns
in the parameter ``T = eps*U/K``.  When ``T`` is not an integer, ``U`` and
every kept integer grow by its denominator; the step's updates are then all
integer arithmetic.

Each event shrinks the support, spends a budget, or grows the chain, so the
loop terminates; when ``f`` is identically zero the accumulated ``x`` solves
the revenue system at ratio ``lam`` exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from compauction.attainability import (
    CUT_POINT_CAP, Closure, cover_graph, dinkelbach, max_closure, point_terms,
)
from compauction.auctions import AuctionProfile
from compauction.benchmarks import BenchmarkTable
from compauction.grid import (
    DEFAULT_POINT_CAP, BidGrid, Point, Upset, check_size, weight_vector,
)

DEFAULT_STEP_CAP = 10**6


class NotAttainableError(ValueError):
    """The benchmark fails the attainability condition at the given ratio."""


class IterationLimitError(RuntimeError):
    """Step cap exceeded; termination is guaranteed, so this flags a bug."""


class SynthesisInvariantError(RuntimeError):
    """An internal invariant of the procedure broke; flags a bug."""


class StepEvent(Enum):
    F_ZERO = "f-zero"
    G_ZERO = "g-zero"
    NEW_TIGHT = "new-tight"


@dataclass
class SynthesisState:
    grid: BidGrid
    lam: Fraction
    f: dict[Point, int]  # f, g, x and slack hold v*unit
    g: list[dict[Point, int]]
    x: list[dict[Point, list[int]]]
    chain: list[int]  # S_0 > S_1 > ... > 0 as masks: bit k stands for points[k]
    points: list[Point]  # grid points in lexicographic order: the cut's nodes
    above: list[list[int]]  # indices of each point's covers
    index: dict[Point, int]  # each point's place in ``points``
    slack: list[int]  # each point's slack term, kept by apply_step
    unit: int  # U, which only grows
    scale: int  # K
    fall: list[int]  # each point's lam*w(b)*K
    spend: list[int]  # each level's K/v(c)

    def exact(self, value: int | Fraction) -> Fraction:
        """The exact value that a kept integer, or a sum of them, stands for."""
        return Fraction(value, self.unit)


@dataclass
class Direction:
    i: int
    members: list[Point]  # the b_-i with budget left, sorted
    cut: dict[Point, int]  # lowest level index where f is positive
    rate: dict[int, int]  # rate_shares: each moving node's term times K


@dataclass
class TightLattice:
    """Every upset whose slack reaches zero at a step's eps.

    These are the maximum closures of ``eps*rate - slack``, whose value is 0
    at the final eps, so they are the minimum cuts of the step's last closure:
    the closed sets of its residual graph that hold the source but not the
    sink (Picard and Queyranne 1980).  Sets are bit masks over the cut's
    nodes: bit ``k`` is ``points[k]``, then come the source and the sink.
    """

    grid: BidGrid
    points: list[Point]
    cut: Closure  # the step's last closure
    fibers: list[tuple[int, int]]  # (top, cut) node of each member's fiber

    @functools.cached_property
    def reach(self) -> list[int]:
        """The nodes each node reaches along residual arcs, as bit masks."""
        comp, _, comp_reach = self.cut.components
        return [comp_reach[c] for c in comp]

    def least_sets(self, free: int) -> list[int]:
        """Each least tight set ``M(p, o)`` with positive rate, in key order.

        ``M(p, o)`` is the least tight set holding point ``p`` (a bit of
        ``free``) and the top point of member fiber ``o``: what ``p`` and
        that top point reach, unless that takes in the sink, when no tight
        set holds both.  (The last closure is worth 0, so every source arc is
        saturated and the source itself reaches nothing.)  It has positive
        rate unless it also holds the fiber's cut point.  The key is
        ``(len, sorted points)``.
        """
        reach = self.reach
        source, sink = len(self.points), len(self.points) + 1
        found = set()
        for p in _bits(free):
            for top, cut in self.fibers:
                least = reach[p] | reach[top]
                if not least >> sink & 1 and not least >> cut & 1:
                    found.add(least & ~(1 << source))
        return sorted(found, key=lambda s: (s.bit_count(), list(_bits(s))))

    def listing(self) -> list[Upset]:
        """Every tight upset with positive rate, in ``enumerate_upsets`` order.

        The closed sets are built component by component, sinks first: a
        component may join a set once everything it reaches is in.  There
        can be exponentially many, so this is for trace-size grids.
        """
        _, comp_own, comp_reach = self.cut.components
        source, sink = len(self.points), len(self.points) + 1
        closed = [0]
        for own, reach in zip(comp_own, comp_reach):
            if not reach >> sink & 1:
                closed += [s | reach for s in closed if s | reach == s | own]
        tight = [
            s & ~(1 << source)
            for s in closed
            if s >> source & 1
            and any(s >> top & 1 and not s >> cut & 1 for top, cut in self.fibers)
        ]
        # enumerate_upsets decides points from the top of the grid down,
        # leaving each one out before taking it in
        index = {p: k for k, p in enumerate(self.points)}
        down = sorted(self.points, key=lambda p: (sum(p), p), reverse=True)
        tight.sort(key=lambda s: [s >> index[p] & 1 for p in down])
        return [Upset.of(self.grid, _members(self.points, s)) for s in tight]


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _members(points: list[Point], mask: int) -> list[Point]:
    """The points a mask holds, in ascending bit order, which is sorted order."""
    return [points[k] for k in _bits(mask)]


@dataclass
class StepOutcome:
    eps: Fraction
    f_hits: list[Point]
    g_hits: list[Point]
    handled: StepEvent
    tight: TightLattice

    @functools.cached_property
    def new_tight(self) -> list[Upset]:
        """The upsets that bind at eps: zero slack after the step, positive rate.

        Listed in ``enumerate_upsets`` order, for observers on trace-size grids.
        """
        return self.tight.listing()


@dataclass
class RevenueTables:
    """Per-bidder expected revenue ``x_i(b_-i, t)``, monotone in ``t``."""

    grid: BidGrid
    x: list[dict[Point, list[Fraction]]]

    def revenue_at(self, point: Point) -> Fraction:
        parts = (self.x[i][point[:i] + point[i + 1 :]][t] for i, t in enumerate(point))
        return sum(parts, Fraction(0))


def _insert_at(others: Point, i: int, t: int) -> Point:
    return others[:i] + (t,) + others[i:]


def support_upset(state: SynthesisState) -> int:
    """The mask of the points where the working benchmark is still positive."""
    return sum(1 << k for k, p in enumerate(state.points) if state.f[p] > 0)


def slack_shares(state: SynthesisState) -> list[Fraction]:
    """Each point's term ``lam*c(b) - a(b)`` of the g-weighted slack, in
    ``state.points`` order, computed from ``f`` and ``g`` as exact values.

    An upset's slack is the sum of its members' terms.
    """
    shares = []
    for p in state.points:
        a, c = point_terms(state.grid, p, state.f[p], state.g)
        shares.append(state.exact(state.lam * c - a))
    return shares


def eq_slack(state: SynthesisState, mask: int) -> int:
    """Slack ``lam * rhs - lhs`` of the g-weighted inequality for one upset,
    times the unit: the sum of the kept terms at the mask's bits."""
    return sum(state.slack[k] for k in _bits(mask))


def worst_violation(state: SynthesisState) -> Closure:
    """The largest upset of most negative g-weighted slack, by one cut.

    It is worth more than the empty set exactly when some upset violates the
    inequality.  A positive scale leaves the largest maximum closure alone,
    so at ``g = 1`` it is the witness ``check_attainable`` names.
    """
    slack = state.slack
    return max_closure(state.above, [-s for s in slack], [0] * len(slack), Fraction(0))


def layer_fibers(state: SynthesisState, upper: int, lower: int, i: int) -> list[Point]:
    """The ``b_-i`` whose fiber along ``i`` meets ``upper`` but not ``lower``.

    An upset meets a fiber exactly when it holds the fiber's top point.  The
    points come in lexicographic order, so the ``b_-i`` come out sorted.
    """
    top = state.grid.top
    layer = _members(state.points, upper & ~lower)
    return [p[:i] + p[i + 1 :] for p in layer if p[i] == top]


def pick_direction(state: SynthesisState) -> Direction:
    """Smallest coordinate with budgeted mass projecting out of S_1 only."""
    grid = state.grid
    head, second = state.chain[0], state.chain[1]
    for i in range(grid.n):
        fringe = layer_fibers(state, head, second, i)
        members = [o for o in fringe if state.g[i][o] > 0]
        if members:
            levels = range(grid.num_levels)
            cut = {
                o: next(t for t in levels if state.f[_insert_at(o, i, t)] > 0)
                for o in members
            }
            return Direction(i, members, cut, rate_shares(state, i, cut))
    raise SynthesisInvariantError("no coordinate has budgeted mass left")


def rate_shares(state: SynthesisState, i: int, cut: dict[Point, int]) -> dict[int, int]:
    """Each node's term of how fast an upset's slack shrinks per unit of eps,
    times the rate scale ``K``.

    Only the direction's fibers at or above their cuts move: each such point
    takes ``-lam * w(b_-i) * w(t)`` (the left side drops), and the fiber's top
    point, which an upset holds exactly when it meets the fiber's projection,
    also takes the right side's ``lam * w(b_-i)/c_i``, the sum of the fiber's
    terms, since the level weights at or above ``c_i`` telescope to ``1/c_i``.
    An upset's rate is the sum of its members' terms; so it is zero for every
    chain set, whose fibers above the cut are full.
    """
    index, fall = state.index, state.fall
    shares: dict[int, int] = {}
    for others, cl in cut.items():
        total = 0
        for t in range(cl, state.grid.num_levels):
            k = index[_insert_at(others, i, t)]
            shares[k] = -fall[k]
            total += fall[k]
        shares[k] += total
    return shares


def max_step(state: SynthesisState, d: Direction) -> StepOutcome:
    """Largest admissible eps and the boundary events that stop it.

    From the smaller of the f and g bounds, ``dinkelbach`` lowers eps to
    ``slack(S)/rate(S)`` of the maximum closure ``S`` of ``eps*rate - slack``
    while that closure is worth more than the empty set.  Slack is never
    negative, so the closure at the final eps is worth 0 and its minimum cuts
    are the sets that bind there; an already-tight set with positive rate
    binds at eps zero.  The cuts run in ``T = eps*U/K``, on the kept slack
    and the direction's rate as they stand.
    """
    grid, f, g, lam = state.grid, state.f, state.g[d.i], state.lam
    moving = [state.points[k] for k in sorted(d.rate)]
    drop = lam.numerator * (state.scale // lam.denominator)
    spend = {o: state.spend[d.cut[o]] for o in d.members}
    bound = min(
        Fraction(min(f[p] for p in moving), drop),
        *(Fraction(g[o], spend[o]) for o in d.members),
    )
    rate = [-d.rate.get(k, 0) for k in range(len(state.points))]
    step, cut = dinkelbach(state.above, [-s for s in state.slack], rate, bound)

    num, den = step.numerator, step.denominator
    f_hits = [p for p in moving if f[p] * den == drop * num]
    g_hits = [o for o in d.members if g[o] * den == spend[o] * num]
    handled = (StepEvent.F_ZERO if f_hits else
               StepEvent.G_ZERO if g_hits else StepEvent.NEW_TIGHT)
    index = state.index
    fibers = [
        (index[_insert_at(o, d.i, grid.top)], index[_insert_at(o, d.i, d.cut[o])])
        for o in d.members
    ]
    tight = TightLattice(grid, state.points, cut, fibers)
    eps = Fraction(num * state.scale, den * state.unit)
    return StepOutcome(eps, f_hits, g_hits, handled, tight)


def apply_step(state: SynthesisState, d: Direction, eps: Fraction) -> None:
    """Shift mass eps onto x along the direction; shrink f and g to match.

    The kept slack moves by ``-eps`` times the rate shares.  First the unit
    grows, if it must, until ``T = eps*U/K`` is an integer.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    if eps == 0:
        return
    step = eps * state.unit / state.scale
    if step.denominator > 1:  # grow U, and every kept integer, until T is whole
        factor = step.denominator
        state.unit *= factor
        state.f = {p: v * factor for p, v in state.f.items()}
        state.g = [{o: v * factor for o, v in t.items()} for t in state.g]
        state.x = [{o: [v * factor for v in r] for o, r in t.items()} for t in state.x]
        state.slack = [s * factor for s in state.slack]
    step = step.numerator
    grid, f, g, lam = state.grid, state.f, state.g[d.i], state.lam
    drop = lam.numerator * (state.scale // lam.denominator) * step
    put = state.scale * step
    for others in d.members:
        cl = d.cut[others]
        g[others] -= state.spend[cl] * step
        if g[others] < 0:
            raise SynthesisInvariantError("mass budget went negative")
        row = state.x[d.i][others]
        for t in range(cl, grid.num_levels):
            p = _insert_at(others, d.i, t)
            f[p] -= drop
            if f[p] < 0:
                raise SynthesisInvariantError("working benchmark went negative")
            row[t] += put
    for k, r in d.rate.items():
        state.slack[k] -= step * r


def handle_event(state: SynthesisState, outcome: StepOutcome) -> None:
    """Update the chain according to the event that stopped the step."""
    if outcome.handled is StepEvent.F_ZERO:
        left = state.chain[0] & ~sum(1 << state.index[p] for p in outcome.f_hits)
        rebuilt: list[int] = []
        for s in state.chain:
            s &= left
            if not rebuilt or rebuilt[-1] != s:
                rebuilt.append(s)
        state.chain = rebuilt
        return
    if outcome.handled is StepEvent.G_ZERO:
        return

    # Splice in the running unions S_1 u T_1 u T_2 ... of the new tight sets
    # T_j, taken in (len, sorted points) order.  A union that adds nothing is
    # skipped, and so is one that reaches the whole support: its rate against
    # the grown chain is 0.  Only a least set M(p, o) can add a point p, so
    # those are the only sets the lattice lists.
    head, inner = state.chain[0], state.chain[1]
    inserted = 0
    for fresh in outcome.tight.least_sets(head & ~inner):
        merged = (fresh & head) | inner
        if merged in (inner, head):
            continue
        if eq_slack(state, merged) != 0:
            raise SynthesisInvariantError("spliced tight set lost tightness")
        state.chain.insert(1, merged)
        inner = merged
        inserted += 1
    if inserted == 0:
        raise SynthesisInvariantError("tight-set event produced no chain growth")


def check_synthesis_size(grid: BidGrid, trace: bool = False) -> None:
    """Reject a grid past the cut's bound, before any cut runs.

    A trace lists every new tight set, and there can be exponentially many,
    so a traced run keeps the enumeration bound.
    """
    check_size(grid.num_levels, grid.n, CUT_POINT_CAP, "synthesis")
    if trace:
        check_size(grid.num_levels, grid.n, DEFAULT_POINT_CAP, "trace")


def synthesize(
    table: BenchmarkTable,
    lam: Fraction,
    observer: "TraceRecorder | None" = None,
    max_steps: int = DEFAULT_STEP_CAP,
    validate_steps: bool = False,
) -> RevenueTables:
    """Build revenue tables solving the system at ratio ``lam``.

    Raises :class:`DomainTooLargeError` past ``CUT_POINT_CAP`` points and
    :class:`NotAttainableError` when the benchmark fails the attainability
    condition.  ``validate_steps`` re-checks every invariant after every step
    (meant for tests).
    """
    lam = Fraction(lam)
    grid = table.grid
    check_synthesis_size(grid)
    points, above = cover_graph(grid)
    others = list(grid.others_points())
    start = [Fraction(table.values[p]) for p in points]
    terms = (point_terms(grid, p, v) for p, v in zip(points, start))
    slack = [lam * c - a for a, c in terms]
    unit = math.lcm(*(v.denominator for v in start + slack))
    falls = [lam * weight_vector(grid, p) for p in points]
    scale = math.lcm(lam.denominator, *(w.denominator for w in falls))
    scale *= math.lcm(*(v.numerator for v in grid.ladder))
    state = SynthesisState(
        grid=grid,
        lam=lam,
        f={p: int(v * unit) for p, v in zip(points, start)},
        g=[dict.fromkeys(others, unit) for _ in range(grid.n)],
        x=[{o: [0] * grid.num_levels for o in others} for _ in range(grid.n)],
        chain=[],
        points=points,
        above=above,
        index={p: k for k, p in enumerate(points)},
        slack=[int(s * unit) for s in slack],
        unit=unit,
        scale=scale,
        fall=[int(w * scale) for w in falls],
        spend=[scale // v.numerator * v.denominator for v in grid.ladder],
    )
    worst = worst_violation(state)
    if worst.value > 0:
        raise NotAttainableError(
            f"benchmark is not attainable at ratio {lam}; "
            f"witness set of size {len(worst.members)}"
        )
    state.chain = [support_upset(state), 0]
    if observer is not None:
        observer.initial(state)

    steps = 0
    while state.chain[0]:
        if steps >= max_steps:
            raise IterationLimitError(f"no termination within {max_steps} steps")
        steps += 1
        direction = pick_direction(state)
        outcome = max_step(state, direction)
        apply_step(state, direction, outcome.eps)
        handle_event(state, outcome)
        if validate_steps:
            check_invariants(state, original=table)
        if observer is not None:
            observer.step(steps, state, direction, outcome)
    if observer is not None:
        observer.finished(steps)
    x = [{o: [state.exact(v) for v in row] for o, row in t.items()} for t in state.x]
    return RevenueTables(grid, x)


def check_invariants(
    state: SynthesisState, original: BenchmarkTable | None = None
) -> None:
    """Assert every invariant the procedure promises to preserve.

    Meant for tests and debugging: the g-weighted inequality for every upset
    (one cut: no upset has positive ``-slack``), a strictly decreasing chain
    of tight upsets headed by the support, monotone non-negative working
    benchmark, budgets decreasing along each chain layer, monotone
    non-negative revenue rows, and exact accounting between the original
    benchmark, the working one, and the revenue collected.
    """
    grid = state.grid

    if [state.exact(s) for s in state.slack] != slack_shares(state):
        raise SynthesisInvariantError("kept slack differs from the recomputed one")
    worst = worst_violation(state)
    if worst.value > 0:
        violated = sorted(state.points[k] for k in worst.members)
        raise SynthesisInvariantError(f"inequality violated for {violated}")
    for j, s in enumerate(state.chain):
        if any(not s >> q & 1 for k in _bits(s) for q in state.above[k]):
            raise SynthesisInvariantError(f"chain set S_{j} is not upward closed")
        if j and eq_slack(state, s) != 0:
            raise SynthesisInvariantError(f"chain set S_{j} lost tightness")
    for a, b in zip(state.chain, state.chain[1:]):
        if b & ~a or b == a:
            raise SynthesisInvariantError("chain is not strictly decreasing")
    if state.chain and state.chain[0] != support_upset(state):
        raise SynthesisInvariantError("chain head differs from the support")

    for p, higher in zip(state.points, state.above):
        v = state.f[p]
        if v < 0:
            raise SynthesisInvariantError(f"working benchmark negative at {p}")
        if any(state.f[state.points[q]] < v for q in higher):
            raise SynthesisInvariantError("working benchmark not monotone")

    for i in range(grid.n):
        for others, val in state.g[i].items():
            if val < 0:
                raise SynthesisInvariantError(f"budget negative at i={i} {others}")
    for upper, lower in zip(state.chain, state.chain[1:]):
        for i, budget in enumerate(state.g):
            layer = layer_fibers(state, upper, lower, i)
            for a, b in ((a, b) for a in layer for b in layer if a != b):
                if all(s <= t for s, t in zip(a, b)) and budget[a] < budget[b]:
                    raise SynthesisInvariantError(
                        f"budget increases along layer at i={i}: {a} -> {b}"
                    )

    for rows in state.x:
        for row in rows.values():
            if row[0] < 0 or any(b < a for a, b in zip(row, row[1:])):
                raise SynthesisInvariantError("revenue row not monotone")

    if original is not None:
        rev = RevenueTables(grid, state.x)
        for p in grid.points():
            if original[p] != state.exact(state.f[p] + state.lam * rev.revenue_at(p)):
                raise SynthesisInvariantError(f"accounting mismatch at {p}")


def x_to_z(revenue: RevenueTables) -> AuctionProfile:
    """Differentiate revenue tables into price-offer probabilities.

    ``z_i(b_-i, t)`` is the increment of ``x_i`` at level ``t`` divided by the
    level's value; monotonicity of ``x_i`` makes the result non-negative, and
    the weighted-mass bound caps the offer mass at one.  Rebuilding ``x``
    from ``z`` is exact.
    """
    grid = revenue.grid
    z: list[dict[Point, dict[int, Fraction]]] = []
    for i in range(grid.n):
        rows: dict[Point, dict[int, Fraction]] = {}
        for others, row in revenue.x[i].items():
            prev = Fraction(0)
            offers: dict[int, Fraction] = {}
            for t, val in enumerate(row):
                if val < prev:
                    raise ValueError("revenue table is not monotone in the level")
                prob = (val - prev) / grid.level_value(t)
                if prob:
                    offers[t] = prob
                prev = val
            rows[others] = offers
        z.append(rows)
    return AuctionProfile(grid, z)


def verify_ls2(revenue: RevenueTables, table: BenchmarkTable, lam: Fraction) -> bool:
    """Exact check of all four revenue-system constraint families."""
    lam = Fraction(lam)
    grid = revenue.grid
    for p in grid.points():
        if lam * revenue.revenue_at(p) < table[p]:
            return False
    for i in range(grid.n):
        for others in grid.others_points():
            row = revenue.x[i][others]
            if row[0] < 0 or any(b < a for a, b in zip(row, row[1:])):
                return False
            if sum(w * v for w, v in zip(grid.level_weights, row)) > 1:
                return False
    return True


def _format_value(value: Fraction) -> str:
    """Integers bare, short terminating decimals as decimals, else p/q."""
    if value.denominator == 1:
        return str(value.numerator)
    for places in range(1, 7):
        if 10**places % value.denominator == 0:
            digits = abs(value.numerator) * 10**places // value.denominator
            whole, frac = divmod(digits, 10**places)
            sign = "-" if value.numerator < 0 else ""
            return f"{sign}{whole}.{str(frac).zfill(places)}"
    return f"{value.numerator}/{value.denominator}"


def _format_point(grid: BidGrid, point: Point) -> str:
    vals = ",".join(_format_value(grid.level_value(t)) for t in point)
    return f"({vals})"


def _format_others(grid: BidGrid, others: Point) -> str:
    if len(others) == 1:
        return _format_value(grid.level_value(others[0]))
    return _format_point(grid, others)


def _format_set(grid: BidGrid, points: Iterable[Point]) -> str:
    return "{" + ", ".join(_format_point(grid, p) for p in points) + "}"


class TraceRecorder:
    """Collects a step-by-step textual trace of a synthesis run.

    Grids with two bidders print as 2-D tables: rows are the second bid
    descending, columns the first bid ascending.  Larger grids fall back to
    one ``f(point) = value`` line per point.
    """

    def __init__(self, grid: BidGrid, lam: Fraction):
        check_synthesis_size(grid, trace=True)
        self.grid = grid
        delta = _format_value(grid.delta)
        self.lines: list[str] = [
            "synthesis trace",
            f"grid: delta={delta} levels={grid.num_levels} bidders={grid.n}",
            f"lambda: {_format_value(Fraction(lam))}",
        ]

    def initial(self, state: SynthesisState) -> None:
        self.lines += ["", "initial"]
        self._chain(state)
        self._tables(state)

    def step(
        self, number: int, state: SynthesisState, d: Direction, outcome: StepOutcome
    ) -> None:
        grid = self.grid
        members = ", ".join(_format_others(grid, o) for o in d.members)
        cuts = ", ".join(
            f"{_format_others(grid, o)}: {_format_value(grid.level_value(d.cut[o]))}"
            for o in d.members
        )
        self.lines += ["", f"step {number}"]
        self.lines.append(f"direction: i={d.i + 1}  T=[{members}]  c={{{cuts}}}")
        self.lines.append(f"eps: {_format_value(outcome.eps)}")
        events = []
        if outcome.f_hits:
            pts = ", ".join(_format_point(grid, p) for p in outcome.f_hits)
            events.append(f"f=0 at {pts}")
        if outcome.g_hits:
            pts = ", ".join(_format_others(grid, o) for o in outcome.g_hits)
            events.append(f"g{d.i + 1}=0 at {pts}")
        if outcome.new_tight:
            sets = ", ".join(_format_set(grid, s) for s in outcome.new_tight)
            events.append(f"new tight {sets}")
        self.lines.append("events: " + "; ".join(events))
        self._chain(state)
        self._tables(state)

    def finished(self, steps: int) -> None:
        self.lines += ["", f"done after {steps} steps"]

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def _chain(self, state: SynthesisState) -> None:
        sets = (_format_set(self.grid, _members(state.points, s)) for s in state.chain)
        self.lines.append(f"chain: {' > '.join(sets)}")

    def _tables(self, state: SynthesisState) -> None:
        grid = self.grid
        self._grid_block("f", {p: state.exact(state.f[p]) for p in grid.points()})
        for i in range(grid.n):
            row = ", ".join(
                f"{_format_others(grid, o)}: {_format_value(state.exact(v))}"
                for o, v in sorted(state.g[i].items())
            )
            self.lines.append(f"g{i + 1}: {{{row}}}")
        for i, rows in enumerate(state.x):
            table = {_insert_at(o, i, t): state.exact(v)
                     for o, row in rows.items() for t, v in enumerate(row)}
            self._grid_block(f"x{i + 1}", table)

    def _grid_block(self, name: str, values: dict[Point, Fraction]) -> None:
        grid = self.grid
        self.lines.append(f"{name}:")
        if grid.n == 2:
            cells = {p: _format_value(v) for p, v in values.items()}
            width = max(len(s) for s in cells.values())
            for b2 in range(grid.top, -1, -1):
                row = (cells[(b1, b2)].rjust(width) for b1 in range(grid.num_levels))
                self.lines.append("  " + "  ".join(row))
        else:
            for p in sorted(values):
                self.lines.append(
                    f"  {name}{_format_point(grid, p)} = {_format_value(values[p])}"
                )
