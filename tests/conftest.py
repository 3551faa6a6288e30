"""Shared fixtures: tiny grids, random monotone benchmarks, brute oracles,
and the synthesis invariant checker."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from compauction.attainability import max_closure
from compauction.benchmarks import BenchmarkTable
from compauction.grid import (
    BidGrid, Upset, is_upward_closed, weight_others, weight_vector,
)
from compauction.ratios import EqualRevenueSampler
from compauction.serialize import FormatError, _point_from_doc
from compauction.synthesis import (
    RevenueTables,
    SynthesisInvariantError,
    SynthesisState,
    _bits,
    eq_slack,
    layer_fibers,
    support_upset,
)


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


def scaled(table: BenchmarkTable, c) -> BenchmarkTable:
    """The benchmark ``c * f`` on the same grid."""
    c = Fraction(c)
    return BenchmarkTable(table.grid, {p: c * v for p, v in table.values.items()})


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
        if is_upward_closed(subset, grid.num_levels):
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


def max_flow_faults(network, flow: list[int], weight: list[int], value: int) -> list[str]:
    """Why ``flow`` is not a maximum flow of the closure network of ``weight``.

    ``flow[e]`` is the flow on arc ``e`` of ``network``; only the source,
    sink and cover arcs are read, not their reverses.  The flow must stay
    within the capacities ``max_closure`` gives, be conserved at every point,
    and be worth ``sum(w+) - value``.  Then no closure weighs more than
    ``value`` (max-flow/min-cut duality), so a closure that weighs ``value``
    is a maximum one and the flow a maximum flow: an empty list certifies
    both without the solver.
    """
    positive = sum(w for w in weight if w > 0)
    capacity = {}
    for k, w in enumerate(weight):
        capacity[network.source_arc[k]] = max(w, 0)
        capacity[network.sink_arc[k]] = max(-w, 0)
        capacity.update(dict.fromkeys(network.cover_arcs[k], 1 + positive))
    faults = [f"arc {e} carries {flow[e]} of {cap}"
              for e, cap in capacity.items() if not 0 <= flow[e] <= cap]
    net = [0] * (network.size + 2)
    for e in capacity:
        net[network.head[e]] += flow[e]
        net[network.head[e ^ 1]] -= flow[e]
    faults += [f"point {k} gains {d}" for k, d in enumerate(net[:network.size]) if d]
    if net[network.size + 1] != positive - value:
        faults.append(f"flow {net[network.size + 1]} is not {positive} - {value}")
    return faults


def slack_shares(state: SynthesisState) -> list[Fraction]:
    """Each point's term ``lam*c(b) - a(b)`` of the g-weighted slack, in
    ``state.points`` order, computed from ``f`` and ``g`` as exact values.

    ``a(b) = w(b) f(b)`` and ``c(b)`` sums ``g_i(b_-i) w(b_-i)`` over the
    coordinates ``i`` at the top level; an upset's slack is the sum of its
    members' terms.  It is the oracle for the slack synthesis keeps.
    """
    grid, shares = state.grid, []
    for p in state.points:
        c = Fraction(0)
        for i, t in enumerate(p):
            if t == grid.top:
                others = p[:i] + p[i + 1 :]
                c += state.g[i][others] * weight_others(grid, others)
        shares.append(state.exact(state.lam * c - weight_vector(grid, p) * state.f[p]))
    return shares


def check_invariants(
    state: SynthesisState, original: BenchmarkTable | None = None
) -> None:
    """Assert every invariant the procedure promises to preserve.

    The g-weighted inequality for every upset (one cut: no upset has
    positive ``-slack``), a strictly decreasing chain of tight upsets headed
    by the support, monotone non-negative working benchmark, budgets
    decreasing along each chain layer, monotone non-negative revenue rows,
    and exact accounting between the original benchmark, the working one,
    and the revenue collected.
    """
    grid = state.grid

    if [state.exact(s) for s in state.slack] != slack_shares(state):
        raise SynthesisInvariantError("kept slack differs from the recomputed one")
    slack = state.slack  # the largest upset of most negative slack
    worst = max_closure(state.network, [-s for s in slack], [0] * len(slack), Fraction(0))
    if worst.value > 0:
        violated = sorted(state.points[k] for k in worst.members)
        raise SynthesisInvariantError(f"inequality violated for {violated}")
    for j, s in enumerate(state.chain):
        if any(not s >> q & 1 for k in _bits(s) for q in state.network.above[k]):
            raise SynthesisInvariantError(f"chain set S_{j} is not upward closed")
        if j and eq_slack(state, s) != 0:
            raise SynthesisInvariantError(f"chain set S_{j} lost tightness")
    for a, b in zip(state.chain, state.chain[1:]):
        if b & ~a or b == a:
            raise SynthesisInvariantError("chain is not strictly decreasing")
    if state.chain and state.chain[0] != support_upset(state):
        raise SynthesisInvariantError("chain head differs from the support")

    for p, higher in zip(state.points, state.network.above):
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


class Validating:
    """Synthesis observer that runs ``check_invariants`` after set-up and
    after every step, then forwards each call to ``inner``."""

    def __init__(self, original: BenchmarkTable, inner=None):
        self.original, self.inner = original, inner

    def initial(self, state):
        check_invariants(state, self.original)
        if self.inner is not None:
            self.inner.initial(state)

    def step(self, number, state, direction, outcome):
        check_invariants(state, self.original)
        if self.inner is not None:
            self.inner.step(number, state, direction, outcome)

    def finished(self, steps):
        if self.inner is not None:
            self.inner.finished(steps)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240815)
