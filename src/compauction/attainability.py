"""Deciding whether a benchmark admits a given competitive ratio.

A non-negative monotone benchmark ``f`` admits a truthful auction with
competitive ratio ``lam`` exactly when, for every upward-closed set ``S`` of
bid vectors,

    sum_{b in S} w(b) f(b)  <=  lam * sum_i sum_{b_-i in S|i} w(b_-i),

where ``w`` is the equal-revenue product weight and ``S|i`` is the projection
of ``S`` along coordinate ``i``.  Both sides are sums of per-point terms (see
``point_terms``), so the worst upset at ``lam`` is a maximum-weight closure,
found by one s-t minimum cut (Picard 1976) pushed by Dinic's blocking flows,
and the optimal ratio is a Dinkelbach iteration over such cuts
(``dinkelbach``, which synthesis runs for its step bound too).  Upset
enumeration and an exact simplex on the revenue linear system stay as
independent oracles for the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from compauction import lp
from compauction.benchmarks import BenchmarkTable
from compauction.grid import (
    BidGrid,
    DomainTooLargeError,
    Point,
    Upset,
    check_size,
    covers,
    tail_numerator,
    weight_numerator,
    weight_others,
    weight_vector,
)

CUT_POINT_CAP = 1024
# Bits of ``F``, the lcm of a cut's value denominators (``closure_terms``),
# the bound ``serialize.MAX_LADDER_BITS`` puts on a value.  A built-in table's
# ``F`` divides ``Q^N``, at most 2048 bits under that bound, and so does that
# of every table ``reduce`` derives from one.
MAX_SCALE_BITS = 2**12
DEFAULT_LP_VARIABLE_CAP = 192


@dataclass
class Verdict:
    """Outcome of an attainability check."""

    attainable: bool
    lam: Fraction
    witness: Upset | None


@dataclass
class RatioResult:
    """Optimal ratio together with the largest upset attaining it."""

    ratio: Fraction
    witness: Upset
    method: ClassVar[str] = "cut"  # the only route; perfbench's trace reads it


def point_terms(
    grid: BidGrid, point: Point, value: Fraction
) -> tuple[Fraction, Fraction]:
    """One point's terms ``(w(b) f(b), sum_{i: b_i = top} w(b_-i))``.

    Summed over the members of an upset they give both sides of the
    inequality, because ``S|i`` holds exactly one member per ``b_-i`` with
    ``b_i`` at the top.
    """
    rhs = Fraction(0)
    for i, t in enumerate(point):
        if t == grid.top:
            rhs += weight_others(grid, point[:i] + point[i + 1 :])
    return weight_vector(grid, point) * value, rhs


def condition_sides(table: BenchmarkTable, upset: Upset) -> tuple[Fraction, Fraction]:
    """Both sides of the characterization inequality for one upset.

    Returns ``(lhs, rhs_base)`` where the inequality reads
    ``lhs <= lam * rhs_base``.  Both are zero for the empty set and
    ``rhs_base`` is positive otherwise.
    """
    terms = [point_terms(table.grid, p, table.values[p]) for p in upset.points]
    zero = Fraction(0)
    return sum((a for a, _ in terms), zero), sum((c for _, c in terms), zero)


def check_cut_size(grid: BidGrid) -> None:
    """Reject a grid past ``CUT_POINT_CAP`` points."""
    check_size(grid.num_levels, grid.n, CUT_POINT_CAP, "cut")


def check_lp_size(grid: BidGrid) -> None:
    """Reject a grid whose revenue system has more than
    ``DEFAULT_LP_VARIABLE_CAP`` increments ``d_i(b_-i, s)``, ``n * levels^n``
    of them.  The ratio LP has one variable more, the ratio itself, so it
    admits up to ``DEFAULT_LP_VARIABLE_CAP + 1`` variables: 193 on 4x3."""
    check_size(grid.num_levels, grid.n, DEFAULT_LP_VARIABLE_CAP // grid.n, "LP")


def cover_graph(grid: BidGrid) -> tuple[list[Point], list[list[int]], dict[Point, int]]:
    """Grid points in lexicographic order, the indices of each one's covers,
    and each point's index.

    These are the nodes and the uncuttable arcs of every closure on the grid.
    """
    points = list(grid.points())
    index = {p: k for k, p in enumerate(points)}
    return points, [[index[q] for q in covers(p, grid.top)] for p in points], index


def closure_terms(
    table: BenchmarkTable,
) -> tuple[list[Point], list[list[int]], dict[Point, int], list[int], list[int], int]:
    """``cover_graph``, and ``point_terms`` as integers over ``den``.

    ``den = P^((N+1) n) F``, with ``F`` the lcm of the table's denominators.
    Each of the ``m`` top coordinates of a point leaves the others in one
    weight class, so ``c`` is ``m`` times one :func:`weight_numerator`.
    ``F`` past ``MAX_SCALE_BITS`` raises :class:`DomainTooLargeError` before
    any term is built.
    """
    grid = table.grid
    check_cut_size(grid)
    points, above, index = cover_graph(grid)
    values = [table.values[p] for p in points]
    scale = 1
    for d in {v.denominator for v in values}:
        scale = math.lcm(scale, d)
        if scale.bit_length() > MAX_SCALE_BITS:
            raise DomainTooLargeError(f"denominators' lcm above {MAX_SCALE_BITS} bits")
    lift = scale * grid.step[0] ** grid.num_levels  # P^(N+1) F
    a, c = [], []
    for p, v in zip(points, values):
        s, m = sum(p), p.count(grid.top)
        w = weight_numerator(grid, grid.n, s, m)
        a.append(w * v.numerator * scale // v.denominator)
        others = weight_numerator(grid, grid.n - 1, s - grid.top, m - 1) if m else 0
        c.append(m * lift * others)
    den = scale * grid.step[0] ** (grid.num_levels * grid.n)
    return points, above, index, a, c, den


class ClosureNetwork:
    """The flow network of every closure on one cover graph, built once.

    Nodes ``0..size-1`` are the points, then come the source and the sink.
    Arc ``e`` runs into ``head[e]``, and arc ``e ^ 1`` is its reverse, so
    ``head[e ^ 1]`` is its tail.  Each point has a source arc, a sink arc and
    an arc to each of its covers in ``above``; ``arcs[u]`` lists the arcs out
    of node ``u``, reverses included, in the order the flow search tries
    them.  A cut only writes a fresh list of capacities.
    """

    def __init__(self, above: list[list[int]]) -> None:
        self.size, self.above = len(above), above
        self.head: list[int] = []
        self.arcs: list[list[int]] = [[] for _ in range(len(above) + 2)]
        self.source_arc, self.sink_arc, self.cover_arcs = [], [], []
        for k, covers in enumerate(above):
            self.source_arc.append(self._arc(self.size, k))
            self.sink_arc.append(self._arc(k, self.size + 1))
            self.cover_arcs.append([self._arc(k, q) for q in covers])

    def _arc(self, u: int, v: int) -> int:
        e = len(self.head)
        self.head += (v, u)
        self.arcs[u].append(e)
        self.arcs[v].append(e + 1)
        return e


@dataclass
class Closure:
    """A largest maximum-weight closure and the residual capacities of its cut.

    ``residual[e]`` is what the maximum flow leaves on arc ``e`` of
    ``network``, whose reverse is arc ``e ^ 1``, so the flow on an arc is its
    reverse's residual.  The source sides of the minimum cuts are exactly the
    closed sets of the residual graph (arcs with capacity left) that hold the
    source but not the sink, so the residual graph answers questions about
    all maximum closures at once (Picard and Queyranne 1980).
    """

    value: int
    members: list[int]
    network: ClosureNetwork
    residual: list[int]

    @functools.cached_property
    def reach(self) -> list[int]:
        """The nodes each node reaches along residual arcs, as bit masks.

        Tarjan's algorithm emits strongly connected components sinks first,
        so each component reaches its own nodes and whatever its successors
        reach.
        """
        head, residual = self.network.head, self.residual
        succ = [[head[e] for e in arcs if residual[e] > 0] for arcs in self.network.arcs]
        order = [-1] * len(succ)
        low = [0] * len(succ)
        comp = [-1] * len(succ)
        comp_reach: list[int] = []
        stack: list[int] = []
        visited = 0
        for root in range(len(succ)):
            if order[root] >= 0:
                continue
            work = [(root, 0)]
            order[root] = low[root] = visited
            visited += 1
            stack.append(root)
            while work:
                u, i = work[-1]
                if i < len(succ[u]):
                    work[-1] = (u, i + 1)
                    v = succ[u][i]
                    if order[v] < 0:
                        order[v] = low[v] = visited
                        visited += 1
                        stack.append(v)
                        work.append((v, 0))
                    elif comp[v] < 0:  # still on the stack
                        low[u] = min(low[u], order[v])
                    continue
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[u])
                if low[u] == order[u]:
                    members, mask = [], 0
                    while not members or members[-1] != u:
                        w = stack.pop()
                        comp[w] = len(comp_reach)
                        members.append(w)
                        mask |= 1 << w
                    for w in members:
                        for v in succ[w]:
                            if comp[v] != comp[u]:
                                mask |= comp_reach[comp[v]]
                    comp_reach.append(mask)
        return [comp_reach[k] for k in comp]

    def least_cut(self, *nodes: int) -> int | None:
        """The least maximum closure holding the given points, as a mask over
        the points: the least closed set of the residual graph through them and
        the source, less the source, or ``None`` if that takes in the sink."""
        reach, source = self.reach, self.network.size
        least = reach[source]
        for k in nodes:
            least |= reach[k]
        return None if least >> (source + 1) & 1 else least & ~(1 << source)


def max_closure(
    network: ClosureNetwork, a: list[int], c: list[int], lam: Fraction
) -> Closure:
    """Largest upset maximizing ``a - lam*c``, that maximum (scaled), and the cut.

    A point of positive weight gets that capacity on its source arc, one of
    negative weight gets it on its sink arc, and each cover arc gets a
    capacity no minimum cut can take: it exceeds all the source arcs
    together, so every flow value stays exact at any magnitude.  The
    maximum flow is pushed by Dinic's blocking flows (Dinic 1970): each phase
    ranks the nodes by breadth-first distance from the source and saturates
    every shortest path by depth-first search, so there are at most as many
    phases as nodes.  The points that cannot reach the sink in the residual
    graph then form the largest maximum-weight closure.  That set, and the
    residual graph's closed sets that hold the source but not the sink (the
    minimum cuts), are the same for every maximum flow.
    """
    num, den = lam.numerator, lam.denominator
    weight = [den * x - num * y for x, y in zip(a, c)]
    head, arcs, nodes = network.head, network.arcs, len(network.arcs)
    source, sink = network.size, network.size + 1
    uncut = 1 + sum(w for w in weight if w > 0)
    residual = [0] * len(head)
    for k, w in enumerate(weight):
        if w > 0:
            residual[network.source_arc[k]] = w
        elif w < 0:
            residual[network.sink_arc[k]] = -w
        for e in network.cover_arcs[k]:
            residual[e] = uncut
    while True:
        # Rank by breadth-first distance until the sink is ranked: nothing
        # else at or past its rank lies on a shortest path.
        level = [-1] * nodes
        level[source] = 0
        queue = [source]
        for u in queue:
            rank = level[u] + 1
            for e in arcs[u]:
                if residual[e] and level[head[e]] < 0:
                    level[head[e]] = rank
                    queue.append(head[e])
            if level[sink] >= 0:
                break
        if level[sink] < 0:
            break
        # Depth-first search along arcs one rank down, each node keeping its
        # place in its arc list; a node with no way on leaves the ranking, and
        # after a push the path is cut back to the tail of its first
        # saturated arc.
        at = [0] * nodes
        path, hops = [source], []
        while path:
            u = path[-1]
            if u == sink:
                push = min([residual[e] for e in hops])
                for e in hops:
                    residual[e] -= push
                    residual[e ^ 1] += push
                first = next(k for k, e in enumerate(hops) if not residual[e])
                del path[first + 1 :], hops[first:]
                continue
            out, rank = arcs[u], level[u] + 1
            for k in range(at[u], len(out)):
                e = out[k]
                if residual[e] and level[head[e]] == rank:
                    at[u] = k
                    hops.append(e)
                    path.append(head[e])
                    break
            else:
                level[u] = -1
                path.pop()
                del hops[-1:]  # the arc into u, if u is not the source
    drains, queue = {sink}, [sink]
    for v in queue:
        for e in arcs[v]:  # e runs from v to u, and e ^ 1 back
            u = head[e]
            if u not in drains and residual[e ^ 1] > 0:
                drains.add(u)
                queue.append(u)
    members = [k for k in range(network.size) if k not in drains]
    return Closure(sum(weight[k] for k in members), members, network, residual)


def check_attainable(table: BenchmarkTable, lam: Fraction) -> Verdict:
    """Decide lam-attainability by one minimum cut.

    On violation the witness is the largest upset of maximum violation.
    Grids above ``CUT_POINT_CAP`` points raise :class:`DomainTooLargeError`.
    """
    lam = Fraction(lam)
    points, above, _, a, c, _ = closure_terms(table)
    cut = max_closure(ClosureNetwork(above), a, c, lam)
    if cut.value <= 0:
        return Verdict(attainable=True, lam=lam, witness=None)
    witness = Upset.of(table.grid, (points[k] for k in cut.members))
    return Verdict(attainable=False, lam=lam, witness=witness)


def dinkelbach(
    network: ClosureNetwork, a: list[int], c: list[int], lam: Fraction
) -> tuple[Fraction, Closure]:
    """Dinkelbach's iteration over maximum closures (Dinkelbach 1967).

    Cut at ``lam``; while the largest maximum closure ``S`` of ``a - lam*c``
    is worth more than the empty set, set ``lam = a(S)/c(S)``, which makes
    ``S`` worth 0, and cut again.  Returns the final ``lam`` and its closure,
    worth 0, whose minimum cuts are the sets ``S`` with ``a(S) = lam*c(S)``.
    """
    while True:
        cut = max_closure(network, a, c, lam)
        if cut.value <= 0:
            return lam, cut
        lam = Fraction(sum(a[k] for k in cut.members), sum(c[k] for k in cut.members))


def optimal_ratio(table: BenchmarkTable) -> RatioResult:
    """Smallest attainable ratio: the maximum of lhs/rhs over nonempty upsets.

    Dinkelbach's iteration from the ratio of the full grid.  Each move raises
    ``lam``, so it ends, and the witness is the largest upset attaining the
    ratio (the full grid for a zero benchmark).
    """
    points, above, _, a, c, _ = closure_terms(table)
    lam, cut = dinkelbach(ClosureNetwork(above), a, c, Fraction(sum(a), sum(c)))
    return RatioResult(lam, Upset.of(table.grid, (points[k] for k in cut.members)))


def _variable_index(grid) -> dict[tuple[int, Point, int], int]:
    index: dict[tuple[int, Point, int], int] = {}
    for i in range(grid.n):
        for others in grid.others_points():
            for t in reversed(range(grid.num_levels)):
                index[(i, others, t)] = len(index)
    return index


def _revenue_system(
    table: BenchmarkTable, lam: Fraction | None
) -> tuple[list[list[Fraction]], list[Fraction], int]:
    """The revenue system ``A_ub v <= b_ub`` and its number of variables.

    Each bidder's expected revenue ``x_i(b_-i, t)`` must cover ``f`` at rate
    ``lam``, keep weighted mass at most one along each direction, and be
    non-negative and monotone in the bidder's own level.  The variables are
    its increments ``d_i(b_-i, s) >= 0``, with
    ``x_i(b_-i, t) = sum_{s <= t} d_i(b_-i, s)``.  This change of variables is
    unimodular, and ``d >= 0`` holds exactly when ``x`` is non-negative and
    monotone, so the system is equivalent to the one in ``x`` without any
    monotonicity rows.  The mass along a direction,
    ``sum_t w(t) x_i(b_-i, t)``, becomes ``sum_s W(s) d_i(b_-i, s)`` with the
    tail weight ``W(s) = sum_{t >= s} w(t)``, :func:`tail_numerator` over
    ``P^(N+1)``.  With ``lam = None`` the ratio becomes variable 0 and the
    others are ``lam * d_i``: they cover ``f`` outright while their weighted
    mass stays below ``lam``.  Bland's rule enters the lowest-index improving
    column, so the order of the variables sets the pivot path: each
    ``(i, b_-i)`` block lists its increments from the top level down, those
    of least mass ``W(s)`` first, and the ratio LP on f2 10x2 takes 559 pivots
    where the order from level 0 up took 2366.
    """
    grid = table.grid
    check_lp_size(grid)
    index = _variable_index(grid)
    offset = 1 if lam is None else 0
    cover = Fraction(-1) if lam is None else -lam
    den = tail_numerator(grid, 0)
    tails = [Fraction(tail_numerator(grid, s), den) for s in range(grid.num_levels)]
    nvars = len(index) + offset
    A_ub: list[list[Fraction]] = []
    b_ub: list[Fraction] = []

    def new_row() -> list[Fraction]:
        return [Fraction(0)] * nvars

    for p in grid.points():
        row = new_row()
        for i in range(grid.n):
            others = p[:i] + p[i + 1 :]
            for s in range(p[i] + 1):
                row[offset + index[(i, others, s)]] = cover
        A_ub.append(row)
        b_ub.append(-table[p])
    for i in range(grid.n):
        for others in grid.others_points():
            row = new_row()
            if lam is None:
                row[0] = Fraction(-1)
            for s, tail in enumerate(tails):
                row[offset + index[(i, others, s)]] = tail
            A_ub.append(row)
            b_ub.append(Fraction(0) if lam is None else Fraction(1))
    return A_ub, b_ub, nvars


def lp_feasible(table: BenchmarkTable, lam: Fraction) -> bool:
    """Exact feasibility of the revenue linear system at ratio ``lam``."""
    A_ub, b_ub, nvars = _revenue_system(table, Fraction(lam))
    return lp.solve_lp([0] * nvars, A_ub, b_ub).status != lp.LPStatus.INFEASIBLE


def optimal_ratio_lp(table: BenchmarkTable) -> Fraction:
    """Optimal ratio by exact LP.

    Substituting ``y_i = lam * x_i`` into the revenue system makes the ratio a
    genuine linear objective: minimize ``lam``, which is variable 0.
    """
    A_ub, b_ub, nvars = _revenue_system(table, None)
    cost = [Fraction(0)] * nvars
    cost[0] = Fraction(1)
    result = lp.solve_lp(cost, A_ub, b_ub)
    if result.status != lp.LPStatus.OPTIMAL:  # pragma: no cover - always feasible
        raise RuntimeError(f"ratio LP ended with status {result.status}")
    assert result.objective is not None
    return result.objective
