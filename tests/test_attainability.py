"""Attainability characterization: the min-cut route, and its agreement with
the enumeration and LP oracles."""

import functools
import math
import operator
from fractions import Fraction

import pytest

from compauction import grid as grid_module
from compauction.attainability import (
    CUT_POINT_CAP,
    ClosureNetwork,
    check_attainable,
    closure_terms,
    condition_sides,
    cover_graph,
    lp_feasible,
    max_closure,
    optimal_ratio,
    optimal_ratio_lp,
    point_terms,
)
from compauction.benchmarks import BenchmarkTable, builtin_table
from compauction.grid import (
    BidGrid, DomainTooLargeError, Upset, enumerate_upsets, weight_vector,
)
from compauction.ratios import expected_benchmark_discrete
from tests.conftest import (
    is_symmetric,
    max_flow_faults,
    random_monotone_table,
    random_symmetric_monotone_table,
    scaled,
    small_grids,
    two_tier_table,
)

G22 = BidGrid(Fraction(1), 2, 2)


def zero_table(grid):
    return BenchmarkTable(grid, {p: Fraction(0) for p in grid.points()})


def test_condition_sides_examples():
    table = two_tier_table()
    lhs, rhs = condition_sides(table, Upset.full(G22))
    assert (lhs, rhs) == (2, 2)
    lhs, rhs = condition_sides(table, Upset.empty(G22))
    assert (lhs, rhs) == (0, 0)
    f2t = builtin_table(G22, "f2")
    lhs, rhs = condition_sides(f2t, Upset.of(G22, {(1, 1)}))
    assert (lhs, rhs) == (1, 1)


def test_condition_sides_rhs_positive_for_nonempty():
    table = two_tier_table()
    for s in enumerate_upsets(G22):
        _, rhs = condition_sides(table, s)
        assert (rhs > 0) == bool(s.points)


@pytest.mark.parametrize("delta", [Fraction(1), Fraction(1, 3), Fraction(5, 2)], ids=str)
@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 3), (4, 3), (17, 1)], ids=str)
def test_closure_terms_are_the_point_terms_over_one_denominator(shape, delta, rng):
    """The integer terms of every point, over ``P^((N+1) n)`` times the lcm of
    the table's denominators, are ``w(b) f(b)`` and ``point_terms``' right
    side, on built-in, random (denominators 1 to 4) and zero tables."""
    grid = BidGrid(delta, *shape)
    tables = [random_monotone_table(grid, rng) for _ in range(4)] + [zero_table(grid)]
    if grid.n > 1:
        tables += [builtin_table(grid, kind) for kind in ("f2", "maxv")]
    for table in tables:
        points, above, index, a, c, den = closure_terms(table)
        assert (points, above, index) == cover_graph(grid)
        lcm = math.lcm(*(table[p].denominator for p in points))
        assert den == grid.step[0] ** (grid.num_levels * grid.n) * lcm
        for p, x, y in zip(points, a, c):
            assert Fraction(x, den) == weight_vector(grid, p) * table[p]
            assert Fraction(y, den) == point_terms(grid, p, table[p])[1]


def test_check_attainable_two_tier():
    table = two_tier_table()
    verdict = check_attainable(table, Fraction(1))
    assert verdict.attainable and verdict.witness is None

    verdict = check_attainable(table, Fraction(9, 10))
    assert not verdict.attainable
    assert verdict.witness is not None and len(verdict.witness) > 0
    lhs, rhs = condition_sides(table, verdict.witness)
    assert lhs > Fraction(9, 10) * rhs


def test_check_attainable_zero_benchmark():
    verdict = check_attainable(zero_table(G22), Fraction(0))
    assert verdict.attainable


def test_optimal_ratio_examples():
    assert optimal_ratio(two_tier_table()).ratio == 1

    result = optimal_ratio(builtin_table(G22, "f2"))
    assert result.ratio == Fraction(5, 4)
    assert result.witness is not None
    assert result.witness.points == frozenset(G22.points())

    zero = optimal_ratio(zero_table(G22))
    assert zero.ratio == 0
    assert zero.witness is not None
    assert zero.witness.points == frozenset(G22.points())


def test_optimal_ratio_is_the_threshold(rng):
    for grid in small_grids():
        table = random_monotone_table(grid, rng, nonzero=True)
        best = optimal_ratio(table).ratio
        assert check_attainable(table, best).attainable
        assert check_attainable(table, best + Fraction(1, 97)).attainable
        if best > 0:
            assert not check_attainable(table, best * Fraction(63, 64)).attainable


def test_lp_feasible_examples():
    table = two_tier_table()
    assert lp_feasible(table, Fraction(1))
    assert not lp_feasible(table, Fraction(1, 2))
    assert lp_feasible(zero_table(G22), Fraction(0))
    assert lp_feasible(zero_table(G22), Fraction(3))


def test_optimal_ratio_lp_examples():
    assert optimal_ratio_lp(two_tier_table()) == 1
    assert optimal_ratio_lp(builtin_table(G22, "f2")) == Fraction(5, 4)
    assert optimal_ratio_lp(zero_table(G22)) == 0


def test_optimal_ratio_lp_past_the_enumeration_cap():
    # f2 on delta = 1 grids of 25, 16 and 27 points
    for levels, n, ratio in ((5, 2, Fraction(47, 32)), (2, 4, Fraction(19, 16)),
                             (3, 3, Fraction(23, 16))):
        table = builtin_table(BidGrid(Fraction(1), levels, n), "f2")
        assert optimal_ratio_lp(table) == ratio


def oracle_grids():
    """The small grids at delta 1, then again at delta 1/3 and 5/2."""
    return [BidGrid(delta, grid.num_levels, grid.n)
            for delta in (Fraction(1), Fraction(1, 3), Fraction(5, 2))
            for grid in small_grids()]


def test_cross_oracle_agreement(rng):
    for grid in oracle_grids():
        for _ in range(12):
            table = random_monotone_table(grid, rng)
            assert optimal_ratio(table).ratio == optimal_ratio_lp(table)


def test_lp_route_matches_enumeration_verdicts(rng):
    for grid in oracle_grids():
        table = random_monotone_table(grid, rng, nonzero=True)
        best = optimal_ratio(table).ratio
        for lam in (best, best * Fraction(63, 64), best * 2):
            assert lp_feasible(table, lam) == check_attainable(table, lam).attainable


def test_tight_sets_form_a_lattice(rng):
    # at the optimal ratio, tight upsets are closed under union/intersection
    for grid in small_grids():
        table = random_monotone_table(grid, rng, nonzero=True)
        lam = optimal_ratio(table).ratio
        tight = []
        for s in enumerate_upsets(grid):
            lhs, rhs = condition_sides(table, s)
            if lhs == lam * rhs:
                tight.append(s)
        assert tight  # at least the argmax and the empty set
        tights = {s.points for s in tight}
        for a in tights:
            for b in tights:
                assert a | b in tights
                assert a & b in tights


def test_witnesses_of_symmetric_tables_are_symmetric(rng):
    # the largest maximizer is unique, so it inherits every symmetry of the table
    for grid in small_grids():
        for _ in range(6):
            table = random_symmetric_monotone_table(grid, rng)
            result = optimal_ratio(table)
            assert is_symmetric(result.witness)
            if result.ratio > 0:
                verdict = check_attainable(table, result.ratio * Fraction(63, 64))
                assert is_symmetric(verdict.witness)


def test_ratio_scales_with_the_benchmark(rng):
    table = random_monotone_table(BidGrid(Fraction(1), 3, 2), rng, nonzero=True)
    base = optimal_ratio(table).ratio
    for c in (Fraction(3), Fraction(2, 7)):
        assert optimal_ratio(scaled(table, c)).ratio == c * base


def test_cut_decides_past_the_enumeration_cap(monkeypatch):
    grid = BidGrid(Fraction(1), 5, 2)  # 25 points, above the enumeration cap
    table = builtin_table(grid, "f2")
    verdict = check_attainable(table, Fraction(3))
    assert verdict.attainable
    result = optimal_ratio(table)
    assert result.ratio == Fraction(47, 32)
    lhs, rhs = condition_sides(table, result.witness)
    assert lhs == result.ratio * rhs
    assert result.ratio == optimal_ratio_lp(table)
    monkeypatch.setattr(grid_module, "DEFAULT_POINT_CAP", 25)
    enumerated = max(
        lhs / rhs
        for lhs, rhs in (condition_sides(table, s) for s in enumerate_upsets(grid))
        if rhs
    )
    assert result.ratio == enumerated


def test_cut_matches_the_known_f2_ratios():
    for levels, n, ratio in ((4, 2, Fraction(23, 16)), (2, 4, Fraction(19, 16)),
                             (3, 3, Fraction(23, 16)), (8, 2, Fraction(383, 256))):
        table = builtin_table(BidGrid(Fraction(1), levels, n), "f2")
        assert optimal_ratio(table).ratio == ratio


def _largest_maximizer(table, weight):
    """Oracle: the best weight over all upsets and the union of its maximizers."""
    scored = [(weight(*condition_sides(table, s)), s.points)
              for s in enumerate_upsets(table.grid)]
    best = max(value for value, _ in scored)
    union = frozenset().union(*(pts for value, pts in scored if value == best))
    return best, union


def test_cut_agrees_with_enumeration(rng):
    grids = small_grids() + [BidGrid(Fraction(1), 4, 2), BidGrid(Fraction(1), 2, 4),
                             BidGrid(Fraction(1, 2), 3, 1)]
    for grid in grids:
        for _ in range(8):
            table = random_monotone_table(grid, rng, nonzero=True)
            result = optimal_ratio(table)
            best, tight = _largest_maximizer(table, lambda l, r: l - result.ratio * r)
            assert best == 0 and result.witness.points == tight
            assert result.ratio == max(
                lhs / rhs
                for lhs, rhs in (condition_sides(table, s) for s in enumerate_upsets(grid))
                if rhs
            )
            for lam in (result.ratio * Fraction(63, 64), result.ratio / 2):
                verdict = check_attainable(table, lam)
                worst, union = _largest_maximizer(table, lambda l, r: l - lam * r)
                assert not verdict.attainable and verdict.witness.points == union
                lhs, rhs = condition_sides(table, verdict.witness)
                assert lhs - lam * rhs == worst > 0


def test_cut_is_exact_past_the_float_range(rng):
    # a fine ladder scales the integer capacities far beyond 1e308, where a
    # floating-point infinity could no longer absorb a push
    grid = BidGrid(Fraction(1, 10**40), 4, 2)
    for _ in range(4):
        table = random_monotone_table(grid, rng, nonzero=True)
        ratio = optimal_ratio(table).ratio
        assert ratio == max(
            lhs / rhs
            for lhs, rhs in (condition_sides(table, s) for s in enumerate_upsets(grid))
            if rhs
        )
        assert check_attainable(table, ratio).attainable
        assert not check_attainable(table, ratio * Fraction(63, 64)).attainable


def test_cut_size_bound():
    side = 33  # 33 * 33 = 1089 points
    assert side * side > CUT_POINT_CAP
    grid = BidGrid(Fraction(1), side, 2)
    table = BenchmarkTable(grid, {p: Fraction(sum(p)) for p in grid.points()})
    with pytest.raises(DomainTooLargeError):
        check_attainable(table, Fraction(2))
    with pytest.raises(DomainTooLargeError):
        optimal_ratio(table)


def _random_cover_graph(rng):
    """A small grid's cover graph, or random upward arcs on a few nodes."""
    if rng.random() < 0.5:
        levels, n = rng.choice([(2, 1), (5, 1), (2, 2), (3, 2), (2, 3), (12, 1)])
        return cover_graph(BidGrid(Fraction(1), levels, n))[1]
    size = rng.randrange(1, 11)
    return [sorted(rng.sample(range(k + 1, size), rng.randrange(0, min(3, size - k))))
            for k in range(size)]


def test_max_closure_matches_brute_force(rng):
    """Against every closed set: the maximum, the largest maximizer, the
    closed sets of the residual graph, which are exactly the maximizers, and
    the least maximizer holding each closed set."""
    for _ in range(60):
        above = _random_cover_graph(rng)
        size = len(above)
        source, sink = size, size + 1
        closed = [mask for mask in range(1 << size)
                  if all(mask >> q & 1 for k in range(size) if mask >> k & 1
                         for q in above[k])]
        a = [rng.randrange(-12, 13) for _ in range(size)]
        c = [rng.randrange(-6, 7) for _ in range(size)]
        for lam in (Fraction(0), Fraction(1), Fraction(rng.randrange(1, 9), 3),
                    Fraction(-5, 2)):
            weight = [lam.denominator * x - lam.numerator * y for x, y in zip(a, c)]
            value = {m: sum(weight[k] for k in range(size) if m >> k & 1)
                     for m in closed}
            best = max(value.values())
            maximizers = {m for m in closed if value[m] == best}
            cut = max_closure(ClosureNetwork(above), a, c, lam)
            members = sum(1 << k for k in cut.members)
            assert cut.value == best
            assert members in maximizers
            assert all(m | members == members for m in maximizers)
            residual_closed = {
                m for m in range(1 << size)
                if all(cut.reach[u] | m | 1 << source == m | 1 << source
                       for u in [source, *(k for k in range(size) if m >> k & 1)])
            }
            assert residual_closed == maximizers
            for m in closed:
                holding = [s for s in maximizers if s & m == m]
                least = cut.least_cut(*(k for k in range(size) if m >> k & 1))
                assert least == (functools.reduce(operator.and_, holding)
                                 if holding else None)


def _random_cuts(rng, size):
    """Random weight columns and ratios for ``max_closure`` on ``size`` points."""
    for _ in range(3):
        a = [rng.randrange(-12, 13) for _ in range(size)]
        c = [rng.randrange(-6, 7) for _ in range(size)]
        for lam in (Fraction(0), Fraction(1), Fraction(rng.randrange(1, 9), 3),
                    Fraction(-5, 2)):
            yield a, c, lam


def test_a_reused_network_leaks_nothing_between_cuts(rng):
    """Every cut of a graph through one network answers as a fresh network
    does, read after all of them ran."""
    for _ in range(40):
        above = _random_cover_graph(rng)
        shared = ClosureNetwork(above)
        cuts = [
            (max_closure(shared, a, c, lam), max_closure(ClosureNetwork(above), a, c, lam))
            for a, c, lam in _random_cuts(rng, len(above))
        ]
        for cut, fresh in cuts:
            assert (cut.value, cut.members) == (fresh.value, fresh.members)
            assert cut.reach == fresh.reach
            assert cut.least_cut() == fresh.least_cut()
            assert all(cut.least_cut(k) == fresh.least_cut(k) for k in range(len(above)))


def test_the_residual_capacities_are_a_maximum_flow(rng):
    """The flow on each arc, its reverse's residual, passes the certificate
    check, and one unit more on a source arc fails it."""
    mutants = 0
    for _ in range(40):
        above = _random_cover_graph(rng)
        network = ClosureNetwork(above)
        for a, c, lam in _random_cuts(rng, len(above)):
            weight = [lam.denominator * x - lam.numerator * y for x, y in zip(a, c)]
            cut = max_closure(network, a, c, lam)
            flow = [cut.residual[e ^ 1] for e in range(len(network.head))]
            assert max_flow_faults(network, flow, weight, cut.value) == []
            assert sum(weight[k] for k in cut.members) == cut.value
            for k in range(len(above)):
                flow[network.source_arc[k]] += 1
                assert max_flow_faults(network, flow, weight, cut.value)
                flow[network.source_arc[k]] -= 1
                mutants += 1
    assert mutants


@pytest.mark.parametrize("delta", [Fraction(1), Fraction(1, 3), Fraction(5, 2)], ids=str)
@pytest.mark.parametrize("kind", ["f2", "maxv"])
def test_full_grid_optimum_is_the_discrete_expectation(kind, delta):
    """Two exact routes to one optimum: when the whole grid is the witness,
    the ratio is ``E_w[f]/n`` under the discrete equal-revenue prior, since
    the full grid's right side sums the others' weights once per bidder."""
    for levels, n in ((4, 2), (3, 3), (8, 2), (2, 5)):
        grid = BidGrid(delta, levels, n)
        table = builtin_table(grid, kind)
        result = optimal_ratio(table)
        assert result.witness == Upset.full(grid)
        assert result.ratio == expected_benchmark_discrete(table) / n
