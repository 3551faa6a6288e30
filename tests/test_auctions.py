"""Auction profiles: revenue, worst-case ratio, and the scaling reduction."""

from fractions import Fraction

import pytest

from compauction.attainability import optimal_ratio
from compauction.auctions import (
    AuctionProfile,
    GridOverflowError,
    _argmin_largest_index,
    check_profile_valid,
    competitive_ratio,
    expected_revenue,
    scale_reduce,
)
from compauction.benchmarks import BenchmarkTable, builtin_table
from compauction.grid import BidGrid
from compauction.synthesis import synthesize, x_to_z
from tests.conftest import random_monotone_table, small_grids, two_tier_table

G22 = BidGrid(Fraction(1), 2, 2)
H = Fraction(1, 2)


def two_tier_profile() -> AuctionProfile:
    return x_to_z(synthesize(two_tier_table(), Fraction(1)))


def zero_profile(grid) -> AuctionProfile:
    return AuctionProfile(grid, [{o: {} for o in grid.others_points()}
                                 for _ in range(grid.n)])


def test_expected_revenue_worked_example():
    profile = two_tier_profile()
    assert expected_revenue(profile, (1, 1)) == Fraction(3, 2) + 2
    assert expected_revenue(profile, (0, 0)) == H + 1
    assert expected_revenue(profile, (1, 0)) == Fraction(3, 2)
    assert expected_revenue(profile, (0, 1)) == Fraction(3, 2)
    assert expected_revenue(zero_profile(G22), (1, 1)) == 0


def test_revenue_matches_revenue_tables(rng):
    for grid in small_grids():
        table = random_monotone_table(grid, rng, nonzero=True)
        revenue = synthesize(table, optimal_ratio(table).ratio)
        profile = x_to_z(revenue)
        for p in grid.points():
            assert expected_revenue(profile, p) == revenue.revenue_at(p)


def test_competitive_ratio_examples():
    profile = two_tier_profile()
    assert competitive_ratio(profile, two_tier_table()).ratio == 1
    assert competitive_ratio(profile, two_tier_table().scaled(3)).ratio == 3

    report = competitive_ratio(zero_profile(G22), builtin_table(G22, "f2"))
    assert report.unbounded and report.ratio is None
    assert report.argmax is not None

    zeros = BenchmarkTable(G22, {p: Fraction(0) for p in G22.points()})
    report = competitive_ratio(zero_profile(G22), zeros)
    assert report.ratio == 0 and not report.unbounded


def per_point_ratio(profile, table):
    """``competitive_ratio`` by its definition: ``expected_revenue`` at every
    point, in sorted order."""
    best = argmax = None
    for p in sorted(table.grid.points()):
        if table[p] == 0:
            continue
        revenue = expected_revenue(profile, p)
        if revenue == 0:
            return None, p
        if best is None or table[p] / revenue > best:
            best, argmax = table[p] / revenue, p
    return (Fraction(0), None) if best is None else (best, argmax)


def random_profile(grid, rng, keep=0.8):
    """Random offer rows, each kept with probability ``keep``; row masses
    stay at most one."""
    z = []
    for _ in range(grid.n):
        rows = {}
        for others in grid.others_points():
            if rng.random() < keep:
                levels = rng.sample(range(grid.num_levels), rng.randint(0, grid.num_levels))
                rows[others] = {t: Fraction(1, rng.randint(1, 2 * grid.num_levels))
                                for t in levels}
        z.append(rows)
    return AuctionProfile(grid, z)


@pytest.mark.parametrize("grid", small_grids() + [BidGrid(Fraction(1, 3), 4, 2)], ids=str)
def test_competitive_ratio_matches_the_per_point_definition(grid, rng):
    """Random profiles with missing and empty rows (so unbounded ratios),
    random and all-zero benchmarks, and benchmarks that tie everywhere."""
    zeros = BenchmarkTable(grid, {p: Fraction(0) for p in grid.points()})
    for _ in range(6):
        for keep in (1, 0.6):
            profile = random_profile(grid, rng, keep)
            tied = {p: 3 * expected_revenue(profile, p) for p in grid.points()}
            for table in (random_monotone_table(grid, rng, nonzero=True), zeros,
                          BenchmarkTable(grid, tied), builtin_table(grid, "f2")):
                report = competitive_ratio(profile, table)
                assert (report.ratio, report.argmax) == per_point_ratio(profile, table)


def test_competitive_ratio_reads_each_offer_row_once():
    """Profiles that offer every level: ``expected_revenue`` at each point
    reads ``n * L^n * L`` offers, a running sum per row ``n * L^n``."""
    reads = [0]

    class Counted(AuctionProfile):
        def offer_row(self, i, others):
            row = super().offer_row(i, others)
            reads[0] += 1 + len(row)
            return row

    for grid in (BidGrid(Fraction(1, 8), 16, 2), BidGrid(Fraction(1), 4, 3)):
        dense = {t: Fraction(1, grid.num_levels) for t in range(grid.num_levels)}
        z = [{o: dict(dense) for o in grid.others_points()} for _ in range(grid.n)]
        reads[0] = 0
        report = competitive_ratio(Counted(grid, z), builtin_table(grid, "f2"))
        assert (report.ratio, report.argmax) == per_point_ratio(
            AuctionProfile(grid, z), builtin_table(grid, "f2"))
        assert reads[0] <= 2 * grid.n * grid.num_levels**grid.n


def test_check_profile_valid():
    assert check_profile_valid(two_tier_profile()) == (True, None)
    assert check_profile_valid(zero_profile(G22)) == (True, None)

    overloaded = zero_profile(G22)
    overloaded.z[0][(0,)] = {0: Fraction(5, 8), 1: Fraction(5, 8)}
    ok, witness = check_profile_valid(overloaded)
    assert not ok and witness == (0, (0,))

    negative = zero_profile(G22)
    negative.z[1][(1,)] = {0: Fraction(-1, 4)}
    ok, witness = check_profile_valid(negative)
    assert not ok and witness == (1, (1,))


def _first_invalid_row_in_grid_order(profile):
    """Reference: walk every offer row of the grid, stored or not."""
    grid = profile.grid
    for i in range(grid.n):
        for others in grid.others_points():
            row = profile.offer_row(i, others)
            if any(not 0 <= t <= grid.top or not 0 <= p <= 1 for t, p in row.items()):
                return False, (i, others)
            if sum(row.values(), Fraction(0)) > 1:
                return False, (i, others)
    return True, None


def test_check_profile_valid_matches_a_grid_order_walk(rng):
    bad_rows = [{0: Fraction(3, 2)}, {1: Fraction(-1, 4)}, {5: Fraction(1, 4)},
                {0: Fraction(2, 3), 2: Fraction(2, 3)}]
    good_rows = [{}, {0: Fraction(1)}, {1: Fraction(1, 3), 2: Fraction(2, 3)}]
    for grid in (BidGrid(Fraction(1), 3, 3), BidGrid(Fraction(1, 2), 2, 4)):
        others = list(grid.others_points())
        for _ in range(40):
            z = [{} for _ in range(grid.n)]
            for i in range(grid.n):
                stored = rng.sample(others, rng.randint(0, len(others)))
                for o in stored:  # insertion order is not grid order
                    z[i][o] = dict(rng.choice(bad_rows if rng.random() < 0.2
                                              else good_rows))
                # invalid rows keyed off the grid are ignored
                z[i][(grid.num_levels,) * (grid.n - 1)] = dict(bad_rows[0])
                z[i][(0,) * grid.n] = dict(bad_rows[1])
            profile = AuctionProfile(grid, z)
            assert check_profile_valid(profile) == _first_invalid_row_in_grid_order(
                profile)


def test_argmin_tie_rule_takes_the_largest_index():
    vals = [Fraction(4), Fraction(2), Fraction(2)]
    assert _argmin_largest_index(vals) == 2
    assert _argmin_largest_index(vals, skip=2) == 1
    assert _argmin_largest_index([Fraction(1), Fraction(4), Fraction(1)]) == 2


def test_scale_reduce_worked_example():
    # inner auction on two bidders, outer bids (2, 1, 1)
    offers = scale_reduce(two_tier_profile(), [2, 1, 1])
    assert offers[0] == {Fraction(1): H, Fraction(2): H}
    assert offers[1] == {Fraction(2): Fraction(1)}
    assert offers[2] == {}  # the globally smallest bidder is skipped


def test_scale_reduce_tie_handling():
    # bids (4, 2, 2): for the first bidder the competing minimum ties and the
    # largest index wins, so the inner auction sees the rescaled bid 1
    profile = two_tier_profile()
    offers = scale_reduce(profile, [4, 2, 2])
    # first bidder: inner row at rescaled others (1,), prices scaled by 2
    assert offers[0] == {Fraction(2): H, Fraction(4): H}
    # second bidder: rescaled others (4/2)=2; offered that bid, scaled back
    assert offers[1] == {Fraction(4): Fraction(1)}
    assert offers[2] == {}


def test_scale_reduce_all_equal_bids():
    profile = two_tier_profile()
    c = Fraction(2)
    offers = scale_reduce(profile, [c, c, c])
    # every rescaled vector is all-ones; the kept bidders get the inner
    # offers at the all-ones row, scaled by c
    assert offers[0] == {c * 1: H, c * 2: H}
    assert offers[1] == {c * 1: Fraction(1)}
    assert offers[2] == {}


def test_scale_reduce_revenue_accounting(rng):
    # total revenue from the kept bidders equals the smallest bid times the
    # inner auction's revenue on the rescaled vector
    grid = BidGrid(Fraction(1), 3, 2)
    table = random_monotone_table(grid, rng, nonzero=True)
    profile = x_to_z(synthesize(table, optimal_ratio(table).ratio))
    bids = [Fraction(4), Fraction(4), Fraction(2)]
    offers = scale_reduce(profile, bids)
    total = Fraction(0)
    for i, table_i in enumerate(offers):
        for price, prob in table_i.items():
            if price <= bids[i]:
                total += price * prob
    inner_point = (1, 1)  # bids (4,4)/2 at level 1 each
    assert total == Fraction(2) * expected_revenue(profile, inner_point)


def test_scale_reduce_rejects_bad_inputs():
    profile = two_tier_profile()
    with pytest.raises(ValueError):
        scale_reduce(profile, [2, 1])  # needs n+1 bids
    with pytest.raises(ValueError):
        scale_reduce(profile, [3, 1, 1])  # off the ladder
    with pytest.raises(GridOverflowError):
        scale_reduce(profile, [8, 1, 1])  # rescaled bid above the top level
