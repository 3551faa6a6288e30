"""Closed-form ratios, tail laws, sampling, and exact grid expectations."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from compauction.benchmarks import (
    BenchmarkTable,
    SortedValues,
    builtin_table,
    f2,
    maxv,
)
from compauction.grid import BidGrid, weight_vector
from compauction.ratios import (
    NETWORK_MAX_BIDDERS,
    EqualRevenueSampler,
    bids_from_uniform,
    builtin_tail,
    check_gn_tight,
    expected_benchmark_discrete,
    expected_maxv,
    f2_statistic,
    f_nk_tail,
    f_nk_tail_recursive,
    gamma_n,
    lambda_n,
    maxv_statistic,
    maxv_tail,
    mc_expected,
    merge_exchange_network,
)
from tests.conftest import (
    random_monotone_table,
    random_symmetric_monotone_table,
    sample_bids,
    small_grids,
    two_tier_table,
)


def test_lambda_n_small_values():
    assert lambda_n(2) == 2
    assert lambda_n(3) == Fraction(13, 6)
    # n=4 by hand: 1 + 3/2 - 9/32 + 1/48 over a common denominator
    assert lambda_n(4) == Fraction(215, 96)
    with pytest.raises(ValueError):
        lambda_n(1)


def test_gamma_n_small_values():
    assert gamma_n(2) == 1
    assert gamma_n(3) == Fraction(5, 4)
    assert gamma_n(4) == Fraction(37, 27)
    with pytest.raises(ValueError):
        gamma_n(1)


def test_lambda_sequence_increases_to_its_plateau():
    values = [lambda_n(n) for n in range(2, 201)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert Fraction(24, 10) < values[-1] < Fraction(244, 100)


def test_gamma_sequence_increases_toward_e_minus_one():
    values = [gamma_n(n) for n in range(2, 60)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert abs(float(gamma_n(1000)) - (math.e - 1)) < 1e-2


def test_f_nk_tail_examples():
    for n, k in [(1, 0), (2, 3), (4, 2)]:
        assert f_nk_tail(n, k, n + k - 1) == 1
    assert f_nk_tail(0, 2, 100) == 0
    assert f_nk_tail(2, 0, 3) == Fraction(1, 9)
    with pytest.raises(ValueError):
        f_nk_tail(2, 1, 1)
    with pytest.raises(ValueError):
        f_nk_tail(-1, 0, 5)


def test_f_nk_tail_recursion_examples():
    assert f_nk_tail_recursive(1, 1, 2) == Fraction(1, 2)
    assert f_nk_tail(1, 1, 2) == Fraction(1, 2)
    assert f_nk_tail_recursive(0, 3, 9) == 0
    assert f_nk_tail_recursive(3, 0, 5) == f_nk_tail(3, 0, 5)


def test_tail_recursion_identity_exact():
    for n in range(1, 7):
        for k in range(0, 5):
            base = n + k - 1
            for j in range(20):
                z = Fraction(base) + Fraction(j, 4) + Fraction(1, 8)
                assert f_nk_tail(n, k, z) == f_nk_tail_recursive(n, k, z)


def test_tails_are_probabilities():
    for n in range(1, 6):
        for k in range(0, 4):
            for j in range(15):
                z = n + k - 1 + Fraction(j, 3)
                assert 0 <= f_nk_tail(n, k, z) <= 1


def test_maxv_tail_examples():
    assert maxv_tail(3, 2) == 1
    assert maxv_tail(5, 3) == 1
    assert maxv_tail(3, 3) == Fraction(11, 27)
    assert maxv_tail(2, 2) == Fraction(1, 4)
    assert maxv_tail(4, 10**6) < Fraction(1, 10**7)
    with pytest.raises(ValueError):
        maxv_tail(1, 5)


def test_expected_maxv_values_and_identity():
    assert expected_maxv(2) == 2
    assert expected_maxv(3) == Fraction(15, 4)
    for n in range(2, 51):
        assert expected_maxv(n) == n * gamma_n(n)


def test_maxv_tail_integrates_to_the_expectation():
    # quadrature of the tail law is an independent oracle for the closed
    # form; u = 1/z maps the slow z^-2 tail onto a finite smooth interval.
    # The cutoff at 1e-30 discards less than 1e-28 of mass (the transformed
    # integrand is bounded by ~n^2 there) and dodges the 1 - (1 - O(u))
    # cancellation that exceeds any fixed working precision as u -> 0.
    for n in range(2, 7):
        with mpmath.workdps(60):

            def integrand(u, n=n):
                z = 1 / u
                return (1 - (z - n + 1) * (z + 1) ** (n - 1) / z**n) / u**2

            cut = mpmath.mpf(10) ** -30
            integral = mpmath.quad(integrand, [cut, mpmath.mpf(1) / (n - 1)])
            total = (n - 1) + integral
        assert abs(float(total) - float(expected_maxv(n))) < 1e-6


def test_inverse_cdf_examples():
    assert bids_from_uniform(1.0) == 1.0
    assert bids_from_uniform(0.25) == 4.0
    with pytest.raises(ValueError):
        bids_from_uniform(0.0)
    with pytest.raises(ValueError):
        bids_from_uniform(1.5)


def test_sampler_reproducible_and_in_range():
    a = EqualRevenueSampler(4, seed=11)
    b = EqualRevenueSampler(4, seed=11)
    assert np.array_equal(a.sample(100), b.sample(100))
    draw = sample_bids(EqualRevenueSampler(3, seed=5))
    assert draw.shape == (3,)
    assert np.all(draw >= 1)


def test_sampler_tail_frequency():
    sampler = EqualRevenueSampler(1, seed=123)
    draws = sampler.sample(10**6).ravel()
    frac = float(np.mean(draws > 10))
    sigma = math.sqrt(0.1 * 0.9 / 10**6)
    assert abs(frac - 0.1) <= 3 * sigma


def test_statistics_match_formulas():
    bids = np.array([[4.0, 2.0, 2.0], [4.0, 2.0, 1.0], [1.0, 1.0, 1.0]])
    assert list(f2_statistic(bids)) == [float(f2([4, 2, 2])), 4.0, 3.0]
    assert list(maxv_statistic(bids)) == [4.0, float(maxv([4, 2, 1])), 2.0]


def _reference_statistics(row):
    """f2 and maxv of one row, from its bids sorted in descending order."""
    ordered = sorted(row, reverse=True)
    n = len(ordered)
    return (
        max(k * ordered[k - 1] for k in range(2, n + 1)),
        max(k * ordered[k] for k in range(1, n)),
    )


@pytest.mark.parametrize(
    "n", sorted({*range(2, 13), NETWORK_MAX_BIDDERS, NETWORK_MAX_BIDDERS + 1, 256})
)
def test_statistics_equal_a_per_row_reference(n):
    # values from a small set, so rows carry ties; products and maxima are
    # exact float operations, so the vectorized rows must match bit for bit
    # on both sides of the network's crossover
    rng = np.random.default_rng(n)
    bids = rng.choice([1.0, 1.25, 2.0, 3.5, 1 / 0.3], size=(60, n))
    bids[::7] = 2.0  # rows of one repeated value
    # the sampler's extremes: 1/1 and 1/2^-53
    bids[3::9] = rng.choice([1.0, 2.0**53], size=bids[3::9].shape)
    bids[5, 0] = 2.0**53
    before = bids.copy()
    expected = [_reference_statistics(row) for row in bids.tolist()]
    assert f2_statistic(bids).tolist() == [f for f, _ in expected]
    assert maxv_statistic(bids).tolist() == [v for _, v in expected]
    assert np.array_equal(bids, before)


def test_merge_exchange_network_sorts_every_zero_one_input():
    # a comparator network sorts every input iff it sorts every 0-1 input
    # (Knuth 5.3.4, Theorem Z); bit w of keys[j] is key j of the 0-1 input w,
    # so AND and OR compare-exchange all 2^n inputs at once
    sizes = {2: 1, 3: 3, 4: 5, 5: 9, 8: 19, 12: 41}
    for n in range(2, NETWORK_MAX_BIDDERS + 1):
        keys = []
        for j in range(n):
            word, width = ((1 << (1 << j)) - 1) << (1 << j), 2 << j
            while width < 1 << n:
                word, width = word | word << width, 2 * width
            keys.append(word)
        network = merge_exchange_network(n)
        for i, j in network:
            keys[i], keys[j] = keys[i] & keys[j], keys[i] | keys[j]
        assert all(low & ~high == 0 for low, high in zip(keys, keys[1:])), n
        assert len(network) == sizes.get(n, len(network)), n


@pytest.mark.parametrize("stat", [f2_statistic, maxv_statistic])
def test_statistics_need_two_bidders(stat):
    with pytest.raises(ValueError):
        stat(np.full((4, 1), 2.0))
    with pytest.raises(ValueError):
        mc_expected(stat, 1, 100, 10)


def test_mc_expected_constant_statistic():
    est, err = mc_expected(lambda b: np.full(len(b), 7.25), 2, 1000, 10, seed=3)
    assert est == 7.25 and err == 0.0


def test_mc_expected_deterministic_and_validated():
    a = mc_expected(f2_statistic, 2, 20_000, 20, seed=9)
    b = mc_expected(f2_statistic, 2, 20_000, 20, seed=9)
    assert a == b
    with pytest.raises(ValueError):
        mc_expected(f2_statistic, 2, 5, 10)
    with pytest.raises(ValueError):
        mc_expected(f2_statistic, 2, 0, 0)


def test_mc_expected_tracks_the_closed_forms():
    est, _ = mc_expected(f2_statistic, 3, 200_000, 50, seed=17)
    assert abs(est - float(lambda_n(3) * 3)) / float(lambda_n(3) * 3) < 0.05
    est, _ = mc_expected(maxv_statistic, 3, 200_000, 50, seed=17)
    assert abs(est - float(expected_maxv(3))) / float(expected_maxv(3)) < 0.05
    # the hand-frozen lambda_4 value agrees with the sampler as well
    est, _ = mc_expected(f2_statistic, 4, 200_000, 50, seed=17)
    target = float(Fraction(215, 96) * 4)
    assert abs(est - target) / target < 0.05


def test_expected_benchmark_discrete_examples():
    assert expected_benchmark_discrete(two_tier_table()) == 2
    grid = BidGrid(Fraction(1), 2, 2)
    const = BenchmarkTable(grid, {p: Fraction(5, 3) for p in grid.points()})
    assert expected_benchmark_discrete(const) == Fraction(5, 3)


def _direct_sum(table: BenchmarkTable) -> Fraction:
    """Oracle: accumulate weight * value one point at a time."""
    grid = table.grid
    return sum(
        (weight_vector(grid, p) * table[p] for p in grid.points()), Fraction(0)
    )


def test_expected_benchmark_discrete_against_direct_sum(rng):
    for grid in small_grids():
        table = random_monotone_table(grid, rng)
        assert expected_benchmark_discrete(table) == _direct_sum(table)
    # symmetric tables with orbits of up to 3! and 4! arrangements, stored
    # as dicts and one value per sorted vector as SortedValues
    for grid in (BidGrid(Fraction(1), 3, 3), BidGrid(Fraction(1, 2), 3, 4)):
        for _ in range(5):
            table = random_symmetric_monotone_table(grid, rng)
            nodes = {
                key: table[key]
                for key in itertools.combinations_with_replacement(range(3), grid.n)
            }
            by_node = BenchmarkTable(grid, SortedValues(grid, nodes))
            direct = _direct_sum(table)
            assert expected_benchmark_discrete(table) == direct
            assert expected_benchmark_discrete(by_node) == direct
    # built-in kinds go by their tail law, custom copies point by point; the
    # workload's 121x2 grid skips the point-by-point oracle
    for delta, levels, n in ((Fraction(2, 7), 4, 2), (Fraction(5, 2), 3, 3),
                             (Fraction(2, 7), 3, 4), (Fraction(5, 2), 4, 3),
                             (Fraction(1, 2), 4, 5), (Fraction(1, 2), 3, 6),
                             (Fraction(1, 8), 30, 2), (Fraction(1, 10), 121, 2)):
        grid = BidGrid(delta, levels, n)
        for kind in ("f2", "maxv"):
            table = builtin_table(grid, kind)
            if levels == 121:
                custom = BenchmarkTable(grid, table.values, kind="custom")
                assert expected_benchmark_discrete(table) == (
                    expected_benchmark_discrete(custom)
                )
                continue
            direct = _direct_sum(table)
            assert expected_benchmark_discrete(table) == direct
            # the same values under the custom kind, shared and copied out
            for values in (table.values, dict(table.values)):
                custom = BenchmarkTable(grid, values, kind="custom")
                assert expected_benchmark_discrete(custom) == direct


def test_builtin_tail_needs_a_builtin_kind_and_two_bidders():
    with pytest.raises(ValueError):
        builtin_tail(BidGrid(Fraction(1), 3, 2), "custom")
    with pytest.raises(ValueError):
        builtin_tail(BidGrid(Fraction(1), 3, 1), "f2")


@pytest.mark.parametrize(
    "grid",
    [BidGrid(Fraction(1, 3), 5, 3), BidGrid(Fraction(5, 2), 3, 4),
     BidGrid(Fraction(2, 7), 6, 2), BidGrid(Fraction(1, 2), 4, 5),
     BidGrid(Fraction(1, 2), 3, 6), BidGrid(Fraction(1, 8), 30, 2)],
    ids=str,
)
def test_check_gn_tight_against_direct_sums(grid):
    n = grid.n
    base = builtin_table(grid, "f2")
    pinned = {p: max(Fraction(n + 1), base[p]) for p in grid.points()}
    rest = {p: max(Fraction(0), n + 1 - base[p]) for p in grid.points()}
    report = check_gn_tight(n, grid)
    assert report.g_sum == _direct_sum(BenchmarkTable(grid, pinned))
    assert report.h_sum == _direct_sum(BenchmarkTable(grid, rest))


def test_check_gn_tight_coarse_grid_is_diagnostic_only():
    report = check_gn_tight(2, BidGrid(Fraction(1), 2, 2))
    assert report.g_target == lambda_n(3) * 2
    assert report.h_target == Fraction(1, 3)
    assert report.g_sum > 0 and report.h_sum >= 0
    with pytest.raises(ValueError):
        check_gn_tight(3, BidGrid(Fraction(1), 2, 2))


def _h_sum_one_dimensional(delta: Fraction, levels: int) -> Fraction:
    """Oracle for n=2: the complement depends only on min(b1,b2), whose tail
    under the product weight is (1+delta)^(-2k)."""
    q = 1 / (1 + delta)
    total = Fraction(0)
    for k in range(levels):
        v = (1 + delta) ** k
        h = max(Fraction(0), 3 - 2 * v)
        if h == 0:
            break
        tail_here = q ** (2 * k)
        tail_next = q ** (2 * (k + 1)) if k < levels - 1 else Fraction(0)
        total += h * (tail_here - tail_next)
    return total


def test_gn_tight_matches_one_dimensional_oracle():
    grid = BidGrid(Fraction(1, 10), 151, 2)
    report = check_gn_tight(2, grid)
    assert report.h_sum == _h_sum_one_dimensional(Fraction(1, 10), 151)


def test_h_sum_error_halves_with_the_grid_step():
    # the discrete complement overshoots its continuous target at first order
    # in the step; halving delta halves the error
    coarse = _h_sum_one_dimensional(Fraction(1, 10), 150) - Fraction(1, 3)
    fine = _h_sum_one_dimensional(Fraction(1, 20), 300) - Fraction(1, 3)
    assert coarse > fine > 0
    assert fine < Fraction(6, 10) * coarse
