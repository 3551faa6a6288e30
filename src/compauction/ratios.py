"""Optimal ratios in closed form and their distributional cross-checks.

Under the equal-revenue prior (``Pr[v > x] = 1/x`` on ``[1, inf)``, i.i.d.
across bidders) every truthful auction earns expected revenue exactly ``n``,
so the expectation of a benchmark divided by ``n`` lower-bounds its
competitive ratio.  For the two built-in benchmarks those expectations have
closed forms:

* fixed-price with two winners:
  ``lambda_n = 1 - sum_{i=2..n} (-1/n)^(i-1) * i/(i-1) * C(n-1, i-1)``,
* best k-item Vickrey: ``gamma_n = (n/(n-1))^(n-1) - 1``.

The Vickrey expectation comes from the tail law of the order-statistic
maxima ``F_{n,k} = max_i (k+i-1) V_i``, which satisfies both a recursion and
a closed form; keeping the two independent provides an identity test.  The
module also carries a seeded sampler, a median-of-means estimator robust to
the heavy upper tails, and exact rational benchmark expectations over
discrete grids for refinement tests.  On a grid the built-ins have the
discrete form of that tail law (:func:`builtin_tail`): a dynamic program
over nested level bins gives ``Pr[f >= z]`` in integers at each of the at
most ``(n-1) L`` values ``f`` takes, and every exact grid expectation of a
built-in is summed from it; other tables are summed point by point.  The
sampled statistics sort short bid vectors with Batcher's merge-exchange
network, one ``np.minimum`` and one ``np.maximum`` over whole columns per
comparator, and longer ones with ``np.sort``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from compauction.benchmarks import BUILTIN_KINDS, BenchmarkTable, builtin_ladder
from compauction.grid import BidGrid, Point, tail_numerator, weight_numerator

if TYPE_CHECKING:  # at run time only the sampler's functions import NumPy
    import numpy as np


def lambda_n(n: int) -> Fraction:
    """Optimal ratio of the fixed-price benchmark, exact.

    The alternating sum cancels catastrophically in floating point, so every
    term is an exact rational.
    """
    if n < 2:
        raise ValueError("need at least two bidders")
    total = Fraction(1)
    for i in range(2, n + 1):
        term = (
            Fraction(-1, n) ** (i - 1) * Fraction(i, i - 1) * math.comb(n - 1, i - 1)
        )
        total -= term
    return total


def gamma_n(n: int) -> Fraction:
    """Optimal ratio of the best k-item Vickrey benchmark, exact."""
    if n < 2:
        raise ValueError("need at least two bidders")
    return Fraction(n, n - 1) ** (n - 1) - 1


def f_nk_tail(n: int, k: int, z: Fraction | int | float) -> Fraction:
    """Closed-form tail ``Pr[max_i (k+i-1) V_i >= z]`` under the prior.

    Defined for ``z >= n+k-1`` (below that the event is certain); ``n = 0``
    is the empty maximum, whose tail is zero everywhere.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be non-negative")
    if n == 0:
        return Fraction(0)
    z = Fraction(z)
    if z < n + k - 1:
        raise ValueError(f"tail defined for z >= {n + k - 1}, got {z}")
    if z == n + k - 1:
        return Fraction(1)
    return 1 - (z - n - k + 1) * (z + 1 - k) ** (n - 1) / z**n


def f_nk_tail_recursive(n: int, k: int, z: Fraction | int | float) -> Fraction:
    """The same tail by its recursion; an independent identity check.

    Conditioning on the largest index ``i`` whose scaled order statistic
    clears ``z`` gives
    ``Pr[F_{n,k} >= z] = sum_i C(n,i) ((k+i-1)/z)^i Pr[F_{n-i,k+i} < z]``
    with the empty maximum as the base case.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be non-negative")
    z = Fraction(z)
    if n > 0 and z < n + k - 1:
        raise ValueError(f"tail defined for z >= {n + k - 1}, got {z}")

    @lru_cache(maxsize=None)
    def tail(m: int, j: int) -> Fraction:
        if m == 0:
            return Fraction(0)
        # every node of the recursion shares the floor m+j-1 = n+k-1, where
        # the event is certain; below it the scaled order statistics cannot
        # all fit and the recursion's z-powers are meaningless
        if z == m + j - 1:
            return Fraction(1)
        total = Fraction(0)
        for i in range(1, m + 1):
            total += (
                math.comb(m, i)
                * Fraction(j + i - 1, 1) ** i
                / z**i
                * (1 - tail(m - i, j + i))
            )
        return total

    return tail(n, k)


def maxv_tail(n: int, z: Fraction | int | float) -> Fraction:
    """Tail of the Vickrey benchmark under the prior; 1 below its floor n-1."""
    if n < 2:
        raise ValueError("need at least two bidders")
    z = Fraction(z)
    if z <= n - 1:
        return Fraction(1)
    return f_nk_tail(n, 0, z)


def expected_maxv(n: int) -> Fraction:
    """Exact ``E[maxV]`` under the prior: ``n (n/(n-1))^(n-1) - n``."""
    if n < 2:
        raise ValueError("need at least two bidders")
    return n * Fraction(n, n - 1) ** (n - 1) - n


def bids_from_uniform(
    u: np.ndarray | float, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse CDF of the prior: ``u`` on (0, 1] maps to ``v = 1/u >= 1``.

    ``out=u`` maps a drawn buffer in place.  NaN is outside (0, 1] too.
    """
    import numpy as np

    arr = np.asarray(u, dtype=float)
    if not (arr.min(initial=1.0) > 0 and arr.max(initial=1.0) <= 1):
        raise ValueError("uniform draws must lie in (0, 1]")
    return np.divide(1.0, arr, out=out)


@dataclass
class EqualRevenueSampler:
    """Seeded i.i.d. sampler of the equal-revenue prior via inverse CDF."""

    n: int
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one bidder")
        import numpy as np

        self._rng = np.random.default_rng(self.seed)

    def sample(self, size: int) -> np.ndarray:
        """``size`` bid vectors as a ``(size, n)`` array of floats >= 1."""
        import numpy as np

        u = self._rng.random((size, self.n))
        np.subtract(1.0, u, out=u)  # uniform on (0, 1]
        return bids_from_uniform(u, out=u)


@lru_cache(maxsize=None)
def merge_exchange_network(n: int) -> tuple[tuple[int, int], ...]:
    """Batcher's merge-exchange sort of ``n`` keys as compare-exchange pairs.

    Knuth, TAOCP vol. 3, 5.2.2, Algorithm M.  Applying each ``(i, j)`` in
    order, with the smaller key to ``i`` and the larger to ``j``, sorts any
    input ascending; the pairs within one pass of ``d`` are disjoint.
    """
    if n < 2:
        return ()
    pairs: list[tuple[int, int]] = []
    t = (n - 1).bit_length()
    p = 1 << (t - 1)
    while p > 0:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            pairs += [(i, i + d) for i in range(n - d) if i & p == r]
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return tuple(pairs)


# Widest rows ``_max_scaled_bid`` sorts by the network.  Each comparator is
# two passes over whole columns where ``np.sort(axis=1)`` pays per row.  On
# 20,000-row blocks (2 cores, medians of 60 alternating calls) the network
# took 4.4 ms against the sort's 4.8 ms at n = 24, the two tied at 25, and
# the sort won from 26 on (4.4 ms against 5.1 ms).
NETWORK_MAX_BIDDERS = 24


def _max_scaled_bid(bids: np.ndarray, top: int) -> np.ndarray:
    """Row maxima of ``(top - j) * s_j``, ``j < n-1``, ``s`` the row sorted ascending.

    Exact float products and maxima, so the reduction order keeps the bits.
    Up to ``NETWORK_MAX_BIDDERS`` bidders the columns are copied out and
    sorted by ``merge_exchange_network``, each comparator one ``np.minimum``
    and one ``np.maximum`` over whole columns; these only move values within
    a row, so the sorted columns equal ``np.sort``'s.  Wider rows are sorted
    row by row.
    """
    import numpy as np

    n = bids.shape[1]
    if n < 2:
        raise ValueError("need at least two bidders")
    if n <= NETWORK_MAX_BIDDERS:
        cols = list(bids.T.copy())  # one contiguous row per bidder
        spare = np.empty_like(cols[0])
        for i, j in merge_exchange_network(n):
            np.minimum(cols[i], cols[j], out=spare)
            np.maximum(cols[i], cols[j], out=cols[j])
            cols[i], spare = spare, cols[i]
        best = np.multiply(cols[0], top, out=cols[0])
        for j in range(1, n - 1):
            np.maximum(best, np.multiply(cols[j], top - j, out=cols[j]), out=best)
        return best
    scaled = np.sort(bids, axis=1)[:, :-1]
    scaled *= np.arange(top, top - n + 1, -1)
    return np.max(scaled, axis=1)


def f2_statistic(bids: np.ndarray) -> np.ndarray:
    """Fixed-price benchmark ``max k * b_(k)``, k >= 2, of each row sorted ascending."""
    return _max_scaled_bid(bids, bids.shape[1])


def maxv_statistic(bids: np.ndarray) -> np.ndarray:
    """Vickrey benchmark ``max k * b_(k+1)``, k < n, of each row sorted ascending."""
    return _max_scaled_bid(bids, bids.shape[1] - 1)


def mc_expected(
    stat: Callable[[np.ndarray], np.ndarray],
    n: int,
    samples: int,
    blocks: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Median-of-means estimate of ``E[stat]`` under the prior.

    The benchmark statistics have finite mean but heavy upper tails, so the
    plain sample mean is fragile; the median over independent blocks is not.
    Returns ``(estimate, error)`` with a MAD-based standard error (zero for a
    constant statistic).  Deterministic for a fixed seed: each block draws
    from its own generator spawned from the seed.
    """
    if not samples >= blocks >= 1:
        raise ValueError("need samples >= blocks >= 1")
    import numpy as np

    block_size = samples // blocks
    seeds = np.random.SeedSequence(seed).spawn(blocks)
    means = np.empty(blocks)
    for b, s in enumerate(seeds):
        bids = EqualRevenueSampler(n, seed=s).sample(block_size)
        means[b] = float(np.mean(stat(bids)))
    estimate = float(np.median(means))
    mad = float(np.median(np.abs(means - estimate)))
    error = 1.4826 * mad / math.sqrt(blocks)
    return estimate, error


def _weighted_sum(
    grid: BidGrid, terms: Iterable[tuple[Point, int]], den: int
) -> Fraction:
    """``sum w(b) c / den`` over the ``(b, c)`` pairs of ``terms``.

    ``w(b)`` depends only on the level sum and top count of ``b``
    (:func:`compauction.grid.weight_numerator`), so the numerators are added
    up per class, fewer than ``(n N + 1)(n + 1)`` of them, and each class is
    multiplied by its weight once.
    """
    n, N = grid.n, grid.top
    classes: dict[tuple[int, int], int] = {}
    for point, c in terms:
        cls = (sum(point), point.count(N))
        classes[cls] = classes.get(cls, 0) + c
    total = sum(weight_numerator(grid, n, s, m) * c for (s, m), c in classes.items())
    return Fraction(total, grid.step[0] ** ((N + 1) * n) * den)


class GridTail(NamedTuple):
    """Exact tail law ``Pr[f >= z]`` of a benchmark ``f`` on a grid.

    ``values`` lists, ascending, every value ``f`` takes (and possibly
    more), as integers over ``value_den``; ``tails[j]`` is
    ``Pr[f >= values[j]]`` as an integer over ``tail_den``.
    """

    values: list[int]
    tails: list[int]
    value_den: int
    tail_den: int

    def expect(self, phi: Callable[[int], int] = lambda z: z) -> Fraction:
        """``E[phi(f)]``, with ``phi`` taking numerators over ``value_den`` to same.

        ``f`` takes only ``values``, so summing by parts gives
        ``phi(0) + sum_j (phi(z_j) - phi(z_(j-1))) Pr[f >= z_j]``, ``z_0 = 0``.
        """
        last = phi(0)
        total = last * self.tail_den
        for z, tail in zip(self.values, self.tails):
            step = phi(z)
            total += (step - last) * tail
            last = step
        return Fraction(total, self.value_den * self.tail_den)


def builtin_tail(grid: BidGrid, kind: str) -> GridTail:
    """Tail law of a built-in benchmark on ``grid``, from its order statistics.

    Both built-ins read the bids only through their order:
    ``f = max_k m_k b_(k)``, ``k = 2..n``, with ``b_(k)`` the k-th largest
    bid and ``m_k = k`` for f2, ``k-1`` for maxv
    (:func:`compauction.benchmarks.builtin_ladder`).  So ``f`` takes only the
    values ``m_k v(t)``, at most ``(n-1) L`` of them, and ``f >= z`` iff for
    some ``k`` at least ``k`` bids reach ``tau_k``, the lowest level with
    ``m_k v(tau_k) >= z`` (``N+1`` if none).  ``tau_k`` falls as ``k``
    grows, so the levels split into the nested bins ``[tau_2, N]``,
    ``[tau_3, tau_2)``, ..., ``[tau_n, tau_(n-1))`` and the rest below
    ``tau_n``; ``f < z`` iff, for every ``k``, bins ``2..k`` hold at most
    ``k-1`` bids.  A dynamic program over the bins counts the bids placed so
    far, ``c <= k-1`` after bin ``k``, adding ``a`` of them to a bin of mass
    ``p`` with factor ``C(n-c, a) p^a``; then ``Pr[f < z]`` is
    ``sum_c dp[c] rest^(n-c)``.  Each ``tau_k`` only rises with ``z``, so
    one pointer per ``k`` walks the ladder once.  Bin masses are integers
    over ``P^(N+1)`` (differences of :func:`compauction.grid.tail_numerator`),
    so the tail is over ``P^((N+1) n)`` and the values, on the integer ladder
    ``P^t Q^(N-t)``, over ``Q^N``: ``O(n^3 L)`` integer products in all.
    """
    ladder, multipliers, value_den = builtin_ladder(grid, kind)
    n, N = grid.n, grid.top
    above = [tail_numerator(grid, t) for t in range(N + 2)]
    values = sorted({m * v for m in multipliers for v in ladder})
    whole = above[0] ** n
    tau = [0] * (n + 1)
    tails = []
    for z in values:
        dp, upper = [1], N + 1
        for k, m in enumerate(multipliers, start=2):
            while tau[k] <= N and m * ladder[tau[k]] < z:
                tau[k] += 1
            p, upper = above[tau[k]] - above[upper], tau[k]
            if p:
                powers = [1]
                for _ in range(k - 1):
                    powers.append(powers[-1] * p)
                placed = [0] * k
                for c, count in enumerate(dp):
                    for a in range(k - c):
                        placed[c + a] += count * math.comb(n - c, a) * powers[a]
                dp = placed
        rest, below = above[0] - above[upper], 0
        for count in dp:  # Horner's rule for sum_c dp[c] rest^(len(dp) - 1 - c)
            below = below * rest + count
        tails.append(whole - below * rest ** (n + 1 - len(dp)))
    return GridTail(values, tails, value_den, whole)


def expected_benchmark_discrete(table: BenchmarkTable) -> Fraction:
    """Exact grid expectation ``sum_b w(b) f(b)`` under the discrete prior.

    A built-in ``table.kind`` is summed from its tail law
    (:func:`builtin_tail`) over at most ``(n-1) L`` values, without reading
    the table.  Any other table is accumulated as one big integer over a
    common denominator: only the table values add denominators to the
    ladder's, and the weights are taken once per class of vectors
    (:func:`_weighted_sum`).
    """
    if table.kind in BUILTIN_KINDS:
        return builtin_tail(table.grid, table.kind).expect()
    terms = table.values.items()
    dens = {v.denominator for _, v in terms}
    den = math.lcm(*dens)
    scale = {d: den // d for d in dens}
    return _weighted_sum(
        table.grid,
        ((p, v.numerator * scale[v.denominator]) for p, v in terms),
        den,
    )


@dataclass
class RestrictedTightness:
    """Exact discrete sums against their continuous targets.

    ``g_*`` concerns the benchmark with one extra bidder pinned at the floor
    (pointwise ``max(n+1, f)``), whose grid expectation approaches
    ``lambda_(n+1) * n``; ``h_*`` concerns the decreasing complement
    ``max(0, n+1 - f)`` with target ``(lambda_(n+1) - lambda_n) * n``.
    """

    g_sum: Fraction
    g_target: Fraction
    h_sum: Fraction
    h_target: Fraction


def check_gn_tight(n: int, grid: BidGrid) -> RestrictedTightness:
    """Grid expectations of the pinned benchmark and its complement.

    Both are functionals of f2's tail law (:func:`builtin_tail`): with
    ``c = n+1``, ``E[max(c, f)] = c + sum_(z_j > c) (z_j - max(z_(j-1), c))
    Pr[f >= z_j]`` and ``E[max(0, c-f)] = c - E[min(c, f)]``.  Exact sums;
    how close they land to the targets depends on the grid resolution, so
    tolerances belong to the caller.
    """
    if grid.n != n or n < 2:
        raise ValueError("grid must carry the same n >= 2 bidders")
    tail = builtin_tail(grid, "f2")
    shift = (n + 1) * tail.value_den
    return RestrictedTightness(
        g_sum=tail.expect(lambda z: max(z, shift)),
        g_target=lambda_n(n + 1) * n,
        h_sum=n + 1 - tail.expect(lambda z: min(z, shift)),
        h_target=(lambda_n(n + 1) - lambda_n(n)) * n,
    )
