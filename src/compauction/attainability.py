"""Deciding whether a benchmark admits a given competitive ratio.

A non-negative monotone benchmark ``f`` admits a truthful auction with
competitive ratio ``lam`` exactly when, for every upward-closed set ``S`` of
bid vectors,

    sum_{b in S} w(b) f(b)  <=  lam * sum_i sum_{b_-i in S|i} w(b_-i),

where ``w`` is the equal-revenue product weight and ``S|i`` is the projection
of ``S`` along coordinate ``i``.  On enumeration-scale grids the condition is
checked exhaustively, which also yields the optimal ratio as a maximum of
exact rational ratios together with a witness set.  An independent oracle
solves the underlying revenue linear system with an exact rational simplex;
the two routes must agree and are cross-checked in the test suite.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from fractions import Fraction

from compauction import lp
from compauction.benchmarks import BenchmarkTable, check_symmetric
from compauction.grid import (
    DEFAULT_POINT_CAP,
    DomainTooLargeError,
    Point,
    Upset,
    enumerate_symmetric_upsets,
    enumerate_upsets,
    project,
    weight_level,
    weight_others,
    weight_vector,
)

DEFAULT_LP_VARIABLE_CAP = 512


@dataclass
class Verdict:
    """Outcome of an attainability check."""

    attainable: bool
    lam: Fraction
    witness: Upset | None
    method: str  # "enumeration" or "lp"


@dataclass
class RatioResult:
    """Optimal ratio together with the upset attaining it (when enumerated)."""

    ratio: Fraction
    witness: Upset | None
    method: str


def condition_sides(table: BenchmarkTable, upset: Upset) -> tuple[Fraction, Fraction]:
    """Both sides of the characterization inequality for one upset.

    Returns ``(lhs, rhs_base)`` where the inequality reads
    ``lhs <= lam * rhs_base``.  Both are zero for the empty set and
    ``rhs_base`` is positive otherwise.
    """
    grid = table.grid
    lhs = Fraction(0)
    for p in upset.points:
        lhs += weight_vector(grid, p) * table[p]
    rhs = Fraction(0)
    for i in range(grid.n):
        for others in project(upset, i):
            rhs += weight_others(grid, others)
    return lhs, rhs


def _sides_chunk(
    table: BenchmarkTable, upsets: list[Upset]
) -> list[tuple[Fraction, Fraction]]:
    return [condition_sides(table, s) for s in upsets]


def _all_sides(
    table: BenchmarkTable, upsets: list[Upset], workers: int
) -> list[tuple[Fraction, Fraction]]:
    if workers <= 1 or len(upsets) < 2 * workers:
        return _sides_chunk(table, upsets)
    size = -(-len(upsets) // workers)
    chunks = [upsets[k : k + size] for k in range(0, len(upsets), size)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_sides_chunk, [table] * len(chunks), chunks))
    return [pair for part in parts for pair in part]


def check_attainable(
    table: BenchmarkTable,
    lam: Fraction,
    symmetric_only: bool = False,
    point_cap: int = DEFAULT_POINT_CAP,
    lp_variable_cap: int = DEFAULT_LP_VARIABLE_CAP,
    workers: int = 1,
) -> Verdict:
    """Decide lam-attainability; on violation, report a worst witness upset.

    ``symmetric_only`` restricts the scan to permutation-invariant upsets,
    which is sound only for symmetric benchmarks and is rejected otherwise.
    Grids above the enumeration cap fall back to the LP oracle (no witness).
    """
    lam = Fraction(lam)
    grid = table.grid
    if symmetric_only and not check_symmetric(table):
        raise ValueError("symmetric-only check requires a symmetric benchmark")
    if grid.point_count() > point_cap:
        ok = lp_feasible(table, lam, variable_cap=lp_variable_cap)
        return Verdict(attainable=ok, lam=lam, witness=None, method="lp")

    enum = enumerate_symmetric_upsets if symmetric_only else enumerate_upsets
    upsets = enum(grid, point_cap)
    sides = _all_sides(table, upsets, workers)
    worst: Fraction | None = None
    witness: Upset | None = None
    for upset, (lhs, rhs) in zip(upsets, sides):
        violation = lhs - lam * rhs
        if violation > 0 and (worst is None or violation > worst):
            worst = violation
            witness = upset
    if witness is None:
        return Verdict(attainable=True, lam=lam, witness=None, method="enumeration")
    return Verdict(attainable=False, lam=lam, witness=witness, method="enumeration")


def optimal_ratio(
    table: BenchmarkTable,
    symmetric_only: bool = False,
    point_cap: int = DEFAULT_POINT_CAP,
    lp_variable_cap: int = DEFAULT_LP_VARIABLE_CAP,
    workers: int = 1,
) -> RatioResult:
    """Smallest attainable ratio: the maximum of lhs/rhs over nonempty upsets.

    A benchmark that is zero everywhere has ratio 0, witnessed by the full
    grid.  Beyond the enumeration cap the exact LP reformulation is used and
    no witness is produced.
    """
    grid = table.grid
    if symmetric_only and not check_symmetric(table):
        raise ValueError("symmetric-only check requires a symmetric benchmark")
    if table.is_zero():
        witness = Upset.full(grid) if grid.point_count() <= point_cap else None
        return RatioResult(Fraction(0), witness, method="enumeration")
    if grid.point_count() > point_cap:
        return RatioResult(
            optimal_ratio_lp(table, variable_cap=lp_variable_cap), None, method="lp"
        )

    enum = enumerate_symmetric_upsets if symmetric_only else enumerate_upsets
    upsets = enum(grid, point_cap)
    sides = _all_sides(table, upsets, workers)
    best: Fraction | None = None
    witness = None
    for upset, (lhs, rhs) in zip(upsets, sides):
        if not upset.points:
            continue
        ratio = lhs / rhs
        if best is None or ratio > best:
            best = ratio
            witness = upset
    assert best is not None and witness is not None
    return RatioResult(best, witness, method="enumeration")


def _variable_index(grid) -> dict[tuple[int, Point, int], int]:
    index: dict[tuple[int, Point, int], int] = {}
    for i in range(grid.n):
        for others in grid.others_points():
            for t in range(grid.num_levels):
                index[(i, others, t)] = len(index)
    return index


def _check_lp_size(grid, variable_cap: int) -> None:
    count = grid.n * grid.num_levels**grid.n
    if count > variable_cap:
        raise DomainTooLargeError(
            f"revenue system needs {count} variables, above the LP cap of "
            f"{variable_cap}"
        )


def _revenue_system(
    table: BenchmarkTable, lam: Fraction | None, variable_cap: int
) -> tuple[list[list[Fraction]], list[Fraction], int]:
    """The revenue system ``A_ub v <= b_ub`` and its number of variables.

    Variables are the per-bidder expected revenues ``x_i(b_-i, t)``, required
    to cover ``f`` at rate ``lam``, to keep weighted mass at most one along
    each direction, and to be non-negative and monotone in the bidder's own
    level.  With ``lam = None`` the ratio becomes variable 0 and the others are
    ``y_i = lam * x_i``: the ``y_i`` cover ``f`` outright while their weighted
    mass stays below ``lam``.
    """
    grid = table.grid
    _check_lp_size(grid, variable_cap)
    index = _variable_index(grid)
    offset = 1 if lam is None else 0
    cover = Fraction(1) if lam is None else lam
    nvars = len(index) + offset
    A_ub: list[list[Fraction]] = []
    b_ub: list[Fraction] = []

    def new_row() -> list[Fraction]:
        return [Fraction(0)] * nvars

    for p in grid.points():
        row = new_row()
        for i in range(grid.n):
            others = p[:i] + p[i + 1 :]
            row[offset + index[(i, others, p[i])]] -= cover
        A_ub.append(row)
        b_ub.append(-table[p])
    for i in range(grid.n):
        for others in grid.others_points():
            row = new_row()
            if lam is None:
                row[0] = Fraction(-1)
            for t in range(grid.num_levels):
                row[offset + index[(i, others, t)]] = weight_level(grid, t)
            A_ub.append(row)
            b_ub.append(Fraction(0) if lam is None else Fraction(1))
            for t in range(grid.top):
                row = new_row()
                row[offset + index[(i, others, t)]] = Fraction(1)
                row[offset + index[(i, others, t + 1)]] = Fraction(-1)
                A_ub.append(row)
                b_ub.append(Fraction(0))
    return A_ub, b_ub, nvars


def lp_feasible(
    table: BenchmarkTable,
    lam: Fraction,
    variable_cap: int = DEFAULT_LP_VARIABLE_CAP,
) -> bool:
    """Exact feasibility of the revenue linear system at ratio ``lam``."""
    A_ub, b_ub, nvars = _revenue_system(table, Fraction(lam), variable_cap)
    return lp.feasible(A_ub, b_ub, num_vars=nvars)


def optimal_ratio_lp(
    table: BenchmarkTable,
    variable_cap: int = DEFAULT_LP_VARIABLE_CAP,
) -> Fraction:
    """Optimal ratio by exact LP.

    Substituting ``y_i = lam * x_i`` into the revenue system makes the ratio a
    genuine linear objective: minimize ``lam``, which is variable 0.
    """
    A_ub, b_ub, nvars = _revenue_system(table, None, variable_cap)
    cost = [Fraction(0)] * nvars
    cost[0] = Fraction(1)
    result = lp.solve_lp(cost, A_ub, b_ub)
    if result.status != lp.LPStatus.OPTIMAL:  # pragma: no cover - always feasible
        raise RuntimeError(f"ratio LP ended with status {result.status}")
    assert result.objective is not None
    return result.objective
