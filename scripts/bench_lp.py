#!/usr/bin/env python3
"""Time the exact LP oracle and write BENCH_lp.json.

Each row builds a benchmark table, solves the ratio form of its revenue
system with ``optimal_ratio_lp`` and records the system's rows and
variables, the simplex pivots (``LPResult.pivots``, read by wrapping
``lp.solve_lp``) and the seconds each call took.  A run repeats the call,
each time on a freshly built table so that no cached grid property carries
over, while the times sum to less than ``CALL_SECONDS``.  ``benchlib`` runs
each row in fresh interpreters, alternating the parent and the change, and
pools every timed call of a side into ``lp_s`` (their median) and
``lp_min_s``, so the rows of a few milliseconds do not move with load on the
host.  A row passes when the LP's ratio equals the cut's ``optimal_ratio``
exactly, on both sides, and when its ratio, rows, variables and pivots are
the same on both sides; the script exits 1 otherwise.  The rows are f2 and
maxv on 4x2, 2x4, 5x2, 3x3, 6x2, 8x2 and 4x3, f2 on 2x5, 9x2 and 10x2, and
random monotone tables on 3x2 and 2x3 (three seeds each), all at delta 1.
Each row also records whether ``check_lp_size`` admits its grid; rows past
the cap are timed with the cap lifted for that call, so one file shows where
the cap falls.  Run from the root of a source checkout:

    PYTHONPATH=src python scripts/bench_lp.py [--parent SRC]
"""

import random
import sys
import time
from fractions import Fraction

import benchlib
from compauction import attainability, lp
from compauction.attainability import optimal_ratio, optimal_ratio_lp
from compauction.benchmarks import BenchmarkTable, builtin_table
from compauction.grid import BidGrid, DomainTooLargeError

ROWS = [
    (kind, levels, n)
    for kind in ("f2", "maxv")
    for levels, n in ((4, 2), (2, 4), (5, 2), (3, 3), (6, 2), (8, 2), (4, 3))
] + [("f2", 2, 5), ("f2", 9, 2), ("f2", 10, 2)] + [
    (f"random-{seed}", levels, n) for levels, n in ((3, 2), (2, 3)) for seed in (1, 2, 3)
]
CALL_SECONDS = 0.5  # a run repeats the LP while its times sum to less


def random_table(grid: BidGrid, seed: int) -> BenchmarkTable:
    """A seeded non-negative table, monotone in every coordinate."""
    rng = random.Random(seed)
    values = {}
    for p in grid.points():  # lexicographic, so every predecessor comes first
        below = [values[p[:j] + (p[j] - 1,) + p[j + 1 :]] for j in range(grid.n) if p[j]]
        values[p] = max(below, default=Fraction(0)) + Fraction(rng.randrange(4), 2)
    return BenchmarkTable(grid, values, kind="custom")


def admitted(grid: BidGrid) -> bool:
    try:
        attainability.check_lp_size(grid)
    except DomainTooLargeError:
        return False
    return True


def solve_counted(make_table, grid: BidGrid) -> tuple[Fraction, dict]:
    """``optimal_ratio_lp`` of tables on ``grid`` from ``make_table()``, timed
    while the times sum to less than ``CALL_SECONDS``, and the size and pivots
    of the LP it solved, with the LP cap lifted for grids past it."""
    solve, cap, seen = lp.solve_lp, attainability.DEFAULT_LP_VARIABLE_CAP, {}

    def counted(c, A_ub=(), b_ub=(), A_eq=(), b_eq=()):
        result = solve(c, A_ub, b_ub, A_eq, b_eq)
        seen.update(rows=len(A_ub) + len(A_eq), variables=len(c), pivots=result.pivots)
        return result

    lp.solve_lp = counted
    attainability.DEFAULT_LP_VARIABLE_CAP = max(cap, grid.n * grid.num_levels**grid.n)
    times = []
    try:
        while sum(times) < CALL_SECONDS:
            table = make_table()
            start = time.perf_counter()
            ratio = optimal_ratio_lp(table)
            times.append(time.perf_counter() - start)
    finally:
        lp.solve_lp, attainability.DEFAULT_LP_VARIABLE_CAP = solve, cap
    return ratio, seen | {"lp_s": times}


def bench_row(kind: str, levels: int, n: int) -> dict:
    def make_table() -> BenchmarkTable:
        grid = BidGrid(Fraction(1), levels, n)
        if kind.startswith("random-"):
            return random_table(grid, int(kind.removeprefix("random-")))
        return builtin_table(grid, kind)

    table = make_table()
    row = {"kind": kind, "grid": f"{levels}x{n}", "delta": "1",
           "admitted": admitted(table.grid)}
    ratio, counts = solve_counted(make_table, table.grid)
    row |= counts
    row |= {"ratio": str(ratio), "lp_equals_cut": ratio == optimal_ratio(table).ratio}
    return row


if __name__ == "__main__":
    sys.exit(benchlib.main(__file__, ROWS, lambda row: row["lp_equals_cut"],
                           same=("ratio", "rows", "variables", "pivots")))
