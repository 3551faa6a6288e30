#!/usr/bin/env python3
"""Time the expectations path and write the numbers to BENCH_expectations.json.

Each row times one layer (its ``timed`` field) for one benchmark kind:

* ``statistic_block``: ``f2_statistic`` or ``maxv_statistic`` on
  ``BLOCK_CALLS`` blocks of ``min(20000, 2**22 // n)`` equal-revenue rows,
  each freshly drawn before its call as ``mc_expected`` draws them, for n in
  2..256: the 2..5 of the ``expectations`` workload in ``perfbench/``, and
  24 and 25 on either side of the widest row ``ratios`` sorts by its
  comparator network;
* ``mc_expected`` with 10^6 samples in 50 blocks, for the same n;
* the exact grid sums: ``builtin_table`` for f2 and maxv, then
  ``expected_benchmark_discrete`` of that table, and ``check_gn_tight``, on
  121x2 (delta 1/10) and 129x2 (delta 1/16), the fine grids of the
  ``expectations`` workload, and 301x2 (delta 1/20), acceptance criterion
  8's grid; ``builtin_table`` alone on 2x16 and 4x8 (delta 1), many bidders
  on few sorted vectors; and the expectation from ``builtin_tail`` alone
  on 376x3, 376x4 and 376x8 (delta 1/32, top level near 10^5), grids with
  too many sorted vectors to tabulate.

``benchlib`` runs each row in fresh interpreters, alternating the parent and
the change, so no row inherits the allocator state an earlier row left
behind.  A run makes ``BLOCK_CALLS`` statistic calls; any other call it
repeats, on fresh arguments, while their times sum to less than
``CALL_SECONDS``.  ``call_s`` and ``call_min_s`` are the median and the
minimum over every timed call of a side.  Run from the root of a source
checkout:

    PYTHONPATH=src python scripts/bench_expectations.py [--parent SRC]
"""

import sys
import time
from fractions import Fraction

import numpy  # noqa: F401 - imported here, so no timed call imports it

import benchlib
from compauction.benchmarks import builtin_table
from compauction.grid import BidGrid
from compauction.ratios import (
    EqualRevenueSampler,
    builtin_tail,
    check_gn_tight,
    expected_benchmark_discrete,
    f2_statistic,
    maxv_statistic,
    mc_expected,
)

BIDDERS = (2, 3, 4, 5, 8, 12, 16, 24, 25, 32, 64, 128, 256)
STATISTICS = {"f2": f2_statistic, "maxv": maxv_statistic}
MC_SAMPLES, MC_BLOCKS = 10**6, 50
BLOCK_CALLS = 41  # calls of each statistic per run, each on a fresh block
CALL_SECONDS = 0.2  # other calls repeat while their times sum to less
SUM_GRIDS = (("1/10", 121, 2), ("1/16", 129, 2), ("1/20", 301, 2))
TABLE_GRIDS = SUM_GRIDS + (("1", 2, 16), ("1", 4, 8))
TAIL_GRIDS = tuple(("1/32", 376, n) for n in (3, 4, 8))
GRID_CALLS = {
    "builtin_table": builtin_table,
    "expected_benchmark_discrete":
        lambda grid, kind: expected_benchmark_discrete(builtin_table(grid, kind)),
    "check_gn_tight": lambda grid, _: check_gn_tight(grid.n, grid),
    "builtin_tail": lambda grid, kind: builtin_tail(grid, kind).expect(),
}
ROWS = (
    [("statistic_block", kind, n) for n in BIDDERS for kind in STATISTICS]
    + [("mc_expected", kind, n) for n in BIDDERS for kind in STATISTICS]
    + [("builtin_table", kind, *grid) for grid in TABLE_GRIDS for kind in STATISTICS]
    + [("expected_benchmark_discrete", kind, *grid)
       for grid in SUM_GRIDS for kind in STATISTICS]
    + [("check_gn_tight", "f2", *grid) for grid in SUM_GRIDS]
    + [("builtin_tail", kind, *grid) for grid in TAIL_GRIDS for kind in STATISTICS]
)


def bench_row(timed: str, kind: str, *shape) -> dict:
    row = {"timed": timed, "kind": kind}
    if timed == "statistic_block":
        (n,) = shape
        rows = min(20000, 2**22 // n)
        sampler = EqualRevenueSampler(n, seed=n)
        # a fresh block per call, as in mc_expected
        draw = lambda: (sampler.sample(rows),)  # noqa: E731
        return row | {"n": n, "rows": rows,
                      "call_s": timed_calls(STATISTICS[kind], draw, BLOCK_CALLS)}
    if timed == "mc_expected":
        (n,) = shape
        run = (STATISTICS[kind], n, MC_SAMPLES, MC_BLOCKS)
        return row | {"n": n, "samples": MC_SAMPLES, "blocks": MC_BLOCKS,
                      "call_s": timed_calls(mc_expected, lambda: run)}
    delta, levels, n = shape
    # a fresh grid per call, so no cached property carries over
    fresh = lambda: (BidGrid(Fraction(delta), levels, n), kind)  # noqa: E731
    return row | {"grid": f"{levels}x{n}", "delta": delta, "points": levels**n,
                  "call_s": timed_calls(GRID_CALLS[timed], fresh)}


def timed_calls(fn, prepare, calls: int | None = None) -> list[float]:
    """Times of ``fn(*prepare())``, with ``prepare`` untimed: ``calls`` of
    them, or as many as ``CALL_SECONDS`` holds, at least one."""
    times = []
    while (len(times) < calls) if calls else (sum(times) < CALL_SECONDS):
        args = prepare()
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return times


if __name__ == "__main__":
    sys.exit(benchlib.main(__file__, ROWS))
