#!/usr/bin/env python3
"""Time the expectations path and write the numbers to BENCH_expectations.json.

Three layers are timed, each as the median (and minimum) of several runs:

* ``f2_statistic`` and ``maxv_statistic`` on one block of
  ``min(20000, 2**22 // n)`` equal-revenue rows, freshly drawn before each
  run as ``mc_expected`` draws them, for n in 2..256: the 2..5 of the
  ``expectations`` workload in ``perfbench/``, and 24 and 25 on either side
  of the widest row ``ratios`` sorts by its comparator network;
* ``mc_expected`` with 10^6 samples in 50 blocks, for the same n;
* the exact grid sums: ``builtin_table`` for f2 and maxv, then
  ``expected_benchmark_discrete`` of that table, and ``check_gn_tight``, on
  121x2 (delta 1/10) and 129x2 (delta 1/16), the fine grids of the
  ``expectations`` workload, and 301x2 (delta 1/20), acceptance criterion
  8's grid; ``builtin_table`` alone on 2x16 and 4x8 (delta 1), many bidders
  on few sorted vectors; and the expectation from ``builtin_tail`` alone
  on 376x3, 376x4 and 376x8 (delta 1/32, top level near 10^5), grids with
  too many sorted vectors to tabulate.

Each n of the first two layers is timed in a fresh child process, one at a
time, so no row inherits the allocator state an earlier row left behind.
The machine's core count and the Python and NumPy versions are recorded
with them.  ``--parent FILE`` copies every section of an earlier output
(say, of the parent commit's ``src``, run with that commit's copy of this
script) under the key ``parent``, so one file holds both sides.  Run from
the root of a source checkout:

    PYTHONPATH=src python scripts/bench_expectations.py [--out FILE] [--parent FILE]
"""

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import time
from fractions import Fraction

import numpy as np

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
SUM_GRIDS = ((Fraction(1, 10), 121, 2), (Fraction(1, 16), 129, 2),
             (Fraction(1, 20), 301, 2))
TABLE_GRIDS = SUM_GRIDS + ((Fraction(1), 2, 16), (Fraction(1), 4, 8))
TAIL_GRIDS = tuple((Fraction(1, 32), 376, n) for n in (3, 4, 8))
BLOCK_REPEATS = 41  # runs of each statistic, each on a fresh block
SLOW_REPEATS = 3  # runs of each mc_expected call and grid sum


def timed(fn, repeats: int, prepare=lambda: ()) -> dict:
    """Median and minimum of ``fn(*prepare())``; ``prepare`` runs untimed."""
    runs = []
    for _ in range(repeats):
        args = prepare()
        start = time.perf_counter()
        fn(*args)
        runs.append(time.perf_counter() - start)
    return {"median_s": statistics.median(runs), "min_s": min(runs)}


def block_rows(n: int) -> list[dict]:
    """Both statistics on fresh blocks of n bidders."""
    rows = min(20000, 2**22 // n)
    sampler = EqualRevenueSampler(n, seed=n)
    found = []
    for name, stat in STATISTICS.items():
        # a fresh block per run, as in mc_expected
        draw = lambda: (sampler.sample(rows),)
        found.append({"stat": name, "n": n, "rows": rows,
                      **timed(stat, BLOCK_REPEATS, draw)})
    return found


def mc_rows(n: int) -> list[dict]:
    """``mc_expected`` for both statistics at n bidders."""
    found = []
    for name, stat in STATISTICS.items():
        run = (stat, n, MC_SAMPLES, MC_BLOCKS)
        found.append({"stat": name, "n": n, "samples": MC_SAMPLES,
                      "blocks": MC_BLOCKS,
                      **timed(mc_expected, SLOW_REPEATS, lambda: run)})
    return found


def grid_rows(label: str, fn, grids, variants) -> list[dict]:
    """``fn(grid, variant)`` on each grid, for each variant."""
    found = []
    for delta, levels, n in grids:
        grid = BidGrid(delta, levels, n)
        for variant in variants:
            found.append({"kind": variant, "grid": f"{levels}x{n}", "delta": str(delta),
                          "points": levels**n,
                          **timed(fn, SLOW_REPEATS, lambda: (grid, variant))})
            print(f"# {label} {variant} {levels}x{n}: "
                  f"{found[-1]['median_s'] * 1e3:.1f} ms", flush=True)
    return found


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_expectations.json")
    parser.add_argument("--parent", help="earlier output to keep under 'parent'")
    args = parser.parse_args()

    # one worker, replaced after every task: each n runs alone in a new process
    pool = multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1)
    with pool:
        blocks = []
        for n in BIDDERS:
            for row in pool.apply(block_rows, (n,)):
                blocks.append(row)
                print(f"# block {row['stat']} n={n}: {row['median_s'] * 1e3:.2f} ms",
                      flush=True)

        mc = []
        for n in BIDDERS:
            for row in pool.apply(mc_rows, (n,)):
                mc.append(row)
                print(f"# mc_expected {row['stat']} n={n}: {row['median_s']:.3f} s",
                      flush=True)

    tables = grid_rows("builtin_table", builtin_table, TABLE_GRIDS, STATISTICS)
    sums = grid_rows(
        "expected_benchmark_discrete",
        lambda grid, kind: expected_benchmark_discrete(builtin_table(grid, kind)),
        SUM_GRIDS, STATISTICS)
    tightness = grid_rows(
        "check_gn_tight", lambda grid, _: check_gn_tight(grid.n, grid),
        SUM_GRIDS, ("f2",))
    tails = grid_rows(
        "builtin_tail", lambda grid, kind: builtin_tail(grid, kind).expect(),
        TAIL_GRIDS, STATISTICS)

    doc = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "repeats": {"statistic_block": BLOCK_REPEATS, "other": SLOW_REPEATS},
        "statistic_block": blocks,
        "mc_expected": mc,
        "builtin_table": tables,
        "expected_benchmark_discrete": sums,
        "check_gn_tight": tightness,
        "builtin_tail": tails,
    }
    if args.parent:
        with open(args.parent, encoding="utf-8") as handle:
            parent = json.load(handle)
        doc["parent"] = {k: v for k, v in parent.items() if k != "parent"}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    print(f"# wrote {args.out}")


if __name__ == "__main__":
    main()
