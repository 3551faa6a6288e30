#!/usr/bin/env python3
"""Time synthesis past the enumeration bound and write BENCH_synthesis.json.

Each row builds a built-in benchmark table, finds its optimal ratio by the
cut, then times ``synthesize`` at that ratio and the evaluation of the
result (``x_to_z`` then ``competitive_ratio``).  ``benchlib`` runs each row
in fresh interpreters, alternating the parent and the change, and keeps the
median and the minimum of each phase's times (``optimal_s``,
``optimal_min_s`` and so on).  Each row also counts the minimum cuts
synthesis solves: calls of ``max_closure`` through both its
``attainability`` and its ``synthesis`` binding, so the start check of
attainability and every step cut count wherever they are made.  A row
passes when the evaluated ratio equals the optimal ratio exactly and
``verify_ls2`` holds, on both sides, and when its ratio, steps, steps by
event and cuts are the same on both sides; the script exits 1 otherwise.
The rows are f2 and maxv on 8x2, 4x3 and 3x4, and f2 on 6x3, 4x4, 16x2 and
32x2 (1,024 points, the cut's bound), all at delta 1.  Each row also
records, as the observer sees it, the bit length of the synthesis state's
final unit (``unit_bits``) and how many steps grew it (``unit_growths``);
a difference between the sides is printed without failing.  Run from the
root of a source checkout:

    PYTHONPATH=src python scripts/bench_synthesis.py [--parent SRC]
"""

import collections
import sys
import time
from fractions import Fraction

import benchlib
from compauction import attainability, synthesis
from compauction.attainability import optimal_ratio
from compauction.auctions import competitive_ratio
from compauction.benchmarks import builtin_table
from compauction.grid import BidGrid
from compauction.synthesis import synthesize, verify_ls2, x_to_z

ROWS = [
    ("f2", 8, 2), ("maxv", 8, 2), ("f2", 4, 3), ("maxv", 4, 3),
    ("f2", 3, 4), ("maxv", 3, 4),
    ("f2", 6, 3), ("f2", 4, 4), ("f2", 16, 2), ("f2", 32, 2),
]


class StepCounter:
    """Synthesis observer counting the steps by the event that ended them,
    and the steps that grew the state's unit."""

    def __init__(self):
        self.events = collections.Counter()
        self.unit = None
        self.growths = 0

    def initial(self, state):
        self.unit = state.unit

    def step(self, number, state, direction, outcome):
        self.events[outcome.handled.value] += 1
        if state.unit > self.unit:
            self.growths += 1
            self.unit = state.unit

    def finished(self, steps):
        pass


def counting_cuts(run):
    """``run()`` and the number of cuts solved meanwhile, counted by wrapping
    both module bindings of ``max_closure``."""
    modules = (attainability, synthesis)
    solves, calls = [m.max_closure for m in modules], [0]

    def counting(solve):
        def counted(*args):
            calls[0] += 1
            return solve(*args)

        return counted

    for module, solve in zip(modules, solves):
        module.max_closure = counting(solve)
    try:
        return run(), calls[0]
    finally:
        for module, solve in zip(modules, solves):
            module.max_closure = solve


def bench_row(kind: str, levels: int, n: int) -> dict:
    table = builtin_table(BidGrid(Fraction(1), levels, n), kind)
    start = time.perf_counter()
    lam = optimal_ratio(table).ratio
    optimal_s = time.perf_counter() - start

    counter = StepCounter()
    start = time.perf_counter()
    revenue, cuts = counting_cuts(lambda: synthesize(table, lam, observer=counter))
    synthesize_s = time.perf_counter() - start

    start = time.perf_counter()
    evaluated = competitive_ratio(x_to_z(revenue), table).ratio
    evaluate_s = time.perf_counter() - start
    return {
        "kind": kind, "grid": f"{levels}x{n}", "delta": "1", "points": levels**n,
        "ratio": str(lam), "steps": sum(counter.events.values()),
        "steps_by_event": dict(sorted(counter.events.items())), "cuts": cuts,
        "unit_bits": counter.unit.bit_length(), "unit_growths": counter.growths,
        "optimal_s": optimal_s, "synthesize_s": synthesize_s, "evaluate_s": evaluate_s,
        "evaluated_equals_optimal": evaluated == lam,
        "verify_ls2": verify_ls2(revenue, table, lam),
    }


if __name__ == "__main__":
    sys.exit(benchlib.main(
        __file__, ROWS, lambda row: row["evaluated_equals_optimal"] and row["verify_ls2"],
        same=("ratio", "steps", "steps_by_event", "cuts")))
