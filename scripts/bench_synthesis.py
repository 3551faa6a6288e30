#!/usr/bin/env python3
"""Time synthesis past the enumeration bound and write BENCH_synthesis.json.

Each row builds a built-in benchmark table, finds its optimal ratio by the
cut, then times ``synthesize`` at that ratio and the evaluation of the
result (``x_to_z`` then ``competitive_ratio``).  The row runs ``REPEATS``
times, and each of the three phases records the median and the minimum of
its times (``optimal_s``, ``optimal_min_s`` and so on); one run on a shared
machine is not enough to tell a change from noise.  Each row also counts the
minimum cuts synthesis solves: calls of ``max_closure`` through both its
``attainability`` and its ``synthesis`` binding, so the start check of
attainability and every step cut count wherever they are made.  A
row passes when the evaluated ratio equals the optimal ratio exactly and
``verify_ls2`` holds; the script exits 1 if any row fails.  The rows are f2
and maxv on 8x2, 4x3 and 3x4, and f2 on 6x3, 4x4, 16x2 and 32x2 (1,024
points, the cut's bound), all at delta 1.  Each row also records, as the
observer sees it, the bit length of the synthesis state's final unit
(``unit_bits``) and how many steps grew it (``unit_growths``); both are null
for a ``src`` whose state keeps no unit.

The machine's core count and the Python and NumPy versions are recorded
with them.  ``--parent FILE`` copies the rows and machine of an earlier
output (say, of the parent commit's ``src``, run with this script) under the
key ``parent``, so one file holds both sides; the script then also exits 1
if any row's ratio, steps, steps by event or cuts differ from the parent's
row of the same kind and grid.  It prints, without failing on them, the rows
whose ``unit_bits`` or ``unit_growths`` differ, with both values.  Run from
the root of a source checkout:

    PYTHONPATH=src python scripts/bench_synthesis.py [--out FILE] [--parent FILE]
"""

import argparse
import collections
import json
import os
import platform
import statistics
import sys
import time
from fractions import Fraction

import numpy as np

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
REPEATS = 3  # runs of each row


class StepCounter:
    """Synthesis observer counting the steps by the event that ended them,
    and the steps that grew the state's unit."""

    def __init__(self):
        self.events = collections.Counter()
        self.unit = None
        self.growths = 0

    def initial(self, state):
        self.unit = getattr(state, "unit", None)

    def step(self, number, state, direction, outcome):
        self.events[outcome.handled.value] += 1
        if self.unit is not None and state.unit > self.unit:
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
    times = collections.defaultdict(list)
    for _ in range(REPEATS):  # the counts and answers of the last run are kept
        start = time.perf_counter()
        lam = optimal_ratio(table).ratio
        times["optimal"].append(time.perf_counter() - start)

        counter = StepCounter()
        start = time.perf_counter()
        revenue, cuts = counting_cuts(lambda: synthesize(table, lam, observer=counter))
        times["synthesize"].append(time.perf_counter() - start)

        start = time.perf_counter()
        evaluated = competitive_ratio(x_to_z(revenue), table).ratio
        times["evaluate"].append(time.perf_counter() - start)
    timing = {}
    for phase, runs in times.items():
        timing[f"{phase}_s"] = statistics.median(runs)
        timing[f"{phase}_min_s"] = min(runs)
    return {
        "kind": kind, "grid": f"{levels}x{n}", "delta": "1", "points": levels**n,
        "ratio": str(lam), "steps": sum(counter.events.values()),
        "steps_by_event": dict(sorted(counter.events.items())), "cuts": cuts,
        "unit_bits": None if counter.unit is None else counter.unit.bit_length(),
        "unit_growths": None if counter.unit is None else counter.growths,
        **timing,
        "evaluated_equals_optimal": evaluated == lam,
        "verify_ls2": verify_ls2(revenue, table, lam),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_synthesis.json")
    parser.add_argument("--parent", help="earlier output to keep under 'parent'")
    args = parser.parse_args()

    rows = []
    for kind, levels, n in ROWS:
        rows.append(bench_row(kind, levels, n))
        row = rows[-1]
        print(f"# {kind} {levels}x{n}: {row['steps']} steps, {row['cuts']} cuts, "
              f"synthesize {row['synthesize_s']:.2f} s "
              f"(min {row['synthesize_min_s']:.2f}), "
              f"evaluate {row['evaluate_s']:.2f} s, "
              f"unit {row['unit_bits']} bits after {row['unit_growths']} growths, "
              f"exact {row['evaluated_equals_optimal'] and row['verify_ls2']}",
              flush=True)

    doc = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "repeats": REPEATS,
        "rows": rows,
    }
    if args.parent:
        with open(args.parent, encoding="utf-8") as handle:
            parent = json.load(handle)
        doc["parent"] = {"machine": parent["machine"], "rows": parent["rows"]}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    print(f"# wrote {args.out}")
    ok = all(r["evaluated_equals_optimal"] and r["verify_ls2"] for r in rows)
    if args.parent:
        ok = differing(parent["rows"], rows) == [] and ok
    return 0 if ok else 1


def differing(parent_rows: list[dict], rows: list[dict]) -> list[str]:
    """The rows whose ratio, steps, steps by event or cuts differ from the
    parent's row of the same kind and grid (or that the parent lacks), each
    printed as it is found.  A row whose unit bits or growths differ is
    printed with both values too, but not returned: how the state's unit
    grows is free to change while the steps stay the same."""
    keys = ("ratio", "steps", "steps_by_event", "cuts")
    parent = {(r["kind"], r["grid"]): r for r in parent_rows}
    found = []
    for row in rows:
        name = f"{row['kind']} {row['grid']}"
        before = parent.get((row["kind"], row["grid"]), {})
        changed = [k for k in keys if before.get(k) != row[k]]
        if changed:
            found.append(name)
            print(f"# {name} differs from the parent in {', '.join(changed)}")
        units = [f"{k} {before.get(k)} -> {row[k]}"
                 for k in ("unit_bits", "unit_growths") if before.get(k) != row[k]]
        if units:
            print(f"# {name} unit differs from the parent: {', '.join(units)}")
    return found


if __name__ == "__main__":
    sys.exit(main())
