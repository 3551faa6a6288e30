#!/usr/bin/env python3
"""Track the discrete grid expectations toward their continuous targets.

For a sweep of grid steps delta (with the top of the grid held near a fixed
magnitude), print the exact discrete expectations of the fixed-price
benchmark, the pinned benchmark max(3, f), and its complement max(0, 3 - f)
for two bidders, next to the continuous targets 4, 13/3 and 1/3.  The floor
bias is first-order in delta, so each halving of the step roughly halves
every relative error.

Usage: PYTHONPATH=src python scripts/refinement_sweep.py
"""

import math
from fractions import Fraction

from compauction.grid import BidGrid
from compauction.ratios import builtin_tail, check_gn_tight

STEPS = (5, 10, 20, 40)  # inverse grid steps: delta = 1/s for each s
TOP = 1e6  # approximate value of the highest grid level


def main() -> None:
    print(f"{'delta':>8} {'levels':>7} {'E[f2]':>10} {'rel':>8} "
          f"{'E[G]':>10} {'rel':>8} {'E[H]':>10} {'rel':>8}")
    for s in STEPS:
        delta = Fraction(1, s)
        levels = int(math.log(TOP) / math.log(1 + 1 / s)) + 1
        grid = BidGrid(delta, levels, 2)
        f2_sum = builtin_tail(grid, "f2").expect()
        tight = check_gn_tight(2, grid)
        cells = [
            (f2_sum, Fraction(4)),
            (tight.g_sum, tight.g_target),
            (tight.h_sum, tight.h_target),
        ]
        row = f"{float(delta):>8.4f} {levels:>7}"
        for value, target in cells:
            rel = float(value / target) - 1.0
            row += f" {float(value):>10.6f} {rel:>+8.3%}"
        print(row)


if __name__ == "__main__":
    main()
