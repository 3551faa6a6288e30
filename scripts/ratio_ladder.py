#!/usr/bin/env python3
"""The paper's two ratio families from exact grid tails, refined by Richardson.

For n = 2..8 bidders and both built-in benchmarks, print the full-grid
ratio ``E_w[f]/n`` at ``delta = 2^-k``, with the top level held near 10^5.
``E_w[f]`` is the exact grid expectation under the discrete equal-revenue
prior, taken from the benchmark's tail law (``ratios.builtin_tail``), so no
table is built.  Every truthful auction earns ``n`` in expectation under
the prior, so this is the ratio of the full grid as an upset: a lower bound
on the grid's optimal ratio.  Where the grid has at most ``CUT_POINT_CAP``
points, ``optimal_ratio`` confirms that the full grid is the witness, so
the value is the optimum (``optimum`` column ``yes``); elsewhere the column
reads ``lower bound``.

Beside each value are two Richardson rounds, which cancel the first- and
second-order terms of the discretization's bias, ``R1(d) = 2 r(d/2) - r(d)``
and ``R2(d) = (4 R1(d/2) - R1(d))/3``, on the row of the finer step, then
the closed form ``lambda_n`` (f2) or ``gamma_n`` (maxv), the distance of R2
from it, and the seconds the tail took.  Run from the root of a source
checkout:

    PYTHONPATH=src python scripts/ratio_ladder.py
"""

import math
import time
from fractions import Fraction

from compauction.attainability import CUT_POINT_CAP, optimal_ratio
from compauction.benchmarks import builtin_table
from compauction.grid import BidGrid
from compauction.ratios import builtin_tail, gamma_n, lambda_n

MAX_N = 8
TOP = 10**5  # approximate value of the highest grid level
# exponents k of delta = 2^-k per bidder count; with the top near TOP, the
# finest step of each n keeps its tail within a few seconds on one core
STEPS = {2: range(0, 9), 3: range(0, 8), 4: range(0, 7), 5: range(0, 6),
         6: range(0, 6), 7: range(0, 6), 8: range(0, 6)}
TARGETS = {"f2": lambda_n, "maxv": gamma_n}


def full_grid_is_optimal(grid: BidGrid, kind: str, ratio: Fraction) -> str:
    """``yes`` if the cut's optimum is the full grid's ratio, ``lower bound``
    past the cut's point cap."""
    points = grid.num_levels**grid.n
    if points > CUT_POINT_CAP:
        return "lower bound"
    result = optimal_ratio(builtin_table(grid, kind))
    whole = result.witness is not None and len(result.witness.points) == points
    return "yes" if result.ratio == ratio and whole else "NO"


def main() -> None:
    print(f"{'kind':>4} {'n':>2} {'delta':>7} {'levels':>6} {'E/n':>9} "
          f"{'R1':>9} {'R2':>9} {'target':>9} {'R2-target':>10} {'s':>6}  optimum")
    for kind, target_of in TARGETS.items():
        for n in range(2, MAX_N + 1):
            target = target_of(n)
            ratios, firsts = [], []
            for k in STEPS[n]:
                delta = Fraction(1, 2**k)
                levels = round(math.log(TOP) / math.log1p(float(delta))) + 1
                grid = BidGrid(delta, levels, n)
                start = time.perf_counter()
                ratios.append(builtin_tail(grid, kind).expect() / n)
                seconds = time.perf_counter() - start
                cells = [f"{float(ratios[-1]):>9.6f}"]
                if len(ratios) > 1:
                    firsts.append(2 * ratios[-1] - ratios[-2])
                    cells.append(f"{float(firsts[-1]):>9.6f}")
                second = None
                if len(firsts) > 1:
                    second = (4 * firsts[-1] - firsts[-2]) / 3
                    cells.append(f"{float(second):>9.6f}")
                cells += [f"{'':>9}"] * (3 - len(cells))
                gap = f"{float(second - target):>+10.2e}" if second is not None else ""
                print(f"{kind:>4} {n:>2} {str(delta):>7} {levels:>6} "
                      f"{' '.join(cells)} {float(target):>9.6f} {gap:>10} "
                      f"{seconds:>6.2f}  {full_grid_is_optimal(grid, kind, ratios[-1])}",
                      flush=True)


if __name__ == "__main__":
    main()
