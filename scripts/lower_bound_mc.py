#!/usr/bin/env python3
"""Reproduce the closed-form optimal ratios by simulation.

Under the equal-revenue prior every truthful auction earns expected revenue
n, so E[benchmark]/n lower-bounds the competitive ratio.  This script
estimates those expectations with a seeded median-of-means sampler and
prints them next to the exact values lambda_n and gamma_n.

Usage: PYTHONPATH=src python scripts/lower_bound_mc.py
"""

from compauction.ratios import (
    f2_statistic,
    gamma_n,
    lambda_n,
    maxv_statistic,
    mc_expected,
)

MAX_N = 6
SAMPLES, BLOCKS = 10**6, 50  # each n is seeded by n


def main() -> None:
    print(f"{'n':>3} {'benchmark':>10} {'estimate/n':>12} {'+-':>10} "
          f"{'exact':>12} {'rel err':>9}")
    for n in range(2, MAX_N + 1):
        for name, stat, exact in (
            ("fixed-2", f2_statistic, lambda_n(n)),
            ("vickrey-k", maxv_statistic, gamma_n(n)),
        ):
            est, err = mc_expected(stat, n, SAMPLES, BLOCKS, seed=n)
            rel = abs(est / n - float(exact)) / float(exact)
            print(
                f"{n:>3} {name:>10} {est / n:>12.6f} {err / n:>10.6f} "
                f"{float(exact):>12.6f} {rel:>9.3%}"
            )


if __name__ == "__main__":
    main()
