#!/usr/bin/env python3
"""Print one digest of many synthesis traces, to compare two ``src`` trees.

Each run synthesizes a table with a ``TraceRecorder`` and feeds its text to
one sha256.  The tables are f2 and maxv (past one bidder) and five seeded
random monotone tables (``random_table`` of ``scripts/bench_lp.py``; an
all-zero one is skipped) on the grids 2x2, 3x2, 2x3, 4x2, 2x4, 3x1, 5x1 and
16x1 at delta 1, 1/3 and 5/2, each synthesized at its optimal ratio and at
5/4 of it.  The script prints the run count, the step count and the hex
digest; two trees that trace alike print the same three.  A fourth line
digests the answers on the same tables: each one's optimal ratio and sorted
witness, and the verdict and sorted witness of ``check_attainable`` at 63/64
of that ratio; two trees that answer alike print the same one, and the
Tier-1 suite pins it (``answers_digest``).  Run from the root of a source
checkout:

    PYTHONPATH=src python scripts/trace_digest.py
"""

import hashlib
from fractions import Fraction

from bench_lp import random_table
from compauction.attainability import check_attainable, optimal_ratio
from compauction.benchmarks import BenchmarkTable, builtin_table
from compauction.grid import BidGrid
from compauction.synthesis import TraceRecorder, synthesize

SHAPES = [(2, 2), (3, 2), (2, 3), (4, 2), (2, 4), (3, 1), (5, 1), (16, 1)]
DELTAS = [Fraction(1), Fraction(1, 3), Fraction(5, 2)]
SEEDS = range(1, 6)


def tables(grid: BidGrid) -> list[BenchmarkTable]:
    seeded = (random_table(grid, seed) for seed in SEEDS)
    builtin = [builtin_table(grid, kind) for kind in ("f2", "maxv") if grid.n > 1]
    return builtin + [t for t in seeded if not t.is_zero()]


def cases():
    """Each grid of the sweep with each of its tables."""
    for levels, n in SHAPES:
        for delta in DELTAS:
            grid = BidGrid(delta, levels, n)
            for table in tables(grid):
                yield grid, table


def answers_digest() -> str:
    """The hex sha256 of the answers on every table of the sweep."""
    answers = hashlib.sha256()
    for _, table in cases():
        result = optimal_ratio(table)
        lam = result.ratio
        verdict = check_attainable(table, lam * Fraction(63, 64))
        witness = verdict.witness and sorted(verdict.witness.points)
        answers.update(repr((lam, sorted(result.witness.points),
                             verdict.attainable, witness)).encode("utf-8"))
    return answers.hexdigest()


def main() -> None:
    digest, runs, steps = hashlib.sha256(), 0, 0
    for grid, table in cases():
        lam = optimal_ratio(table).ratio
        for target in (lam, lam * Fraction(5, 4)):
            recorder = TraceRecorder(grid, target)
            synthesize(table, target, observer=recorder)
            text = recorder.text()
            digest.update(text.encode("utf-8"))
            runs += 1
            steps += sum(line.startswith("step ") for line in text.splitlines())
    print(f"runs: {runs}")
    print(f"steps: {steps}")
    print(f"sha256: {digest.hexdigest()}")
    print(f"answers sha256: {answers_digest()}")


if __name__ == "__main__":
    main()
