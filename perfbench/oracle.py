"""Independent exact formulas the benchmark checks the program's answers with.

Nothing here imports ``compauction``: each check recomputes its answer from
the definitions (equal-revenue level weights, the characterization's two
sides, the closed-form ratios), so a defect in the program cannot hide in a
shared helper.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

Point = tuple[int, ...]


def level_weights(delta: Fraction, levels: int) -> list[Fraction]:
    """Equal-revenue mass of every ladder level; the top takes the tail."""
    ratio = 1 + Fraction(delta)
    weights = [Fraction(delta) / ratio ** (t + 1) for t in range(levels - 1)]
    weights.append(1 / ratio ** (levels - 1))
    return weights


def is_upset(points: Iterable[Point], levels: int) -> bool:
    members = set(points)
    for p in members:
        for j, t in enumerate(p):
            if t < levels - 1 and p[:j] + (t + 1,) + p[j + 1 :] not in members:
                return False
    return True


def condition_sides(
    values: Mapping[Point, Fraction],
    weights: list[Fraction],
    n: int,
    upset: Iterable[Point],
) -> tuple[Fraction, Fraction]:
    """``(lhs, rhs)`` of ``sum_S w(b) f(b) <= lam * sum_i sum_{S|i} w(b_-i)``."""
    members = set(upset)
    lhs = sum((math.prod(weights[t] for t in p) * values[p] for p in members), Fraction(0))
    rhs = Fraction(0)
    for i in range(n):
        projected = {p[:i] + p[i + 1 :] for p in members}
        rhs += sum((math.prod(weights[t] for t in o) for o in projected), Fraction(0))
    return lhs, rhs


def f2_value(bids: list[Fraction]) -> Fraction:
    ordered = sorted(bids, reverse=True)
    return max(k * ordered[k - 1] for k in range(2, len(ordered) + 1))


def maxv_value(bids: list[Fraction]) -> Fraction:
    ordered = sorted(bids, reverse=True)
    return max(k * ordered[k] for k in range(1, len(ordered)))


FORMULAS = {"f2": f2_value, "maxv": maxv_value}


def lambda_closed(n: int) -> Fraction:
    """``1 - sum_{i=2..n} (-1/n)^(i-1) i/(i-1) C(n-1, i-1)`` over one denominator."""
    den = n ** (n - 1) * math.lcm(*range(1, n))
    num = den
    for i in range(2, n + 1):
        sign = -1 if (i - 1) % 2 else 1
        num -= sign * math.comb(n - 1, i - 1) * i * (den // (n ** (i - 1) * (i - 1)))
    return Fraction(num, den)


def gamma_closed(n: int) -> Fraction:
    return Fraction(n ** (n - 1), (n - 1) ** (n - 1)) - 1


def grid_expectation(
    values: Mapping[Point, Fraction], weights: list[Fraction]
) -> Fraction:
    """``sum_b w(b) f(b)`` on a two-bidder grid, one row of the first bid at a time."""
    levels = len(weights)
    total = Fraction(0)
    for a in range(levels):
        row = sum((weights[b] * values[(a, b)] for b in range(levels)), Fraction(0))
        total += weights[a] * row
    return total
