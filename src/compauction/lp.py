"""Exact linear programming over the rationals.

A small dense two-phase simplex for the feasibility and ratio-minimization
systems used as the independent oracle against upset enumeration.  Pivots
follow Bland's rule, which guarantees termination without any tolerance
knobs.  Problems here are tiny (tens of variables), so a dense tableau is the
right tool.

The tableau is fraction-free.  Each row is a primitive integer vector: a
positive multiple of the rational row it stands for.  It is built in integers
straight from the input: one ``lcm`` ``d`` of the denominators of an input row
and its rhs scales them to integers, the row's slack and its artificial (if it
needs one) enter at ``d`` instead of 1, and a row with a negative rhs is
negated in integers.  The primitive integer form of a rational row is unique,
so this is the tableau of the rational rows, whatever type (``Fraction`` or
``int``) the entries came in.  A pivot on ``a_rc`` replaces every other row
``i`` with ``a_rc*row_i - a_ic*row_r`` divided by its gcd, so no entry ever
carries a denominator.  Positive scaling keeps every sign and every ratio
``rhs/a``, so the pivot sequence is exactly that of the rational tableau.  The
objective row is kept as integers over one positive denominator, and basic
values become :class:`fractions.Fraction` only when the solution is read off.

Conventions: minimize ``c . x`` subject to ``A_ub x <= b_ub``,
``A_eq x = b_eq`` and ``x >= 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

_PIVOT_CAP = 10**6


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: LPStatus
    x: list[Fraction] | None = None
    objective: Fraction | None = None
    pivots: int = 0  # simplex pivots in both phases and the drive-out step


def _primitive(values: list[int]) -> list[int]:
    """Divide an integer vector by the gcd of its entries."""
    g = math.gcd(*values)
    return values if g <= 1 else [v // g for v in values]


def _integers(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Integers ``k`` and the least positive ``d`` with ``values == k / d``."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


class _Tableau:
    """Integer rows, a basis, and an objective row ``obj / den``."""

    def __init__(self, rows: list[list[int]], basis: list[int]) -> None:
        self.rows = [_primitive(line) for line in rows]
        self.basis = basis
        self.obj: list[int] = []
        self.den = 1
        self.pivots = 0

    def price(self, cost: Sequence[Fraction | int]) -> None:
        """Set the objective row to ``cost`` in reduced costs over the basis."""
        self.obj, self.den = _integers(cost)
        for r, b in enumerate(self.basis):
            self._eliminate(r, b)

    def _eliminate(self, r: int, c: int) -> None:
        """Subtract row ``r`` from the objective so that its entry ``c`` is 0."""
        a = self.obj[c]
        if a:
            p = self.rows[r][c]
            obj = [p * x - a * y for x, y in zip(self.obj, self.rows[r])]
            den = self.den * p
            g = math.gcd(den, *obj)
            self.obj = [v // g for v in obj]
            self.den = den // g

    def pivot(self, r: int, c: int) -> None:
        """Make column ``c`` basic in row ``r``; its entry there must be positive."""
        prow = self.rows[r]
        p = prow[c]
        for i, line in enumerate(self.rows):
            a = line[c]
            if a and i != r:
                self.rows[i] = _primitive([p * x - a * y for x, y in zip(line, prow)])
        self._eliminate(r, c)
        self.basis[r] = c
        self.pivots += 1

    def run(self) -> LPStatus:
        """Minimize until all reduced costs are non-negative (Bland's rule)."""
        ncols = len(self.obj) - 1
        for _ in range(_PIVOT_CAP):
            col = next((j for j in range(ncols) if self.obj[j] < 0), None)
            if col is None:
                return LPStatus.OPTIMAL
            row = None
            for r, line in enumerate(self.rows):
                a = line[col]
                if a > 0:
                    if row is None:
                        row, best_rhs, best_a = r, line[-1], a
                        continue
                    # rhs/a against best_rhs/best_a, both denominators positive
                    diff = line[-1] * best_a - best_rhs * a
                    if diff < 0 or (diff == 0 and self.basis[r] < self.basis[row]):
                        row, best_rhs, best_a = r, line[-1], a
            if row is None:
                return LPStatus.UNBOUNDED
            self.pivot(row, col)
        raise RuntimeError("simplex pivot cap exceeded")

    def drive_out(self, ncols: int) -> None:
        """Pivot leftover artificials (columns ``ncols`` on) out of the basis.

        A row with no real nonzero is redundant and is dropped.  An artificial
        still basic after phase one has value 0, so its row has rhs 0 and may
        be negated to make the pivot positive.  The artificial columns are then
        dropped.
        """
        for r in range(len(self.rows) - 1, -1, -1):
            if self.basis[r] >= ncols:
                line = self.rows[r]
                col = next((j for j in range(ncols) if line[j] != 0), None)
                if col is None:
                    del self.rows[r]
                    del self.basis[r]
                    continue
                if line[col] < 0:
                    self.rows[r] = [-v for v in line]
                self.pivot(r, col)
        self.rows = [_primitive(line[:ncols] + line[-1:]) for line in self.rows]

    def solution(self, nx: int) -> tuple[list[Fraction], Fraction]:
        """The basic solution's first ``nx`` values and its objective value."""
        x = [Fraction(0)] * nx
        for line, b in zip(self.rows, self.basis):
            if b < nx:
                x[b] = Fraction(line[-1], line[b])
        return x, -Fraction(self.obj[-1], self.den)


def solve_lp(
    c: Sequence[Fraction],
    A_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    A_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> LPResult:
    """Exact two-phase simplex; variables are implicitly non-negative.

    Entries may be :class:`fractions.Fraction` or ``int``.
    """
    nx = len(c)
    ub = list(zip(A_ub, b_ub))
    rows = ub + list(zip(A_eq, b_eq))
    n_ub = len(ub)

    # Columns: x vars, one slack per <= row, then one artificial per row that
    # has no slack to start the basis (a negative rhs, or an equality).
    ncols = nx + n_ub
    art_rows = (i for i, (_, rhs) in enumerate(rows) if rhs < 0 or i >= n_ub)
    artificial = {i: ncols + k for k, i in enumerate(art_rows)}
    width = ncols + len(artificial) + 1
    lines: list[list[int]] = []
    basis: list[int] = []
    for i, (row, rhs) in enumerate(rows):
        body, d = _integers([*row, rhs])
        sign = -1 if rhs < 0 else 1
        line = [0] * width
        line[: len(row)] = [sign * v for v in body[:-1]]
        line[-1] = sign * body[-1]
        if i < n_ub:
            line[nx + i] = sign * d
        if i in artificial:
            line[artificial[i]] = d
        basis.append(artificial.get(i, nx + i))
        lines.append(line)

    # Phase 1: minimize the sum of artificials.
    tab = _Tableau(lines, basis)
    tab.price([0] * ncols + [1] * len(artificial) + [0])
    if rows and tab.run() != LPStatus.OPTIMAL:
        raise RuntimeError("phase one cannot be unbounded")
    if tab.obj[-1] < 0:
        return LPResult(LPStatus.INFEASIBLE, pivots=tab.pivots)
    tab.drive_out(ncols)

    # Phase 2: the real objective, expressed in reduced costs over the basis.
    tab.price([*c] + [0] * (ncols - nx + 1))
    if tab.run() == LPStatus.UNBOUNDED:
        return LPResult(LPStatus.UNBOUNDED, pivots=tab.pivots)
    x, objective = tab.solution(nx)
    return LPResult(LPStatus.OPTIMAL, x=x, objective=objective, pivots=tab.pivots)
