"""JSON document formats shared by the command-line tools.

Rationals travel as strings ("3/4", "2") so no precision is lost to JSON
numbers.  Every document a command emits parses back through this module
unchanged, and emission is deterministic: fixed key order, sorted rows,
two-space indentation.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from typing import Any

from compauction.attainability import Verdict
from compauction.auctions import AuctionProfile, RatioReport, check_profile_valid
from compauction.benchmarks import (
    BUILTIN_KINDS,
    BenchmarkTable,
    builtin_table,
    validate_table,
)
from compauction.grid import BidGrid, Point, check_size

MAX_GRID_POINTS = 2**16  # checked before tabulation; 129 levels x 2 bidders fit
# n * N * bits of 1+delta = P/Q bounds a point's value; a weight's denominator
# P^((N+1) n) is n * bits(P) longer.  delta = 1/16 on 129 levels x 2 takes 1280.
MAX_LADDER_BITS = 2**12
# Read before any parsing: 2x the largest f2-shaped custom table the ladder
# cap admits (256 levels x 2 bidders at delta 1/128, 28.9 MB).
MAX_DOCUMENT_BYTES = 2**26


class FormatError(ValueError):
    """A document failed to parse or failed validation."""


def _check_digits(value: Fraction) -> None:
    """Reject a rational Python refuses to print.

    Python prints no integer longer than ``sys.get_int_max_str_digits()``
    digits, so a numerator or denominator past that bound is rejected.  The
    bit length gives the digit count or one more, so only one past the bound
    builds a power of ten.  Parsed and printed rationals pass here alike.
    """
    limit = sys.get_int_max_str_digits()
    top = max(abs(value.numerator), value.denominator)
    digits = math.floor(top.bit_length() * math.log10(2)) + 1
    if limit and (digits > limit + 1 or digits == limit + 1 and top >= 10**limit):
        raise FormatError(f"rational has more than {limit} digits")


def fraction_to_str(value: Fraction) -> str:
    """``value`` as ``p/q`` (``p`` if whole), the form of every printed rational."""
    value = Fraction(value)
    _check_digits(value)
    return str(value)


def fraction_to_float(value: Fraction) -> float:
    """``value`` as a float, the form of every printed decimal, if it has one."""
    try:
        return float(value)
    except OverflowError:
        raise FormatError("rational is beyond the range of a float") from None


def parse_fraction(text: Any) -> Fraction:
    """Parse a rational, rejecting one that could not be printed back.

    A numeral with more digits than ``sys.get_int_max_str_digits()``, on
    either side of ``a/b`` or in an exponent, is rejected before Python
    converts it, and a decimal exponent past that bound before the power of
    ten is ever built.
    """
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise FormatError(f"expected a rational string, got {text!r}")
    limit = sys.get_int_max_str_digits()
    if isinstance(text, str) and limit:
        for side in text.split("/"):
            mantissa, _, exponent = side.lower().partition("e")
            for numeral in (mantissa, exponent):
                if len(numeral) > limit and sum(ch.isdecimal() for ch in numeral) > limit:
                    raise FormatError(f"rational has more than {limit} digits")
            try:
                too_long = abs(int(exponent or 0)) > limit
            except ValueError:
                too_long = False  # not an integer exponent: Fraction reports it below
            if too_long:
                raise FormatError(f"rational exponent above {limit} in {text[:40]!r}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {str(text)[:40]!r}: {exc}") from None
    _check_digits(value)
    return value


def _expect(doc: Any, key: str, kind: type) -> Any:
    if not isinstance(doc, dict):
        raise FormatError(f"expected an object with field {key!r}")
    if key not in doc:
        raise FormatError(f"missing field {key!r}")
    value = doc[key]
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise FormatError(f"field {key!r} must be an integer")
    if kind is not int and not isinstance(value, kind):
        raise FormatError(f"field {key!r} must be {kind.__name__}")
    return value


def grid_to_doc(grid: BidGrid) -> dict:
    return {
        "delta": fraction_to_str(grid.delta),
        "levels": grid.num_levels,
        "n": grid.n,
    }


def grid_from_doc(doc: Any) -> BidGrid:
    delta = parse_fraction(_expect(doc, "delta", str))
    levels = _expect(doc, "levels", int)
    n = _expect(doc, "n", int)
    try:
        grid = BidGrid(delta, levels, n)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    check_size(levels, n, MAX_GRID_POINTS, "document")
    bits = n * grid.top * max(grid.step).bit_length()
    if bits > MAX_LADDER_BITS:
        raise FormatError(
            f"grid values need {bits} bits (n * N * bits of 1+delta), "
            f"above the ladder cap of {MAX_LADDER_BITS}"
        )
    return grid


def _point_from_doc(doc: Any, grid: BidGrid, width: int) -> Point:
    if not isinstance(doc, list) or len(doc) != width:
        raise FormatError(f"expected a list of {width} level indices, got {doc!r}")
    point = []
    for t in doc:
        if isinstance(t, bool) or not isinstance(t, int) or not 0 <= t <= grid.top:
            raise FormatError(f"level index {t!r} outside [0, {grid.top}]")
        point.append(t)
    return tuple(point)


def table_to_doc(table: BenchmarkTable) -> dict:
    doc: dict = {"grid": grid_to_doc(table.grid), "kind": table.kind}
    if table.kind not in BUILTIN_KINDS:
        doc["values"] = [
            {"levels": list(p), "value": fraction_to_str(v)}
            for p, v in sorted(table.values.items())
        ]
    return doc


def table_from_doc(doc: Any) -> BenchmarkTable:
    grid = grid_from_doc(_expect(doc, "grid", dict))
    kind = _expect(doc, "kind", str)
    if kind in BUILTIN_KINDS:
        try:
            return builtin_table(grid, kind)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    if kind != "custom":
        raise FormatError(f"unknown benchmark kind {kind!r}")
    rows = _expect(doc, "values", list)
    values: dict[Point, Fraction] = {}
    for row in rows:
        point = _point_from_doc(_expect(row, "levels", list), grid, grid.n)
        if point in values:
            raise FormatError(f"duplicate value row for levels {list(point)}")
        values[point] = parse_fraction(_expect(row, "value", str))
    table = BenchmarkTable(grid, values, kind="custom")
    try:
        validate_table(table)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    return table


def profile_to_doc(profile: AuctionProfile) -> dict:
    grid = profile.grid
    rows = []
    for i in range(grid.n):
        for others in sorted(grid.others_points()):
            offers = profile.offer_row(i, others)
            rows.append(
                {
                    "bidder": i + 1,
                    "others": list(others),
                    "prices": [
                        {"level": t, "prob": fraction_to_str(p)}
                        for t, p in sorted(offers.items())
                        if p != 0
                    ],
                }
            )
    return {"grid": grid_to_doc(grid), "z": rows}


def profile_from_doc(doc: Any) -> AuctionProfile:
    grid = grid_from_doc(_expect(doc, "grid", dict))
    z: list[dict[Point, dict[int, Fraction]]] = [{} for _ in range(grid.n)]
    seen: set[tuple[int, Point]] = set()
    for row in _expect(doc, "z", list):
        bidder = _expect(row, "bidder", int)
        if not 1 <= bidder <= grid.n:
            raise FormatError(f"bidder index {bidder} outside 1..{grid.n}")
        others = _point_from_doc(_expect(row, "others", list), grid, grid.n - 1)
        offers: dict[int, Fraction] = {}
        for price in _expect(row, "prices", list):
            level = _expect(price, "level", int)
            prob = parse_fraction(_expect(price, "prob", str))
            if level in offers:
                raise FormatError(f"duplicate price level {level}")
            offers[level] = prob
        if (bidder, others) in seen:
            raise FormatError(
                f"duplicate offer row for bidder {bidder}, others {list(others)}"
            )
        seen.add((bidder, others))
        z[bidder - 1][others] = offers
    profile = AuctionProfile(grid, z)
    ok, witness = check_profile_valid(profile)
    if not ok:
        raise FormatError(f"auction profile is invalid at {witness}")
    return profile


def verdict_to_doc(verdict: Verdict) -> dict:
    witness = None
    if verdict.witness is not None:
        witness = [list(p) for p in sorted(verdict.witness.points)]
    return {
        "attainable": verdict.attainable,
        "lambda": fraction_to_str(verdict.lam),
        "witness_upset": witness,
        "method": "cut",
    }


def ratio_to_doc(report: RatioReport) -> dict:
    return {
        "ratio": "unbounded" if report.ratio is None else fraction_to_str(report.ratio),
        "argmax_bid": None if report.argmax is None else list(report.argmax),
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an overlong number, deep nesting
        raise FormatError(f"invalid JSON: {exc}") from None


def load_file(path: str) -> Any:
    """Parse a document of at most ``MAX_DOCUMENT_BYTES`` bytes of UTF-8, read
    in chunks: one read of the cap's size would allocate 64 MB every call."""
    chunks, size = [], 0
    try:
        with open(path, "rb") as handle:
            while size <= MAX_DOCUMENT_BYTES and (chunk := handle.read(2**16)):
                chunks.append(chunk)
                size += len(chunk)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    if size > MAX_DOCUMENT_BYTES:
        raise FormatError(f"{path} is above the byte cap of {MAX_DOCUMENT_BYTES}")
    try:
        return loads(b"".join(chunks).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8: {exc}") from None
