"""Command-line interface.

Exit codes: 0 success (or attainable), 1 negative verdict (violated /
not attainable), 2 usage or input error, 3 internal error.  Rationals
print as exact ``p/q`` strings.  ``check`` and ``optimal`` decide by one
minimum cut per ratio; ``optimal --method both`` asks the exact LP oracle as
well.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from fractions import Fraction
from typing import Callable

from compauction import attainability, ratios, serialize, synthesis
from compauction.auctions import competitive_ratio
from compauction.benchmarks import check_supply, limited_supply_bounds
from compauction.grid import BidGrid, DomainTooLargeError
from compauction.serialize import FormatError
from compauction.synthesis import (
    NotAttainableError,
    SynthesisInvariantError,
    TraceRecorder,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# Largest sizes ``ratios`` and ``simulate`` accept (exit 2 past them).  The
# exact ratio sums grow about cubically in the bidder count; a simulation
# draws ``samples * n`` floats in all, ``(samples // blocks) * n`` at once,
# and spawns one seed sequence per block.
MAX_BIDDERS = 256
MAX_DRAWS = 10**8
MAX_BLOCK_DRAWS = 2**22
MAX_BLOCKS = 10**4
# Largest ``n^2 * levels^n`` ``evaluate`` accepts: ``competitive_ratio`` reads
# ``n`` offer rows, each keyed by ``n - 1`` levels, at every point.  1024
# bidders on one level, the widest grid ``synthesize`` admits, are at the cap.
MAX_EVALUATION_WORK = 2**20


def _parse_ratio(text: str) -> Fraction:
    value = serialize.parse_fraction(text)
    if value < 0:
        raise FormatError(f"ratio must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compauction",
        description="Competitive auctions for digital goods: attainability, "
        "synthesis, evaluation, and benchmark ratios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether a ratio is attainable")
    p.add_argument("benchmark", help="benchmark JSON file")
    p.add_argument("ratio", help="competitive ratio (rational, e.g. 13/6)")

    p = sub.add_parser("optimal", help="compute the optimal competitive ratio")
    p.add_argument("benchmark")
    p.add_argument("--method", choices=("cut", "both"), default="cut")

    p = sub.add_parser("synthesize", help="construct an optimal truthful auction")
    p.add_argument("benchmark")
    p.add_argument("ratio", nargs="?", default=None,
                   help="target ratio (default: the optimal one)")
    p.add_argument("--output", "-o", default="-",
                   help="file for the auction profile JSON ('-' = stdout)")
    p.add_argument("--trace", action="store_true",
                   help="print the step-by-step tables to stdout")

    p = sub.add_parser("evaluate", help="competitive ratio of an auction profile")
    p.add_argument("auction", help="auction profile JSON file")
    p.add_argument("benchmark")

    p = sub.add_parser("ratios", help="table of optimal ratios per bidder count")
    p.add_argument("--max-n", type=int, default=10)

    p = sub.add_parser("simulate", help="Monte-Carlo benchmark expectation")
    p.add_argument("--benchmark", choices=("f2", "maxv"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--blocks", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("reduce", help="limited-supply sandwich benchmarks")
    p.add_argument("benchmark")
    p.add_argument("--supply", "-k", type=int, required=True)
    p.add_argument("--upper", help="file for the upper benchmark")
    p.add_argument("--lower", help="file for the lower benchmark")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process (1-2 ms a build)."""
    return build_parser()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None


def _load(path: str, check: Callable[[BidGrid, object], None],
          read: Callable[[object], object] = serialize.table_from_doc):
    """Read a document by ``read``, a benchmark by default; ``check`` sees its
    grid and kind before ``read`` builds anything from its rows."""
    doc = serialize.load_file(path)
    if isinstance(doc, dict) and isinstance(doc.get("grid"), dict):
        check(serialize.grid_from_doc(doc["grid"]), doc.get("kind"))
    return read(doc)


def _cmd_check(args) -> int:
    table = _load(
        args.benchmark, lambda grid, _: attainability.check_cut_size(grid)
    )
    lam = _parse_ratio(args.ratio)
    verdict = attainability.check_attainable(table, lam)
    sys.stdout.write(serialize.dumps(serialize.verdict_to_doc(verdict)))
    return EXIT_OK if verdict.attainable else EXIT_NEGATIVE


def _cmd_optimal(args) -> int:
    def check(grid: BidGrid, _) -> None:
        attainability.check_cut_size(grid)
        if args.method == "both":
            attainability.check_lp_size(grid)

    table = _load(args.benchmark, check)
    result = attainability.optimal_ratio(table)
    if args.method == "both":
        other = attainability.optimal_ratio_lp(table)
        if other != result.ratio:
            raise SynthesisInvariantError(f"the cut gives {result.ratio}, the LP {other}")
    doc = {
        "lambda": serialize.fraction_to_str(result.ratio),
        "lambda_decimal": serialize.fraction_to_float(result.ratio),
        "witness_upset": [list(p) for p in sorted(result.witness.points)],
        "method": args.method,
    }
    sys.stdout.write(serialize.dumps(doc))
    return EXIT_OK


def _cmd_synthesize(args) -> int:
    if args.trace and args.output == "-":
        raise FormatError("--trace needs --output FILE so the trace owns stdout")
    table = _load(
        args.benchmark,
        lambda grid, _: synthesis.check_synthesis_size(grid, trace=args.trace),
    )
    if args.ratio is None:
        lam = attainability.optimal_ratio(table).ratio
    else:
        lam = _parse_ratio(args.ratio)
    recorder = TraceRecorder(table.grid, lam) if args.trace else None
    revenue = synthesis.synthesize(table, lam, observer=recorder)
    text = serialize.dumps(serialize.profile_to_doc(synthesis.x_to_z(revenue)))
    if recorder is not None:
        sys.stdout.write(recorder.text())
    _write(args.output, text)
    return EXIT_OK


def _check_evaluation_size(grid: BidGrid, _) -> None:
    work = grid.n**2 * grid.num_levels**grid.n
    if work > MAX_EVALUATION_WORK:
        raise DomainTooLargeError(
            f"grid of {grid.num_levels}^{grid.n} points has n^2 * levels^n = {work}, "
            f"above the evaluation cap of {MAX_EVALUATION_WORK}"
        )


def _cmd_evaluate(args) -> int:
    profile = _load(args.auction, _check_evaluation_size, serialize.profile_from_doc)

    def same_grid(grid: BidGrid, _) -> None:
        if grid != profile.grid:
            raise FormatError("auction and benchmark live on different grids")

    table = _load(args.benchmark, same_grid)
    report = competitive_ratio(profile, table)
    sys.stdout.write(serialize.dumps(serialize.ratio_to_doc(report)))
    return EXIT_OK


def _cmd_ratios(args) -> int:
    if not 2 <= args.max_n <= MAX_BIDDERS:
        raise FormatError(f"--max-n must lie in [2, {MAX_BIDDERS}]")
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        ["n", "lambda_exact", "lambda_decimal", "gamma_exact", "gamma_decimal"]
    )
    for n in range(2, args.max_n + 1):
        lam = ratios.lambda_n(n)
        gam = ratios.gamma_n(n)
        writer.writerow(
            [
                n,
                serialize.fraction_to_str(lam),
                f"{serialize.fraction_to_float(lam):.12g}",
                serialize.fraction_to_str(gam),
                f"{serialize.fraction_to_float(gam):.12g}",
            ]
        )
    sys.stdout.write(out.getvalue())
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if not 2 <= args.n <= MAX_BIDDERS:
        raise FormatError(f"--n must lie in [2, {MAX_BIDDERS}]")
    if args.samples < 1 or args.blocks < 1 or args.samples < args.blocks:
        raise FormatError("need samples >= blocks >= 1")
    if args.blocks > MAX_BLOCKS:
        raise FormatError(f"--blocks must be at most {MAX_BLOCKS}")
    if args.samples * args.n > MAX_DRAWS:
        raise FormatError(f"samples * n must be at most {MAX_DRAWS}")
    if args.samples // args.blocks * args.n > MAX_BLOCK_DRAWS:
        raise FormatError(
            f"(samples // blocks) * n must be at most {MAX_BLOCK_DRAWS}; "
            "raise --blocks"
        )
    if args.seed < 0:
        raise FormatError("--seed must be non-negative")
    stat = ratios.f2_statistic if args.benchmark == "f2" else ratios.maxv_statistic
    estimate, error = ratios.mc_expected(
        stat, args.n, args.samples, args.blocks, seed=args.seed
    )
    if args.benchmark == "f2":
        reference = ratios.lambda_n(args.n) * args.n
    else:
        reference = ratios.expected_maxv(args.n)
    doc = {
        "benchmark": args.benchmark,
        "n": args.n,
        "samples": args.samples,
        "blocks": args.blocks,
        "seed": args.seed,
        "estimate": estimate,
        "error": error,
        "reference": serialize.fraction_to_str(reference),
        "reference_decimal": serialize.fraction_to_float(reference),
    }
    sys.stdout.write(serialize.dumps(doc))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    try:
        table = _load(
            args.benchmark, lambda grid, kind: check_supply(grid, args.supply, kind)
        )
        upper, lower = limited_supply_bounds(table, args.supply)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    upper_doc = serialize.table_to_doc(upper)
    lower_doc = serialize.table_to_doc(lower)
    if args.upper or args.lower:
        if not (args.upper and args.lower):
            raise FormatError("--upper and --lower must be given together")
        _write(args.upper, serialize.dumps(upper_doc))
        _write(args.lower, serialize.dumps(lower_doc))
    else:
        sys.stdout.write(
            serialize.dumps({"upper": upper_doc, "lower": lower_doc})
        )
    return EXIT_OK


_HANDLERS = {
    "check": _cmd_check,
    "optimal": _cmd_optimal,
    "synthesize": _cmd_synthesize,
    "evaluate": _cmd_evaluate,
    "ratios": _cmd_ratios,
    "simulate": _cmd_simulate,
    "reduce": _cmd_reduce,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except (FormatError, DomainTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotAttainableError as exc:
        print(f"not attainable: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except Exception as exc:  # anything else is a bug, never a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
