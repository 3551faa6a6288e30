"""Property test of the exit-code contract on malformed and extreme input.

Whatever the documents and arguments, ``cli.main`` ends with exit 0, 1 or 2
(exit 3 is kept for bugs), never lets a traceback reach stderr, reserves
exit 1 for a negative verdict, and answers quickly: every size past a bound
is rejected before the work it would size.
"""

import contextlib
import io
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compauction.cli import main

EXTREME_INTS = st.one_of(
    st.integers(-2, 5),
    st.sampled_from([17, 33, 257, 2**16, 2**16 + 1, 10**9, 2**64, -(10**30)]),
)
RATIONALS = st.one_of(
    st.sampled_from(["1", "5/4", "23/16", "0", "-1", "1/0", "nan", "inf", "",
                     " 2 ", "1_000", "1e999999", "1e-999999999", "1e-4000",
                     "1e4000", "1e-40", "7" * 5000, "0x10"]),
    st.text(max_size=10),
)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=8),
)
ANY_JSON = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
GRIDS = st.fixed_dictionaries(
    {"delta": RATIONALS | JSON_LEAVES, "levels": EXTREME_INTS, "n": EXTREME_INTS}
)
SMALL_GRIDS = st.fixed_dictionaries(
    {"delta": st.sampled_from(["1", "1/3", "5/2", "1e-40", "1e-4000", "1e4000"]),
     "levels": st.integers(1, 4), "n": st.integers(1, 3)}
)


@st.composite
def custom_tables(draw) -> dict:
    """A full custom table on a small grid: monotone, or not quite."""
    grid = draw(SMALL_GRIDS)
    scale = Fraction(draw(st.sampled_from(["1", "1/3", "1e-40", "1e40", "1e400", "0"])))
    points = itertools.product(range(grid["levels"]), repeat=grid["n"])
    rows = [{"levels": list(p), "value": str(scale * sum(p) + draw(st.integers(0, 2)))}
            for p in points]
    return {"grid": grid, "kind": "custom", "values": rows}


ROWS = st.lists(
    st.fixed_dictionaries(
        {"levels": st.lists(st.integers(-1, 3), max_size=3), "value": RATIONALS}
    ),
    max_size=6,
)
TABLES = st.fixed_dictionaries(
    {"grid": SMALL_GRIDS | GRIDS | ANY_JSON,
     "kind": st.sampled_from(["f2", "maxv", "custom", "nope", 3, None])},
    optional={"values": ROWS | ANY_JSON},
)
PROFILES = st.fixed_dictionaries(
    {"grid": SMALL_GRIDS | GRIDS,
     "z": st.lists(ANY_JSON | st.fixed_dictionaries(
         {"bidder": EXTREME_INTS, "others": st.lists(st.integers(-1, 3), max_size=3),
          "prices": st.lists(st.fixed_dictionaries(
              {"level": EXTREME_INTS, "prob": RATIONALS}), max_size=3)}),
         max_size=4)},
)
DOCUMENTS = st.one_of(
    st.one_of(
        TABLES.map(json.dumps), custom_tables().map(json.dumps),
        PROFILES.map(json.dumps), ANY_JSON.map(json.dumps),
        st.text(max_size=40), st.just("[" * 100000),
    ).map(str.encode),
    st.binary(max_size=40),
)


@st.composite
def invocations(draw) -> tuple[list[str], dict[str, bytes]]:
    """Arguments naming files by key, and the bytes of each file."""
    files = {"bench.json": draw(DOCUMENTS), "auction_in.json": draw(DOCUMENTS)}
    ratio = draw(RATIONALS)
    number = lambda: str(draw(EXTREME_INTS))  # noqa: E731
    argv = draw(st.sampled_from([
        ["check", "bench.json", ratio],
        ["optimal", "bench.json", "--method",
         draw(st.sampled_from(["cut", "lp", "both"]))],
        ["synthesize", "bench.json", ratio, "--output", "auction.json"],
        ["synthesize", "bench.json", "--output", "auction.json"],
        ["evaluate", "auction_in.json", "bench.json"],
        ["reduce", "bench.json", "-k", number()],
        ["ratios", "--max-n", number()],
        ["simulate", "--benchmark", "f2", "--n", number(), "--samples", number(),
         "--blocks", number(), "--seed", number()],
    ]))
    return argv, files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-properties")


HUGE_TABLE = json.dumps({
    "grid": {"delta": "1", "levels": 2, "n": 1}, "kind": "custom",
    "values": [{"levels": [t], "value": "1e400"} for t in range(2)],
}).encode()


@settings(max_examples=120, deadline=2000, derandomize=True, database=None)
@given(case=invocations())
@example(case=(["optimal", "bench.json"], {"bench.json": HUGE_TABLE}))
def test_every_input_ends_with_a_documented_exit_code(workdir, case):
    argv, files = case
    for name, data in files.items():
        (workdir / name).write_bytes(data)
    argv = [str(workdir / a) if a in files or a == "auction.json" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert argv[0] in ("check", "synthesize")
