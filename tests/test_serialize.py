"""Document formats: round trips and rejection of malformed input."""

from fractions import Fraction

import pytest

from compauction import serialize
from compauction.attainability import Verdict, check_attainable
from compauction.auctions import RatioReport
from compauction.benchmarks import builtin_table
from compauction.grid import BidGrid, Upset
from compauction.serialize import FormatError
from compauction.synthesis import synthesize, x_to_z
from tests.conftest import two_tier_table, upset_from_doc

G22 = BidGrid(Fraction(1), 2, 2)


def test_parse_fraction():
    assert serialize.parse_fraction("3/4") == Fraction(3, 4)
    assert serialize.parse_fraction("2") == Fraction(2)
    assert serialize.parse_fraction("1.5") == Fraction(3, 2)
    for bad in ("abc", "1/0", "1e2.5", None, 1.5, True):
        with pytest.raises(FormatError):
            serialize.parse_fraction(bad)
    # the longest integer Python prints, where the digit estimate from the
    # bit length is one too high, round-trips; one digit more does not
    nines = "9" * 4300
    assert serialize.fraction_to_str(serialize.parse_fraction(nines)) == nines
    assert serialize.fraction_to_str(Fraction(-int(nines))) == "-" + nines
    assert serialize.parse_fraction(f"{nines}/{nines}") == 1
    with pytest.raises(FormatError, match="more than 4300 digits"):
        serialize.fraction_to_str(Fraction(10**4300))


def test_parse_fraction_counts_digits_before_python_converts():
    # a numeral past Python's digit limit, on either side of a/b or in an
    # exponent, gets the same message as a value past it ("1e4300")
    long = "1" + "0" * 4300
    for text in (long, "-" + long, f"1/{long}", f"{long}/3", long + ".5",
                 "1e4300", "1e" + "9" * 4301):
        with pytest.raises(FormatError, match="rational has more than 4300 digits"):
            serialize.parse_fraction(text)


def test_grid_round_trip():
    grid = BidGrid(Fraction(3, 7), 5, 3)
    assert serialize.grid_from_doc(serialize.grid_to_doc(grid)) == grid
    with pytest.raises(FormatError):
        serialize.grid_from_doc({"delta": "1", "levels": 2})
    with pytest.raises(FormatError):
        serialize.grid_from_doc({"delta": "0", "levels": 2, "n": 2})
    with pytest.raises(FormatError):
        serialize.grid_from_doc({"delta": "1", "levels": True, "n": 2})


def test_grid_ladder_bound():
    # the finest ladders in use fit; finer ones would make every value huge
    for delta, levels in (("1/16", 129), ("1/10", 121), ("1", 256)):
        grid = serialize.grid_from_doc({"delta": delta, "levels": levels, "n": 2})
        assert grid.num_levels == levels
    assert serialize.grid_from_doc({"delta": "1e4000", "levels": 1, "n": 2})
    for delta, levels in (("1e-4000", 2), ("1e-40", 32), ("1/1000", 256)):
        with pytest.raises(FormatError, match="ladder cap"):
            serialize.grid_from_doc({"delta": delta, "levels": levels, "n": 2})


def test_table_round_trip_custom_and_builtin():
    table = two_tier_table()
    doc = serialize.table_to_doc(table)
    back = serialize.table_from_doc(doc)
    assert back.grid == table.grid
    assert back.values == table.values

    f2t = builtin_table(G22, "f2")
    doc = serialize.table_to_doc(f2t)
    assert "values" not in doc
    back = serialize.table_from_doc(doc)
    assert back.values == f2t.values and back.kind == "f2"


def test_table_from_doc_rejects_bad_tables():
    doc = serialize.table_to_doc(two_tier_table())
    doc["values"][3]["value"] = "-1"
    with pytest.raises(FormatError):
        serialize.table_from_doc(doc)

    doc = serialize.table_to_doc(two_tier_table())
    doc["values"][3]["value"] = "1/4"  # breaks monotonicity
    with pytest.raises(FormatError):
        serialize.table_from_doc(doc)

    doc = serialize.table_to_doc(two_tier_table())
    doc["values"].append(doc["values"][0])
    with pytest.raises(FormatError):
        serialize.table_from_doc(doc)

    doc = serialize.table_to_doc(two_tier_table())
    doc["kind"] = "mystery"
    with pytest.raises(FormatError):
        serialize.table_from_doc(doc)

    for levels, match in (([0], "list of 2 level indices"), ([0, 2], "index 2 outside"),
                          ([0, True], "index True outside")):
        doc = serialize.table_to_doc(two_tier_table())
        doc["values"][0]["levels"] = levels
        with pytest.raises(FormatError, match=match):
            serialize.table_from_doc(doc)


def test_profile_round_trip():
    profile = x_to_z(synthesize(two_tier_table(), Fraction(1)))
    doc = serialize.profile_to_doc(profile)
    back = serialize.profile_from_doc(doc)
    assert back.grid == profile.grid
    for i in range(2):
        for others in G22.others_points():
            assert back.offer_row(i, others) == profile.offer_row(i, others)


def test_profile_from_doc_rejects_bad_probabilities():
    profile = x_to_z(synthesize(two_tier_table(), Fraction(1)))
    doc = serialize.profile_to_doc(profile)
    doc["z"][0]["prices"][0]["prob"] = "9/8"
    with pytest.raises(FormatError):
        serialize.profile_from_doc(doc)
    doc = serialize.profile_to_doc(profile)
    doc["z"][0]["bidder"] = 5
    with pytest.raises(FormatError):
        serialize.profile_from_doc(doc)

    for others, match in (([0, 0], "list of 1 level indices"), ([2], "index 2 outside"),
                          ([False], "index False outside")):
        doc = serialize.profile_to_doc(profile)
        doc["z"][0]["others"] = others
        with pytest.raises(FormatError, match=match):
            serialize.profile_from_doc(doc)
    doc = serialize.profile_to_doc(profile)
    doc["z"][0]["prices"][1]["level"] = 0
    with pytest.raises(FormatError, match="duplicate price level 0"):
        serialize.profile_from_doc(doc)
    doc = serialize.profile_to_doc(profile)
    doc["z"].append(doc["z"][0])
    with pytest.raises(FormatError, match="duplicate offer row"):
        serialize.profile_from_doc(doc)


def test_verdict_and_ratio_docs():
    verdict = check_attainable(two_tier_table(), Fraction(9, 10))
    doc = serialize.verdict_to_doc(verdict)
    assert doc["attainable"] is False
    assert doc["lambda"] == "9/10"
    witness = upset_from_doc(doc["witness_upset"], G22)
    assert isinstance(witness, Upset)
    assert witness == verdict.witness

    doc = serialize.verdict_to_doc(Verdict(True, Fraction(1), None))
    assert doc["witness_upset"] is None and doc["method"] == "cut"

    assert serialize.ratio_to_doc(RatioReport(None, (0, 0)))["ratio"] == "unbounded"
    doc = serialize.ratio_to_doc(RatioReport(Fraction(5, 4), (1, 1)))
    assert doc == {"ratio": "5/4", "argmax_bid": [1, 1]}


def test_loads_reports_line_numbers():
    with pytest.raises(FormatError, match="line 3"):
        serialize.loads('{\n  "grid": \n}')
