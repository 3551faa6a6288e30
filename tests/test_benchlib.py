"""The BENCH scripts' shared harness, the scripts' imports, and the
answers digest of ``trace_digest``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
_spec = importlib.util.spec_from_file_location("benchlib", SCRIPTS / "benchlib.py")
benchlib = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchlib)


def test_the_order_flips_each_pair_parent_first():
    assert [benchlib.order(pair) for pair in range(4)] == [
        ("parent", "change"), ("change", "parent"),
        ("parent", "change"), ("change", "parent"),
    ]


def test_times_become_the_median_and_the_minimum():
    runs = [{"kind": "f2", "lp_s": t, "pivots": 7} for t in (0.3, 0.1, 0.9)]
    assert benchlib.summarize(runs) == {
        "kind": "f2", "lp_s": 0.3, "lp_min_s": 0.1, "pivots": 7,
    }


def test_lists_of_times_are_pooled_over_the_runs():
    runs = [{"call_s": [0.5, 0.4]}, {"call_s": [2.0]}, {"call_s": [0.3, 0.1]}]
    assert benchlib.summarize(runs) == {"call_s": 0.4, "call_min_s": 0.1}


def test_a_field_that_differs_between_runs_of_one_side_fails():
    runs = [{"steps": 35, "synthesize_s": 0.1}, {"steps": 36, "synthesize_s": 0.1}]
    with pytest.raises(ValueError, match="steps"):
        benchlib.summarize(runs)


def test_only_the_named_fields_must_match_between_sides(capsys):
    change = [{"ratio": "3/2", "unit_bits": 33, "cuts": 5, "synthesize_s": 0.1}]
    parent = [{"ratio": "3/2", "unit_bits": 40, "cuts": 5, "synthesize_s": 0.9}]
    assert benchlib.differing(["f2 8 2"], change, parent, ("ratio", "cuts")) == []
    assert "unit_bits 40 at the parent, 33 here" in capsys.readouterr().out
    parent[0]["cuts"] = 6
    assert benchlib.differing(["f2 8 2"], change, parent, ("cuts",)) == ["f2 8 2 cuts"]


def test_a_child_runs_one_row_on_the_given_src():
    row = benchlib.run_child("bench_lp", SCRIPTS.parent / "src", ["random-1", 3, 2])
    assert row["lp_equals_cut"] and row["grid"] == "3x2" and min(row["lp_s"]) > 0


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_every_script_imports(path, monkeypatch):
    # a rename in src that a script still uses fails here, not at its next run
    monkeypatch.syspath_prepend(str(SCRIPTS))
    assert importlib.import_module(path.stem).__doc__


def test_the_answers_digest_is_pinned(monkeypatch):
    # the gate for every solver change: the optimal ratios, witnesses and
    # verdicts of trace_digest's sweep
    monkeypatch.syspath_prepend(str(SCRIPTS))
    trace_digest = importlib.import_module("trace_digest")
    assert trace_digest.answers_digest() == (
        "0b54d87fb4912b9162abf041356117c991850ce795f67aaa7213716e2c0f040b"
    )
