"""Command-line surface: exit codes, documents, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from compauction import cli, serialize
from compauction.cli import main
from tests.conftest import scaled, upset_from_doc

DATA = Path(__file__).parent / "data"
TWO_TIER = str(DATA / "two_tier_benchmark.json")
F2_FILE = str(DATA / "f2_2x2_benchmark.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_attainable_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "check", TWO_TIER, "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["attainable"] is True and doc["method"] == "cut"

    code, out, _ = run(capsys, "check", TWO_TIER, "1/2")
    assert code == 1
    doc = json.loads(out)
    assert doc["attainable"] is False
    assert doc["witness_upset"]  # non-empty witness

    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "check", str(bad), "1")
    assert code == 2 and "error" in err

    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"), "1")
    assert code == 2


def test_overlong_rationals_are_bad_input(capsys, tmp_path):
    # each would print with more digits than Python allows, or take a huge
    # power of ten to build; both are input errors, never "violated"
    for ratio in ("1e999999", "1e4300", "7" * 2200 + "e2200", "1e-999999999"):
        code, out, err = run(capsys, "check", F2_FILE, ratio)
        assert code == 2 and out == ""
        assert "error" in err and "Traceback" not in err
    huge = tmp_path / "huge.json"
    for text in ('{"grid": {"delta": "1", "levels": 1%s, "n": 2}}' % ("0" * 5000),
                 "[" * 100000):  # a number past the digit limit; deep nesting
        huge.write_text(text)
        code, _, err = run(capsys, "check", str(huge), "1")
        assert code == 2 and "Traceback" not in err


def test_a_ratio_past_the_digit_limit_gets_one_message(capsys):
    for ratio in ("1" + "0" * 4300, "1/1" + "0" * 4300):
        code, out, err = run(capsys, "check", TWO_TIER, ratio)
        assert code == 2 and out == "" and _one_error_line(err)
        assert "rational has more than 4300 digits" in err
        assert "set_int_max_str_digits" not in err


def test_check_rejects_negative_ratio(capsys):
    code, _, err = run(capsys, "check", TWO_TIER, "-1")
    assert code == 2 and "non-negative" in err


def test_optimal_command(capsys):
    code, out, _ = run(capsys, "optimal", TWO_TIER)
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == "1"
    assert doc["lambda_decimal"] == 1.0
    assert doc["method"] == "cut"

    code, out, _ = run(capsys, "optimal", F2_FILE, "--method", "both")
    doc = json.loads(out)
    assert doc["lambda"] == "5/4" and doc["method"] == "both"

    code, out, err = run(capsys, "optimal", F2_FILE, "--method", "lp")
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "invalid choice: 'lp'" in err


def test_synthesize_golden_trace(capsys, tmp_path):
    profile_path = tmp_path / "profile.json"
    code, out, _ = run(
        capsys, "synthesize", TWO_TIER, "1", "--trace",
        "--output", str(profile_path),
    )
    assert code == 0
    golden = (DATA / "two_tier_trace.txt").read_text(encoding="utf-8")
    assert out == golden

    profile = serialize.profile_from_doc(json.loads(profile_path.read_text()))
    # first bidder: fair coin over both prices; second: offered the first bid
    for others in [(0,), (1,)]:
        assert profile.offer_row(0, others) == {
            0: Fraction(1, 2),
            1: Fraction(1, 2),
        }
    assert profile.offer_row(1, (0,)) == {0: Fraction(1)}
    assert profile.offer_row(1, (1,)) == {1: Fraction(1)}


def test_synthesize_golden_trace_for_three_bidders(capsys, tmp_path):
    """f2 on 2x3 at its optimum 5/4: the ``f(point) = value`` layout, and
    new-tight events of up to five sets."""
    code, out, _ = run(
        capsys, "synthesize", str(DATA / "f2_2x3_benchmark.json"), "5/4", "--trace",
        "--output", str(tmp_path / "profile.json"),
    )
    assert code == 0
    assert out == (DATA / "f2_2x3_trace.txt").read_text(encoding="utf-8")


def test_synthesize_defaults_to_the_optimal_ratio(capsys, tmp_path):
    out_path = tmp_path / "auction.json"
    code, _, _ = run(capsys, "synthesize", TWO_TIER, "--output", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "evaluate", str(out_path), TWO_TIER)
    assert code == 0
    assert json.loads(out)["ratio"] == "1"


def test_synthesize_failure_modes(capsys, tmp_path):
    code, _, err = run(capsys, "synthesize", TWO_TIER, "1/2")
    assert code == 1 and "not attainable" in err
    code, _, err = run(capsys, "synthesize", TWO_TIER, "--trace")
    assert code == 2  # trace needs a file for the profile


def test_evaluate_command(capsys, tmp_path):
    auction = tmp_path / "auction.json"
    run(capsys, "synthesize", TWO_TIER, "1", "--output", str(auction))
    capsys.readouterr()

    code, out, _ = run(capsys, "evaluate", str(auction), TWO_TIER)
    assert code == 0
    assert json.loads(out) == {"ratio": "1", "argmax_bid": [0, 0]}

    # against the doubled benchmark the worst case sits at the bottom corner
    doubled = tmp_path / "doubled.json"
    table = scaled(serialize.table_from_doc(serialize.load_file(TWO_TIER)), 2)
    doubled.write_text(serialize.dumps(serialize.table_to_doc(table)))
    code, out, _ = run(capsys, "evaluate", str(auction), str(doubled))
    assert json.loads(out)["ratio"] == "2"

    # a do-nothing auction never covers a positive benchmark
    empty = tmp_path / "empty.json"
    doc = {"grid": {"delta": "1", "levels": 2, "n": 2}, "z": []}
    empty.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "evaluate", str(empty), F2_FILE)
    assert code == 0
    assert json.loads(out)["ratio"] == "unbounded"


def test_evaluate_rejects_mismatched_grids(capsys, tmp_path):
    auction = tmp_path / "auction.json"
    run(capsys, "synthesize", TWO_TIER, "1", "--output", str(auction))
    capsys.readouterr()
    other = tmp_path / "other.json"
    other.write_text(
        serialize.dumps({"grid": {"delta": "1", "levels": 3, "n": 2},
                         "kind": "f2"})
    )
    code, _, err = run(capsys, "evaluate", str(auction), str(other))
    assert code == 2 and "different grids" in err


def test_evaluate_is_bounded_before_it_reads_the_offer_rows(capsys, tmp_path,
                                                             monkeypatch):
    auction, bench = tmp_path / "auction.json", tmp_path / "f2.json"

    def write(n):
        grid = {"delta": "1", "levels": 1, "n": n}
        auction.write_text(json.dumps({"grid": grid, "z": []}))
        bench.write_text(json.dumps({"grid": grid, "kind": "f2"}))

    # 1024 bidders on one level, the widest grid synthesize admits, stay admitted
    write(1024)
    code, out, _ = run(capsys, "evaluate", str(auction), str(bench))
    assert code == 0 and json.loads(out)["ratio"] == "unbounded"

    def unread(doc):
        raise AssertionError("the offer rows were read past the evaluation cap")

    monkeypatch.setattr(serialize, "profile_from_doc", unread)
    write(1025)
    code, out, err = run(capsys, "evaluate", str(auction), str(bench))
    assert code == 2 and out == "" and _one_error_line(err)
    assert f"above the evaluation cap of {cli.MAX_EVALUATION_WORK}" in err


def test_ratios_command(capsys):
    code, out, _ = run(capsys, "ratios", "--max-n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,lambda_exact,lambda_decimal,gamma_exact,gamma_decimal"
    assert lines[1].startswith("2,2,2,1,1")
    assert lines[2].startswith("3,13/6,")
    assert ",5/4," in lines[2]
    code, _, _ = run(capsys, "ratios", "--max-n", "1")
    assert code == 2


def test_simulate_command(capsys):
    args = ("simulate", "--benchmark", "f2", "--n", "2", "--samples", "20000",
            "--blocks", "20", "--seed", "3")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    doc = json.loads(out1)
    assert doc["reference"] == "4"
    assert abs(doc["estimate"] - 4.0) < 0.5

    code, out2, _ = run(capsys, *args)
    assert out1 == out2  # same seed, same bytes

    code, _, _ = run(capsys, "simulate", "--benchmark", "f2", "--n", "2",
                     "--samples", "0")
    assert code == 2


# sha256 of ``simulate --samples 3000 --blocks 10 --seed 20141`` stdout, with
# the estimate and its error spelled out so a change shows which one moved.
SIMULATE_PINS = {
    ("f2", 2): ("52542e2d06ec384f", 3.9568712339685153, 0.08678270548678309),
    ("f2", 3): ("ac063d62d6634cd2", 6.170461125515014, 0.07265817707368424),
    ("f2", 5): ("0df855aaf8c0c8b8", 11.377195787115479, 0.3517598866685941),
    ("f2", 16): ("466fa7754a6ffd1b", 37.493973674370864, 0.6911876921896069),
    ("f2", 256): ("4b48e73d6c71806b", 622.960201003744, 11.673449190054262),
    ("maxv", 2): ("3b9a4e29cac2b5c2", 1.9784356169842576, 0.043391352743391544),
    ("maxv", 3): ("8155a3cbb410198c", 3.5956749038845586, 0.04158108757999997),
    ("maxv", 5): ("06e55cd45d889c04", 7.1301442486295965, 0.15953173098809525),
    ("maxv", 16): ("52ca3736b1414a58", 25.602062486109098, 0.42310336745699056),
    ("maxv", 256): ("fa2f662d1f755f66", 437.4368306846866, 6.529455976588849),
}


def test_simulate_stdout_is_pinned(capsys):
    for (kind, n), (digest, estimate, error) in SIMULATE_PINS.items():
        code, out, _ = run(capsys, "simulate", "--benchmark", kind, "--n", str(n),
                           "--samples", "3000", "--blocks", "10", "--seed", "20141")
        assert code == 0
        doc = json.loads(out)
        assert (doc["estimate"], doc["error"]) == (estimate, error), (kind, n)
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, (kind, n)


def test_importing_the_cli_leaves_numpy_unloaded():
    # only the sampler needs NumPy, so no other command should pay its import
    package_root = Path(cli.__file__).resolve().parents[1]
    probe = "import sys, compauction.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_the_shared_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    calls = [
        ("simulate", "--benchmark", "f2", "--n", "3", "--samples", "200",
         "--blocks", "10", "--seed", "4"),
        ("simulate", "--benchmark", "maxv", "--n", "2", "--samples", "100"),
        ("ratios", "--max-n", "3"),
        ("ratios",),
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv)[:2])
    assert all(code == 0 for code, _ in fresh)

    def no_rebuild():
        raise AssertionError("the parser was built again")

    cli._parser()
    monkeypatch.setattr(cli, "build_parser", no_rebuild)
    usage_errors = (("simulate", "--n", "x"), ("nosuch",), ("check",),
                    ("optimal", F2_FILE, "--method", "nope"), ("ratios", "--max-n"))
    for bad in usage_errors:
        for argv, expected in zip(calls, fresh):
            code, out, _ = run(capsys, *bad)
            assert code == 2 and out == ""
            assert run(capsys, *argv)[:2] == expected, (bad, argv)


def test_reduce_command(capsys, tmp_path):
    grid_doc = {"delta": "1", "levels": 2, "n": 3}
    bench = tmp_path / "bench3.json"
    bench.write_text(serialize.dumps({"grid": grid_doc, "kind": "f2"}))

    code, out, _ = run(capsys, "reduce", str(bench), "-k", "2")
    assert code == 0
    doc = json.loads(out)
    upper = serialize.table_from_doc(doc["upper"])
    lower = serialize.table_from_doc(doc["lower"])
    assert upper.grid.n == 2 and lower.grid.n == 2

    up_path, low_path = tmp_path / "up.json", tmp_path / "low.json"
    code, _, _ = run(capsys, "reduce", str(bench), "-k", "2",
                     "--upper", str(up_path), "--lower", str(low_path))
    assert code == 0
    assert serialize.table_from_doc(json.loads(up_path.read_text()))

    code, _, err = run(capsys, "reduce", str(bench), "-k", "5")
    assert code == 2

    code, _, err = run(capsys, "reduce", str(bench), "-k", "2",
                       "--upper", str(up_path))
    assert code == 2 and "together" in err


def _write_table(path, table):
    path.write_text(serialize.dumps(serialize.table_to_doc(table)))


def test_zero_benchmark_through_the_pipeline(capsys, tmp_path):
    from fractions import Fraction as F

    from compauction.benchmarks import BenchmarkTable
    from compauction.grid import BidGrid

    grid = BidGrid(F(1), 2, 2)
    zero = tmp_path / "zero.json"
    _write_table(zero, BenchmarkTable(grid, {p: F(0) for p in grid.points()}))

    code, out, _ = run(capsys, "optimal", str(zero))
    assert code == 0 and json.loads(out)["lambda"] == "0"

    auction = tmp_path / "zauction.json"
    code, _, _ = run(capsys, "synthesize", str(zero), "--output", str(auction))
    assert code == 0
    profile = serialize.profile_from_doc(json.loads(auction.read_text()))
    assert all(not row["prices"] for row in serialize.profile_to_doc(profile)["z"])


def test_evaluate_against_scaled_builtin(capsys, tmp_path):
    # the synthesized auction covers its own benchmark at ratio 1, so against
    # twice the fixed-price benchmark the worst case is a finite rational
    auction = tmp_path / "auction.json"
    run(capsys, "synthesize", TWO_TIER, "1", "--output", str(auction))
    capsys.readouterr()
    table = scaled(serialize.table_from_doc(serialize.load_file(F2_FILE)), 2)
    doubled = tmp_path / "f2x2.json"
    _write_table(doubled, table)
    code, out, _ = run(capsys, "evaluate", str(auction), str(doubled))
    assert code == 0
    assert json.loads(out)["ratio"] == "8/3"


def test_random_benchmark_round_trips_below_its_optimum(capsys, tmp_path, rng):
    from fractions import Fraction as F

    from compauction.grid import BidGrid
    from tests.conftest import random_monotone_table

    grid = BidGrid(F(1), 3, 2)
    table = random_monotone_table(grid, rng, nonzero=True)
    bench = tmp_path / "bench.json"
    _write_table(bench, table)

    code, out, _ = run(capsys, "optimal", str(bench))
    best = serialize.parse_fraction(json.loads(out)["lambda"])
    auction = tmp_path / "auction.json"
    code, _, _ = run(capsys, "synthesize", str(bench), "--output", str(auction))
    assert code == 0
    code, out, _ = run(capsys, "evaluate", str(auction), str(bench))
    ratio = serialize.parse_fraction(json.loads(out)["ratio"])
    assert ratio == best


def test_outputs_are_deterministic(capsys):
    _, out1, _ = run(capsys, "optimal", TWO_TIER)
    _, out2, _ = run(capsys, "optimal", TWO_TIER)
    assert out1 == out2
    _, out1, _ = run(capsys, "check", F2_FILE, "6/5")
    _, out2, _ = run(capsys, "check", F2_FILE, "6/5")
    assert out1 == out2


def test_emitted_documents_round_trip(capsys, tmp_path):
    _, out, _ = run(capsys, "check", TWO_TIER, "1/2")
    doc = json.loads(out)
    table = serialize.table_from_doc(serialize.load_file(TWO_TIER))
    witness = upset_from_doc(doc["witness_upset"], table.grid)
    assert len(witness) > 0
    assert serialize.parse_fraction(doc["lambda"]) == Fraction(1, 2)

    auction = tmp_path / "auction.json"
    run(capsys, "synthesize", TWO_TIER, "--output", str(auction))
    profile = serialize.profile_from_doc(serialize.load_file(str(auction)))
    redumped = serialize.dumps(serialize.profile_to_doc(profile))
    assert redumped == auction.read_text()


def test_usage_errors(capsys):
    code = main(["no-such-command"])
    assert code == 2
    code = main([])
    assert code == 2


def test_removed_options_are_usage_errors(capsys):
    for argv in (("check", F2_FILE, "5/4", "--threads", "2"),
                 ("check", F2_FILE, "5/4", "--symmetric"),
                 ("optimal", F2_FILE, "--symmetric"),
                 ("optimal", F2_FILE, "--method", "enumeration")):
        code, out, _ = run(capsys, *argv)
        assert code == 2 and out == ""


def test_optimal_names_a_witness_past_the_enumeration_cap(capsys, tmp_path):
    bench = tmp_path / "f2_5x2.json"
    bench.write_text(serialize.dumps(
        {"grid": {"delta": "1", "levels": 5, "n": 2}, "kind": "f2"}))
    code, out, _ = run(capsys, "optimal", str(bench))
    doc = json.loads(out)
    assert code == 0 and doc["lambda"] == "47/32" and doc["method"] == "cut"
    assert len(doc["witness_upset"]) == 25
    code, out, _ = run(capsys, "check", str(bench), "23/16")
    assert code == 1 and json.loads(out)["witness_upset"]


def test_bad_input_never_exits_one(capsys, tmp_path):
    one_bidder = tmp_path / "one.json"
    one_bidder.write_text(serialize.dumps(
        {"grid": {"delta": "1", "levels": 2, "n": 1}, "kind": "f2"}))
    for command in (("check", str(one_bidder), "1"), ("optimal", str(one_bidder))):
        code, _, err = run(capsys, *command)
        assert code == 2 and "two bidders" in err and "Traceback" not in err
    code, _, err = run(capsys, "simulate", "--benchmark", "f2", "--n", "2",
                       "--samples", "100", "--blocks", "10", "--seed", "-1")
    assert code == 2 and "seed" in err and "Traceback" not in err
    code, _, err = run(capsys, "synthesize", TWO_TIER, "1",
                       "--output", str(tmp_path / "no" / "such" / "dir.json"))
    assert code == 2 and "cannot write" in err


def test_oversized_grids_are_rejected_before_tabulation(capsys, tmp_path, monkeypatch):
    bench = tmp_path / "huge.json"

    def tabulate(grid, kind):
        raise AssertionError("an oversized grid reached the tabulation")

    monkeypatch.setattr(serialize, "builtin_table", tabulate)
    # past the cut's bound but within the document bound: still an input error
    for levels, n in ((33, 2), (2, 16)):
        bench.write_text(serialize.dumps(
            {"grid": {"delta": "1", "levels": levels, "n": n}, "kind": "f2"}))
        for command in (("optimal", str(bench)), ("check", str(bench), "2")):
            code, _, err = run(capsys, *command)
            assert code == 2 and "cut cap" in err and "Traceback" not in err
    for levels, n in ((10**6, 10**9), (2, 17), (257, 2), (1, 10**12)):
        bench.write_text(serialize.dumps(
            {"grid": {"delta": "1", "levels": levels, "n": n}, "kind": "f2"}))
        code, _, err = run(capsys, "check", str(bench), "2")
        assert code == 2 and "document cap" in err and "Traceback" not in err


def test_optimal_checks_the_lp_size_before_any_cut(capsys, tmp_path, monkeypatch):
    from compauction import attainability

    def no_cut(*args):
        raise AssertionError("a cut ran before the LP size check")

    monkeypatch.setattr(attainability, "max_closure", no_cut)
    bench = tmp_path / "f2.json"
    bench.write_text(serialize.dumps(
        {"grid": {"delta": "1", "levels": 32, "n": 2}, "kind": "f2"}))
    for method in ("both",):
        code, out, err = run(capsys, "optimal", str(bench), "--method", method)
        assert code == 2 and out == "" and _one_error_line(err)
        assert "above the LP cap of 96" in err


def test_unexpected_errors_are_internal(capsys, monkeypatch):
    from compauction import attainability

    def broken(table, lam):
        raise KeyError("lost")

    monkeypatch.setattr(attainability, "check_attainable", broken)
    code, out, err = run(capsys, "check", TWO_TIER, "1")
    assert code == 3 and out == ""
    assert err.startswith("internal error:") and "Traceback" not in err


def test_oracle_disagreement_is_an_internal_error(capsys, monkeypatch):
    from fractions import Fraction

    from compauction import attainability

    monkeypatch.setattr(
        attainability, "optimal_ratio_lp", lambda table: Fraction(99)
    )
    code, _, err = run(capsys, "optimal", TWO_TIER, "--method", "both")
    assert code == 3 and "internal error" in err


def _one_error_line(err):
    return err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_synthesize_checks_its_size_before_any_cut(capsys, tmp_path, monkeypatch):
    from compauction import attainability, synthesis

    def no_cut(*args):
        raise AssertionError("a cut ran before the size check")

    monkeypatch.setattr(attainability, "optimal_ratio", no_cut)
    monkeypatch.setattr(attainability, "check_attainable", no_cut)
    monkeypatch.setattr(attainability, "max_closure", no_cut)
    monkeypatch.setattr(synthesis, "max_closure", no_cut)
    bench = tmp_path / "f2.json"
    cases = [((33, 2), (), "synthesis cap of 1024"),
             ((64, 2), (), "synthesis cap of 1024"),
             ((2, 11), (), "synthesis cap of 1024"),
             ((5, 2), ("--trace",), "trace cap of 16"),
             ((2, 5), ("--trace",), "trace cap of 16")]
    for (levels, n), trace, message in cases:
        bench.write_text(serialize.dumps(
            {"grid": {"delta": "1", "levels": levels, "n": n}, "kind": "f2"}))
        for ratio in ((), ("2",)):
            code, out, err = run(capsys, "synthesize", str(bench), *ratio, *trace,
                                 "--output", str(tmp_path / "auction.json"))
            assert code == 2 and out == "" and _one_error_line(err)
            assert message in err


def test_synthesize_trace_without_output_fails_before_any_work(capsys, monkeypatch):
    from compauction import attainability, synthesis

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the --output check")

    monkeypatch.setattr(serialize, "table_from_doc", no_work)
    monkeypatch.setattr(attainability, "optimal_ratio", no_work)
    monkeypatch.setattr(attainability, "check_attainable", no_work)
    monkeypatch.setattr(attainability, "max_closure", no_work)
    monkeypatch.setattr(synthesis, "max_closure", no_work)
    for ratio in ((), ("1",)):
        code, out, err = run(capsys, "synthesize", TWO_TIER, *ratio, "--trace")
        assert code == 2 and out == "" and _one_error_line(err)
        assert "--trace needs --output FILE" in err


def test_ratios_and_simulate_sizes_are_bounded(capsys, monkeypatch):
    from compauction import ratios

    sampled, summed = [], []
    monkeypatch.setattr(ratios, "mc_expected",
                        lambda *args, **kw: sampled.append(args) or (1.0, 0.0))
    monkeypatch.setattr(ratios, "lambda_n", lambda n: summed.append(n) or Fraction(2))
    monkeypatch.setattr(ratios, "gamma_n", lambda n: Fraction(1))

    code, _, _ = run(capsys, "ratios", "--max-n", str(cli.MAX_BIDDERS))
    assert code == 0 and summed[-1] == cli.MAX_BIDDERS
    summed.clear()
    code, out, err = run(capsys, "ratios", "--max-n", str(cli.MAX_BIDDERS + 1))
    assert code == 2 and out == "" and _one_error_line(err) and not summed

    def simulate(n, samples, blocks=50):
        return run(capsys, "simulate", "--benchmark", "f2", "--n", str(n),
                   "--samples", str(samples), "--blocks", str(blocks))

    # the README, the tests and the benchmark runs, and the largest accepted
    for n, samples, blocks in ((3, 10**6, 50), (5, 10**6, 50), (2, 20000, 20),
                               (5, cli.MAX_DRAWS // 5, 50)):
        code, _, _ = simulate(n, samples, blocks)
        assert code == 0 and sampled[-1][1:4] == (n, samples, blocks)
    sampled.clear()
    for n, samples, blocks in ((cli.MAX_BIDDERS + 1, 1000, 10),
                               (2, 10**5, cli.MAX_BLOCKS + 1),
                               (2, cli.MAX_DRAWS // 2 + 1, cli.MAX_BLOCKS),
                               (2, 10**7, 1),
                               (2, 10**40, 50)):
        code, out, err = simulate(n, samples, blocks)
        assert code == 2 and out == "" and _one_error_line(err)
    assert not sampled


def test_reduce_counts_its_arrangements_before_any_work(capsys, tmp_path, monkeypatch):
    from compauction import benchmarks
    from compauction.benchmarks import BenchmarkTable, builtin_table
    from compauction.grid import BidGrid

    def refuse(*args):
        raise AssertionError("an oversized reduction started")

    bench = tmp_path / "many.json"
    docs = {}
    for n in (9, 10):
        grid = BidGrid(Fraction(1), 2, n)
        custom = BenchmarkTable(grid, builtin_table(grid, "f2").values, kind="custom")
        docs[n] = serialize.dumps(serialize.table_to_doc(custom))
    monkeypatch.setattr(serialize, "table_from_doc", refuse)
    monkeypatch.setattr(benchmarks, "arrangements", refuse)
    # a custom table reads up to n!/(n-k+1)! + n!/(n-k)! arrangements at each
    # of the 2^k points: 2.4e6 * 2^8 at (10, 8), 2.4e5 * 2^7 at (9, 7)
    for n, k in ((10, 8), (9, 7)):
        bench.write_text(docs[n])
        code, out, err = run(capsys, "reduce", str(bench), "-k", str(k))
        assert code == 2 and out == "" and _one_error_line(err)
        assert "arrangement cap" in err


def test_reduce_reads_builtin_kinds_once_per_point(capsys, tmp_path):
    # 2^2 lookups, where a custom table of the same size is refused above
    bench = tmp_path / "f2.json"
    bench.write_text(serialize.dumps(
        {"grid": {"delta": "1", "levels": 2, "n": 10}, "kind": "f2"}))
    code, out, _ = run(capsys, "reduce", str(bench), "-k", "2")
    assert code == 0
    doc = json.loads(out)
    upper = serialize.table_from_doc(doc["upper"])
    lower = serialize.table_from_doc(doc["lower"])
    # all ten bids at the top level; the bottom bid raised to the top
    assert upper[(1, 1)] == 20 and upper[(1, 0)] == 10
    assert lower[(1, 1)] == 4 and lower[(1, 0)] == 2


def test_a_document_that_is_not_utf8_is_bad_input(capsys, tmp_path):
    bench = tmp_path / "latin1.json"
    bench.write_bytes(b"\xff" + serialize.dumps(
        {"grid": {"delta": "1", "levels": 2, "n": 2}, "kind": "f2"}).encode())
    for command in (("check", str(bench), "2"), ("optimal", str(bench))):
        code, out, err = run(capsys, *command)
        assert code == 2 and out == "" and _one_error_line(err)
        assert "not UTF-8" in err


def test_a_document_past_the_byte_cap_is_rejected_before_parsing(
        capsys, tmp_path, monkeypatch):
    bench = tmp_path / "padded.json"
    text = serialize.dumps({"grid": {"delta": "1", "levels": 2, "n": 2}, "kind": "f2"})
    monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", len(text) + 1)
    bench.write_text(text + " ")  # at the cap: parsed as usual
    code, out, _ = run(capsys, "check", str(bench), "2")
    assert code == 0 and json.loads(out)["attainable"] is True

    def unparsed(text):
        raise AssertionError("a document past the byte cap was parsed")

    monkeypatch.setattr(serialize, "loads", unparsed)
    bench.write_text(text + "  ")  # one byte past it
    code, out, err = run(capsys, "check", str(bench), "2")
    assert code == 2 and out == "" and _one_error_line(err)
    assert f"above the byte cap of {len(text) + 1}" in err


def test_fine_ladders_are_rejected_before_tabulation(capsys, tmp_path, monkeypatch):
    def tabulate(grid, kind):
        raise AssertionError("an oversized ladder reached the tabulation")

    monkeypatch.setattr(serialize, "builtin_table", tabulate)
    bench = tmp_path / "fine.json"
    for delta, levels in (("1e-4000", 32), ("1e-40", 32), ("1/1000", 256)):
        bench.write_text(serialize.dumps(
            {"grid": {"delta": delta, "levels": levels, "n": 2}, "kind": "f2"}))
        code, out, err = run(capsys, "check", str(bench), "2")
        assert code == 2 and out == "" and _one_error_line(err)
        assert "ladder cap" in err


def _custom(path, delta, levels, n, values):
    rows = [{"levels": list(p), "value": v} for p, v in values.items()]
    path.write_text(serialize.dumps({"grid": {"delta": delta, "levels": levels, "n": n},
                                     "kind": "custom", "values": rows}))


def test_an_answer_too_long_to_print_is_bad_input(capsys, tmp_path):
    # each value prints, but the optimal ratio is past the float range, or
    # past the digits Python prints (sum w(t) f(t) over 129^8 on one bidder)
    bench = tmp_path / "bench.json"
    _custom(bench, "1", 2, 1, {(0,): "1e400", (1,): "1e400"})
    code, out, err = run(capsys, "optimal", str(bench))
    assert code == 2 and out == "" and _one_error_line(err)
    assert "float" in err

    _custom(bench, "1/128", 8, 1,
            {(t,): str((t + 1) * 10**4290 + 1) for t in range(8)})
    code, out, err = run(capsys, "optimal", str(bench))
    assert code == 2 and out == "" and _one_error_line(err)
    assert "digits" in err
    trace = tmp_path / "trace.json"
    code, out, err = run(capsys, "synthesize", str(bench), "--trace", "-o", str(trace))
    assert code == 2 and out == "" and _one_error_line(err)
    assert "digits" in err


def test_a_denominator_lcm_past_the_cap_is_rejected(capsys, tmp_path, monkeypatch):
    from compauction import attainability

    def no_cut(*args):
        raise AssertionError("a cut ran past the denominator cap")

    monkeypatch.setattr(attainability, "max_closure", no_cut)
    # 3^1400 and 2^2100 each fit the cap; their lcm takes 4319 bits
    a, b = f"1/{3**1400}", f"{2**2101 + 1}/{2**2100}"
    bench = tmp_path / "bench.json"
    _custom(bench, "1", 2, 2, {(0, 0): "0", (0, 1): a, (1, 0): a, (1, 1): b})
    for command in (("check", str(bench), "1"), ("optimal", str(bench)),
                    ("synthesize", str(bench), "1")):
        code, out, err = run(capsys, *command)
        assert code == 2 and out == "" and _one_error_line(err)
        assert "above 4096 bits" in err


def test_evaluate_compares_the_grids_before_reading_the_benchmark(
        capsys, tmp_path, monkeypatch):
    auction = tmp_path / "auction.json"
    run(capsys, "synthesize", TWO_TIER, "1", "--output", str(auction))
    capsys.readouterr()

    def unread(*args):
        raise AssertionError("the benchmark was read before the grid check")

    monkeypatch.setattr(serialize, "builtin_table", unread)
    monkeypatch.setattr(serialize, "validate_table", unread)
    bench = tmp_path / "bench.json"
    bench.write_text(serialize.dumps(
        {"grid": {"delta": "1", "levels": 3, "n": 2}, "kind": "f2"}))
    code, out, err = run(capsys, "evaluate", str(auction), str(bench))
    assert code == 2 and out == "" and _one_error_line(err)
    assert "different grids" in err
    _custom(bench, "1", 2, 1, {(0,): "0", (1,): "1"})
    code, out, err = run(capsys, "evaluate", str(auction), str(bench))
    assert code == 2 and out == "" and _one_error_line(err)
    assert "different grids" in err
