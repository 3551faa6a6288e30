#!/usr/bin/env python3
"""Self-test of the benchmark at a reduced size.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json prints with its unit, that
the counts of a traced run repeat exactly for the same seed, and that a wrong
expected answer is counted as a failed instance.
"""

from __future__ import annotations

import contextlib
import io
import json
import unittest
from fractions import Fraction
from unittest import mock

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, seed: int, traced: bool) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                         "--trace", str(int(traced)), "--scale", "small"])
    assert code == 0, f"run exited {code}"
    return json.loads(out.getvalue().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, traced=traced):
                    result = bench(workload, 7, traced)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))

    def test_counts_repeat_for_the_same_seed(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (bench(workload, 11, True)["metrics"] for _ in range(2))
                counts = {k for k, v in first.items() if v["unit"] == "count"}
                self.assertIn("synthesis.steps.f_zero", counts)
                for name in counts | {"synthesis.steps.useful_frac"}:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_wrong_expected_answer_counts_as_failed(self):
        wrong = dict(workloads.KNOWN_F2_RATIOS)
        wrong[(4, 2)] += Fraction(1, 16)
        with mock.patch.object(workloads, "KNOWN_F2_RATIOS", wrong):
            result = bench("decide", 3, False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], 1)


if __name__ == "__main__":
    unittest.main()
