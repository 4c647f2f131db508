#!/usr/bin/env python3
"""Self-tests of the benchmark. From the repository root:

    python3 -m unittest discover -s perfbench/tests -v

Builds the benchmark if needed, runs the C++ self-time test, checks the
name grammar, and runs every workload in both trace modes at smoke size
(about a minute in all).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (perfbench/run.py)


def bench():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SelfTime(unittest.TestCase):
    def test_span_arithmetic(self):
        run.build()
        exe = os.path.join(run.BUILD, "perfbench_selftest")
        done = subprocess.run([exe], capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stderr)


class Names(unittest.TestCase):
    def test_benchmark_names_follow_the_grammar(self):
        run.check_names(bench())

    def test_grammar_refuses_bad_names(self):
        for bad in ("", "-lead", "has space", "slash/name", "x" * 65):
            b = bench()
            b["per_layer"][0]["name"] = bad
            with self.assertRaises(run.Failure, msg=bad):
                run.check_names(b)

    def test_grammar_refuses_duplicates_and_bad_units(self):
        b = bench()
        b["per_layer"].append(dict(b["per_layer"][0]))
        with self.assertRaises(run.Failure):
            run.check_names(b)
        b = bench()
        b["end_to_end"][0]["unit"] = "m s"
        with self.assertRaises(run.Failure):
            run.check_names(b)

    def test_digest_mirror(self):
        # FNV-1a of the little-endian word 0 and the bits of 1.0, as
        # driver/workloads.cc computes them.
        self.assertEqual(run.fnv([]), 0xCBF29CE484222325)
        self.assertEqual(run.bits(1.0), 0x3FF0000000000000)
        self.assertEqual(run.hex64(run.fnv([0])), "a8c7f832281a39c5")


class QuickMode(unittest.TestCase):
    """Every workload at smoke size: correct, and exactly the listed
    metrics."""

    def check(self, workload, trace):
        done = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--quick",
             "--workload", workload, "--seed", "5", "--seconds", "0.5",
             "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"], done.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        want = [m["name"] for m in
                bench()["per_layer" if trace else "end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(want))

    def test_all_workloads(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


if __name__ == "__main__":
    unittest.main()
