#!/usr/bin/env python3
"""Smoke tests for the benchmark itself.

    python3 perfbench/test_run.py        # from the root of the source tree

A short run of every workload in BENCHMARK.json, end-to-end and traced,
checking that each named metric is printed with its unit; that the
correctness gate fails a run whose log digest was tampered with; and that
the command refuses to run outside a source tree. Takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args, cwd=ROOT):
    p = subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stdout + p.stderr


def smoke(workload, trace):
    return run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))


class Metrics(unittest.TestCase):
    def check(self, trace, rows):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                code, result, out = smoke(w["name"], trace)
                self.assertEqual(code, 0, out)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], out)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0, out)
                self.assertEqual(set(result["metrics"]), {r["name"] for r in rows})
                for r in rows:
                    got = result["metrics"][r["name"]]
                    self.assertEqual(got["unit"], r["unit"], r["name"])
                    self.assertIsInstance(got["value"], (int, float), r["name"])
                if trace == 0:
                    for r in rows:
                        self.assertGreater(result["metrics"][r["name"]]["value"], 0, r["name"])

    def test_end_to_end(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer(self):
        self.check(1, SPEC["per_layer"])


class Gate(unittest.TestCase):
    def test_tampered_digest_fails_the_run(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                code, result, out = run("--workload", "sim-lifecycle", "--seed", "7", "--seconds", "1",
                                        "--trace", str(trace), "--tamper-digest")
                self.assertEqual(code, 1, out)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertIn("ordered a different log", out)

    def test_refuses_outside_a_source_tree(self):
        scratch = tempfile.mkdtemp(prefix=".perfbench-test-", dir=ROOT)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, out = run("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                                    "--seconds", "1", cwd=scratch)
            self.assertNotEqual(code, 0, out)
            self.assertIsNone(result, out)
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    unittest.main(verbosity=2)
