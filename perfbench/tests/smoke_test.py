#!/usr/bin/env python3
"""Tiny-scale smoke run of every benchmark workload.

Usage: smoke_test.py QSABENCH_BINARY

For each workload in BENCHMARK.json, runs the binary at 5% population
(`--scale 0.05`) with tracing off and on, and checks that the last line of
output is a result whose correctness checks passed and whose metrics are
exactly the ones BENCHMARK.json names, each with its unit. Also checks that
run.py refuses, without printing a result, to run in a directory holding
only BENCHMARK.json and the benchmark's own files.
"""
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# serve_warm is runnable but not gated (README.md, "Noise"); smoke it too.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["serve_warm"]
BINARY = None


def run(workload, trace):
    out = subprocess.run(
        [BINARY, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", "0.05"],
        capture_output=True, text=True, timeout=300)
    return out, json.loads(out.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check(self, trace, metrics_key):
        expected = {m["name"]: m["unit"] for m in SPEC[metrics_key]}
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=trace):
                out, result = run(w, trace)
                self.assertEqual(out.returncode, 0, out.stderr)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True, out.stderr)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, expected)
                for name, m in result["metrics"].items():
                    self.assertTrue(math.isfinite(m["value"]), name)
                    if trace == 0:
                        self.assertGreater(m["value"], 0, name)

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")

    def test_deterministic_metrics_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, a = run(w, 0)
                _, b = run(w, 0)
                for name in ("psi", "notifications_per_request",
                             "lookup_hops_per_request"):
                    self.assertEqual(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"], name)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, Path(tmp) / p,
                                ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                                   "--seed", "1", "--seconds", "1",
                                   "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn("metrics", out.stdout)


if __name__ == "__main__":
    BINARY = sys.argv.pop(1)
    unittest.main()
