#!/usr/bin/env python3
"""Tiny-scale self-test of the reproduction benchmark.

    python3 perfbench/tests/test_perfbench.py

Run from anywhere; it builds the benchmark the way run.py does (into
$CARGO_TARGET_DIR, or .bench_build at the repository root), then runs every
workload at --scale tiny with --trace 0 and --trace 1. It checks that each
run passes its own correctness checks, that every metric BENCHMARK.json
names is emitted with its unit, and that traced and untraced runs report
identical simulated results.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def run_benchmark(workload, trace):
    return subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)


class PerfbenchSelfTest(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in spec["workloads"]:
            digests = {}
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    done = run_benchmark(workload["name"], trace)
                    self.assertEqual(done.returncode, 0, done.stderr[-3000:])
                    lines = done.stdout.strip().split("\n")
                    result = json.loads(lines[-1])
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    wanted = {m["name"]: m["unit"] for m in spec[key]}
                    emitted = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    self.assertEqual(emitted, wanted)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float),
                                              name)
                    digests[trace] = [line for line in lines
                                      if line.startswith("sim_digest: ")]
            self.assertEqual(len(digests[0]), 1)
            self.assertEqual(digests[0], digests[1],
                             f"{workload['name']}: traced and untraced "
                             "simulated results differ")


if __name__ == "__main__":
    unittest.main()
