#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself, on smoke-sized horizons.

    python3 perfbench/test_perfbench.py

Run from the root of a source checkout; builds the benchmark binary
through run.py like a benchmark run does. Checks, per workload: the
result line's shape and metric names against BENCHMARK.json, the output
check passing, and the outcome digest being identical between an
untraced and a traced run of one seed (and different for another seed).
Also checks that fleet-perserver's digest is identical at --sim-threads
1, 2 and 4, and that run.py refuses to run without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("fleet-perserver", "fleet-rackagg", "control-crisis",
             "autoscale-ramp")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, seed=7, trace=0, extra=(), cwd=ROOT):
    """Run one smoke-sized benchmark run; return (returncode, stdout)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    return proc.returncode, proc.stdout


def parse(stdout):
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next(l.split()[7] for l in lines if l.startswith("workload "))
    return result, digest


class PerfbenchTest(unittest.TestCase):
    def run_ok(self, workload, **kwargs):
        rc, out = bench(workload, **kwargs)
        self.assertEqual(rc, 0, out)
        result, digest = parse(out)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result, digest

    def test_untraced_and_traced_runs_agree(self):
        e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                plain, digest = self.run_ok(workload)
                self.assertEqual(
                    {k: v["unit"] for k, v in plain["metrics"].items()}, e2e)
                for name, metric in plain["metrics"].items():
                    self.assertGreater(metric["value"], 0.0, name)
                traced, traced_digest = self.run_ok(workload, trace=1)
                self.assertEqual(
                    {k: v["unit"] for k, v in traced["metrics"].items()},
                    layers)
                self.assertGreaterEqual(traced["attempted"], 2)
                self.assertEqual(digest, traced_digest)
                _, other = self.run_ok(workload, seed=8)
                self.assertNotEqual(digest, other)

    def test_perserver_digest_independent_of_sim_threads(self):
        digests = {self.run_ok("fleet-perserver",
                               extra=("--sim-threads", str(t)))[1]
                   for t in (1, 2, 4)}
        self.assertEqual(len(digests), 1)

    def test_refuses_to_run_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, out = bench("fleet-perserver", cwd=bare)
        self.assertNotEqual(rc, 0)
        self.assertNotIn('"metrics"', out)


if __name__ == "__main__":
    unittest.main()
