#!/usr/bin/env python3
"""Determinism tests for the benchmark's virtual metrics, at small sizes.

Run from the repository root:
    python3 perfbench/tests/test_determinism.py

Builds the benchmark the way run.py does, then runs each workload with a
small measured op count:
  * the same seed twice must give byte-identical virt_* metrics;
  * a second seed must keep every virt_* metric within its bound in
    BENCHMARK.json. Input sizes are drawn per request; drawing them once per
    connection instead lets a single pair's sizes swing a whole seed's
    latency distribution, which this check catches.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (the benchmark's own build step)

# Measured ops per workload: small, but enough samples for the p50 and tail.
SMALL_OPS = {"stream_rpc": 4000, "conn_churn": 64, "file_mix": 20000}
SEEDS = (1, 2)

_binary = None


def binary():
    global _binary
    if _binary is None:
        _binary = run.build(run.clean_env())
        if _binary is None:
            # A build failure is a failure, not a skip: a change that stops
            # the benchmark compiling must not pass this check.
            raise AssertionError("benchmark build failed")
    return _binary


def virt_metrics(workload, seed):
    cmd = [binary(), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "0", "--ops", str(SMALL_OPS[workload])]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=run.clean_env())
    if proc.returncode != 0:
        raise AssertionError("%s seed %d failed:\n%s" % (workload, seed, proc.stdout))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.startswith("virt_")}


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["bound"] for m in bench["end_to_end"]}


class Determinism(unittest.TestCase):
    def check(self, workload):
        first = virt_metrics(workload, SEEDS[0])
        self.assertEqual(first, virt_metrics(workload, SEEDS[0]),
                         "same seed, different virtual metrics")
        second = virt_metrics(workload, SEEDS[1])
        for name, bound in bounds().items():
            if not name.startswith("virt_"):
                continue
            a, b = first[name], second[name]
            self.assertGreater(a, 0, name)
            self.assertLessEqual(abs(b - a) / a, bound,
                                 "%s: seed %d gives %g, seed %d gives %g"
                                 % (name, SEEDS[0], a, SEEDS[1], b))

    def test_stream_rpc(self):
        self.check("stream_rpc")

    def test_conn_churn(self):
        self.check("conn_churn")

    def test_file_mix(self):
        self.check("file_mix")


if __name__ == "__main__":
    unittest.main()
