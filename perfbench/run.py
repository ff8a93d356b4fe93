#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload <stream_rpc|conn_churn|file_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (an optimized CMake build of the kernel sources plus the
benchmark program) into .bench_build/perfbench under the repository root, then
runs it. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The fault-injection environment variable is removed
before anything runs: the benchmark measures the fault-free system.

In trace mode the last traced repetition's spans are written to
.bench_build/spans-<workload>.csv.

Exits nonzero, without a result line, when the build fails; otherwise exits
with the benchmark's own code (0 only when every output check passed).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"


def clean_env():
    env = dict(os.environ)
    env.pop("SYNTHESIS_FAULTS", None)
    return env


def build(env):
    """Configures (once) and builds; returns the binary path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        try:
            rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 env=env, cwd=ROOT)
        except OSError as e:
            print("run.py: cannot run %s: %s" % (cmd[0], e), file=sys.stderr)
            return None
        if rc != 0:
            print("run.py: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return None
    binary = os.path.join(BUILD_DIR, "perfbench")
    return binary if os.access(binary, os.X_OK) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["stream_rpc", "conn_churn", "file_mix"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    env = clean_env()
    binary = build(env)
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans",
                os.path.join(BUILD_ROOT, "spans-%s.csv" % args.workload)]
    sys.stdout.flush()
    return subprocess.call(cmd, env=env, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
