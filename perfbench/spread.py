#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread, including machine drift.

Usage (from the repository root):
    python3 perfbench/spread.py

Runs every workload in BENCHMARK.json with seeds 1..10 for run_seconds each,
in two sets ten minutes apart: back-to-back sets hide the slow drift of a
shared machine, which is what host-metric bounds have to absorb. Both sets
use the same seeds, so every virt_* median must repeat exactly from set to
set. A full pass takes about 2 x 20 minutes plus the gap.

For every end-to-end metric it prints, per set, the median and the spread
(distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, as a share of the median), and
for the second set the change of the median against the first, signed so
that positive means worse. Each figure is compared with the metric's bound in
BENCHMARK.json: a spread should stay below a third of the bound and a
worsening below the bound. Exits 1 if any figure breaks its rule.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
SETS = 2
GAP_S = 10 * 60


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("spread.py: %s seed %d failed (exit %d)"
                         % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    # values[set][workload][metric] -> list over seeds
    values = []
    for s in range(SETS):
        if s > 0:
            print("spread.py: sleeping %d min before set %d"
                  % (GAP_S // 60, s + 1), flush=True)
            time.sleep(GAP_S)
        per_wl = {w: {m: [] for m in metrics} for w in workloads}
        for seed in SEEDS:
            for w in workloads:  # interleaved, so drift hits every workload
                got = run_once(w, seed, seconds)
                print("  set %d %s seed %d: %s" % (
                    s + 1, w, seed,
                    " ".join("%s=%.10g" % (m, got[m]) for m in metrics)), flush=True)
                for m in metrics:
                    per_wl[w][m].append(got[m])
        values.append(per_wl)
        print("spread.py: set %d done at %s" % (s + 1, time.strftime("%H:%M:%S")),
              flush=True)

    bad = 0
    for w in workloads:
        print("\n%s (%d runs per set)" % (w, len(SEEDS)))
        print("  %-20s %7s %s" % ("metric", "bound",
                                  "  ".join("set%d median / spread" % (s + 1)
                                            for s in range(SETS))))
        for name, m in metrics.items():
            bound = m["bound"]
            cells, notes = [], []
            base = statistics.median(values[0][w][name])
            for s in range(SETS):
                vals = values[s][w][name]
                med = statistics.median(vals)
                sp = spread(vals)
                cells.append("%14.6g / %6.4f" % (med, sp))
                if sp >= bound / 3:
                    notes.append("set%d spread %.4f >= bound/3" % (s + 1, sp))
                if s > 0 and base:
                    worse = (med - base) / base
                    if m["better"] == "higher":
                        worse = -worse
                    cells[-1] += " (%+.4f)" % worse
                    if worse > bound:
                        notes.append("set%d worse by %.4f > bound" % (s + 1, worse))
            bad += len(notes)
            print("  %-20s %7.3f %s%s" % (name, bound, "  ".join(cells),
                                          ("   <-- " + "; ".join(notes)) if notes else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
