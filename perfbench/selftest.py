#!/usr/bin/env python3
"""Self-test of the AvgPipe benchmark.

Usage, from the repository root:

    python3 perfbench/selftest.py

Runs every workload listed in BENCHMARK.json at minimal length, untraced and
traced, and checks that each run passes its own correctness checks, fails no
iteration, and emits exactly the metrics BENCHMARK.json names, each with its
unit and a finite value. Then checks that every workload-changing
environment variable makes the benchmark refuse to run (exit 2, no result).
Exits 0 when everything holds, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
REFUSED_ENV = ["AVGPIPE_FAULT_PLAN", "AVGPIPE_SYNC_COMPRESS",
               "AVGPIPE_CHANNEL_CAPACITY", "AVGPIPE_ARENA_MAX_MB",
               "AVGPIPE_STAGE_THREADS"]


def run(workload, trace, env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check_result(proc, expected):
    """Problems with one run's output; `expected` maps metric name to unit."""
    if proc.returncode != 0:
        return ["exit code %d: %s" % (proc.returncode, proc.stderr[-2000:])]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("correct is %r" % result.get("correct"))
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append("attempted %r, failed %r" %
                        (result.get("attempted"), result.get("failed")))
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append("metrics differ: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        m = metrics.get(name, {})
        value = m.get("value")
        if m.get("unit") != unit:
            problems.append("%s: unit %r, expected %r" % (name, m.get("unit"), unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r is not finite" % (name, value))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_result(run(workload, trace), units[trace])
            status = "ok" if not problems else "FAIL"
            print("%-16s trace %d: %s" % (workload, trace, status), flush=True)
            for p in problems:
                print("    " + p)
            failures += bool(problems)
    first = spec["workloads"][0]["name"]
    for var in REFUSED_ENV:
        env = dict(os.environ, **{var: "1"})
        proc = run(first, 0, env)
        refused = proc.returncode == 2 and not proc.stdout.strip()
        print("%-24s set: %s" % (var, "refused" if refused else "FAIL (ran)"),
              flush=True)
        failures += not refused
    print("self-test %s" % ("passed" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
