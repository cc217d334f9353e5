#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale.

    python3 calsbench/selftest.py

Runs every workload of BENCHMARK.json once untraced and once traced with
--tiny, and checks the result line of each run: it is the last line of
standard output, the run passed its correctness gate, and every metric
BENCHMARK.json names for that kind of run is printed exactly once, with
its unit, as a finite number, and nothing else is.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = sorted({k for k in keys if keys.count(k) > 1})
    if dup:
        raise ValueError("printed more than once: %s" % ", ".join(dup))
    return dict(pairs)


def check_run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    problems = []
    if proc.returncode != 0:
        problems.append("exit code %d" % proc.returncode)
    if not lines:
        return problems + ["no output"]
    try:
        result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    except ValueError as e:
        return problems + ["last line is not a result object: %s" % e]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("the run did not pass its gate")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is %r" % result.get("attempted"))
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            problems.append("%s is missing" % name)
            continue
        value = m.get("value")
        if m.get("unit") != unit:
            problems.append("%s has unit %r, not %r" % (name, m.get("unit"), unit))
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append("%s is not a finite number: %r" % (name, value))
    for name in sorted(set(metrics) - set(expected)):
        problems.append("%s is not in BENCHMARK.json" % name)
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    kinds = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems = check_run(w["name"], trace, kinds[trace])
            status = "ok" if not problems else "FAIL"
            print("%-12s trace=%d  %s" % (w["name"], trace, status))
            for p in problems:
                print("    " + p)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
