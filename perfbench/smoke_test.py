#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload named in BENCHMARK.json at minimal size (--smoke),
untraced and traced, and checks that each run exits 0 with "correct": true,
that its last stdout line carries exactly the end-to-end metrics
(untraced) or the per-layer metrics (traced) BENCHMARK.json names, each
with the unit given there, and that every metric is also printed on its
own line with a sample count. run.py itself fails a run that measures a
metric BENCHMARK.json does not name.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "3",
               "--trace", str(trace), "--smoke"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    label = "%s trace=%d" % (workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return ["%s: exit %d\n%s" % (label, proc.returncode, proc.stderr[-2000:])]
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (label, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("%s: not correct: %s" % (label, lines[-1][:200]))
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        if name not in metrics:
            errors.append("%s: metric %s missing" % (label, name))
        elif metrics[name].get("unit") != unit:
            errors.append("%s: %s has unit %s, want %s"
                          % (label, name, metrics[name].get("unit"), unit))
        elif not any(line.split()[1:2] == [name] and " n=" in line
                     for line in lines[:-1]):
            errors.append("%s: %s not printed with a sample count"
                          % (label, name))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            run_errors = check_run(spec, workload["name"], trace)
            status = "FAIL" if run_errors else "ok"
            print("%-4s %s trace=%d" % (status, workload["name"], trace),
                  flush=True)
            errors += run_errors
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
