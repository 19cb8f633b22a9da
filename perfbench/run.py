#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload batch_csv --seed 1 --seconds 50 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark (Release, the root CMakeLists' own flags) into
$CARGO_TARGET_DIR, default .bench_build; later runs only re-check the build.
Build output goes to stderr. The benchmark's stdout passes through: a
host block and one line per metric measured. The last line is its JSON
object {"correct", "attempted", "failed", "metrics"}, with the metrics cut
to the end-to-end ones BENCHMARK.json names (--trace 0) or its per-layer
ones (--trace 1). A named metric the run did not measure, or a measured
metric BENCHMARK.json does not name, counts as a failed check. The exit
code is the benchmark's (1 when any correctness check failed), or 1 when
the build fails, e.g. when the repository sources are missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "dquag_perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def select_metrics(result, trace):
    """Cuts `result` to the metrics BENCHMARK.json names for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    named = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    measured = result["metrics"]
    problems = ["metric %s was not measured" % name
                for name in wanted if name not in measured]
    problems += ["metric %s is not named in BENCHMARK.json" % name
                 for name in sorted(measured) if name not in named]
    for problem in problems:
        print("perfbench: " + problem, file=sys.stderr)
    result["metrics"] = {name: measured[name]
                         for name in wanted if name in measured}
    if problems:
        result["correct"] = False
        result["attempted"] += len(problems)
        result["failed"] += len(problems)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal input sizes (the smoke test)")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    workdir = os.path.join(out, "run", "%s-%d" % (args.workload, args.seed))
    command = [os.path.join(out, "dquag_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    try:
        proc = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: the benchmark printed no result (exit %d)"
              % proc.returncode, file=sys.stderr)
        return 1
    result = select_metrics(result, args.trace)
    print(json.dumps(result))
    return proc.returncode or (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
