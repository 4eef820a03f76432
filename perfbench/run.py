#!/usr/bin/env python3
"""Build and run the layered lifepred benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--scale <x>]

The first run configures and builds perfbench/ (which compiles the
repository's src/ libraries) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, and runs the benchmark's own tests.  Later runs
rebuild incrementally.  The benchmark binary then runs the workload; its
result line (the last line of standard output) is checked against the
metric lists in BENCHMARK.json before it is printed.  Any failure exits
nonzero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-pipeline", "replay-sweep", "realheap-replay")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "lifebench",
                  "perfbench_tests", "-j", "4"])
    steps.append([os.path.join(build_dir, "perfbench_tests")])
    for step in steps:
        # Build chatter goes to stderr so the result stays the last line
        # of standard output.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("step failed: " + " ".join(step))
    return build_dir


def declared_metrics(trace):
    """The (name, unit) pairs BENCHMARK.json declares for this mode."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail("%s is not a whole number" % key)
    if result["attempted"] < 1:
        fail("no operations attempted")
    declared = declared_metrics(trace)
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != declared:
        missing = sorted(set(declared) - set(reported))
        extra = sorted(set(reported) - set(declared))
        wrong = sorted(n for n in set(declared) & set(reported)
                       if declared[n] != reported[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, wrong))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float,
                        help="trace scale (the benchmark's default is 0.3)")
    args = parser.parse_args()

    build_dir = build()
    command = [os.path.join(build_dir, "lifebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--expected-cells", os.path.join(HERE, "expected_cells.txt")]
    if args.scale is not None:
        command += ["--scale", str(args.scale)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
