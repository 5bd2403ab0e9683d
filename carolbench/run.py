#!/usr/bin/env python3
"""Builds carol_bench from this checkout's sources, runs one workload and
checks its result line against BENCHMARK.json.

Run from the repository root:

    python3 carolbench/run.py --workload serve-h16 --seed 1 --seconds 20 --trace 0

The build goes to carolbench-<hash of the checkout path> under
$CARGO_TARGET_DIR (default .bench_build), so checkouts that share one
target directory never build or time each other's sources. It happens
once per checkout; results JSON and traces land in <build dir>/results.
The last line of standard output is the workload's result object
{"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print("carolbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = path if os.path.isabs(path) else os.path.join(ROOT, path)
    key = hashlib.sha256(os.path.realpath(ROOT).encode()).hexdigest()[:16]
    return os.path.join(target, "carolbench-" + key)


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "service.h")):
        fail("no CAROL sources under src/; run from a full checkout")
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(bdir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "carolbench"),
                          "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", jobs,
                      "--target", "carol_bench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "carol_bench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build(build_dir())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build_dir(), "results")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("no result line (exit status %d)" % proc.returncode)
    missing = expected_metrics(args.trace) ^ set(result.get("metrics", {}))
    if missing:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: " + ", ".join(sorted(missing)))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
