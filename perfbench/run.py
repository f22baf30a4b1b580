#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout's sources and runs it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <point-reads|traverse|mixed|reach>
                             [--seed 42] [--seconds 20] [--trace 0|1]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; the first run configures and compiles, later runs only
re-check it. The driver prints a human-readable report and, as the last
line of standard output, one JSON object with the keys correct,
attempted, failed and metrics. With --trace 1 the spans of the run are
written to <build dir>/traces/<workload>.tsv.

Exits non-zero, without a result line, when the checkout has no
gdbmicro sources, the build fails, or the driver fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("point-reads", "traverse", "mixed", "reach")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build(build_dir):
    """Configures and builds the driver; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "build.ninja")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--", "-j4"])
        # Compiler temporaries stay inside the build directory too.
        env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
        os.makedirs(env["TMPDIR"], exist_ok=True)
        for cmd in steps:
            # Build output goes to stderr: stdout carries only the report.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False,
                                  env=env)
            if done.returncode != 0:
                return None
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "queries.h")):
        return fail(f"no gdbmicro sources under {ROOT}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        driver = build(build_dir)
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if driver is None or not os.path.isfile(driver):
        return fail("build failed")

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}.tsv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        return fail(f"driver exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        return fail("driver printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return fail("malformed result line")
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
