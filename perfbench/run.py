#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload kv_rw --seed 1 --seconds 10 --trace 0

The first run configures and builds into .bench_build (or $CARGO_TARGET_DIR
when set); later runs only re-check the build. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. A traced run
(--trace 1) also writes its spans to .bench_build/spans/<workload>-<seed>.bin.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "core", "scads.h")):
        fail(f"no SCADS source tree under {root}/src; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["kv_rw", "social_app", "threaded_point"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(root, build_dir)

    command = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(spans_dir, f"{args.workload}-{args.seed}.bin")]
    proc = subprocess.Popen(command, cwd=root)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
