#!/usr/bin/env python3
"""Builds and runs the trial and campaign benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The benchmark is compiled from the checkout's sources (perfbench/ and src/)
into .bench_build/ at the checkout root; build output goes to standard
error. The last line of standard output is the benchmark's JSON result.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
REFERENCES = os.path.join(BENCH_DIR, "reference_digests.txt")
# Below the 180 s a run may take, so a hung benchmark is stopped and reported.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build(targets):
    """Configures (once) and builds `targets`; False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
                 + targets)
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"perfbench: build step failed: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()

    if args.self_test:
        if not build(["perfbench_selftest"]):
            return 1
        work = os.path.join(BUILD_DIR, "selftest_work")
        return subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_selftest"), REFERENCES, work],
            timeout=RUN_TIMEOUT_S).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build(["perfbench"]):
        return 1
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--references", REFERENCES,
               "--work-dir", os.path.join(BUILD_DIR, "work")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
