#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audit --seed 1 --seconds 14 --trace 0

The first call configures and builds perfbench/ (which compiles the library
sources under src/) into .bench_build/perfbench; later calls reuse the
build. Results, spans and scratch data go to .bench_out/. The last line of
standard output is the result JSON printed by the perfbench binary.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("audit", "stream", "serve", "cluster")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(command):
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("command failed: " + " ".join(command))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "coverage_lib.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure)
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    # A traced run measures five phases for --seconds each, plus set-ups,
    # replays and checks (about 6.5 x --seconds in all); a run still going
    # well past that is hung.
    timeout = 60 + 8 * args.seconds
    try:
        done = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", OUT_DIR],
            cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("no result after %d seconds" % timeout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
