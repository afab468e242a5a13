#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload batch_m32 --seed 1 --seconds 20 --trace 0

Builds perfbench/CMakeLists.txt (the library plus the benchmark binary)
into .bench_build/perfbench, then runs the binary with the same flags in
a scratch directory under .bench_build/work. The binary's standard output
is passed through; its last line is the JSON result. Build output goes to
standard error. Exits non-zero, printing no result, when the tree has no
library sources or the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("batch_m32", "batch_m128", "service")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join("src", "common", "build_info.cc")):
        fail("no library sources under ./src; run from the root of the tree")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.abspath(os.path.join(BUILD_DIR, "perfbench"))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    child = subprocess.Popen(command, cwd=WORK_DIR)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if code != 0:
        fail("benchmark exited with code %d" % code)


if __name__ == "__main__":
    main()
