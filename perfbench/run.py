#!/usr/bin/env python3
"""Build and run the coderep benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (a CMake project over the sources in src/) into the
directory named by CARGO_TARGET_DIR, or .bench_build, then runs one
workload. The last line of stdout is the JSON result; build output and
diagnostics go to stderr. Exits non-zero, without a result, when the
build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", build_dir, "--parallel", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(build_dir, "perfbench")
    common = ["--codrepd=" + os.path.join(build_dir, "codrepd"),
              "--work-dir=.perfbench_work",
              "--expected-dir=" + os.path.join(HERE, "expected")]
    if args.self_test:
        cmd = [exe, "--self-test"] + common
    else:
        if not args.workload:
            parser.error("--workload is required")
        cmd = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds, "--trace=%d" % args.trace]
        cmd += common
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
