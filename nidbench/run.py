#!/usr/bin/env python3
"""Builds nidbench from source and runs one workload.

Usage, from the repository root:

    python3 nidbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library and the benchmark are compiled (Release) into .bench_build/nidbench
by nidbench/CMakeLists.txt; a build that is up to date costs a second. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. The exit code is the benchmark's.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "nidbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "experiment.hpp")):
        sys.stderr.write("nidbench: nidkit sources (src/) not found next to %s\n" % HERE)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("nidbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 2
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "nidbench")] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
