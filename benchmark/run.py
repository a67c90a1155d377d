#!/usr/bin/env python3
"""Builds and runs the BluSim end-to-end benchmark.

Run from the repository root:

    python3 benchmark/run.py --workload <dashboard|report_batch|tenant_serve> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the engine libraries and the benchmark
in Release mode under $CARGO_TARGET_DIR (default .bench_build) and runs the
helper self-test; later runs rebuild only what changed. Build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. Span files of traced runs land in <build dir>/out. The exit code is
the benchmark's (nonzero on a failed build, a failed self-test, a wrong
result or bad arguments).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "blubench")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "blubench", "blubench_selftest"])
    steps.append([os.path.join(BUILD_DIR, "blubench_selftest")])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("benchmark build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    cmd = [os.path.join(BUILD_DIR, "blubench")] + sys.argv[1:] + [
        "--out", os.path.join(BUILD_ROOT, "out")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("benchmark run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
