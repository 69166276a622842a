#!/usr/bin/env python3
"""Builds and runs the CrackStore end-to-end SQL benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload zoom --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (and with it the CrackStore
library from this checkout's sources) into .bench_build/ at the checkout
root; later runs only rebuild what changed. Build output goes to standard
error. The benchmark's own output goes to standard output; its last line is
the JSON result. Every argument is passed on to the crackbench binary (see
perfbench/README.md). Exits non-zero, without a result, if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "crackbench")
# Compiler jobs: the machine is shared, so stay below its core count.
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "crackbench",
                  "-j", JOBS])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 1
    os.makedirs(os.path.join(BUILD, "out"), exist_ok=True)
    command = [BINARY] + argv + ["--out", os.path.join(BUILD, "out")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
