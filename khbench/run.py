#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 khbench/run.py --workload decompose|serve-read|serve-mixed \\
        --seed N --seconds S --trace 0|1
    python3 khbench/run.py --selftest

Run from the repository root. The build goes to .bench_build/khbench (an
incremental rebuild when the sources are unchanged); its output goes to
stderr so that the last stdout line stays the benchmark's JSON result.
Exits nonzero, printing no result, when the library sources are missing or
do not build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "khbench")
BUILD_JOBS = "3"


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr)


def main(args):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"khbench: build failed: {err}", file=sys.stderr)
        return 2
    if args == ["--selftest"]:
        return subprocess.run([os.path.join(BUILD, "khbench_selftest")]).returncode
    return subprocess.run([os.path.join(BUILD, "khbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
