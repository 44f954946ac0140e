#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload stub_churn --seed 1 --seconds 15 --trace 0

Arguments go to perfbench.exe unchanged (see README.md).  Build output
goes to standard error, so the JSON result stays the last line of
standard output.  Without the repository's sources beside perfbench/
the build fails and the run exits non-zero without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./perfbench/perfbench.exe"


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: no dune-project beside perfbench/; nothing to build")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, TARGET],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    os.chdir(ROOT)
    os.execv(exe, [exe] + sys.argv[1:] + ["--expected", "perfbench/expected.json"])


if __name__ == "__main__":
    main()
