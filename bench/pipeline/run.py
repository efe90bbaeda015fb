#!/usr/bin/env python3
"""Builds bench_pipeline from this checkout, then runs it.

    python3 bench/pipeline/run.py --workload <hc2|hc2-sv|long-clean|deep-gz|all>
                                  --seed S [--seconds N] [--trace 0|1]
                                  [--out FILE]

Every argument is passed through to bench_pipeline (see README.md). The
build lives in build/bench-pipeline/ at the root of the checkout, inside the
build/ tree that .gitignore already drops; ppa_assemble and bench_pipeline
end up side by side in build/bench-pipeline/ppa/. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. When the
build fails (for example, outside a full checkout) the script exits with the
build's nonzero code and prints no result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "bench-pipeline")


def run_quiet(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def main():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        code = run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                          "-G", "Unix Makefiles",
                          "-DCMAKE_BUILD_TYPE=Release"])
        if code != 0:
            return code
    code = run_quiet(["cmake", "--build", BUILD, "--parallel", "4"])
    if code != 0:
        return code
    binary = os.path.join(BUILD, "ppa", "bench_pipeline")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
