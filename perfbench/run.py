#!/usr/bin/env python3
"""Builds the seqdl end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a seqdl checkout. The build goes to
$CARGO_TARGET_DIR (default .bench_build) under perfbench-cmake/, and the
data directories of the run under run/. Build output goes to stderr; stdout
carries the benchmark's own lines, the last one being the result object.
Exits non-zero, printing no result, when the sources or the build are missing.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.call(step, stdout=sys.stderr) != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    if not os.path.exists(os.path.join(ROOT, "src", "engine", "database.h")):
        print("perfbench: seqdl sources not found under " + ROOT, file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    binary = build(os.path.join(target, "perfbench-cmake"))
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary] + sys.argv[1:] + ["--work-dir", os.path.join(target, "run")]
    return subprocess.call(args)


if __name__ == "__main__":
    sys.exit(main())
