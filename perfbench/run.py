#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources, then runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 8 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/),
the run's scratch files to $CARGO_TARGET_DIR/work/<pid>, removed when
the run ends. The last line of standard output is the run's JSON
result; build output and the server's logs go to standard error.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no hopdb sources next to perfbench/ (expected ../CMakeLists.txt and ../src)")
    build_dir = os.path.join(build_root, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(
                step, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            fail("build step timed out: " + " ".join(step))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    # One scratch directory per run: the server maps the index file it
    # writes there, so two runs must never share one.
    work_dir = os.path.join(build_root, "work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary] + sys.argv[1:] + ["--work-dir", work_dir]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
