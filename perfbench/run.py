#!/usr/bin/env python3
"""Builds and runs the serving benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload rank_scan --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the current
directory; span dumps and scratch snapshots go to <build dir>/work. The last
line of standard output is the result JSON of halk_perfbench.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the benchmark; logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "halk_perfbench", "perfbench_selftest"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run(cmd):
    """Runs `cmd` with inherited stdout; returns its exit code."""
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (RUN_TIMEOUT_S, " ".join(cmd)))
    except OSError as e:
        fail("cannot run %s: %s" % (cmd[0], e))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helper tests instead")
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if args.selftest:
        build(build_dir)
        sys.exit(run([os.path.join(build_dir, "perfbench_selftest")]))
    if args.workload not in workloads:
        fail("unknown workload %r (have: %s)" %
             (args.workload, ", ".join(sorted(workloads))))
    if args.seed is None or args.seconds is None or args.seconds <= 0:
        fail("--seed and a positive --seconds are required")

    build(build_dir)
    cmd = [os.path.join(build_dir, "halk_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "work")]
    for key, value in workloads[args.workload]["params"].items():
        cmd += ["--param", "%s=%s" % (key, value)]
    sys.exit(run(cmd))


if __name__ == "__main__":
    main()
