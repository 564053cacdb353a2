#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md here).

Run from the root of a checkout:

    python3 perfbench/run.py --workload gib-gowalla --seed 1 --seconds 10 --trace 0

The first run configures and builds `perfbench` (and the library sources it
links) with CMake under $CARGO_TARGET_DIR, or .bench_build when that is not
set; later runs rebuild incrementally. Generated datasets are cached under
.bench_data and per-run records (host context, per-phase wall and CPU time,
spans) are written under .bench_out. Build output goes to stderr; the last
line of stdout is the JSON result. Exits nonzero without a result when the
build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("gib-gowalla", "lightgcn-large", "serve-pruned")
# Input generation plus the measured run must end within this many
# seconds of a finished build.
RUN_BUDGET_S = 175


def run_quiet(cmd, timeout):
    """Runs cmd with its output sent to stderr; True on exit code 0."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def build(root):
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                         timeout=300):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", jobs], timeout=840):
        return None
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S
    data_dir = os.path.join(root, ".bench_data")
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(data_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    common = ["--workload=" + args.workload, "--seed=%d" % args.seed,
              "--data-dir=" + data_dir]
    # Input generation, untimed and cached per seed.
    if not run_quiet([binary, "--prepare"] + common,
                     timeout=deadline - time.monotonic()):
        print("perfbench: input generation failed", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run(
            [binary, "--seconds=%g" % args.seconds,
             "--trace=%d" % args.trace, "--out-dir=" + out_dir] + common,
            cwd=root, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print("perfbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
