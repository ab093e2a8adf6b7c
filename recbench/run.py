#!/usr/bin/env python3
"""Builds the recurring-query benchmark from source and runs one workload.

Run from the repository root:

    python3 recbench/run.py --workload agg-pane-merge --seed 1 \
        --seconds 30 --trace 0

The Release build goes to .bench_build/ in the repository root; a traced run
(--trace 1) also writes its RunRecurrence spans to .bench_out/. Build output
goes to stderr. The last line on stdout is the benchmark's JSON result. When
the build or the run fails, the script exits nonzero without a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SPANS = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "recbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            sys.exit(f"recbench: build step failed: {' '.join(step)}")
    return os.path.join(BUILD, "recbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS, exist_ok=True)
        command += ["--spans-out", os.path.join(
            SPANS, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"recbench: run exceeded {RUN_TIMEOUT_S} s")
    if result.returncode != 0:
        sys.exit(f"recbench: run failed with exit code {result.returncode}")
    sys.stdout.write(result.stdout)


if __name__ == "__main__":
    main()
