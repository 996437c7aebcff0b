#!/usr/bin/env python3
"""Builds the end-to-end serving benchmark and runs one workload.

Usage (from the repository root):
  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is its own CMake project (bench/e2e/CMakeLists.txt) on top of
the qpgc library sources two directories up; it is configured and built into
build/e2e on every call (a no-op once up to date), with the build log on
stderr. The benchmark's output is passed through. Its last line carries
metric values only: units live in BENCHMARK.json, so this script checks that
the names are exactly the end_to_end (--trace 0) or per_layer (--trace 1)
metrics there, and prints the line again with each value's unit. Exits
non-zero, without a result line, when the build, the run or that check fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
BUILD = os.path.join(ROOT, "build", "e2e")
OUT = os.path.join(BUILD, "out")
TIMEOUT_SECS = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    for cmd in (["cmake", "-S", HERE, "-B", BUILD],
                ["cmake", "--build", BUILD, "-j4"]):
        # The build log goes to stderr: stdout carries only the benchmark.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def with_units(line, trace):
    """The benchmark's result line, each metric given its BENCHMARK.json unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from the contract")
    if set(result["metrics"]) != set(units):
        differ = sorted(set(result["metrics"]) ^ set(units))
        fail("metrics differ from BENCHMARK.json: " + ", ".join(differ))
    for name, value in result["metrics"].items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number")
        result["metrics"][name] = {"value": value, "unit": units[name]}
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "qpgc_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_SECS, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {TIMEOUT_SECS} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        fail(f"benchmark exited with code {proc.returncode} and no result")
    lines[-1] = with_units(lines[-1], args.trace == 1)
    print("\n".join(lines))
    # Exit code 1 from the benchmark: a wrong answer (correct is false).
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
