#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first invocation configures and
builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
repo's libraries from src/) under .bench_build/perfbench; later invocations
only re-check the build. The binary's output is passed through; its last
line is the JSON result, checked here against the metric names and units in
BENCHMARK.json. The exit status is 0 only for a complete, correct run.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "cstf_perfbench")
WORKLOADS = ("train-qcoo", "train-csf", "serve-topk", "stream-als")
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in 1..60", 2)
    return args


def build():
    """Configure (once) and build; compiler output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repo sources next to perfbench/ (src/CMakeLists.txt missing)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append((["cmake", "-S", HERE, "-B", BUILD_DIR,
                       "-DCMAKE_BUILD_TYPE=Release"], CONFIGURE_TIMEOUT_S))
    steps.append((["cmake", "--build", BUILD_DIR, "-j", "4"],
                  BUILD_TIMEOUT_S))
    for cmd, timeout in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    args = parse_args()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if done.returncode not in (0, 1):
        fail("benchmark exited with status %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result: %r" % lines[-1])
    if done.returncode == 0:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = expected_metrics(args.trace)
        if got != want:
            fail("metrics differ from BENCHMARK.json: got %s, want %s"
                 % (sorted(got.items()), sorted(want.items())))
    print(lines[-1], flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
