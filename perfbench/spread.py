#!/usr/bin/env python3
"""Measure the spread of two sets of benchmark runs against the bounds.

    python3 perfbench/spread.py [--runs 10] [--sets 2] [--workload W ...]
                                [--seconds S]

Run from the root of a source checkout. For every workload, each set makes
--runs untraced runs of perfbench/run.py, each with its own seed (set k
uses seeds 1000*k + 1 ...). For every end-to-end metric it prints, per set,
the median and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median. It
also prints how far the second set's median moved against the first. A
spread or a worsening median beyond the metric's bound in BENCHMARK.json
makes the exit status 1, and a spread above a third of the bound is
flagged "wide". setup_s is one cold sample per process, so its spread is
printed but not gated ("info"); its median is gated like the others'. A
run that fails or reports correct=false stops the script with status 1,
so every counted run had no failed operation.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    last = done.stdout.rstrip("\n").split("\n")[-1]
    if done.returncode != 0:
        sys.exit("%s seed %d failed (status %d): %s"
                 % (workload, seed, done.returncode, last))
    return json.loads(last)


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2, choices=(1, 2))
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    results = {}
    for w in workloads:
        results[w] = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1000 * (k + 1) + i + 1
                runs.append(run_once(w, seed, args.seconds))
                print("%s set %d run %d/%d done" % (w, k + 1, i + 1,
                                                    args.runs),
                      file=sys.stderr)
            results[w].append(runs)

    ok = True
    print("%-11s %-12s %5s %12s %7s %12s %7s %8s %s" % (
        "workload", "metric", "bound", "median1", "spread1", "median2",
        "spread2", "worse", "verdict"))
    for w, sets in results.items():
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, verdict = [], []
            medians = []
            for s in sets:
                vals = [r["metrics"][name]["value"] for r in s]
                medians.append(statistics.median(vals))
                sp = spread(vals)
                cols += [medians[-1], sp]
                if name != "setup_s" and sp > bound:
                    verdict.append("SPREAD")
                elif name != "setup_s" and sp > bound / 3:
                    verdict.append("wide")
            if name == "setup_s":
                verdict.append("info")
            worse = 0.0
            if len(medians) == 2:
                sign = 1.0 if m["better"] == "lower" else -1.0
                worse = sign * (medians[1] - medians[0]) / medians[0]
                if worse > bound:
                    verdict.append("WORSE")
            if "SPREAD" in verdict or "WORSE" in verdict:
                ok = False
            while len(cols) < 4:
                cols += [float("nan")]
            print("%-11s %-12s %5.2f %12.5g %7.3f %12.5g %7.3f %8.3f %s" % (
                w, name, bound, cols[0], cols[1], cols[2], cols[3], worse,
                ",".join(verdict) or "ok"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
