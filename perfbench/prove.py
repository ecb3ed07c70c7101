#!/usr/bin/env python3
"""Measure the benchmark's own run-to-run spread.

Runs perfbench/run.py once per (workload, seed) and prints, for every
end-to-end metric, the median over the seeds and the spread: the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, beside
the metric's bound from BENCHMARK.json. A run that is not correct, or
fails any operation, is reported and makes the exit code 1.

  python3 perfbench/prove.py [--workloads a,b] [--seeds 1-10]
                             [--seconds 10]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", default=str(spec["run_seconds"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", args.seconds,
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            last = proc.stdout.rstrip("\n").split("\n")[-1]
            try:
                result = json.loads(last)
            except ValueError:
                result = None
            if proc.returncode or not result or not result["correct"] or \
                    result["failed"]:
                print("%s seed %d: FAILED (exit %d)" % (workload, seed,
                                                         proc.returncode))
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, result["metrics"][n]["value"])
                for n in bounds)), flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            print("  %-18s median=%-12.6g spread=%6.2f%%  bound=%4.1f%%  %s"
                  % (name, med, 100 * spread, 100 * bounds[name],
                     "ok" if spread < bounds[name] / 3 else
                     ("within bound" if spread < bounds[name] else "WIDE")))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
