#!/usr/bin/env python3
"""Runs workloads repeatedly with different seeds and prints, per
end-to-end metric, the median, the quartiles and the spread (quartile
distance over median) against the bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --runs 10 [--workloads curate-snb,run-bsbm]
                                    [--first-seed 1] [--seconds N]

Quartiles are Python's statistics.quantiles(values, n=4). A spread at or
above a third of its bound is flagged; setup_s is judged on its medians
across repeated sets only, so its spread is shown but not flagged.
Exits non-zero if any run fails or is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for k in range(args.runs):
            seed = args.first_seed + k
            started = time.time()
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print("%s seed %d FAILED (exit %d)\n%s" % (
                    workload, seed, proc.returncode, proc.stderr[-2000:]))
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d (%.0f s): %s" % (
                workload, seed, time.time() - started, " ".join(
                    "%s=%.4g" % (n, result["metrics"][n]["value"])
                    for n in values)), flush=True)
        print("\n%s (%d runs)" % (workload, len(values["setup_s"])))
        print("%-14s %12s %12s %12s %8s %8s" % ("metric", "q1", "median", "q3",
                                                 "spread", "bound"))
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s" and spread >= m["bound"] / 3:
                flag = "  <-- above bound/3"
            print("%-14s %12.5g %12.5g %12.5g %8.3f %8.3f%s" % (
                m["name"], q1, med, q3, spread, m["bound"], flag))
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
