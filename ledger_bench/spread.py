#!/usr/bin/env python3
"""Run-to-run spread of the ledger benchmark's end-to-end metrics.

    python3 ledger_bench/spread.py WORKLOAD [--runs 10] [--first-seed 1]
        [--seconds S]

Runs the benchmark once per seed (first-seed, first-seed + 1, ...) from
the repository root and prints, for every end-to-end metric, the median
and the interquartile range as a share of the median, with quartiles as
statistics.quantiles(values, n=4) gives them. Compare each spread with a
third of the metric's bound in BENCHMARK.json. Seed 9001 is held out:
keep it for validating a claim, not for tuning.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        out = subprocess.run(
            bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("seed %d: exit %d\n%s" % (seed, out.returncode, out.stderr[-2000:]))
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            print("seed %d: INCORRECT (%d/%d failed)" % (seed, res["failed"], res["attempted"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())), flush=True)
    for name, vs in values.items():
        q = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q[2] - q[0]) / med
        limit = bounds[name] / 3
        print("%-20s median %-12.6g spread %.4f  (bound/3 %.4f)%s" % (
            name, med, spread, limit,
            "" if spread <= limit or name == "setup_s" else "  TOO WIDE"))


if __name__ == "__main__":
    main()
