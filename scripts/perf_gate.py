#!/usr/bin/env python3
"""Perf gate: fail if a gated Fig. 7 cell regresses against the baseline.

Compares a fresh fast-mode BENCH_rader.json with the committed
BENCH_seed.json on eight Fig. 7 cells: the detector's time over the
plain program, for fib and knapsack under the check_updates and
check_reductions steal specs, under the dset and the depa reachability
backends (`fig7_overhead_vs_plain.<reach>.<bench>.<config>.median`).

The bench times all ten configurations of a program in one pass of
rotated rounds and takes each ratio within its round, so a cell is the
median over rounds of the detector's time over the plain program's in
the same round. A uniformly slower runner does not trip the gate; more
detector or engine work per plain-program unit does. The baseline's
cells are per-cell medians of ten unchanged fast runs
(scripts/bench_seed.py), so it sits at a typical run, not a lucky one.
Fig. 8 (over the empty tool) is not gated: the empty tool's speed is
bimodal per process, and an engine slowdown read there as a detector
improvement. The engine's allocation is gated exactly by
test_complexity "engine-alloc".

Exit status: 0 all gated cells within tolerance, 1 regression,
2 malformed/missing input.

Usage: scripts/perf_gate.py [--seed BENCH_seed.json] [--new BENCH_rader.json]
                            [--tolerance 0.20]
"""

import argparse
import json
import sys

GATED_REACH = ("dset", "depa")
GATED_BENCHES = ("fib", "knapsack")
GATED_CONFIGS = ("check_updates", "check_reductions")
GRID = "fig7_overhead_vs_plain"


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perf-gate: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def gated_cell(doc, path, keys):
    name = ".".join(keys)
    try:
        val = doc
        for key in keys:
            val = val[key]
    except (KeyError, TypeError):
        print(f"perf-gate: {path} has no {name}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(val, (int, float)) or val <= 0:
        print(
            f"perf-gate: {path} {name} is not a positive number: {val!r}",
            file=sys.stderr,
        )
        sys.exit(2)
    return float(val)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", default="BENCH_seed.json")
    ap.add_argument("--new", dest="new", default="BENCH_rader.json")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional regression vs seed (default 0.20 = +20%%)",
    )
    args = ap.parse_args()

    seed = load(args.seed)
    new = load(args.new)

    if not new.get("fast", False):
        print(
            f"perf-gate: {args.new} was not produced in fast mode "
            "(run with RADER_BENCH_FAST=1) — refusing to compare "
            "unlike-for-unlike measurements",
            file=sys.stderr,
        )
        sys.exit(2)
    if seed.get("schema") != new.get("schema"):
        print(
            f"perf-gate: schema {new.get('schema')!r} of {args.new} differs "
            f"from {seed.get('schema')!r} of {args.seed}",
            file=sys.stderr,
        )
        sys.exit(2)

    failures = []
    print(
        f"perf-gate: Fig. 7 detector time over the plain program (median over "
        f"rounds), tolerance +{args.tolerance:.0%} over {args.seed}"
    )
    print(
        f"{'benchmark':<10} {'config':<18} {'reach':<6} "
        f"{'seed':>8} {'new':>8} {'limit':>8}  verdict"
    )
    for reach in GATED_REACH:
        for bench in GATED_BENCHES:
            for config in GATED_CONFIGS:
                keys = (GRID, reach, bench, config, "median")
                s = gated_cell(seed, args.seed, keys)
                n = gated_cell(new, args.new, keys)
                limit = s * (1.0 + args.tolerance)
                ok = n <= limit
                print(
                    f"{bench:<10} {config:<18} {reach:<6} {s:>8.2f} {n:>8.2f} "
                    f"{limit:>8.2f}  {'ok' if ok else 'REGRESSION'}"
                )
                if not ok:
                    failures.append((bench, config, reach, s, n, limit))

    if failures:
        print(file=sys.stderr)
        for bench, config, reach, s, n, limit in failures:
            print(
                f"perf-gate: {bench} {config} ({reach}) regressed: {n:.2f} > "
                f"{limit:.2f} (seed {s:.2f} + {args.tolerance:.0%})",
                file=sys.stderr,
            )
        print(
            "perf-gate: if the regression is intentional, regenerate the "
            "baseline with `python3 scripts/bench_seed.py` (ten unchanged "
            "RADER_BENCH_FAST=1 runs of bench/main.exe, per-cell medians, "
            "written to BENCH_seed.json) and justify it in the PR",
            file=sys.stderr,
        )
        return 1
    print("perf-gate: all gated cells within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
