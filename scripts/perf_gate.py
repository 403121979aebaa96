#!/usr/bin/env python3
"""Perf gate: fail if the hot-path Fig. 8 overheads regress vs the seed.

Compares a freshly produced BENCH_rader.json (fast mode) against the
committed BENCH_seed.json baseline on the ratios the hot-path overhaul
(DESIGN.md S15) is accountable for: fib and knapsack under the
check_updates / check_reductions steal specs, measured as overhead vs
the empty tool — once under the default dset reachability backend
(`fig8_overhead_vs_empty_tool`) and once under depa
(`s9_reach_backends.<bench>.<config>.fig8_depa`, DESIGN.md S12).

The gate is on the RATIO, not wall-clock, so a uniformly slower CI
runner does not trip it; what trips it is detector- or engine-side work
growing relative to the empty-tool baseline on the same machine. The
tolerance (default 20%, --tolerance) absorbs the fast-mode noise floor:
the empty-tool denominator is a few milliseconds, and its run-to-run
variance moves the ratio a few percent (DESIGN.md S15).

Exit status: 0 all gated ratios within tolerance, 1 regression,
2 malformed/missing input.

Usage: scripts/perf_gate.py [--seed BENCH_seed.json] [--new BENCH_rader.json]
                            [--tolerance 0.20]
"""

import argparse
import json
import sys

GATED_BENCHES = ("fib", "knapsack")
GATED_CONFIGS = ("check_updates", "check_reductions")
# (label, path prefix, path suffix): the gated value of a bench/config
# pair is doc[prefix...][bench][config][suffix...]
GATED_METRICS = (
    ("dset", ("fig8_overhead_vs_empty_tool",), ()),
    ("depa", ("s9_reach_backends",), ("fig8_depa",)),
)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perf-gate: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def gated_ratio(doc, path, keys):
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

    failures = []
    print(
        f"perf-gate: Fig. 8 overhead vs empty tool, "
        f"tolerance +{args.tolerance:.0%} over {args.seed}"
    )
    print(
        f"{'benchmark':<10} {'config':<18} {'reach':<6} "
        f"{'seed':>7} {'new':>7} {'limit':>7}  verdict"
    )
    for label, prefix, suffix in GATED_METRICS:
        for bench in GATED_BENCHES:
            for config in GATED_CONFIGS:
                keys = prefix + (bench, config) + suffix
                s = gated_ratio(seed, args.seed, keys)
                n = gated_ratio(new, args.new, keys)
                limit = s * (1.0 + args.tolerance)
                ok = n <= limit
                print(
                    f"{bench:<10} {config:<18} {label:<6} {s:>7.3f} {n:>7.3f} "
                    f"{limit:>7.3f}  {'ok' if ok else 'REGRESSION'}"
                )
                if not ok:
                    failures.append((bench, config, label, s, n, limit))

    if failures:
        print(file=sys.stderr)
        for bench, config, label, s, n, limit in failures:
            print(
                f"perf-gate: {bench} {config} ({label}) regressed: {n:.3f} > "
                f"{limit:.3f} (seed {s:.3f} + {args.tolerance:.0%})",
                file=sys.stderr,
            )
        print(
            "perf-gate: if the regression is intentional, regenerate the "
            "baseline with RADER_BENCH_FAST=1 dune exec bench/main.exe && "
            "cp BENCH_rader.json BENCH_seed.json and justify it in the PR",
            file=sys.stderr,
        )
        return 1
    print("perf-gate: all gated ratios within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
