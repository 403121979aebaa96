#!/usr/bin/env python3
"""Regenerate BENCH_seed.json, the baseline of scripts/perf_gate.py.

Runs `RADER_BENCH_FAST=1 dune exec bench/main.exe` ten times from the
repository root and writes BENCH_seed.json: the first run's document with
every number that differs between runs replaced by its median over the
ten runs. Each gated cell is therefore the median of that cell over ten
unchanged runs; one run can sit well below its median, and a baseline
taken from it would fail later typical runs.

Usage: python3 scripts/bench_seed.py
"""

import json
import os
import statistics
import subprocess

RUNS = 10


def merge(values):
    first = values[0]
    if isinstance(first, dict):
        return {key: merge([v[key] for v in values]) for key in first}
    numbers = all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    )
    if numbers and any(v != first for v in values):
        return statistics.median(values)
    return first


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, RADER_BENCH_FAST="1")
    docs = []
    for i in range(RUNS):
        print(f"bench-seed: run {i + 1}/{RUNS}", flush=True)
        subprocess.run(
            ["dune", "exec", "bench/main.exe"],
            cwd=root,
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        with open(os.path.join(root, "BENCH_rader.json"), encoding="utf-8") as fh:
            docs.append(json.load(fh))
    seed = merge(docs)
    seed["seed_runs"] = RUNS
    with open(os.path.join(root, "BENCH_seed.json"), "w", encoding="utf-8") as fh:
        json.dump(seed, fh, indent=1)
        fh.write("\n")
    print("bench-seed: wrote BENCH_seed.json")


if __name__ == "__main__":
    main()
