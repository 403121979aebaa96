#!/usr/bin/env python3
"""Build and run the ledger benchmark from the root of a checkout.

    python3 ledger_bench/run.py --workload check|family|serve \
        --seed N --seconds S --trace 0|1

Builds ledger_bench/main.exe from source with dune (build output goes to
standard error, in the checkout's _build directory, with dune's shared
cache off), then runs it with the same arguments. The benchmark's last
line of standard output is its JSON result. Outside a checkout of the
repository this exits with code 2 and prints no result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "ledger_bench", "main.exe")


def main():
    for need in ("dune-project", "lib", os.path.join("ledger_bench", "dune")):
        if not os.path.exists(need):
            sys.stderr.write(
                "ledger_bench: %s not found; run from the repository root\n" % need)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./ledger_bench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("ledger_bench: build failed: %s\n" % e)
        return 1
    if build.returncode != 0:
        sys.stderr.write("ledger_bench: build failed\n")
        return 1
    sys.stdout.flush()
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("ledger_bench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
