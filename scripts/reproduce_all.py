#!/usr/bin/env python3
"""End-to-end desk reproduction: certified zeros, the moment grid with the
theta sweep, the mean-value campaign, the prime-power sums, and the
consolidated per-equation report.

Equivalent to running the CLI subcommands in order with one shared config.
Each step's wall time and the process's peak resident set size so far go
to stderr, never into --out-dir.

Usage: python scripts/reproduce_all.py [--t-max 10000] [--out-dir zml-out]
"""
import argparse
import resource
import sys
import time

from zml.cli import main as zml_main


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--t-max", type=str, default="10000")
    ap.add_argument("--sieve-limit", type=str, default="1000000")
    ap.add_argument("--cache-dir", type=str, default=".zml-cache")
    ap.add_argument("--out-dir", type=str, default="zml-out")
    ap.add_argument("--seed", type=str, default="42")
    args = ap.parse_args()

    common = [
        "--t-max", args.t_max,
        "--sieve-limit", args.sieve_limit,
        "--cache-dir", args.cache_dir,
        "--out-dir", args.out_dir,
        "--seed", args.seed,
    ]
    steps = [
        ["zeros"] + common,
        ["moments", "--theta-sweep", "0.3:0.9:0.2"] + common,
        ["mv-check"] + common,
        ["landau", "--x", "2,3,4,5,6"] + common,
        ["report"] + common,
    ]
    worst = 0
    for step in steps:
        print(f"\n$ zml {' '.join(step)}")
        t0 = time.perf_counter()
        rc = zml_main(step)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"reproduce_all: {step[0]} {time.perf_counter() - t0:.2f} s, "
              f"peak RSS {peak_mb:.0f} MB", file=sys.stderr)
        worst = max(worst, rc)
        if rc == 1:
            break
    sys.exit(worst)


if __name__ == "__main__":
    main()
