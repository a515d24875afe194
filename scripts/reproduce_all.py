#!/usr/bin/env python3
"""End-to-end desk reproduction: certified zeros, the moment grid with the
theta sweep, the mean-value campaign, the prime-power sums, and the
consolidated per-equation report.

Equivalent to running the CLI subcommands in order with one shared config.
Each step's wall time and the process's peak resident set size so far go
to stderr, never into --out-dir.  With --stats PATH the same figures and
the number of Z evaluations each step made go to a JSON file, one entry
per step, with the number of threads that sum the Riemann-Siegel main sum
(zeta.Z_THREADS), so that timings from different machines can be
compared; PATH may not lie inside --out-dir, whose files are compared byte
for byte between runs.

Usage: python scripts/reproduce_all.py [--t-max 10000] [--out-dir zml-out]
                                      [--stats PATH]
"""
import argparse
import json
import resource
import sys
import time
from pathlib import Path

from zml import zeta
from zml.cli import main as zml_main


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--t-max", type=str, default="10000")
    ap.add_argument("--sieve-limit", type=str, default="1000000")
    ap.add_argument("--cache-dir", type=str, default=".zml-cache")
    ap.add_argument("--out-dir", type=str, default="zml-out")
    ap.add_argument("--seed", type=str, default="42")
    ap.add_argument("--stats", type=str, default=None, metavar="PATH",
                    help="write each step's wall time, peak RSS, Z evaluations and Z "
                         "threads as JSON")
    args = ap.parse_args()
    if args.stats:
        stats_path, out_dir = Path(args.stats).resolve(), Path(args.out_dir).resolve()
        if out_dir == stats_path or out_dir in stats_path.parents:
            print(f"error: --stats {args.stats} lies inside --out-dir {args.out_dir}",
                  file=sys.stderr)
            sys.exit(1)

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
    stats = []
    for step in steps:
        print(f"\n$ zml {' '.join(step)}")
        t0 = time.perf_counter()
        z0 = zeta.counters["z_evals"]
        rc = zml_main(step)
        wall = time.perf_counter() - t0
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"reproduce_all: {step[0]} {wall:.2f} s, "
              f"peak RSS {peak_mb:.0f} MB", file=sys.stderr)
        stats.append({"step": step[0], "wall_s": wall, "peak_rss_mb": peak_mb,
                      "z_evals": zeta.counters["z_evals"] - z0,
                      "z_threads": zeta.Z_THREADS})
        worst = max(worst, rc)
        if rc == 1:
            break
    if args.stats:
        stats_path.parent.mkdir(parents=True, exist_ok=True)
        stats_path.write_text(json.dumps(stats, indent=2) + "\n", encoding="utf-8")
    sys.exit(worst)


if __name__ == "__main__":
    main()
