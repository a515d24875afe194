#!/usr/bin/env python3
"""Write perfbench/reference.json: the digest of every step any workload
seed can run, computed by the current tree.

Usage (from the repository root): python3 perfbench/make_reference.py

Takes a few minutes.  The stored file was made at the commit recorded in
its "source" field; regenerate it only when an output is meant to change.
"""
from __future__ import annotations

import json
import sys

import run
from workloads import (SEED_CLASSES, SEEDED_STEPS, WINDOW_WIDTH, WORKLOADS, plan,
                       window_grid, window_step)


def collect(p: dict, into: dict) -> dict:
    """Run plan p once, untraced, and add each step's digest to `into`."""
    for step in run.run_op(p)["steps"]:
        if step["error"]:
            raise RuntimeError(f"{step['key']}: {step['error']}")
        if step["key"] in into and into[step["key"]] != step["digest"]:
            raise RuntimeError(f"{step['key']}: output differs between two runs")
        into[step["key"]] = step["digest"]
    return into


def reference_plans() -> list:
    """Plans that together run every step key of every workload seed."""
    plans = [plan(w, 0) for w in WORKLOADS]
    # scan-3e4: every window of the grid
    scan = plan("scan-3e4", 0)
    scan["steps"] = scan["steps"][:1] + [window_step(t, t + WINDOW_WIDTH) for t in window_grid()]
    plans.append(scan)
    # the seeded steps for the remaining seed classes, on warm caches
    warm = plan("report-warm", 0)
    warm["steps"] = [s for seed in range(1, SEED_CLASSES)
                     for s in plan("report-warm", seed)["steps"]
                     if s["argv"][0] in SEEDED_STEPS]
    plans.append(warm)
    return plans


def main() -> int:
    steps = {}
    for p in reference_plans():
        collect(p, steps)
        print(f"{len(steps)} step digests", file=sys.stderr)
    env = run.environment({}, 0)
    doc = {"source": {"git_commit": env["git_commit"], "src_sha256": env["src_sha256"]},
           "steps": steps}
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
