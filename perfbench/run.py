#!/usr/bin/env python3
"""The zml benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs operations of one workload in a closed loop, one at a
time, each in a fresh worker process, until S seconds have passed (at
least one operation).  Every step's outputs are checked against
perfbench/reference.json.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
holds the environment and every operation's details.

With --trace 0 the metrics are the end-to-end ones: wall_s (median wall
time of an operation's timed steps), setup_s (median time from spawning a
worker to zml being ready, plus the cache build where the workload has
one) and peak_rss_mb (median peak RSS of a worker).  With --trace 1,
traced and untraced operations alternate and the metrics are the per-layer
ones of perfbench/tracer.py, medians over the traced operations, with the
tracing overhead against the untraced operations of the same run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import digest
from tracer import UNITS
from workloads import FULL, WORKLOADS, plan, zml_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench"

WORKER_TIMEOUT_S = 170
MIN_SETUP_SAMPLES = 3
# One BLAS thread: a single client, and zml's BLAS use is small
# matrix-vector work, so more threads would add noise and no speed.
BLAS_THREADS = "1"


class WorkerError(Exception):
    """A worker process crashed, timed out or wrote no result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("ZML_CACHE_DIR", None)    # every run names its cache dir
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(spec: dict, workdir: Path) -> tuple:
    """Run worker.py on spec; (result, monotonic time of the spawn)."""
    result_path = workdir / f"result-{spec['mode']}.json"
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec), str(result_path)],
            env=worker_env(), cwd=workdir, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise WorkerError(f"worker exit code {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(result_path.read_text()), t_spawn


def run_op(p: dict, mode: str = "op", trace: bool = False) -> dict:
    """One operation (or, with mode "probe", one set-up) in fresh dirs."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="op-", dir=WORK_ROOT))
    try:
        (workdir / "cache").mkdir()
        spec = {"plan": p, "cache": str(workdir / "cache"), "out": str(workdir / "out"),
                "trace": trace}
        setup_s = 0.0
        if p["setup"]:
            t0 = time.monotonic()
            res, _ = spawn({**spec, "mode": "setup", "trace": False,
                            "out": str(workdir / "setup-out")}, workdir)
            setup_s = time.monotonic() - t0
            errors = [s["error"] for s in res["steps"] if s["error"]]
            if errors:
                raise WorkerError(f"set-up failed: {errors[0]}")
        res, t_spawn = spawn({**spec, "mode": mode}, workdir)
        res["setup_s"] = setup_s + res["ready"] - t_spawn
        res["traced"] = trace
        return res
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["steps"]


def environment(worker_env_info: dict, seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    return {**worker_env_info, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
            "git_commit": commit, "src_sha256": src_hash.hexdigest(),
            "seed": seed, "zml_seed": zml_seed(seed)}


def _median(values) -> float:
    return float(statistics.median(values))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale=FULL, reference: dict | None = None) -> tuple:
    """Run one benchmark run; (result line, detail dict)."""
    p = plan(workload, seed, scale)
    reference = load_reference() if reference is None else reference
    deadline = time.monotonic() + seconds
    ops, crashes = [], []
    attempted = failed = 0
    failures = []
    while True:
        traced = trace and len(ops) % 2 == 0
        attempted += len(p["steps"])
        try:
            op = run_op(p, trace=traced)
        except WorkerError as exc:
            failed += len(p["steps"])
            crashes.append(str(exc))
        else:
            op["wall_s"] = sum(s["wall_s"] for s in op["steps"])
            ops.append(op)
            for step in op["steps"]:
                problems = [step["error"]] if step["error"] else digest.mismatches(
                    step["digest"], reference.get(step["key"]))
                if problems:
                    failed += 1
                    failures.append({"key": step["key"], "problems": problems[:5]})
        kinds = {op["traced"] for op in ops}
        if time.monotonic() >= deadline and (not trace or len(kinds) == 2 or crashes):
            break
    if not ops or (trace and len(kinds) < 2):
        raise WorkerError("no operation completed: " + "; ".join(crashes))

    walls = {k: [op["wall_s"] for op in ops if op["traced"] == k] for k in (False, True)}
    if trace:
        traced_ops = [op for op in ops if op["traced"]]
        values = {k: _median(op["layers"][k] for op in traced_ops)
                  for k in traced_ops[0]["layers"]}
        values["trace.wall_s"] = _median(walls[True])
        values["trace.untraced_wall_s"] = _median(walls[False])
        values["trace.overhead_frac"] = values["trace.wall_s"] / values["trace.untraced_wall_s"] - 1.0
        values["trace.span_coverage"] = values["trace.top_spans_s"] / values["trace.wall_s"]
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
        spans_file = WORK_ROOT / f"spans-{workload}-seed{seed}.json"
        spans_file.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "z_evals"],
             "ops": [op.pop("spans") for op in traced_ops]}))
    else:
        setups = [op["setup_s"] for op in ops]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_op(p, mode="probe")["setup_s"])
        metrics = {
            "wall_s": {"value": _median(walls[False]), "unit": "s"},
            "setup_s": {"value": _median(setups), "unit": "s"},
            "peak_rss_mb": {"value": _median(op["maxrss_kb"] / 1024.0 for op in ops),
                            "unit": "MB"},
        }
    detail = {
        "workload": workload, "seconds": seconds, "trace": trace,
        "env": environment(ops[0]["env"], seed),
        "ops": [{"traced": op["traced"], "wall_s": op["wall_s"],
                 "setup_s": op["setup_s"], "maxrss_kb": op["maxrss_kb"],
                 "steps": [{k: s.get(k) for k in ("key", "wall_s", "z_evals", "error")}
                           for s in op["steps"]],
                 "unwrapped": op.get("unwrapped", [])} for op in ops],
        "crashes": crashes, "failures": failures,
        "spans_file": str(spans_file.relative_to(ROOT)) if trace else None,
    }
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "zml" / "__init__.py").is_file():
        print(f"error: no zml sources under {SRC}", file=sys.stderr)
        return 2
    try:
        line, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
