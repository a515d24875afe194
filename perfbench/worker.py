"""One benchmark operation in a fresh process.

Usage: python worker.py SPEC_JSON RESULT_PATH

SPEC_JSON holds {"mode", "plan", "cache", "out", "trace"}.  Mode "setup"
runs the plan's set-up steps (cache builds), "probe" only imports zml, and
"op" runs the timed steps.  The worker imports zml from PYTHONPATH, records
when it is ready, runs the steps and writes its result as JSON to
RESULT_PATH: per step the wall time, the error if any, the Z evaluations
made and a digest of the step's outputs for the reference check.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import digest
from workloads import EDGE_WINDOWS


def _run_cli(cli, argv: list) -> str | None:
    """Run one zml subcommand in-process; the error text, or None."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(argv)
    except Exception:  # a traceback instead of exit code 1 still fails only this step
        return traceback.format_exc(limit=3)
    if rc != 0:
        return f"exit code {rc}: {buf.getvalue()[-300:]}"
    return None


def _scan_window(zeros, t_lo: float, t_hi: float):
    """Scan one window; (error, digest)."""
    try:
        zlist = zeros.scan_and_refine(t_lo, t_hi)
    except Exception as exc:  # ZmlError is the expected kind; any other is a failure too
        return f"{type(exc).__name__}: {exc}", None
    return None, digest.window(zlist)


def main(spec: dict, result_path: Path) -> None:
    import numpy as np
    import scipy
    from zml import cli, dirichlet, moments, sieve, zeros, zeta

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(zeta.counters)
        tracer.install({"cli": cli, "dirichlet": dirichlet, "moments": moments,
                        "sieve": sieve, "zeros": zeros, "zeta": zeta})
    ready = time.monotonic()
    result = {"ready": ready, "env": {
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": digest.blas_info(np),
    }, "steps": []}

    cache, out = Path(spec["cache"]), Path(spec["out"])
    dirs = ["--cache-dir", str(cache), "--out-dir", str(out)]
    plan = spec["plan"]
    if spec["mode"] == "setup":
        for argv in plan["setup"]:
            err = _run_cli(cli, argv + dirs)
            result["steps"].append({"key": "setup " + " ".join(argv), "error": err})
    elif spec["mode"] == "op":
        counters0 = dict(zeta.counters)
        for step in plan["steps"]:
            cold_error = None
            if step.get("cold") and any(cache.iterdir()):
                cold_error = "cache dir not empty before a cold step"
            z0 = zeta.counters["z_evals"]
            t0 = time.perf_counter()
            if step["kind"] == "cli":
                err = _run_cli(cli, step["argv"] + dirs)
                wall = time.perf_counter() - t0
                dig = None if err else digest.cli_outputs(step["argv"], cache, out)
            else:
                err, dig = _scan_window(zeros, step["t_lo"], step["t_hi"])
                wall = time.perf_counter() - t0
            z_evals = zeta.counters["z_evals"] - z0
            if err is None:
                if cold_error:
                    err = cold_error
                elif step.get("cold") and z_evals == 0:
                    err = "cold step made no Z evaluation"
                elif step.get("warm") and z_evals > 0:
                    err = f"warm step made {z_evals} Z evaluations"
            result["steps"].append({"key": step["key"], "kind": step["kind"], "wall_s": wall,
                                    "error": err, "z_evals": z_evals, "digest": dig})
        if tracer is not None:
            delta = {k: zeta.counters[k] - counters0[k] for k in counters0}
            layers = tracer.layer_metrics(delta)
            layers["zeros.windows_failed"] = sum(
                1 for s in result["steps"] if s["kind"] == "window" and s["error"])
            layers["cli.out_files"], layers["cli.out_bytes"] = digest.tree_size(out)
            layers["moments.m1_ratio_re"] = digest.m1_ratio(out)
            result["spans"] = list(tracer.spans)
            if any(s["kind"] == "window" for s in plan["steps"]):
                layers["zeros.edge_windows_failed"] = sum(
                    1 for lo, hi in EDGE_WINDOWS
                    if _scan_window(zeros, lo, hi)[0])
            else:
                layers["zeros.edge_windows_failed"] = 0
            result["layers"] = layers
            result["unwrapped"] = tracer.missing
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result_path.write_text(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]), Path(sys.argv[2]))
