"""Span and count recorders wrapped around zml's module-level functions.

Nothing under src/ knows about tracing: `install` replaces each function
with a wrapper in the module where its caller looks it up.  A span is
(name, start, end, parent index, Z evaluations made inside it); spans stay
in memory and become per-layer metrics when the operation ends.
"""
from __future__ import annotations

import functools
import math
import time
from collections import defaultdict


def _eval_exps(args, result):
    poly, gammas = args[0], args[1]
    return {"dirichlet.eval_exps": len(gammas) * poly.length}


def _pair_kernels(args, result):
    return {"dirichlet.pair_kernels": args[0].length * args[1].length}


def _rs_terms(args, result):
    import numpy as np
    ts = np.asarray(args[0], dtype=float)
    return {"zeta.rs_terms": int(np.floor(np.sqrt(ts / (2.0 * math.pi))).sum())}


def _found(args, result):
    return {"zeros.found": len(result)}


# (module, attribute, span name, counter) for every wrapped function.  The
# counter, if any, derives work counts from the call's arguments or result.
WRAPPED = (
    ("cli", "cmd_zeros", "cli.zeros", None),
    ("cli", "cmd_moments", "cli.moments", None),
    ("cli", "cmd_mv_check", "cli.mv_check", None),
    ("cli", "cmd_landau", "cli.landau", None),
    ("cli", "cmd_report", "cli.report", None),
    # cli calls mv_campaign through its own globals
    ("cli", "mv_campaign", "cli.mv_campaign", None),
    ("sieve", "build_sieve", "sieve.build", None),
    ("sieve", "load_sieve", "sieve.load", None),
    ("sieve", "squarefree_harmonic", "sieve.sums", None),
    ("sieve", "alpha_mobius_sum", "sieve.sums", None),
    ("sieve", "prime_log_sum", "sieve.sums", None),
    ("sieve", "mertens", "sieve.sums", None),
    ("zeta", "hardy_z_many", "zeta.z", None),
    ("zeta", "_z_rs_batch", "zeta.rs", _rs_terms),
    ("zeros", "scan_and_refine", "zeros.scan", _found),
    ("zeros", "_anchored_gram_range", "zeros.gram_anchor", None),
    ("zeros", "_block_brackets", "zeros.subdivide", None),
    ("zeros", "_refine_brackets", "zeros.refine", None),
    ("zeros", "_build_records", "zeros.derivs", None),
    ("zeros", "export_zeros", "zeros.export", None),
    ("zeros", "import_zeros", "zeros.import", None),
    ("zeros", "zero_count_check", "zeros.count_check", None),
    # moments binds eval_poly_at_zeros at import, so patch it there
    ("moments", "eval_poly_at_zeros", "dirichlet.eval", _eval_exps),
    ("dirichlet", "mollifier", "dirichlet.mollifier", None),
    ("dirichlet", "pair_integral_exact", "dirichlet.pair", _pair_kernels),
    ("moments", "moment_report", "moments.report", None),
    ("moments", "theta_sweep", "moments.sweep", None),
    ("moments", "landau_gonek", "moments.landau", None),
    ("moments", "j_moment", "moments.j_moment", None),
)

# Per-layer metrics with their units; every traced operation emits all of
# them, 0 where the workload does not reach the layer.
UNITS = {
    "cli.zeros_s": "s", "cli.moments_s": "s", "cli.mv_check_s": "s",
    "cli.landau_s": "s", "cli.report_s": "s", "cli.zeros_z_evals": "count",
    "cli.mv_campaign_calls": "count", "cli.out_bytes": "bytes", "cli.out_files": "count",
    "sieve.build_s": "s", "sieve.load_s": "s", "sieve.sums_s": "s",
    "zeta.z_evals": "count", "zeta.zeta_evals": "count", "zeta.z_calls": "count",
    "zeta.z_batch_mean": "count", "zeta.z_busy_s": "s", "zeta.ns_per_z_eval": "ns",
    "zeta.rs_terms": "count",
    "zeros.scan_s": "s", "zeros.scan_z_evals": "count", "zeros.gram_anchor_s": "s",
    "zeros.subdivide_s": "s", "zeros.subdivide_calls": "count",
    "zeros.subdivide_z_evals": "count", "zeros.refine_s": "s",
    "zeros.refine_z_evals": "count", "zeros.derivs_s": "s", "zeros.derivs_z_evals": "count",
    "zeros.found": "count", "zeros.z_evals_per_zero": "ratio", "zeros.export_s": "s",
    "zeros.import_s": "s", "zeros.count_check_s": "s", "zeros.windows_failed": "count",
    "zeros.edge_windows_failed": "count",
    "dirichlet.eval_s": "s", "dirichlet.eval_calls": "count", "dirichlet.eval_exps": "count",
    "dirichlet.ns_per_exp": "ns", "dirichlet.mollifier_s": "s", "dirichlet.pair_s": "s",
    "dirichlet.pair_calls": "count", "dirichlet.pair_kernels": "count",
    "moments.report_s": "s", "moments.report_self_s": "s", "moments.report_calls": "count",
    "moments.eval_calls_per_report": "ratio", "moments.sweep_s": "s",
    "moments.landau_s": "s", "moments.landau_calls": "count", "moments.j_moment_s": "s",
    "moments.m1_ratio_re": "ratio",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_frac": "ratio",
    "trace.top_spans_s": "s", "trace.span_coverage": "ratio",
}


class Tracer:
    """In-memory spans and counts for one worker process."""

    def __init__(self, counters: dict):
        self.counters = counters      # zeta.counters, read at span edges
        self.spans = []               # [name, start, end, parent, z_evals]
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []

    def install(self, modules: dict) -> None:
        for mod_name, attr, name, counter in WRAPPED:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, counter))

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            z0 = self.counters["z_evals"]
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[4] = self.counters["z_evals"] - z0
                self._stack.pop()
            if counter is not None:
                for key, n in counter(args, result).items():
                    self.counts[key] += n
            return result
        return wrapper

    def layer_metrics(self, counter_delta: dict) -> dict:
        """Per-layer metrics over every span recorded so far."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        z_in = defaultdict(int)
        for name, start, end, parent, z in self.spans:
            total[name] += end - start
            self_time[name] += end - start
            calls[name] += 1
            z_in[name] += z
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start
        evals_in_reports = sum(
            1 for name, _, _, parent, _ in self.spans
            if name == "dirichlet.eval" and parent >= 0
            and self.spans[parent][0] == "moments.report"
        )
        z_evals = counter_delta["z_evals"]
        found = self.counts["zeros.found"]
        exps = self.counts["dirichlet.eval_exps"]
        return {
            "cli.zeros_s": total["cli.zeros"], "cli.moments_s": total["cli.moments"],
            "cli.mv_check_s": total["cli.mv_check"], "cli.landau_s": total["cli.landau"],
            "cli.report_s": total["cli.report"], "cli.zeros_z_evals": z_in["cli.zeros"],
            "cli.mv_campaign_calls": calls["cli.mv_campaign"],
            "sieve.build_s": total["sieve.build"], "sieve.load_s": total["sieve.load"],
            "sieve.sums_s": total["sieve.sums"],
            "zeta.z_evals": z_evals, "zeta.zeta_evals": counter_delta["zeta_evals"],
            "zeta.z_calls": calls["zeta.z"],
            "zeta.z_batch_mean": z_in["zeta.z"] / calls["zeta.z"] if calls["zeta.z"] else 0.0,
            "zeta.z_busy_s": total["zeta.z"],
            "zeta.ns_per_z_eval": 1e9 * total["zeta.z"] / z_in["zeta.z"] if z_in["zeta.z"] else 0.0,
            "zeta.rs_terms": self.counts["zeta.rs_terms"],
            "zeros.scan_s": total["zeros.scan"], "zeros.scan_z_evals": z_in["zeros.scan"],
            "zeros.gram_anchor_s": total["zeros.gram_anchor"],
            "zeros.subdivide_s": total["zeros.subdivide"],
            "zeros.subdivide_calls": calls["zeros.subdivide"],
            "zeros.subdivide_z_evals": z_in["zeros.subdivide"],
            "zeros.refine_s": total["zeros.refine"], "zeros.refine_z_evals": z_in["zeros.refine"],
            "zeros.derivs_s": total["zeros.derivs"], "zeros.derivs_z_evals": z_in["zeros.derivs"],
            "zeros.found": found,
            "zeros.z_evals_per_zero": z_in["zeros.scan"] / found if found else 0.0,
            "zeros.export_s": total["zeros.export"], "zeros.import_s": total["zeros.import"],
            "zeros.count_check_s": total["zeros.count_check"],
            "dirichlet.eval_s": total["dirichlet.eval"],
            "dirichlet.eval_calls": calls["dirichlet.eval"], "dirichlet.eval_exps": exps,
            "dirichlet.ns_per_exp": 1e9 * total["dirichlet.eval"] / exps if exps else 0.0,
            "dirichlet.mollifier_s": total["dirichlet.mollifier"],
            "dirichlet.pair_s": total["dirichlet.pair"],
            "dirichlet.pair_calls": calls["dirichlet.pair"],
            "dirichlet.pair_kernels": self.counts["dirichlet.pair_kernels"],
            "moments.report_s": total["moments.report"],
            "moments.report_self_s": self_time["moments.report"],
            "moments.report_calls": calls["moments.report"],
            "moments.eval_calls_per_report": (
                evals_in_reports / calls["moments.report"] if calls["moments.report"] else 0.0),
            "moments.sweep_s": total["moments.sweep"], "moments.landau_s": total["moments.landau"],
            "moments.landau_calls": calls["moments.landau"],
            "moments.j_moment_s": total["moments.j_moment"],
            "trace.top_spans_s": sum(e - s for _, s, e, parent, _ in self.spans if parent < 0),
        }
