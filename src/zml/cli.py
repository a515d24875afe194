"""Command-line orchestration: cached sieves and zero lists, the moment
experiments, the mean-value certification campaign, the prime-power zero
sums, and the consolidated per-equation report.

Subcommands: zeros, moments, mv-check, landau, report.  All output files
are deterministic functions of (config, seed): no timestamps, sorted JSON
keys, repr-formatted floats.  Exit code 0 means every hard invariant
(completeness certification, the Cauchy-Schwarz chain, the mean-value
ratio bound) held.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dirichlet, moments, sieve, zeros, zeta
from .errors import InputError, ZmlError

SCAN_T_LO = 10.0
MAX_SWEEP = 1000          # most theta values a --theta-sweep may give
EQ_TAGS = ("eq1", "neg2", "m1", "m2", "mv", "langon", "neg4", "sig1")
# Steps h for which the five-point Z' stencil stays within 1e-6 of mpmath's
# siegelz(t, derivative=1) up to T_MAX: below, the rounding noise of Z over h
# dominates; above, the h^4 truncation term.
DERIV_STEP_RANGE = (3e-5, 3e-3)
# Part of the zero-cache key: raise it whenever the scanner or the zero-file
# contents change, so that no list made by an older version is read.
ZERO_CACHE_VERSION = 3
# Part of the campaign-cache key: raise it whenever the ratios mv_campaign
# returns for a (seed, trials) change.
MV_CACHE_VERSION = 2


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; fixed seed means reproducible bytes."""
    t_max: float = 1000.0
    theta: float = 0.5
    theta_sweep: tuple | None = None
    sieve_limit: int = 10**6
    cache_dir: Path = Path(".zml-cache")
    out_dir: Path = Path("zml-out")
    output_format: str = "json"
    seed: int = 42
    deriv_step: float = 1e-4
    trials: int = 1000
    mv_bound: float = 10.0
    x_values: tuple = (2.0, 3.0, 4.0, 5.0, 6.0)

    def __post_init__(self):
        if not 0.0 < self.t_max <= zeta.T_MAX:
            raise InputError(f"t_max must lie in (0, {zeta.T_MAX:g}]")
        if not 0.0 < self.theta < 1.0:
            raise InputError("theta must lie in (0, 1)")
        if self.output_format not in ("csv", "json"):
            raise InputError("format must be csv or json")
        lo, hi = DERIV_STEP_RANGE
        if not lo <= self.deriv_step <= hi:
            raise InputError(f"deriv_step must lie in [{lo:g}, {hi:g}]")
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        if not (math.isfinite(self.mv_bound) and self.mv_bound > 0.0):
            raise InputError("mv_bound must be finite and positive")

    @property
    def eval_config(self) -> zeta.EvalConfig:
        return replace(zeta.DEFAULT_CONFIG, deriv_step=self.deriv_step)


def _atomic_replace(path: Path, write) -> None:
    """Build `path` by write(tmp) on a unique temp file in the same directory,
    then rename it into place; on any failure the temp file is removed and
    `path` is left as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: Path, text: str) -> None:
    def write(tmp):
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    _atomic_replace(path, write)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _plot_text(xs, ys) -> str:
    return "".join(f"{float(x)!r} {float(y)!r}\n" for x, y in zip(xs, ys))


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------

def _zero_cache_path(cfg: RunConfig) -> Path:
    ec = cfg.eval_config
    key = f"v{ZERO_CACHE_VERSION}|{cfg.t_max!r}|{ec.em_terms}|{ec.rs_correction_order}|{ec.deriv_step!r}|{ec.target_abs_err!r}"
    digest = hashlib.sha256(key.encode()).hexdigest()[:10]
    return cfg.cache_dir / f"zeros_t{cfg.t_max:g}_{digest}.txt"


def _load_or_scan_zeros(cfg: RunConfig, build: bool = True) -> zeros.ZeroList:
    """The cached zero list.  A missing or damaged cache is rescanned and
    rewritten atomically if `build`, and is an error otherwise."""
    path = _zero_cache_path(cfg)
    if path.exists():
        try:
            return zeros.import_zeros(path)
        except ZmlError:
            if not build:
                raise
    elif not build:
        raise InputError(
            f"zero cache {path} missing; run the 'zeros' subcommand first"
        )
    t_top = cfg.t_max + zeros.SCAN_MARGIN
    zlist = zeros.scan_and_refine(SCAN_T_LO, t_top, cfg.eval_config)
    _atomic_replace(path, lambda tmp: zeros.export_zeros(zlist, tmp))
    return zlist


def _load_or_build_sieve(cfg: RunConfig) -> sieve.SieveTable:
    path = cfg.cache_dir / f"sieve_{cfg.sieve_limit}.bin"
    if path.exists():
        try:
            return sieve.load_sieve(path, cfg.sieve_limit)
        except ZmlError:
            pass
    table = sieve.build_sieve(cfg.sieve_limit)
    _atomic_replace(path, lambda tmp: sieve.save_sieve(table, tmp))
    return table


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_zeros(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    zlist = _load_or_scan_zeros(cfg)
    dt = time.perf_counter() - t0
    check = zeros.zero_count_check(zlist, cfg.t_max, cfg.eval_config)
    n = zlist.count_below(cfg.t_max)
    min_zp = float(np.abs(zlist.z_primes).min()) if len(zlist) else math.nan
    print(f"zeros: {n} ordinates in (0, {cfg.t_max:g}], certified={bool(check)}")
    print(f"zeros: min |Z'(gamma)| = {min_zp:.6f}")
    print(f"zeros: cache {_zero_cache_path(cfg)} ({dt:.2f}s)")
    if not check:
        print(
            f"zeros: certification FAILED: count {check.count}, expected "
            f"{check.expected:.3f}, anchor k={check.anchor_k} "
            f"g={check.anchor_gram:.6f} count_at_anchor={check.count_at_anchor}",
            file=sys.stderr,
        )
        return 2
    return 0


def _moment_grid(cfg: RunConfig) -> list:
    grid = [float(T) for T in range(1000, int(cfg.t_max) + 1, 1000)]
    return grid or [cfg.t_max]


def cmd_moments(cfg: RunConfig) -> int:
    zlist = _load_or_scan_zeros(cfg)
    table = _load_or_build_sieve(cfg)
    thetas = list(cfg.theta_sweep) if cfg.theta_sweep else [cfg.theta]
    grid = [(T_req, zeros.snap_to_midgap(zlist, T_req)) for T_req in _moment_grid(cfg)]
    points = [(th, T) for _, T in grid for th in thetas]
    if cfg.theta_sweep:
        T_sweep = zeros.snap_to_midgap(zlist, cfg.t_max)
        points += [
            (th, T_sweep) for th in thetas
            if moments.point_error(zlist, table, th, T_sweep) is None
        ]
    points = list(dict.fromkeys(points))
    reports = dict(zip(points, moments.moment_grid(zlist, table, points)))
    all_ok = True
    summary = []
    for T_req, T in grid:
        for th in thetas:
            rep = reports[(th, T)]
            ok = moments.cauchy_chain(rep)
            all_ok &= ok
            summary.append(rep)
            name = f"moments_T{T_req:g}_theta{th:g}"
            if cfg.output_format == "json":
                _atomic_write(cfg.out_dir / f"{name}.json", _json_text(rep.to_json_dict()))
            print(
                f"moments: T={T:.3f} theta={th:g} J={rep.j_minus_1:.3f} "
                f"ratio={rep.j_minus_1 / rep.gonek_pred:.4f} cauchy_ok={ok}"
            )
    _atomic_write(cfg.out_dir / "moments_summary.csv", moments.reports_csv_text(summary))
    if cfg.theta_sweep:
        rows = moments.theta_sweep(zlist, table, T_sweep, thetas, known=reports)
        _atomic_write(cfg.out_dir / "theta_sweep.json", _json_text(rows))
        for row in rows:
            if "error" in row:
                print(f"moments: sweep theta={row['theta_exp']:g}: {row['error']}")
                continue
            print(
                f"moments: sweep theta={row['theta_exp']:g} lb={row['cauchy_lb']:.2f} "
                f"pred={row['sweep_pred']:.2f} ratio={row['ratio']:.3f}"
            )
    return 0 if all_ok else 2


def mv_campaign(seed: int, trials: int):
    """Randomized mean-value certification trials (xi <= 200, T in [10, 1e4],
    coefficients uniform in [-1, 1])."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        xa, xb = rng.integers(1, 201, 2)
        A = dirichlet.DirichletPoly(coeffs=rng.uniform(-1.0, 1.0, int(xa)))
        B = dirichlet.DirichletPoly(coeffs=rng.uniform(-1.0, 1.0, int(xb)))
        T = float(rng.uniform(10.0, 1.0e4))
        ratios.append(dirichlet.mv_report(A, B, T).ratio)
    return ratios


def _mv_summary(cfg: RunConfig, ratios) -> dict:
    """The campaign's summary, as mv_stats.json and report.json hold it."""
    max_ratio = max(ratios)
    return {
        "seed": cfg.seed,
        "trials": cfg.trials,
        "max_ratio": max_ratio,
        "mean_ratio": math.fsum(ratios) / len(ratios),
        "bound": cfg.mv_bound,
        "passed": max_ratio <= cfg.mv_bound,
    }


def _campaign_key(cfg: RunConfig) -> dict:
    return {"seed": cfg.seed, "trials": cfg.trials, "version": MV_CACHE_VERSION}


def _campaign_cache_path(cfg: RunConfig) -> Path:
    return cfg.cache_dir / f"mv_campaign_s{cfg.seed}_n{cfg.trials}_v{MV_CACHE_VERSION}.json"


def _cached_ratios(cfg: RunConfig):
    """The ratios stored for this (seed, trials, version), or None unless
    the file parses, echoes the key and holds `trials` finite floats."""
    try:
        data = json.loads(_campaign_cache_path(cfg).read_text(encoding="utf-8"))
        ratios = data.pop("ratios")
    except (OSError, ValueError, AttributeError, KeyError, TypeError):
        return None
    if data != _campaign_key(cfg) or not isinstance(ratios, list):
        return None
    if len(ratios) != cfg.trials or not all(
            type(r) is float and math.isfinite(r) for r in ratios):
        return None
    return ratios


def _campaign_ratios(cfg: RunConfig, reuse: bool) -> list:
    """The campaign's ratios: the validated cache file if `reuse`, else a
    fresh mv_campaign run, which is stored in the cache."""
    ratios = _cached_ratios(cfg) if reuse else None
    if ratios is None:
        ratios = mv_campaign(cfg.seed, cfg.trials)
        _atomic_write(_campaign_cache_path(cfg),
                      _json_text({**_campaign_key(cfg), "ratios": ratios}))
    return ratios


def cmd_mv_check(cfg: RunConfig) -> int:
    ratios = _campaign_ratios(cfg, reuse=False)
    stats = _mv_summary(cfg, ratios)
    if cfg.output_format == "json":
        stats["ratios"] = ratios
    else:
        lines = ["trial,ratio"] + [f"{i},{r!r}" for i, r in enumerate(ratios)]
        _atomic_write(cfg.out_dir / "mv_stats.csv", "\n".join(lines) + "\n")
    _atomic_write(cfg.out_dir / "mv_stats.json", _json_text(stats))
    print(
        f"mv-check: {cfg.trials} trials, max ratio {stats['max_ratio']:.4f} "
        f"(bound {cfg.mv_bound:g})"
    )
    return 0 if stats["passed"] else 2


def cmd_landau(cfg: RunConfig) -> int:
    zlist = _load_or_scan_zeros(cfg)
    table = _load_or_build_sieve(cfg)
    T = zeros.snap_to_midgap(zlist, cfg.t_max)
    t_grid = [zeros.snap_to_midgap(zlist, t) for t in _moment_grid(cfg)]
    for x in cfg.x_values:
        rep, *grid_reps = moments.landau_sums(zlist, table, x, [T] + t_grid)
        _atomic_write(
            cfg.out_dir / f"landau_x{x:g}.json", _json_text(rep.to_json_dict())
        )
        devs = [r.deviation for r in grid_reps]
        _atomic_write(cfg.out_dir / f"landau_dev_x{x:g}.txt", _plot_text(t_grid, devs))
        print(
            f"landau: x={x:g} zero_sum={rep.zero_sum.real:.3f}{rep.zero_sum.imag:+.3f}i "
            f"main={rep.main_term:.3f} deviation={rep.deviation:.3f}"
        )
    return 0


def _report_eq1(cfg, zlist):
    rows = []
    for T_req in _moment_grid(cfg):
        T = zeros.snap_to_midgap(zlist, T_req)
        j = moments.j_moment(zlist, 1.0, T)
        rows.append({"t": T, "j_minus_1": j, "ratio": j / moments.gonek_prediction(T)})
    ts = np.array([r["t"] for r in rows])
    js = np.array([r["j_minus_1"] for r in rows])
    design = np.vstack([ts, np.ones_like(ts)]).T
    slope, intercept = np.linalg.lstsq(design, js, rcond=None)[0]
    return {
        "gridpoints": rows,
        "slope": float(slope),
        "intercept": float(intercept),
        "slope_target": moments.GONEK_CONSTANT,
        "slope_rel_dev": abs(float(slope) - moments.GONEK_CONSTANT) / moments.GONEK_CONSTANT,
    }, ts, js


def cmd_report(cfg: RunConfig) -> int:
    zlist = _load_or_scan_zeros(cfg, build=False)
    table = _load_or_build_sieve(cfg)
    check = zeros.zero_count_check(zlist, cfg.t_max, cfg.eval_config)
    hard_ok = bool(check)
    plots = cfg.out_dir / "plots"
    report: dict = {"config": {
        "t_max": cfg.t_max, "theta": cfg.theta, "sieve_limit": cfg.sieve_limit,
        "seed": cfg.seed, "rs_order": zeta.DEFAULT_CONFIG.rs_correction_order,
        "deriv_step": cfg.deriv_step,
    }, "certified": bool(check)}

    # eq1: the conjectured linear rate of J_{-1}
    eq1, ts, js = _report_eq1(cfg, zlist)
    report["eq1"] = eq1
    _atomic_write(plots / "eq1_j_vs_t.txt", _plot_text(ts, js))
    _atomic_write(plots / "eq1_ratio_vs_t.txt", _plot_text(ts, js / (moments.GONEK_CONSTANT * ts)))

    # neg2: proven half-rate lower bound
    T_top = zeros.snap_to_midgap(zlist, cfg.t_max)
    j_top = moments.j_moment(zlist, 1.0, T_top)
    report["neg2"] = {
        "t": T_top,
        "j_minus_1": j_top,
        "halfbound_pred": moments.halfbound_prediction(T_top),
        "ratio_to_halfbound": j_top / moments.halfbound_prediction(T_top),
    }

    # m1, m2: the mollified sums at (theta, min(5000, t_max))
    T_m = zeros.snap_to_midgap(zlist, min(5000.0, cfg.t_max))
    rep = moments.moment_report(zlist, table, cfg.theta, T_m)
    cauchy_ok = moments.cauchy_chain(rep)
    hard_ok &= cauchy_ok
    report["m1"] = {
        "t": T_m, "theta": cfg.theta, "xi": rep.params.xi,
        "m1_re": rep.m1.real, "m1_im": rep.m1.imag, "m1_pred": rep.m1_pred,
        "ratio_re": rep.m1.real / rep.m1_pred,
        "im_over_re": abs(rep.m1.imag) / abs(rep.m1.real) if rep.m1.real else math.inf,
    }
    report["m2"] = {
        "t": T_m, "theta": cfg.theta, "xi": rep.params.xi,
        "m2": rep.m2, "m2_pred": rep.m2_pred, "ratio": rep.m2 / rep.m2_pred,
        "cauchy_lb": rep.cauchy_lb, "j_minus_1": rep.j_minus_1,
        "cauchy_ok": cauchy_ok,
    }

    # mv: the randomized mean-value campaign, as mv-check stored it
    ratios = _campaign_ratios(cfg, reuse=True)
    report["mv"] = _mv_summary(cfg, ratios)
    hard_ok &= report["mv"]["passed"]
    _atomic_write(plots / "mv_ratio_vs_trial.txt", _plot_text(range(len(ratios)), ratios))

    # langon: prime-power zero sums
    rows = []
    for x in cfg.x_values:
        lrep = moments.landau_gonek(zlist, table, x, T_top)
        rows.append(lrep.to_json_dict())
    report["langon"] = {"t": T_top, "rows": rows}

    # neg4: squarefree harmonic drift
    xi_grid = sorted(
        {int(x) for x in np.geomspace(1000, table.limit, 25)} | {1000, table.limit}
    )
    drifts = [
        h - sieve.SIX_OVER_PI2 * math.log(xi)
        for h, xi in zip(sieve.squarefree_harmonics(table, xi_grid), xi_grid)
    ]
    report["neg4"] = {
        "xi_min": xi_grid[0], "xi_max": xi_grid[-1],
        "drift_min": min(drifts), "drift_max": max(drifts),
        "drift_width": max(drifts) - min(drifts),
    }
    _atomic_write(plots / "neg4_drift_vs_xi.txt", _plot_text(xi_grid, drifts))

    # sig1: the alpha-Mobius sum against its main term
    xi_s = min(10**6, table.limit)
    ams = sieve.alpha_mobius_sum(table, xi_s)
    report["sig1"] = {
        "xi": xi_s, "value": ams.value, "prediction": ams.prediction,
        "ratio": ams.value / ams.prediction,
    }

    report["hard_invariants_passed"] = hard_ok
    _atomic_write(cfg.out_dir / "report.json", _json_text(report))
    print(f"report: {cfg.out_dir / 'report.json'} ({len(EQ_TAGS)} sections)")
    for tag in EQ_TAGS:
        print(f"report:   section {tag}: present")
    print(f"report: hard invariants {'passed' if hard_ok else 'FAILED'}")
    return 0 if hard_ok else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_sweep(text: str) -> tuple:
    try:
        a, b, step = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise InputError(f"--theta-sweep expects a:b:step, got {text!r}") from exc
    if not (step > 0 and 0.0 < a <= b < 1.0):
        raise InputError("--theta-sweep needs 0 < a <= b < 1 and step > 0")
    if (b + 1e-12 - a) / step >= MAX_SWEEP:
        raise InputError(f"--theta-sweep gives more than {MAX_SWEEP} theta values")
    out = []
    th = a
    while th <= b + 1e-12:
        out.append(round(th, 12))
        th += step
    return tuple(out)


def _parse_x(text: str) -> tuple:
    try:
        xs = tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise InputError(f"--x expects comma-separated numbers, got {text!r}") from exc
    if not all(math.isfinite(x) for x in xs):
        raise InputError(f"--x values must be finite, got {text!r}")
    return xs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zml",
        description="Desk-scale experiments on discrete moments of zeta'(rho) "
        "over critical-line zeros.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("zeros", "scan, refine and certify a zero list into the cache"),
        ("moments", "moment reports over a T grid (optionally a theta sweep)"),
        ("mv-check", "randomized mean-value lemma certification campaign"),
        ("landau", "prime-power zero sums with deviation plot data"),
        ("report", "consolidated per-equation reproduction summary"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--t-max", type=float, default=1000.0)
        p.add_argument("--theta", type=float, default=0.5)
        p.add_argument("--theta-sweep", type=str, default=None, metavar="A:B:STEP")
        p.add_argument("--sieve-limit", type=int, default=10**6)
        p.add_argument("--cache-dir", type=str, default=None)
        p.add_argument("--out-dir", type=str, default="zml-out")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--deriv-step", type=float, default=1e-4)
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--mv-bound", type=float, default=10.0)
        p.add_argument("--x", type=str, default="2,3,4,5,6",
                       help="comma-separated x values for landau")
    return parser


def config_from_args(args) -> RunConfig:
    cache_dir = args.cache_dir or os.environ.get("ZML_CACHE_DIR") or ".zml-cache"
    return RunConfig(
        t_max=args.t_max,
        theta=args.theta,
        theta_sweep=_parse_sweep(args.theta_sweep) if args.theta_sweep else None,
        sieve_limit=args.sieve_limit,
        cache_dir=Path(cache_dir),
        out_dir=Path(args.out_dir),
        output_format=args.format,
        seed=args.seed,
        deriv_step=args.deriv_step,
        trials=args.trials,
        mv_bound=args.mv_bound,
        x_values=_parse_x(args.x),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        handler = {
            "zeros": cmd_zeros,
            "moments": cmd_moments,
            "mv-check": cmd_mv_check,
            "landau": cmd_landau,
            "report": cmd_report,
        }[args.command]
        return handler(cfg)
    except ZmlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
