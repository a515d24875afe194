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
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random import default_rng

from . import dirichlet, moments, sieve, store, zeros, zeta
from .errors import InputError, ValidationError, ZmlError

SCAN_T_LO = 10.0
MAX_SWEEP = 1000          # most theta values a --theta-sweep may give
MV_BOUND = 10.0           # the mean-value campaign passes when every ratio is at most this
EQ_TAGS = ("eq1", "neg2", "m1", "m2", "mv", "langon", "neg4", "sig1")
# Most mean-value trials.  The campaign holds one batch of trials at a time,
# so the cap bounds its run time and the ratios it keeps and writes.
MAX_TRIALS = 50_000
_MV_MAX_COEFFS = 200      # most coefficients of a campaign polynomial
# Trials per mv_reports call: one pair group of dirichlet._pair_parts_many
# when the longest polynomial has _MV_MAX_COEFFS coefficients.
MV_BATCH = dirichlet.CHUNK_ELEMS // (16 * _MV_MAX_COEFFS)
# Part of the zero-cache key: raise it whenever the scanner or the zero-file
# contents change, so that no list made by an older version is read.
ZERO_CACHE_VERSION = 6
# Stored in the campaign cache, which is read only under the same value:
# raise it whenever the ratios mv_campaign returns for a (seed, trials) change.
MV_CACHE_VERSION = 5
MV_CAMPAIGN_MAGIC = "# zml-mv-campaign v1"


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; fixed seed means reproducible bytes."""
    t_max: float = 1000.0
    theta: float = 0.5
    theta_sweep: tuple | None = None
    sieve_limit: int = 10**6
    cache_dir: Path = Path(".zml-cache")
    out_dir: Path = Path("zml-out")
    seed: int = 42
    trials: int = 1000
    x_values: tuple = (2.0, 3.0, 4.0, 5.0, 6.0)

    def __post_init__(self):
        if not 0.0 < self.t_max <= zeta.T_MAX:
            raise InputError(f"t_max must lie in (0, {zeta.T_MAX:g}]")
        if not 0.0 < self.theta < 1.0:
            raise InputError("theta must lie in (0, 1)")
        if not 2 <= self.sieve_limit <= sieve.MEMORY_CAP:
            raise InputError(f"sieve_limit must lie in [2, {sieve.MEMORY_CAP}]")
        if not all(1.0 < x < math.inf for x in self.x_values):
            raise InputError("every x must be finite and > 1")
        _check_file_tags("x", self.x_values)
        _check_file_tags("theta", self.theta_sweep or ())
        for x in self.x_values:
            # sieve.mangoldt rejects an x that is, to 1e-9, an integer above the limit
            if abs(x - round(x)) <= 1e-9 and round(x) > self.sieve_limit:
                raise InputError(f"x = {x:g} lies above sieve_limit = {self.sieve_limit}")
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        if self.trials > MAX_TRIALS:
            raise InputError(f"trials must be <= {MAX_TRIALS}")
        if self.seed < 0:
            raise InputError("seed must be >= 0")


def _check_file_tags(name: str, values) -> None:
    """Refuse two values that print alike ({:g}) in the output file names."""
    seen = {}
    for v in values:
        if (tag := f"{v:g}") in seen:
            raise InputError(f"{name} = {seen[tag]!r} and {name} = {v!r} would write "
                             f"the same files ({name}{tag})")
        seen[tag] = v


def check_dir(path: Path, name: str) -> None:
    """Raise InputError, naming `name`, unless `path` is a directory or can
    be made one: the nearest of it and its parents that exists must be a
    directory."""
    for p in (path, *path.parents):
        if p.exists():
            if not p.is_dir():
                raise InputError(f"{name}: {p} is not a directory")
            return


def _atomic_write(path: Path, text: str) -> None:
    store.replace(path, lambda fh: fh.write(text.encode()))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _plot_text(xs, ys) -> str:
    return "".join(f"{float(x)!r} {float(y)!r}\n" for x, y in zip(xs, ys))


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------

def _zero_cache_path(cfg: RunConfig) -> Path:
    key = f"v{ZERO_CACHE_VERSION}|{cfg.t_max!r}"
    digest = hashlib.sha256(key.encode()).hexdigest()[:10]
    return cfg.cache_dir / f"zeros_t{cfg.t_max:g}_{digest}.txt"


def _load_or_build(path: Path, load, build, save, reuse: bool = True):
    """load(path) if `reuse` and the file exists and passes load's checks
    (no ZmlError); else build(), stored at path by save(value, path)."""
    if reuse and path.exists():
        try:
            return load(path)
        except ZmlError:
            pass
    value = build()
    save(value, path)
    return value


def _load_zeros(path: Path, t_max: float) -> zeros.ZeroList:
    """The zero list at path, which must be certified and reach t_max: a
    whole, valid list scanned to a smaller t_max must fail, so it must hold
    an ordinate above t_max and theta(t_max)/pi + 1 +- 2 (the |S(T)| slack)
    up to it.  Only theta is evaluated, no Z."""
    zlist = zeros.import_zeros(path)
    if not zlist.certified:
        raise ValidationError(f"{path}: zero list is not completeness-certified")
    count = zlist.count_below(t_max)
    if count == len(zlist):
        raise ValidationError(f"{path}: no ordinate above t_max = {t_max:g}")
    expected = zeta.rs_theta(t_max) / math.pi + 1.0
    if abs(count - expected) > 2.0:
        raise ValidationError(
            f"{path}: {count} ordinates up to t_max = {t_max:g}, expected {expected:.1f} +- 2")
    return zlist


def _scan_zeros(cfg: RunConfig) -> zeros.ZeroList:
    t_top = max(cfg.t_max, SCAN_T_LO) + zeros.SCAN_MARGIN
    zlist = zeros.scan_and_refine(SCAN_T_LO, t_top)
    # below 30 a zero gap can be wider than SCAN_MARGIN: scan on past it
    while zlist.certified and zlist.count_below(cfg.t_max) == len(zlist):
        t_top += zeros.SCAN_MARGIN
        zlist = zeros.scan_and_refine(SCAN_T_LO, t_top)
    return zlist


def _load_or_scan_zeros(cfg: RunConfig, build: bool = True) -> zeros.ZeroList:
    """The cached zero list.  A missing, damaged, uncertified or cut-short
    cache is rescanned and rewritten if `build`, and is an error otherwise."""
    path = _zero_cache_path(cfg)
    if build:
        return _load_or_build(path, lambda p: _load_zeros(p, cfg.t_max),
                              lambda: _scan_zeros(cfg), zeros.export_zeros)
    if not path.exists():
        raise InputError(f"zero cache {path} missing; run the 'zeros' subcommand first")
    return _load_zeros(path, cfg.t_max)


def _load_or_build_sieve(cfg: RunConfig) -> sieve.SieveTable:
    return _load_or_build(cfg.cache_dir / f"sieve_{cfg.sieve_limit}.bin",
                          lambda p: sieve.load_sieve(p, cfg.sieve_limit),
                          lambda: sieve.build_sieve(cfg.sieve_limit), sieve.save_sieve)


def _check_sieve_reach(cfg: RunConfig, T: float, thetas) -> None:
    """Refuse a sieve below the mollifier length xi = floor(T^theta) at T
    and the largest theta, before the sieve is built or any output written."""
    theta = max(thetas)
    if (xi := math.floor(T ** theta)) > cfg.sieve_limit:
        raise InputError(f"xi = {xi} at T = {T:g}, theta = {theta:g} exceeds "
                         f"sieve limit {cfg.sieve_limit}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_zeros(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    zlist = _load_or_scan_zeros(cfg)
    dt = time.perf_counter() - t0
    check = zeros.zero_count_check(zlist, cfg.t_max)
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
    thetas = list(cfg.theta_sweep) if cfg.theta_sweep else [cfg.theta]
    sweep = [cfg.t_max] if cfg.theta_sweep else []
    # at the requested Ts before a scan, then at the mid-gap Ts used
    _check_sieve_reach(cfg, max(_moment_grid(cfg) + sweep), thetas)
    zlist = _load_or_scan_zeros(cfg)
    grid = [(T_req, zeros.snap_to_midgap(zlist, T_req)) for T_req in _moment_grid(cfg)]
    sweep = [zeros.snap_to_midgap(zlist, T) for T in sweep]
    Ts = [T for _, T in grid] + sweep
    _check_sieve_reach(cfg, max(Ts), thetas)
    table = _load_or_build_sieve(cfg)
    points = list(dict.fromkeys((th, T) for T in Ts for th in thetas))
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
            _atomic_write(cfg.out_dir / f"{name}.json", _json_text(rep.to_json_dict()))
            print(
                f"moments: T={T:.3f} theta={th:g} J={rep.j_minus_1:.3f} "
                f"ratio={rep.j_minus_1 / rep.gonek_pred:.4f} cauchy_ok={ok}"
            )
    _atomic_write(cfg.out_dir / "moments_summary.csv", moments.reports_csv_text(summary))
    for T in sweep:
        rows = moments.theta_sweep(T, thetas, reports)
        _atomic_write(cfg.out_dir / "theta_sweep.json", _json_text(rows))
        for row in rows:
            print(
                f"moments: sweep theta={row['theta_exp']:g} lb={row['cauchy_lb']:.2f} "
                f"pred={row['sweep_pred']:.2f} ratio={row['ratio']:.3f}"
            )
    return 0 if all_ok else 2


def campaign_trials(seed: int, trials: int):
    """Yield the (A, B, T) of each mean-value trial (xi <= _MV_MAX_COEFFS,
    T in [10, 1e4], coefficients uniform in [-1, 1]), drawn trial by trial
    from one generator."""
    rng = default_rng(seed)
    for _ in range(trials):
        xa, xb = rng.integers(1, _MV_MAX_COEFFS + 1, 2)
        A = dirichlet.DirichletPoly(coeffs=rng.uniform(-1.0, 1.0, int(xa)))
        B = dirichlet.DirichletPoly(coeffs=rng.uniform(-1.0, 1.0, int(xb)))
        yield A, B, float(rng.uniform(10.0, 1.0e4))


def mv_campaign(seed: int, trials: int):
    """Randomized mean-value certification trials: the ratio of each of
    campaign_trials, evaluated MV_BATCH trials at a time
    (dirichlet.mv_reports), so one batch's polynomials are held at once."""
    drawn = campaign_trials(seed, trials)
    ratios = []
    while batch := list(itertools.islice(drawn, MV_BATCH)):
        ratios += [rep.ratio for rep in dirichlet.mv_reports(batch)]
    return ratios


def _mv_summary(cfg: RunConfig, ratios) -> dict:
    """The campaign's summary, as mv_stats.json and report.json hold it."""
    max_ratio = max(ratios)
    return {
        "seed": cfg.seed,
        "trials": cfg.trials,
        "max_ratio": max_ratio,
        "mean_ratio": math.fsum(ratios) / len(ratios),
        "bound": MV_BOUND,
        "passed": max_ratio <= MV_BOUND,
    }


def _campaign_cache_path(cfg: RunConfig) -> Path:
    return cfg.cache_dir / f"mv_campaign_s{cfg.seed}_n{cfg.trials}.txt"


def _campaign_ratios(cfg: RunConfig, reuse: bool) -> list:
    """The campaign's ratios: the cached ones if `reuse`, else a fresh
    mv_campaign run, which is stored.  The cache (keys seed, trials and
    version) holds the repr of each ratio on a line of its own; it is read
    only with this run's keys and `trials` finite ratios in that layout."""
    key = {"seed": cfg.seed, "trials": cfg.trials, "version": MV_CACHE_VERSION}

    def text(ratios) -> bytes:
        return "".join(f"{float(r)!r}\n" for r in ratios).encode()

    def load(path):
        fields, payload = store.read(path, MV_CAMPAIGN_MAGIC, dict.fromkeys(key, int))
        try:
            ratios = [float(r) for r in payload.splitlines()]
        except ValueError:
            ratios = []
        if (fields != key or len(ratios) != cfg.trials or text(ratios) != payload
                or not all(map(math.isfinite, ratios))):
            raise ValidationError(f"{path}: not the campaign of {key}")
        return ratios

    def save(ratios, path):
        store.write(path, MV_CAMPAIGN_MAGIC, key, [text(ratios)])

    return _load_or_build(_campaign_cache_path(cfg), load,
                          lambda: mv_campaign(cfg.seed, cfg.trials), save, reuse)


def cmd_mv_check(cfg: RunConfig) -> int:
    ratios = _campaign_ratios(cfg, reuse=False)
    stats = _mv_summary(cfg, ratios)
    stats["ratios"] = ratios
    _atomic_write(cfg.out_dir / "mv_stats.json", _json_text(stats))
    print(
        f"mv-check: {cfg.trials} trials, max ratio {stats['max_ratio']:.4f} "
        f"(bound {MV_BOUND:g})"
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
    T_m = zeros.snap_to_midgap(zlist, min(5000.0, cfg.t_max))
    _check_sieve_reach(cfg, T_m, [cfg.theta])
    table = _load_or_build_sieve(cfg)
    check = zeros.zero_count_check(zlist, cfg.t_max)
    hard_ok = bool(check)
    plots = cfg.out_dir / "plots"
    report: dict = {"config": {
        "t_max": cfg.t_max, "theta": cfg.theta, "sieve_limit": cfg.sieve_limit,
        "seed": cfg.seed, "rs_order": zeta.RS_ORDER, "deriv_step": zeta.DERIV_STEP,
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

    # neg4: squarefree harmonic drift, on the grid points the sieve reaches
    xi_grid = sorted(
        xi for xi in {int(x) for x in np.geomspace(1000, table.limit, 25)} | {1000, table.limit}
        if xi <= table.limit
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
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--trials", type=int, default=1000)
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
        seed=args.seed,
        trials=args.trials,
        x_values=_parse_x(args.x),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        check_dir(cfg.cache_dir, f"cache dir {cfg.cache_dir}")
        check_dir(cfg.out_dir, f"--out-dir {cfg.out_dir}")
        handler = {
            "zeros": cmd_zeros,
            "moments": cmd_moments,
            "mv-check": cmd_mv_check,
            "landau": cmd_landau,
            "report": cmd_report,
        }[args.command]
        return handler(cfg)
    except (ZmlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
