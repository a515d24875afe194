"""Command-line orchestration: the cached zero list, the moment
experiments, the mean-value certification campaign, the prime-power zero
sums, and the consolidated per-equation report.

Subcommands: zeros, moments, mv-check, landau, report.  All output files
are deterministic functions of (config, seed): no timestamps, sorted JSON
keys, repr-formatted floats.  Exit code 0 means every hard invariant
(completeness certification, the Cauchy-Schwarz chain, the mean-value
ratio bound) held.

Steps run in one process (scripts/reproduce_all.py) share one artifact
store (_Store) and take from it what an earlier step computed; a step run
alone computes everything itself, on the same code path and to the same bytes.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; fixed seed means reproducible bytes."""
    t_max: float = 1000.0
    theta: float = 0.5
    theta_sweep: tuple | None = None
    sieve_limit: int = 10**6     # report only: top of the neg4 grid, sig1's xi up to 10^6
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
        for x in self.x_values:     # refuses an integral x above sieve.MEMORY_CAP
            sieve.mangoldt(x)
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
    digest = f"{zlib.crc32(key.encode()):08x}"
    return cfg.cache_dir / f"zeros_t{cfg.t_max:g}_{digest}.txt"


def _file_id(path: Path) -> tuple:
    """The identity of the file at path: a file replaced or rewritten since
    has another, where the file system stamps each write with a new mtime."""
    st = path.stat()
    return str(path), st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class _Store:
    """The artifacts this process computed, for the later steps of a run.

    zlist is the zero list last read or written, under its cache file's
    _file_id, zero_id; derived holds the values computed from it, keyed by
    (kind, the rest of their inputs), and goes with it; campaign holds the
    last mean-value campaign's ratios, keyed by (seed, trials).  Every value
    is what its own function returns on the same inputs.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.zero_id, self.zlist, self.derived, self.campaign = None, None, {}, {}

    def keep_zeros(self, zero_id: tuple, zlist: zeros.ZeroList) -> None:
        self.zero_id, self.zlist, self.derived = zero_id, zlist, {}

    def put(self, zlist: zeros.ZeroList, kind, values: dict) -> None:
        """Keep the value of (kind, a) for each a of values, if computed from zlist."""
        if zlist is self.zlist:
            self.derived.update(((kind, a), v) for a, v in values.items())

    def get_many(self, zlist: zeros.ZeroList, kind, args, compute) -> list:
        """The value of (kind, a) for each a of args: those not kept for
        zlist from one compute(missing) call, which are kept."""
        held = self.derived if zlist is self.zlist else {}
        if missing := [a for a in dict.fromkeys(args) if (kind, a) not in held]:
            held.update(zip([(kind, a) for a in missing], compute(missing)))
        return [held[kind, a] for a in args]


_store = _Store()


def _load_zeros(path: Path, t_max: float) -> zeros.ZeroList:
    """The zero list at path, which must be certified and reach t_max: a
    whole, valid list scanned to a smaller t_max must fail, so it must hold
    an ordinate above t_max and theta(t_max)/pi + 1 +- 2 (the |S(T)| slack)
    up to it.  Only theta is evaluated, no Z.  The store's list is taken if
    the file has not changed since it was read or written; the checks run
    either way."""
    zero_id = _file_id(path)
    if zero_id != _store.zero_id:
        _store.keep_zeros(zero_id, zeros.import_zeros(path))
    zlist = _store.zlist
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
    if path.exists():
        try:
            return _load_zeros(path, cfg.t_max)
        except ZmlError:
            if not build:
                raise
    elif not build:
        raise InputError(f"zero cache {path} missing; run the 'zeros' subcommand first")
    zlist = _scan_zeros(cfg)
    zeros.export_zeros(zlist, path)
    _store.keep_zeros(_file_id(path), zlist)
    return zlist


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_zeros(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    zlist = _load_or_scan_zeros(cfg)
    dt = time.perf_counter() - t0
    check = zeros.zero_count_check(zlist, cfg.t_max)
    n = zlist.count_below(cfg.t_max)
    min_zp = float(np.abs(zlist.z_primes[:n]).min()) if n else math.nan
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


def _midgap_grid(cfg: RunConfig, zlist: zeros.ZeroList) -> list:
    return [zeros.snap_to_midgap(zlist, T) for T in _moment_grid(cfg)]


def _check_zero_below_t_max(cfg: RunConfig) -> None:
    """Refuse, before any scan, a t_max that lies below every computed
    ordinate: the sums end at a mid-gap point below t_max, and there is none
    (snap_to_midgap refuses the rest of such runs)."""
    if cfg.t_max < zeros.FIRST_ORDINATE - zeros.ORDINATE_ERR_BOUND:
        raise InputError(f"t_max = {cfg.t_max:g} lies below the first zero ordinate "
                         f"{zeros.FIRST_ORDINATE:.6f}; this step needs a zero below t_max")


def cmd_moments(cfg: RunConfig) -> int:
    _check_zero_below_t_max(cfg)
    thetas = list(cfg.theta_sweep) if cfg.theta_sweep else [cfg.theta]
    zlist = _load_or_scan_zeros(cfg)
    grid = list(zip(_moment_grid(cfg), _midgap_grid(cfg, zlist)))
    sweep = [zeros.snap_to_midgap(zlist, cfg.t_max)] if cfg.theta_sweep else []
    Ts = [T for _, T in grid] + sweep
    points = list(dict.fromkeys((th, T) for T in Ts for th in thetas))
    reports = dict(zip(points, _store.get_many(
        zlist, "moment", points, lambda ps: moments.moment_grid(zlist, ps))))
    _store.put(zlist, "j", {T: rep.j_minus_1 for (_, T), rep in reports.items()})
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
    from one generator.  numpy.random is imported here, so that no other
    step loads it."""
    from numpy.random import default_rng

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


def _campaign_ratios(cfg: RunConfig, reuse: bool) -> list:
    """The campaign's ratios: the store's if `reuse` and it holds this run's
    (seed, trials), else a fresh mv_campaign run, which the store keeps."""
    key = (cfg.seed, cfg.trials)
    if not (reuse and key in _store.campaign):
        _store.campaign = {key: mv_campaign(cfg.seed, cfg.trials)}
    return _store.campaign[key]


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
    _check_zero_below_t_max(cfg)
    zlist = _load_or_scan_zeros(cfg)
    T = zeros.snap_to_midgap(zlist, cfg.t_max)
    t_grid = _midgap_grid(cfg, zlist)
    Ts = [T] + t_grid
    for x, reps in zip(cfg.x_values, moments.landau_sums(zlist, cfg.x_values, Ts)):
        _store.put(zlist, ("landau", x), dict(zip(Ts, reps)))
        rep, *grid_reps = reps
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


def _report_eq1(cfg, zlist, T_top):
    ts = _midgap_grid(cfg, zlist)
    *js, j_top = _store.get_many(zlist, "j", ts + [T_top],
                                 lambda Ts: moments.j_moments(zlist, 1.0, Ts))
    rows = [{"t": T, "j_minus_1": j, "ratio": j / moments.gonek_prediction(T)}
            for T, j in zip(ts, js)]
    ts, js = np.array(ts), np.array(js)
    design = np.vstack([ts, np.ones_like(ts)]).T
    slope, intercept = np.linalg.lstsq(design, js, rcond=None)[0]
    return {
        "gridpoints": rows,
        "slope": float(slope),
        "intercept": float(intercept),
        "slope_target": moments.GONEK_CONSTANT,
        "slope_rel_dev": abs(float(slope) - moments.GONEK_CONSTANT) / moments.GONEK_CONSTANT,
    }, ts, js, j_top


def cmd_report(cfg: RunConfig) -> int:
    _check_zero_below_t_max(cfg)
    zlist = _load_or_scan_zeros(cfg, build=False)
    T_m = zeros.snap_to_midgap(zlist, min(5000.0, cfg.t_max))
    check = zeros.zero_count_check(zlist, cfg.t_max)
    hard_ok = bool(check)
    plots = cfg.out_dir / "plots"
    report: dict = {"config": {
        "t_max": cfg.t_max, "theta": cfg.theta, "sieve_limit": cfg.sieve_limit,
        "seed": cfg.seed, "rs_order": zeta.RS_ORDER, "deriv_step": zeta.DERIV_STEP,
    }, "certified": bool(check)}

    # eq1: the conjectured linear rate of J_{-1}
    T_top = zeros.snap_to_midgap(zlist, cfg.t_max)
    eq1, ts, js, j_top = _report_eq1(cfg, zlist, T_top)
    report["eq1"] = eq1
    _atomic_write(plots / "eq1_j_vs_t.txt", _plot_text(ts, js))
    _atomic_write(plots / "eq1_ratio_vs_t.txt", _plot_text(ts, js / (moments.GONEK_CONSTANT * ts)))

    # neg2: proven half-rate lower bound
    report["neg2"] = {
        "t": T_top,
        "j_minus_1": j_top,
        "halfbound_pred": moments.halfbound_prediction(T_top),
        "ratio_to_halfbound": j_top / moments.halfbound_prediction(T_top),
    }

    # m1, m2: the mollified sums at (theta, min(5000, t_max)), as moments
    # left them in this process
    rep, = _store.get_many(zlist, "moment", [(cfg.theta, T_m)],
                           lambda ps: [moments.moment_report(zlist, *ps[0])])
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

    # mv: the randomized mean-value campaign, as mv-check left it in this process
    ratios = _campaign_ratios(cfg, reuse=True)
    report["mv"] = _mv_summary(cfg, ratios)
    hard_ok &= report["mv"]["passed"]
    _atomic_write(plots / "mv_ratio_vs_trial.txt", _plot_text(range(len(ratios)), ratios))

    # langon: prime-power zero sums, as landau left them in this process
    rows = []
    for x in cfg.x_values:
        row, = _store.get_many(zlist, ("landau", x), [T_top],
                               lambda Ts: [moments.landau_gonek(zlist, x, *Ts)])
        rows.append(row.to_json_dict())
    report["langon"] = {"t": T_top, "rows": rows}

    # neg4: squarefree harmonic drift, on the grid points up to the sieve limit
    limit = cfg.sieve_limit
    grid = {int(x) for x in np.geomspace(1000, limit, 25)} | {1000, limit}
    xi_grid = sorted(xi for xi in grid if xi <= limit)
    drifts = [
        h - sieve.SIX_OVER_PI2 * math.log(xi)
        for h, xi in zip(sieve.squarefree_harmonics(xi_grid), xi_grid)
    ]
    report["neg4"] = {
        "xi_min": xi_grid[0], "xi_max": xi_grid[-1],
        "drift_min": min(drifts), "drift_max": max(drifts),
        "drift_width": max(drifts) - min(drifts),
    }
    _atomic_write(plots / "neg4_drift_vs_xi.txt", _plot_text(xi_grid, drifts))

    # sig1: the alpha-Mobius sum against its main term
    xi_s = min(10**6, cfg.sieve_limit)
    ams = sieve.alpha_mobius_sum(xi_s)
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
    if not (out[0] > 0.0 and out[-1] < 1.0):
        raise InputError(f"--theta-sweep values round to {out[0]!r}..{out[-1]!r}, outside (0, 1)")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
