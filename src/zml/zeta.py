"""Double-precision evaluation of zeta(s), the Riemann-Siegel phase theta(t),
Hardy's Z(t) and Z'(t), and the functional-equation factor chi(s).

Two independent evaluation routes are kept side by side:

* ``zeta_euler_maclaurin`` - an Euler-Maclaurin reference evaluator, valid on
  Re(s) > -1, |Im(s)| <= 1e4, accurate to ``target_abs_err`` (default 1e-10).
* the Riemann-Siegel main sum with up to four correction terms - the
  high-throughput route used on the critical line for large t.

``hardy_z`` routes t < RS_CROSSOVER through the rotated Euler-Maclaurin value
and larger t through Riemann-Siegel; the two routes overlap on
[RS_CROSSOVER, 1e4] where they cross-check each other (see the test suite).

All functions are pure, apart from the evaluation counters for performance
reporting in ``counters``; batch variants (``*_many``) accept numpy arrays
and are what the zero scanner uses.  A large Riemann-Siegel batch has its
main sum split across ``Z_THREADS`` threads (see ``_z_rs_batch``); every
other step, and every counter update, runs on the caller's thread.
"""
from __future__ import annotations

import cmath
import math
import os
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma

from . import _rs_coeffs
from .errors import InputError, NumericsError, SingularityError

TWO_PI = 2.0 * math.pi
LOG_PI = math.log(math.pi)

# accuracy envelopes
EM_T_MAX = 1.0e4        # Euler-Maclaurin envelope for the default config
RS_T_MIN = 30.0         # below this the Riemann-Siegel expansion degrades
# hardy_z auto-routing boundary; above it the order-4 Riemann-Siegel value is
# off by at most 1.84e-9 (at t = 300, against 30-digit mpmath on [300, 400])
RS_CROSSOVER = 300.0
T_MAX = 1.0e5           # hard evaluation ceiling
RS_CHUNK = 1_000_000    # Riemann-Siegel main-sum terms held at once
RS_SPLIT_TERMS = 2**14  # smaller Riemann-Siegel main sums run on one thread
EM_CHUNK = 32_768       # Euler-Maclaurin main-sum terms held at once

# B_2, B_4, ..., B_50
_B2K = (
    0.16666666666666666, -0.03333333333333333, 0.023809523809523808,
    -0.03333333333333333, 0.07575757575757576, -0.2531135531135531,
    1.1666666666666667, -7.092156862745098, 54.971177944862156,
    -529.1242424242424, 6192.123188405797, -86580.25311355312,
    1425517.1666666667, -27298231.067816094, 601580873.9006424,
    -15116315767.092157, 429614643061.1667, -13711655205088.332,
    488332318973593.2, -1.9296579341940068e+16, 8.416930475736826e+17,
    -4.0338071854059454e+19, 2.1150748638081993e+21, -1.2086626522296526e+23,
    7.500866746076964e+24,
)
_B2K_OVER_FACT = tuple(b / math.factorial(2 * k + 2) for k, b in enumerate(_B2K))

# theta asymptotic tail: (1 - 2^(1-2n)) |B_2n| / (4n (2n-1)), n = 1..5
_THETA_TAIL = tuple(
    (1.0 - 2.0 ** (1 - 2 * n)) * abs(_B2K[n - 1]) / (4 * n * (2 * n - 1))
    for n in range(1, 6)
)

_RS_SERIES = tuple(np.asarray(c[::-1], dtype=float) for c in _rs_coeffs.SERIES)

counters = {"z_evals": 0, "zeta_evals": 0}

# Threads that share a large Riemann-Siegel main sum: every CPU the process
# may run on (`taskset -c 0` makes it one).  Parts beyond the first go to
# _pool, made on first use, so importing this module starts no thread.
Z_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
_pool = None
_pool_lock = threading.Lock()


def reset_counters() -> None:
    for key in counters:
        counters[key] = 0


@dataclass(frozen=True)
class EvalConfig:
    """Precision knobs for the evaluators.

    Attributes:
        em_terms: Base main-sum length for Euler-Maclaurin (scaled up with t).
        rs_correction_order: Number of Riemann-Siegel correction terms, 0..4.
        deriv_step: Base finite-difference step for Z'(t).
        target_abs_err: Absolute error target for zeta_euler_maclaurin.
    """
    em_terms: int = 48
    rs_correction_order: int = 4
    deriv_step: float = 1e-4
    target_abs_err: float = 1e-10

    def __post_init__(self):
        if self.em_terms <= 0:
            raise InputError("em_terms must be positive")
        if not 0 <= self.rs_correction_order <= 4:
            raise InputError("rs_correction_order must be in 0..4")
        if self.deriv_step <= 0:
            raise InputError("deriv_step must be positive")
        if self.target_abs_err <= 0:
            raise InputError("target_abs_err must be positive")


DEFAULT_CONFIG = EvalConfig()


# ---------------------------------------------------------------------------
# Euler-Maclaurin
# ---------------------------------------------------------------------------

def _em_batch(ss: np.ndarray, cfg: EvalConfig) -> np.ndarray:
    """Euler-Maclaurin zeta for a batch of points (domain assumed valid).

    All points share one main-sum length N, chosen from the largest |Im(s)|
    in the batch; the Bernoulli tail is summed per point until the standard
    remainder bound drops below cfg.target_abs_err.
    """
    ss = np.asarray(ss, dtype=complex)
    counters["zeta_evals"] += ss.size
    tmax = float(np.max(np.abs(ss.imag))) if ss.size else 0.0
    n_main = max(cfg.em_terms, int(0.55 * tmax) + 16)

    ns = np.arange(1, n_main, dtype=float)
    logn = np.log(ns)
    out = np.empty(ss.shape, dtype=complex)
    chunk = max(1, EM_CHUNK // n_main)
    for lo in range(0, ss.size, chunk):
        block = ss.flat[lo:lo + chunk]
        terms = np.outer(block, logn)
        np.negative(terms, out=terms)
        np.exp(terms, out=terms)
        out.flat[lo:lo + chunk] = terms.sum(axis=1)

    n = float(n_main)
    n_pow = np.exp(-ss * math.log(n))          # N^(-s)
    out += n_pow * (n / (ss - 1.0) + 0.5)

    # Bernoulli tail: term_k = B_2k/(2k)! * prod_{j<2k-1}(s+j) * N^(1-s-2k)
    rising = ss.copy()                          # s (rising product so far)
    scale = n_pow * n                           # N^(1-s)
    active = np.ones(ss.shape, dtype=bool)
    for k in range(1, len(_B2K_OVER_FACT) + 1):
        scale = scale / (n * n)
        term = _B2K_OVER_FACT[k - 1] * rising * scale
        out[active] += term[active]
        # remainder bound: |next term| * |(s+2k+1)/(sigma+2k+1)|
        nxt = rising * (ss + (2 * k - 1)) * (ss + 2 * k)
        bound = (
            np.abs(_B2K_OVER_FACT[k] if k < len(_B2K_OVER_FACT) else _B2K_OVER_FACT[-1])
            * np.abs(nxt) * np.abs(scale) / (n * n)
            * np.abs(ss + (2 * k + 1)) / np.abs(ss.real + (2 * k + 1))
        )
        active = active & (bound > cfg.target_abs_err)
        if not active.any():
            return out
        rising = nxt
    raise NumericsError(
        f"Euler-Maclaurin tail did not reach {cfg.target_abs_err:g} "
        f"within {len(_B2K_OVER_FACT)} Bernoulli terms (N={n_main})"
    )


def zeta_euler_maclaurin(s: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Reference zeta(s) on Re(s) > -1, |Im(s)| <= 1e4.

    Absolute error <= cfg.target_abs_err on the stated domain.  Conjugate
    symmetry zeta(conj s) = conj zeta(s) holds exactly by construction.
    """
    s = complex(s)
    if s == 1:
        raise SingularityError("zeta has a pole at s = 1")
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise InputError("s must be finite")
    if s.real <= -1.0:
        raise InputError("Re(s) > -1 required (Euler-Maclaurin envelope)")
    if abs(s.imag) > EM_T_MAX:
        raise InputError(f"|Im(s)| <= {EM_T_MAX:g} required (accuracy envelope)")
    if s.imag < 0.0:
        return complex(np.conj(_em_batch(np.array([np.conj(s)]), cfg)[0]))
    return complex(_em_batch(np.array([s]), cfg)[0])


# ---------------------------------------------------------------------------
# Riemann-Siegel theta
# ---------------------------------------------------------------------------

def rs_theta_many(ts: np.ndarray) -> np.ndarray:
    """theta(t) for an array of t > 0; asymptotic series for t >= 10,
    log-Gamma below."""
    ts = np.asarray(ts, dtype=float)
    out = np.empty(ts.shape)
    big = ts >= 10.0
    if big.any():
        t = ts[big]
        val = 0.5 * t * np.log(t / TWO_PI) - 0.5 * t - math.pi / 8.0
        inv = 1.0 / t
        inv2 = inv * inv
        acc = np.zeros_like(t)
        p = inv
        for c in _THETA_TAIL:
            acc += c * p
            p = p * inv2
        out[big] = val + acc
    if (~big).any():
        t = ts[~big]
        out[~big] = loggamma(0.25 + 0.5j * t).imag - 0.5 * t * LOG_PI
    return out


def rs_theta(t: float) -> float:
    """Riemann-Siegel theta, the phase with Z(t) = exp(i theta) zeta(1/2+it):
    rs_theta_many at one finite t (absolute error < 1e-12 for t >= 10)."""
    if not math.isfinite(t):
        raise InputError("t must be finite")
    return float(rs_theta_many(np.array([t]))[0])


# ---------------------------------------------------------------------------
# Hardy Z
# ---------------------------------------------------------------------------

def _executor():
    """The thread pool of Z_THREADS - 1 workers, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(Z_THREADS - 1, thread_name_prefix="zml-rs")
        return _pool


def _forget_pool():
    """A forked child has none of its parent's threads: it makes its own pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _rs_main_sum(out, part, ts, m, theta, logn, rsqrt, chunk_terms):
    """out[i] = 2 sum_{n <= m_i} cos(theta_i - t_i log n) / sqrt(n) for the
    points `part`, listed in ascending m.  Each m-group is summed in chunks
    of at most chunk_terms terms (one point per chunk if m exceeds it)."""
    for group in np.split(part, np.flatnonzero(np.diff(m[part])) + 1):
        k = int(m[group[0]])
        rows = max(1, chunk_terms // k)
        for lo in range(0, group.size, rows):
            idx = group[lo:lo + rows]
            terms = np.multiply(ts[idx, None], logn[None, :k])
            np.subtract(theta[idx, None], terms, out=terms)
            np.cos(terms, out=terms)
            terms *= rsqrt[:k]
            out[idx] = 2.0 * terms.sum(axis=1)


def _z_rs_batch(ts: np.ndarray, order: int) -> np.ndarray:
    """Riemann-Siegel Z(t) for an array of t (all >= RS_T_MIN).

    The main sum of each point has exactly m = floor(sqrt(t/2pi)) terms,
    summed in its own row of a chunk, so a point's value does not depend on
    its batch, on the chunk it lands in or on the thread that sums it.
    Points are sorted by m and cut into Z_THREADS contiguous parts of equal
    main-sum terms (one part below RS_SPLIT_TERMS terms).  The caller's
    thread sums part 0 while the pool sums the rest, in chunks of
    RS_CHUNK // parts terms, so at most RS_CHUNK terms are held at once; numpy
    releases the interpreter lock inside those kernels.  theta, the
    correction series and every counter stay on the caller's thread.  Only
    this route is split: the Euler-Maclaurin route sizes its main sum from
    the whole batch.
    """
    ts = np.asarray(ts, dtype=float)
    a = np.sqrt(ts / TWO_PI)
    m = np.floor(a).astype(np.int64)
    theta = rs_theta_many(ts)

    ns = np.arange(1, int(m.max()) + 1, dtype=float)
    logn = np.log(ns)
    rsqrt = 1.0 / np.sqrt(ns)
    out = np.empty(ts.shape)
    by_m = np.argsort(m, kind="stable")
    cum = m[by_m]
    np.cumsum(cum, out=cum)
    n_parts = Z_THREADS if cum[-1] >= RS_SPLIT_TERMS else 1
    cuts = np.searchsorted(cum, cum[-1] * np.arange(1, n_parts) / n_parts)
    del cum
    first, *rest = [p for p in np.split(by_m, cuts) if p.size]
    args = (ts, m, theta, logn, rsqrt, RS_CHUNK // n_parts)
    futures = [_executor().submit(_rs_main_sum, out, part, *args) for part in rest]
    try:
        _rs_main_sum(out, first, *args)
    finally:
        for future in futures:
            future.result()
    del by_m, first, rest, args, theta      # freed before the correction buffers exist

    # The correction series C_j(u) a^(-j) by Horner in one reused buffer:
    # the same multiply-then-add roundings as np.polyval, fewer temporaries.
    u = 2.0 * (a - m) - 1.0
    inv_a = 1.0 / a
    corr = np.zeros(ts.shape)
    p = np.ones(ts.shape)
    term = np.empty(ts.shape)
    for j in range(order + 1):
        coeffs = _RS_SERIES[j]
        term.fill(coeffs[0])
        for c in coeffs[1:]:
            term *= u
            term += c
        term *= p
        corr += term
        p *= inv_a
    np.negative(corr, out=corr, where=m % 2 == 0)
    corr /= np.sqrt(a)
    out += corr
    return out


def hardy_z_many(ts: np.ndarray, cfg: EvalConfig = DEFAULT_CONFIG,
                 route_by: np.ndarray | None = None) -> np.ndarray:
    """Z(t) for an array of t in (0, T_MAX]; auto EM/RS routing per point.

    A point takes the Euler-Maclaurin route when it lies below RS_CROSSOVER,
    or, given route_by (an array of ts's shape), when its entry there does.
    """
    ts = np.asarray(ts, dtype=float)
    counters["z_evals"] += ts.size
    low = (ts if route_by is None else np.asarray(route_by)) < RS_CROSSOVER
    if ts.ndim == 1 and ts.size and not low.any():
        return _z_rs_batch(ts, cfg.rs_correction_order)     # no copy of ts
    out = np.empty(ts.shape)
    if low.any():
        t = ts[low]
        zs = _em_batch(0.5 + 1j * t, cfg)
        out[low] = (np.exp(1j * rs_theta_many(t)) * zs).real
    if (~low).any():
        out[~low] = _z_rs_batch(ts[~low], cfg.rs_correction_order)
    return out


def hardy_z(t: float, cfg: EvalConfig = DEFAULT_CONFIG, method: str = "auto") -> float:
    """Hardy's Z(t) = exp(i theta(t)) zeta(1/2 + it), real for real t.

    method "auto" uses the rotated Euler-Maclaurin value below RS_CROSSOVER
    and the Riemann-Siegel expansion above; "em" and "rs" force a route
    (within that route's validity envelope).  Absolute error against
    30-digit mpmath siegelz in auto mode: at the default order 4 at most
    1.84e-9 (at t = 300) on 201 points in [300, 400], 5.8e-11 on [1e3, 1e4)
    and 2.3e-10 on [1e4, 1e5) (250 points over [300, 1e5]); on [300, 400]
    order 3 gives 5.4e-8 and order 2 3.4e-7.
    """
    if not (t > 0.0) or not math.isfinite(t):
        raise InputError("t must be positive and finite")
    if t > T_MAX:
        raise InputError(f"t <= {T_MAX:g} required")
    if method == "auto":
        return float(hardy_z_many(np.array([t]), cfg)[0])
    if method == "em":
        if t > EM_T_MAX:
            raise InputError(f"Euler-Maclaurin route requires t <= {EM_T_MAX:g}")
        counters["z_evals"] += 1
        z = _em_batch(np.array([0.5 + 1j * t]), cfg)[0]
        return float((cmath.exp(1j * rs_theta(t)) * z).real)
    if method == "rs":
        if t < RS_T_MIN:
            raise InputError(f"Riemann-Siegel route requires t >= {RS_T_MIN:g}")
        counters["z_evals"] += 1
        return float(_z_rs_batch(np.array([t]), cfg.rs_correction_order)[0])
    raise InputError(f"unknown method {method!r}")


def hardy_z_prime_many(ts: np.ndarray, cfg: EvalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Z'(t) by a five-point central stencil (one Richardson step).

    Every point of a stencil takes the route hardy_z_many gives its centre t,
    so no difference mixes the two routes across RS_CROSSOVER.  The stencils
    centred below it share one Euler-Maclaurin batch and so one main-sum
    length, which would otherwise step at t = 300 itself.
    """
    ts = np.asarray(ts, dtype=float)
    h = cfg.deriv_step
    steps = (2.0 * h, h, -h, -2.0 * h)
    out = np.empty(ts.shape)
    low = ts < RS_CROSSOVER
    if low.any():
        t = ts[low]
        zs = hardy_z_many(np.concatenate([t + d for d in steps]), cfg,
                          route_by=np.tile(t, len(steps)))
        out[low] = _five_point(zs.reshape(len(steps), -1), h)
    if not low.all():
        t = ts[~low]
        out[~low] = _five_point([hardy_z_many(t + d, cfg, route_by=t) for d in steps], h)
    return out


def _five_point(zs, h: float) -> np.ndarray:
    """The stencil from Z at t + 2h, t + h, t - h, t - 2h."""
    zp2, zp1, zm1, zm2 = zs
    return (8.0 * (zp1 - zm1) - (zp2 - zm2)) / (12.0 * h)


def hardy_z_prime(t: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Z'(t) by the stencil of hardy_z_prime_many.  At the default step 1e-4
    it is within 2.3e-6 (at t = 40257) of 30-digit mpmath siegelz(t,
    derivative=1) on 250 points over [300, 1e5], and within 2.1e-7 on
    [1e3, 1e4): the rounding noise of Z divided by the step.  Within 2 steps
    of RS_CROSSOVER the stencil keeps to the route of its centre: at
    t = 299.99985, 299.9999, 300 and 300.0001 it is off by 1.1e-9 to 2.2e-9.

    Requires t - 2*cfg.deriv_step > 0 so the stencil stays in domain.
    """
    if t - 2.0 * cfg.deriv_step <= 0.0:
        raise InputError("t - 2*deriv_step must stay positive")
    if t + 2.0 * cfg.deriv_step > T_MAX:
        raise InputError(f"t + 2*deriv_step must stay <= {T_MAX:g}")
    return float(hardy_z_prime_many(np.array([t]), cfg)[0])


# ---------------------------------------------------------------------------
# functional-equation factor
# ---------------------------------------------------------------------------

def chi_factor(s: complex) -> complex:
    """chi(s) = 2^s pi^(s-1) Gamma(1-s) sin(pi s/2), so zeta = chi * zeta(1-s).

    Computed through logarithms so the Gamma/sin growth cancels before
    exponentiation; valid for |Im(s)| <= 1e5.  Positive integers are
    rejected (poles of Gamma(1-s), removable or not).
    """
    s = complex(s)
    if abs(s.imag) > T_MAX:
        raise InputError(f"|Im(s)| <= {T_MAX:g} required")
    if s.imag == 0.0 and s.real >= 1.0 and s.real == round(s.real):
        raise SingularityError(f"chi undefined at s = {int(s.real)} (Gamma(1-s) pole)")
    if s.imag < 0.0:
        return complex(np.conj(chi_factor(np.conj(s))))

    log_chi = s * math.log(2.0) + (s - 1.0) * LOG_PI + loggamma(1.0 - s)
    z = 0.5 * math.pi * s
    if s.imag > 20.0:
        # sin z = (i/2) exp(-iz)(1 - exp(2iz)); log1p keeps the tiny term exact
        log_sin = -1j * z + np.log1p(-np.exp(2j * z)) + cmath.log(0.5j)
    else:
        log_sin = cmath.log(cmath.sin(z))
    return complex(cmath.exp(log_chi + log_sin))
