"""Double-precision evaluation of the Riemann-Siegel phase theta(t) and of
Hardy's Z(t) and Z'(t).

One batch evaluator, ``hardy_z_many``, routes each point: t < RS_CROSSOVER
through the rotated Euler-Maclaurin value of zeta(1/2 + it) (``_z_em``,
absolute error target ``EM_TARGET_ERR`` = 1e-10), larger t through the
Riemann-Siegel main sum with ``RS_ORDER`` = 4 correction terms
(``_z_rs_batch``), each giving bits that depend on t alone.  The
corrections C_0..C_4 are Chebyshev series (``_rs_coeffs``: 79 coefficients,
each C_j truncated within 1.2e-19), summed by Clenshaw's recurrence.
``hardy_z`` is its scalar wrapper, and ``hardy_z_prime_many`` differentiates
it; the test suite cross-checks the two routes against each other and
against mpmath.

The precision is a set of module constants (``RS_ORDER``, ``EM_TARGET_ERR``,
``DERIV_STEP``), not a setting: every caller, and so every zero list and
report, gets the accuracy stated here.

All functions are pure, apart from the evaluation counters for performance
reporting in ``counters``; the batch functions (``*_many``) accept numpy
arrays and are what the zero scanner uses.  They evaluate ``Z_BLOCK``
points at a time (``_in_blocks``), so their working set does not grow with
the batch.  A large Riemann-Siegel block has its main sum split across
``Z_THREADS`` threads (see ``_z_rs_batch``); every other step, and every
counter update, runs on the caller's thread.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import _rs_coeffs, _special
from .errors import InputError, NumericsError

TWO_PI = 2.0 * math.pi
LOG_PI = math.log(math.pi)

# hardy_z_many routing boundary; above it the order-4 Riemann-Siegel value is
# off by at most 1.84e-9 (at t = 300, against 30-digit mpmath on [300, 400])
RS_CROSSOVER = 300.0
T_MAX = 1.0e5           # hard evaluation ceiling
RS_CHUNK = 2**16        # Riemann-Siegel main-sum terms held at once
RS_SPLIT_TERMS = 2**14  # smaller Riemann-Siegel main sums run on one thread
EM_CHUNK = 32_768       # Euler-Maclaurin main-sum terms held at once
Z_BLOCK = 7_936         # points evaluated at a time

# Precision: fixed, so that every zero list and report is made at one accuracy
RS_ORDER = 4            # Riemann-Siegel correction terms C_0..C_4
EM_TARGET_ERR = 1e-10   # Euler-Maclaurin absolute error target
DERIV_STEP = 1e-4       # step h of the five-point Z' stencil

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


# ---------------------------------------------------------------------------
# Euler-Maclaurin
# ---------------------------------------------------------------------------

def _em_batch(ss: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin zeta for a batch of points on Re(s) > -1,
    |Im(s)| <= 1e4, with absolute error at most EM_TARGET_ERR there; where
    |zeta(s)| is large (sigma near -1, t large) the double-precision floor
    is about 1e-11 relative instead.  The domain is not checked: Z takes
    this route only at s = 1/2 + it with t < RS_CROSSOVER.

    All points share one main-sum length N, from max(RS_CROSSOVER, largest
    |Im(s)|): 181 on Z's route; the Bernoulli tail is summed per point
    until the standard remainder bound drops below EM_TARGET_ERR.
    """
    ss = np.asarray(ss, dtype=complex)
    counters["zeta_evals"] += ss.size
    tmax = float(np.max(np.abs(ss.imag), initial=RS_CROSSOVER))
    n_main = int(0.55 * tmax) + 16

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
        del terms                           # before the next chunk is made

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
        active = active & (bound > EM_TARGET_ERR)
        if not active.any():
            return out
        rising = nxt
    raise NumericsError(
        f"Euler-Maclaurin tail did not reach {EM_TARGET_ERR:g} "
        f"within {len(_B2K_OVER_FACT)} Bernoulli terms (N={n_main})"
    )


# ---------------------------------------------------------------------------
# Riemann-Siegel theta
# ---------------------------------------------------------------------------

def rs_theta_many(ts: np.ndarray) -> np.ndarray:
    """theta(t) for an array of t > 0; asymptotic series for t >= 10,
    Im log Gamma(1/4 + it/2) - (t/2) log pi below, with log Gamma from
    _special (SciPy's loggamma bit for bit)."""
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
        out[~big] = _special.loggamma_quarter_imag(t) - 0.5 * t * LOG_PI
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
            del terms                       # before the next chunk is made


def _z_rs_batch(ts: np.ndarray) -> np.ndarray:
    """Riemann-Siegel Z(t) for an array of t, with the corrections
    C_0..C_RS_ORDER.  Every t must be at least 30: there the value is off
    by up to 2e-6, and below it the expansion degrades.
    hardy_z_many sends it only t >= RS_CROSSOVER.

    The main sum of each point has exactly m = floor(sqrt(t/2pi)) terms,
    summed in its own row of a chunk, so a point's value does not depend on
    its batch, on the chunk it lands in or on the thread that sums it.
    Points are sorted by m and cut into Z_THREADS contiguous parts of equal
    main-sum terms (one part below RS_SPLIT_TERMS terms).  The caller's
    thread sums part 0 while the pool sums the rest, in chunks of
    RS_CHUNK // parts terms (or one point), so that at most RS_CHUNK terms
    are held at once; numpy releases the interpreter lock inside those
    kernels.  theta, the correction series and every counter stay on the
    caller's thread.
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
    del by_m, first, rest, args, theta      # freed before the corrections are summed

    # The corrections sum_j C_j(u) a^(-j) in ascending j, each C_j from its
    # Chebyshev data in x = 2u^2 - 1 (see _rs_coeffs) by Clenshaw's
    # recurrence b_k = c_k + 2x b_(k+1) - b_(k+2) down to b_1, then
    # P_1(x) b_1 - b_2 + c_0 (times u for the odd j) into b1.  A call gets
    # at most Z_BLOCK points (_in_blocks), so each step's new arrays are small.
    u = 2.0 * (a - m) - 1.0
    y = 4.0 * u * u - 2.0                   # 2x
    corr = np.zeros(ts.shape)
    for j, (c0, *rest) in enumerate(_rs_coeffs.SERIES[: RS_ORDER + 1]):
        b1 = b2 = 0.0
        for c in reversed(rest):
            b1, b2 = y * b1 - b2 + c, b1
        if j % 2:                           # P_1 = V_1(x) = 2x - 1
            b1 = (y * b1 - b1 - b2 + c0) * u
        else:                               # P_1 = T_1(x) = x
            b1 = y * b1 * 0.5 - b2 + c0
        for _ in range(j):
            b1 /= a
        corr += b1
    del u, y, b1, b2                        # their memory serves the last temporaries
    np.negative(corr, out=corr, where=m % 2 == 0)
    corr /= np.sqrt(a)
    out += corr
    return out


def _z_em(ts: np.ndarray) -> np.ndarray:
    """Z(t) = Re(exp(i theta(t)) zeta(1/2 + it)) by the Euler-Maclaurin route."""
    return (np.exp(1j * rs_theta_many(ts)) * _em_batch(0.5 + 1j * ts)).real


def _in_blocks(ts: np.ndarray, f) -> np.ndarray:
    """f(route, t) over ts, Z_BLOCK points at a time, each point with the
    route of its own t: _z_em below RS_CROSSOVER, _z_rs_batch from it on.
    A point's value depends on its t alone, so the blocks give the bits of
    one call over the whole batch, and no working array grows with it."""
    flat = ts.ravel()
    out = np.empty(flat.shape)
    for lo in range(0, flat.size, Z_BLOCK):
        block = flat[lo:lo + Z_BLOCK]
        low = block < RS_CROSSOVER
        for where, route in ((low, _z_em), (~low, _z_rs_batch)):
            if where.any():
                out[lo:lo + Z_BLOCK][where] = f(route, block[where])
    return out.reshape(ts.shape)


def hardy_z_many(ts: np.ndarray) -> np.ndarray:
    """Z(t) for an array of t in (0, T_MAX], in blocks (_in_blocks)."""
    ts = np.asarray(ts, dtype=float)
    counters["z_evals"] += ts.size
    return _in_blocks(ts, lambda route, t: route(t))


def hardy_z(t: float) -> float:
    """Hardy's Z(t) = exp(i theta(t)) zeta(1/2 + it), real for real t:
    hardy_z_many at one t in (0, T_MAX].  Absolute error against 30-digit
    mpmath siegelz: at RS_ORDER = 4 at most 1.84e-9 (at t = 300) on 201
    points in [300, 400], and 5.99e-11 and 4.32e-10, the largest errors of
    500 points on each of [1e3, 1e4) and [1e4, 1e5) drawn by
    numpy.random.default_rng(2023).uniform, one generator per range; on
    [300, 400] order 3 gives 5.4e-8 and order 2 3.4e-7.
    """
    if not (t > 0.0) or not math.isfinite(t):
        raise InputError("t must be positive and finite")
    if t > T_MAX:
        raise InputError(f"t <= {T_MAX:g} required")
    return float(hardy_z_many(np.array([t]))[0])


def hardy_z_prime_many(ts: np.ndarray) -> np.ndarray:
    """Z'(t) by a five-point central stencil (one Richardson step) with step
    DERIV_STEP = 1e-4, for t with the stencil inside (0, T_MAX].  On the
    40 points of numpy.random.default_rng(2023).uniform(1e3, 1e5, 40) it is
    within 4.6e-6 of 30-digit mpmath siegelz(t, derivative=1), 4.56e-6 at
    t = 88869.2497 (median 3.1e-7).  Most is the rounding noise of Z over
    the step; the rest is the step: t + h and t - h round to ulp(t), 1.5e-11
    near 1e5, up to 7.3e-8 of 2h, and with Z exact at the points taken the
    error is up to 9.5e-7 (median 2.0e-7; a third of the rms).

    Every point of a stencil takes the route hardy_z_many gives its centre t,
    so no difference mixes the two routes across RS_CROSSOVER: at
    t = 299.99985, 299.9999, 300 and 300.0001 it is off by 1.1e-9 to
    2.2e-9.

    It takes Z_BLOCK centres at a time (_in_blocks), and each of the four
    stencil offsets is one route call over them.
    """
    ts = np.asarray(ts, dtype=float)
    counters["z_evals"] += 4 * ts.size
    return _in_blocks(ts, _stencil)


def _stencil(route, t: np.ndarray) -> np.ndarray:
    """Z'(t) by the five-point stencil, every point on one route."""
    h = DERIV_STEP
    zp2, zp1, zm1, zm2 = (route(t + d) for d in (2.0 * h, h, -h, -2.0 * h))
    return (8.0 * (zp1 - zm1) - (zp2 - zm2)) / (12.0 * h)
