"""Bit-exact ports of the two scipy.special values the scan needs.

* ``lambertw0(x)`` is ``scipy.special.lambertw(x).real`` for real
  x >= -1/e: the seed of the Gram-point Newton solve.
* ``loggamma_quarter_imag(t)`` is ``scipy.special.loggamma(0.25 + 0.5j*t).imag``
  for |t| < 10: theta(t) below its asymptotic series.

Both follow SciPy's own algorithms step for step (Corless, Gonnet, Hare,
Jeffrey and Knuth, Adv. Comput. Math. 5 (1996) for W; Hare, J. Algorithms
25 (1997) for log Gamma), so they give its bits, not merely its accuracy: a
Newton seed one ulp away moves ordinates of the zero list.  The bits rest on
doing each operation as SciPy's compiled code does it:

* the polynomial recurrence rounds a*b + c once (an exact fma);
* exponentials come from libm ``math.exp``: ``np.exp`` (numpy 2.4.6 on an
  AVX-512 x86-64) differs from it in the last bit on 27,395 of the 600,008
  Halley steps for the Gram indices -1 to 200,000, and moves 1,106 of their
  W values;
* a complex log is glibc's ``clog``: on the real axis that is
  log1p((v-1)(v+1))/2 for v in [0.5, 2), not log v; for |z| > 7 it is
  log(libm hypot) + i atan2, as ``cmath.log`` computes it there (with
  CPython's own ``math.hypot`` in its place, 46 of 40,001 theta values
  below 10 move);
* Python's float and complex ``*`` and ``/`` round as C's do.

The test suite keeps scipy.special as the oracle and pins a hash of the
Gram points, so a refactor or a SciPy upgrade cannot move them silently.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NumericsError

_EXPN1 = 0.36787944117144232159553      # exp(-1)
_HLOG2PI = 0.918938533204672742         # log(2 pi)/2
_PADE_NUM = (12.85106382978723404255, 12.34042553191489361902, 1.0)
_PADE_DEN = (32.53191489361702127660, 14.34042553191489361702, 1.0)
_BRANCH_PT = (-1.0 / 3.0, 1.0, -1.0)
# B_2n/(2n(2n-1)), highest order first
_STIRLING = (
    -2.955065359477124183e-2, 6.4102564102564102564e-3, -1.9175269175269175269e-3,
    8.4175084175084175084e-4, -5.952380952380952381e-4, 7.9365079365079365079e-4,
    -2.7777777777777777778e-3, 8.3333333333333333333e-2,
)
W_TOL = 1e-8            # SciPy's default Halley tolerance
W_MAX_STEPS = 100


def _fma(a: float, b: float, c: float) -> float:
    """a*b + c with one rounding (int true division rounds correctly)."""
    na, da = a.as_integer_ratio()
    nb, db = b.as_integer_ratio()
    nc, dc = c.as_integer_ratio()
    return (na * nb * dc + nc * da * db) / (da * db * dc)


def _cevalpoly(coeffs, z):
    """sum_j coeffs[j] z^(n-j) by Knuth's recurrence for real coefficients
    (TAOCP 4.6.4, eq. 3), as SciPy evaluates it; z real or complex."""
    z = complex(z)
    a, b = coeffs[0], coeffs[1]
    r = 2.0 * z.real
    s = z.real * z.real + z.imag * z.imag
    for c in coeffs[2:]:
        a, b = _fma(r, a, b), _fma(-s, a, c)
    return z * a + b


def _each(fn, v: np.ndarray) -> np.ndarray:
    """The float array of fn at every element of v (for math.*, libm's)."""
    return np.fromiter(map(fn, v.tolist()), float, v.size)


def _log_real(v: np.ndarray) -> np.ndarray:
    """Re clog(v + 0i) for v > 0 as glibc computes it: log1p((v-1)(v+1))/2
    on [0.5, 2), log(v) elsewhere."""
    out = _each(math.log, v)
    near = (v >= 0.5) & (v < 2.0)
    out[near] = _each(math.log1p, (v[near] - 1.0) * (v[near] + 1.0)) / 2.0
    return out


def _w_seed(x: float) -> float:
    """SciPy's starting point for W(x + 0j), -1/e <= x < 1.5: the series at
    the branch point or a (3, 2) Pade approximant at 0."""
    if abs(x + _EXPN1) < 0.3:
        return _cevalpoly(_BRANCH_PT, math.sqrt(2.0 * (math.e * x + 1.0))).real
    return (x * _cevalpoly(_PADE_NUM, x) / _cevalpoly(_PADE_DEN, x)).real


def lambertw0(x: np.ndarray) -> np.ndarray:
    """Principal branch W(x) for real x > -1/e, bit for bit
    scipy.special.lambertw(x).real: Halley's method from SciPy's seed, each
    point returned at the first step that moves it by <= W_TOL relative."""
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.ravel()
    # SciPy's seed: log x - log log x, unless x < 1.5
    near = x < 1.5
    w = np.empty(x.size)
    w[near] = _each(_w_seed, x[near])
    lx = _log_real(x[~near])
    w[~near] = lx - _log_real(lx)
    out = np.empty(x.size)
    pos = w >= 0.0      # the branch of the step is fixed by the seed
    todo = np.arange(x.size)
    for _ in range(W_MAX_STEPS):
        ew = _each(math.exp, np.where(pos, -w, w))
        wew = w * ew
        f = np.where(pos, w - x * ew, wew - x)
        lead = np.where(pos, w + 1.0, wew + ew)
        wn = w - f / (lead - (w + 2.0) * f / (2.0 * w + 2.0))
        done = np.abs(wn - w) <= W_TOL * np.abs(wn)
        out[todo[done]] = wn[done]
        keep = ~done
        todo, x, w, pos = todo[keep], x[keep], wn[keep], pos[keep]
        if not todo.size:
            return out.reshape(shape)
    raise NumericsError("Lambert W Halley iteration failed to converge")


def _loggamma_stirling(z: complex) -> complex:
    """log Gamma(z) by the Stirling series, SciPy's route for Re z > 7;
    there |z| > 7, where cmath.log and glibc's clog both take log(hypot)."""
    rz = 1.0 / z
    return (z - 0.5) * cmath.log(z) - z + _HLOG2PI + rz * _cevalpoly(_STIRLING, rz / z)


def _loggamma_recurrence_imag(t: float) -> float:
    """Im log Gamma(1/4 + i t/2) for 0 <= t < 10: shift up past Re z = 7,
    Stirling there, and the branch of log of the shift product tracked by
    its sign flips."""
    z = complex(0.25, 0.5 * t)
    shift = z
    z += 1.0
    flips = 0
    neg = False
    while z.real <= 7.0:
        shift *= z
        now = math.copysign(1.0, shift.imag) < 0.0
        flips += now and not neg
        neg = now
        z += 1.0
    return (_loggamma_stirling(z) - cmath.log(shift)).imag - flips * 2 * math.pi


def loggamma_quarter_imag(ts: np.ndarray) -> np.ndarray:
    """Im log Gamma(1/4 + i t/2) for |t| < 10, bit for bit
    scipy.special.loggamma(0.25 + 0.5j*t).imag; odd in t, NaN off the reals."""
    ts = np.asarray(ts, dtype=float)
    out = np.full(ts.shape, np.nan)
    for i, t in enumerate(ts.flat):
        if math.isfinite(t):
            v = _loggamma_recurrence_imag(abs(t))
            out.flat[i] = -v if t < 0.0 else v
    return out
