"""A type-3 nonuniform fast Fourier transform: the sums

    h(u) = sum_n c_n e^(-i u x_n)

for ascending nonuniform sources |x_n| <= HALF_WIDTH and nonuniform
targets u in [-BLOCK/2, BLOCK/2), for several columns of coefficients that
are prefixes of one source list.  It is Gaussian gridding on both sides
(Greengard and Lee, SIAM Review 46 (2004)), in the type-3 layout of
Barnett, Magland and af Klinteberg (SIAM J. Sci. Comput. 41 (2019)) with
the Gaussian in place of their kernel, whose Fourier transform would need
quadrature.

With the grid y_l = l GRID_STEP and a = GRID_STEP^2 / (4 LAM_X),

    e^(-i u x) = e^(a u^2) / sqrt(4 pi a) int e^(-(y - x)^2 / (4a)) e^(-i u y) dy,

and the trapezoid rule on the grid gives, with theta = u GRID_STEP in
[-1, 1),

    h(u) ~ sqrt(LAM_X / pi) e^(theta^2 / (4 LAM_X)) f(theta),
    f(theta) = sum_l F_l e^(-i l theta),
    F_l = sum_n c_n e^(-LAM_X (l - x_n / GRID_STEP)^2),

each source spread over its SPREAD_TAPS nearest grid points.  The type-2
sum f is the periodic Gaussian e^(-LAM_Q (mu - q)^2), mu = theta FFT_SIZE
/ (2 pi), convolved with the FFT of the premultiplied grid:

    f(theta) ~ sqrt(LAM_Q / pi) sum_q g_q e^(-LAM_Q (mu - q)^2),
    g_q = sum_l F_l e^((pi l / FFT_SIZE)^2 / LAM_Q) e^(-2 pi i l q / FFT_SIZE),

over the INTERP_TAPS nearest q.  Each stage has two error terms, aliasing
and the cut of its Gaussian, each about e^(-KERNEL_EXPONENT) of sum |c_n|
after its deconvolution factor (at most e^1.27 and e^0.34); LAM_X and
LAM_Q balance them (see _lam).  The grid offsets x_n / GRID_STEP and mu
are reduced in extended precision, so that with GRID_STEP and FFT_SIZE
powers of two they carry no rounding of the scales.  Against a
long-double direct sum at 500 random targets, the error measured at most
2.6e-16 of sum |c_n| over 4,000 random sources and their prefixes, and
3.2e-15 of |c| for one source, whose kernel errors nothing averages.

Every value depends on its own column and target alone: the spread adds
sources in ascending order (np.bincount), the FFTs run row by row, and
the interpolation is one elementwise multiply-add per tap.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.fft import fft

BLOCK = 4096.0
GRID_STEP = 2.0 / BLOCK          # theta = u GRID_STEP lies in [-1, 1)
# a dyadic segment (m, 2m] of log n, about a centre rounded to 2^-6
HALF_WIDTH = 0.5 * math.log(2.0) + 2.0**-7
SPREAD_TAPS = 28
INTERP_TAPS = 24
KERNEL_EXPONENT = 34.0
GRID_HALF = math.ceil(HALF_WIDTH / GRID_STEP) + SPREAD_TAPS // 2
GRID_SIZE = 2 * GRID_HALF + 1    # grid rows l = -GRID_HALF .. GRID_HALF
FFT_SIZE = 8192
# g_q is needed for q in [-Q_HALF, Q_HALF): |mu| <= FFT_SIZE / (2 pi)
Q_HALF = math.ceil(FFT_SIZE / (2.0 * math.pi)) + INTERP_TAPS // 2 + 1
FFT_ROWS = 8             # grids per FFT call
INTERP_CHUNK = 32_768    # doubles per partial sum of interpolate, to stay in cache


def _lam(oversampling: float) -> float:
    """The Gaussian's exponent per squared grid step: aliasing from the
    nearest image, at distance 2 pi (oversampling - 1) / oversampling of
    the covered band, costs e^(-pi^2 (1 - 1/oversampling) / lam)."""
    return math.pi**2 * (1.0 - 1.0 / oversampling) / KERNEL_EXPONENT


# theta = u GRID_STEP covers [-1, 1) of the 2 pi period: oversampling pi
LAM_X = _lam(math.pi)
LAM_Q = _lam(FFT_SIZE / GRID_SIZE)
_SCALE = math.sqrt(LAM_X * LAM_Q) / math.pi
_PREMULTIPLY = np.exp((math.pi * np.arange(-GRID_HALF, GRID_HALF + 1) / FFT_SIZE) ** 2 / LAM_Q)
TWO_PI_EXT = 2 * np.arccos(np.longdouble(-1))


class Spread(NamedTuple):
    """Where each source of an ascending list lands on the grid: its first
    grid row and its SPREAD_TAPS Gaussian weights."""
    start: np.ndarray
    weights: np.ndarray


class Targets(NamedTuple):
    """Where each target reads the transformed grid: its first row of g
    (q = row - Q_HALF) and its INTERP_TAPS weights, scaled by the
    deconvolution factors."""
    start: np.ndarray
    weights: np.ndarray


def _offsets(pos: np.ndarray, taps: int, lam: float) -> tuple:
    """(first tap, Gaussian weights) of positions in grid steps (long
    double): the taps floor(pos) - taps/2 + 1 .. floor(pos) + taps/2."""
    whole = np.floor(pos)
    frac = (pos - whole).astype(float)
    dist = np.arange(1 - taps // 2, taps // 2 + 1) - frac[:, None]
    return whole.astype(np.int64) + (1 - taps // 2), np.exp(-lam * dist * dist)


def spread_plan(x: np.ndarray) -> Spread:
    """The Spread of ascending long-double sources, |x| <= HALF_WIDTH."""
    start, weights = _offsets(x / np.longdouble(GRID_STEP), SPREAD_TAPS, LAM_X)
    return Spread(start=start + GRID_HALF, weights=weights)


def grids(plan: Spread, c: np.ndarray, counts) -> np.ndarray:
    """The spread grid F of the first `count` sources, coefficients c, for
    each count of counts: shape (len(counts), GRID_SIZE).

    The grid of all sources is added once.  Below the first row of source
    `count`, no later source adds anything, so a prefix's grid is that
    grid up to there and, from there on, the sources whose taps reach it,
    added again in the same order: the same bits as its own spread."""
    rows = (plan.start[:, None] + np.arange(SPREAD_TAPS)).ravel()
    terms = (c[:, None] * plan.weights).ravel()
    full = (np.bincount(rows, terms.real, GRID_SIZE)
            + 1j * np.bincount(rows, terms.imag, GRID_SIZE))
    out = np.empty((len(counts), GRID_SIZE), dtype=complex)
    last = plan.start + (SPREAD_TAPS - 1)
    for i, count in enumerate(counts):
        cut = plan.start[count] if count < c.size else GRID_SIZE
        out[i, :cut] = full[:cut]
        lo = int(np.searchsorted(last, cut))
        sub = slice(lo * SPREAD_TAPS, count * SPREAD_TAPS)
        out[i, cut:] = (np.bincount(rows[sub], terms[sub].real, GRID_SIZE)
                        + 1j * np.bincount(rows[sub], terms[sub].imag, GRID_SIZE))[cut:]
    return out


def spectra(F: np.ndarray) -> np.ndarray:
    """g_q for q in [-Q_HALF, Q_HALF) of each row of grids F, as a
    (2 Q_HALF, rows) array: row q + Q_HALF holds g_q of every column.
    The FFTs go FFT_ROWS grids at a time."""
    out = np.empty((2 * Q_HALF, len(F)), dtype=complex)
    buf = np.zeros((min(FFT_ROWS, len(F)), FFT_SIZE), dtype=complex)
    at = np.arange(-GRID_HALF, GRID_HALF + 1) % FFT_SIZE
    for lo in range(0, len(F), FFT_ROWS):
        rows = F[lo: lo + FFT_ROWS]
        b = buf[: len(rows)]
        b[:, at] = rows * _PREMULTIPLY
        g = fft(b, axis=1)
        out[:Q_HALF, lo: lo + len(rows)] = g[:, -Q_HALF:].T
        out[Q_HALF:, lo: lo + len(rows)] = g[:, :Q_HALF].T
    return out


def targets(tau: np.ndarray) -> Targets:
    """The Targets of offsets tau in [0, BLOCK) into a block, whose
    transform variable is u = tau - BLOCK/2."""
    u = np.asarray(tau, dtype=np.longdouble) - np.longdouble(BLOCK / 2)
    theta = (u * np.longdouble(GRID_STEP)).astype(float)
    start, weights = _offsets(u * np.longdouble(GRID_STEP * FFT_SIZE) / TWO_PI_EXT,
                              INTERP_TAPS, LAM_Q)
    weights *= (_SCALE * np.exp(theta * theta / (4.0 * LAM_X)))[:, None]
    return Targets(start=start + Q_HALF, weights=weights)


def interpolate(g: np.ndarray, at: Targets) -> np.ndarray:
    """h at every target for every column of the spectra g: shape
    (targets, columns).  One multiply-add per tap, in tap order, over
    INTERP_CHUNK values at a time."""
    cols = g.shape[1]
    flat = g.view(float).reshape(len(g), 2 * cols)
    out = np.empty((len(at.start), 2 * cols))
    step = max(1, INTERP_CHUNK // (2 * cols))
    term = np.empty((min(step, len(out)), 2 * cols))
    for lo in range(0, len(out), step):
        acc, start, weights = out[lo: lo + step], at.start[lo: lo + step], at.weights[lo: lo + step]
        tm = term[: len(acc)]
        np.take(flat, start, axis=0, out=acc)
        acc *= weights[:, :1]
        for t in range(1, INTERP_TAPS):
            np.take(flat, start + t, axis=0, out=tm)
            tm *= weights[:, t, None]
            acc += tm
    return out.view(complex)
