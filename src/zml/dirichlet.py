"""Finite Dirichlet polynomials: the Mobius mollifier, pointwise evaluation,
batch evaluation of every truncation at the zeros, and the exact pairwise
mean-value integral.

The batch evaluation takes the terms n <= DIRECT_MAX as direct
exponentials, the large phase g0 log n (g0 the start of the ordinate's
PHASE_SPREAD cell) reduced mod 2 pi in extended precision and the small
rest through the table-driven _exp_minus_i, and the terms above it by
dyadic segments, each a column of the type-3 transform of zml.transform
over a fixed block of ordinates; a zero's value depends on its ordinate
and truncation point alone.  Against 30-digit sums of the mollifier at the
stored ordinates the error is at most 3.9e-16 of sum |a_n| n^(-1/2) at
the 40 highest zeros below 1e4 (xi = 3980), 2.7e-16 at 20 zeros spread
over (0, 1e4] and 3.8e-16 at the 40 highest zeros below 1e5 (xi =
31622), and at 40 zeros spread over (0, 1e5] 2.5e-15 at xi = 70 and
3.0e-16 at xi = 31622; the tolerance is 5e-15.  One double exponential
per (gamma, n) gives 1.7e-13, 1.4e-13 and 8.5e-13 on the first three.

The closed form

    int_0^T (sum_n a_n n^-it)(sum_m b_m m^it) dt
        = T sum_n a_n b_n + sum_{n != m} a_n b_m (e^(iT lam) - 1)/(i lam),

lam = log m - log n, is exact up to rounding, so it serves as the oracle
side of every mean-value statement; the Montgomery-Vaughan
main-term-plus-envelope decomposition is reported against it, never used
in its place.  The off-diagonal part is the bilinear form with kernel
1/(log m - log n) of Montgomery and Vaughan's Hilbert-type inequality, and
it splits: with u_n = a_n n^(-iT), v_m = b_m m^(iT) and R the real matrix
1/(log m - log n), zero on the diagonal,

    int_0^T = -i (u^T R v - a^T R b) + T sum_{n <= min} a_n b_n,

one exponential per coefficient instead of one kernel per pair, its phase
T log n reduced in extended precision.  Against 30-digit evaluations (the
pairwise sum, or its power series in T at small T) the relative error
measured at most 2.4e-14 over 40 campaign-sized pairs (lengths <= 200,
T in [10, 1e4]) and 6.1e-13 at T = 0.01 with 500 x 500 coefficients,
where the two bilinear terms cancel most; the tests hold it to 1e-10.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import sieve, transform
from .errors import BudgetError, InputError
from .sieve import _prefix_fsums

PAIR_BUDGET = 10**8
# Entries per group of the pair integral's arrays (_pair_parts_many).
CHUNK_ELEMS = 262_144
# Terms n <= DIRECT_MAX of a truncation are direct exponentials; the
# dyadic segments above it go through zml.transform.
DIRECT_MAX = 128
# A direct term's phase splits at g0, the start of gamma's cell [g0, g0 +
# PHASE_SPREAD); g0 log n is reduced in extended precision, and the rest,
# (gamma - g0) log n < 64 log n, is rounded to at most 64 log n 2^-52.
PHASE_SPREAD = 64.0
# Rows (in ascending n) per block of the running sums of the direct terms.
PREFIX_BLOCK = 16
# Ordinates per run, at most, that truncation_blocks yields.
YIELD_ROWS = 512
# The table of _exp_minus_i: e^(-i k c) for k < EXP_TABLE_SIZE, c = 2 pi /
# EXP_TABLE_SIZE, rounded from long double.
EXP_TABLE_SIZE = 1024
_EXP_ANGLES = np.arange(EXP_TABLE_SIZE) * (transform.TWO_PI_EXT / EXP_TABLE_SIZE)
_EXP_TABLE = np.empty(EXP_TABLE_SIZE, dtype=complex)
_EXP_TABLE.real = np.cos(_EXP_ANGLES)
_EXP_TABLE.imag = -np.sin(_EXP_ANGLES)
# c in three parts (Cody and Waite): C1 and C2 have at most 32 significant
# bits, so k C1 and k C2 are exact for |k| < 2^21, that is for phases
# |phi| < 2^21 c = EXP_PHASE_MAX; C3 is the rest, C1 + C2 + C3 = c to 4e-40.
_C1 = float.fromhex("0x1.921fb544p-8")
_C2 = float.fromhex("0x1.0b4611a6p-42")
_C3 = float.fromhex("0x1.3198a2e037073p-77")
EXP_PHASE_MAX = 2.0**21 * 2.0 * math.pi / EXP_TABLE_SIZE
_ROUND_MAGIC = 1.5 * 2.0**52
# 2 pi = P1 + P2 + P3 for _reduce, exactly EXP_TABLE_SIZE (C1, C2, C3)
_P1, _P2, _P3 = (np.longdouble(EXP_TABLE_SIZE * c) for c in (_C1, _C2, _C3))
# Elements per pass of _exp_minus_i: its seven scratch arrays (0.6 MB)
# stay in L2 cache.
EXP_CHUNK = 8192


@dataclass(frozen=True, eq=False)
class DirichletPoly:
    """Coefficients (a_n) for 1 <= n <= length of sum a_n n^(-s).

    coeffs[i] is a_{i+1}; real or complex dtype.  Instances are immutable;
    log n is computed once and shared.
    """
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs)
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("coeffs must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise InputError("coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)

    @property
    def length(self) -> int:
        return self.coeffs.size

    @cached_property
    def logs(self) -> np.ndarray:
        return np.log(np.arange(1, self.length + 1, dtype=float))

    @cached_property
    def logs_ext(self) -> np.ndarray:
        """log n in extended precision (long double), for large phases."""
        return np.log(np.arange(1, self.length + 1, dtype=np.longdouble))


def mollifier(xi: int) -> DirichletPoly:
    """The truncated 1/zeta mimic: coefficients mu(n) for n <= xi, sieved
    up to xi for this call (1 <= xi <= sieve.MEMORY_CAP)."""
    return DirichletPoly(coeffs=sieve._mobius_upto(xi, "xi")[1: xi + 1].astype(np.float64))


def _phase(t: float, logs_ext: np.ndarray) -> np.ndarray:
    """t log n reduced mod 2 pi in extended precision, as doubles.  Its
    error is about |t log n| 2^-64, not the |t| ulp(log n) / 2 +
    ulp(t log n) / 2 (1e-10 at t = 1e5) of a double product."""
    return np.fmod(t * logs_ext, transform.TWO_PI_EXT).astype(float)


def _exp_minus_i(phi: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """e^(-i phi) into `out`, for a float array phi with |phi| < EXP_PHASE_MAX
    and a C-contiguous complex array `out` of its shape, a new one if None.

    phi = k c + r with k the nearest integer to phi / c, c = 2 pi /
    EXP_TABLE_SIZE, and r = ((phi - k C1) - k C2) - k C3, so |r| <= c/2 up
    to about 2^-60.  Then e^(-i phi) = t (1 + (cos r - 1) - i sin r), t the
    table value e^(-i (k mod EXP_TABLE_SIZE) c), with cos r - 1 = r^2 (r^2/24
    - 1/2) and sin r = r - r^3 (1/6 - r^2/120), which are off by at most
    1.2e-18.  Against 30-digit mpmath the result is off by at most 1.4e-16
    (np.exp: 7.8e-17) over 9,307 phases up to EXP_PHASE_MAX, the rounding
    boundaries of k among them, at 13-23 ns per element against 43-74 ns
    for np.exp on 2 vCPUs with AVX-512.  Runs EXP_CHUNK elements at a
    time.
    """
    if out is None:
        out = np.empty(phi.shape, dtype=complex)
    if out.shape != phi.shape or not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous and of phi's shape")
    phi, flat = phi.reshape(-1), out.reshape(-1)
    size = min(phi.size, EXP_CHUNK)
    k, r, r2, poly = (np.empty(size) for _ in range(4))
    idx = np.empty(size, dtype=np.int64)
    corr, tab = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
    for lo in range(0, phi.size, EXP_CHUNK):
        x = phi[lo: lo + EXP_CHUNK]
        m = x.size
        km, rm, r2m, pm, im, cm, tm = (
            a[:m] for a in (k, r, r2, poly, idx, corr, tab))
        # k rounded to an integer in the low bits of 1.5 * 2^52 + k
        np.multiply(x, EXP_TABLE_SIZE / (2.0 * math.pi), out=km)
        km += _ROUND_MAGIC
        np.bitwise_and(km.view(np.int64), EXP_TABLE_SIZE - 1, out=im)
        km -= _ROUND_MAGIC
        np.multiply(km, _C1, out=pm)
        np.subtract(x, pm, out=rm)
        np.multiply(km, _C2, out=pm)
        rm -= pm
        np.multiply(km, _C3, out=pm)
        rm -= pm
        np.multiply(rm, rm, out=r2m)
        np.multiply(r2m, 1.0 / 24.0, out=pm)
        pm -= 0.5
        np.multiply(pm, r2m, out=cm.real)
        np.multiply(r2m, -1.0 / 120.0, out=pm)
        pm += 1.0 / 6.0
        pm *= r2m
        pm *= rm
        np.subtract(pm, rm, out=cm.imag)
        np.take(_EXP_TABLE, im, out=tm)
        cm *= tm
        np.add(cm, tm, out=flat[lo: lo + m])
    return out


def eval_poly(poly: DirichletPoly, s: complex) -> complex:
    """sum a_n n^(-s) = sum a_n n^(-sigma) e^(-i t log n), the phase
    reduced in extended precision (_phase); exactly-rounded accumulation."""
    s = complex(s)
    terms = poly.coeffs * np.exp(-s.real * poly.logs - 1j * _phase(s.imag, poly.logs_ext))
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _reduce(phi: np.ndarray) -> np.ndarray:
    """Long-double phases reduced mod 2 pi into [-pi, pi], as doubles.
    2 pi = P1 + P2 + P3 (Cody and Waite; the parts of _exp_minus_i's c,
    times EXP_TABLE_SIZE) with k P1 and k P2 exact for k < 2^32, so the
    error is about 2^-64 of the result, not of phi as with np.fmod."""
    k = np.rint(phi / transform.TWO_PI_EXT)
    return (((phi - k * _P1) - k * _P2) - k * _P3).astype(float)


class _Segment(NamedTuple):
    """The terms a_n != 0, m < n <= 2m, of one dyadic segment, as sources
    x = log n - centre of the type-3 transform."""
    centre: float
    ns: np.ndarray
    weights: np.ndarray
    x: np.ndarray
    plan: transform.Spread


def _direct_sums(logs, logs_ext, w, ends, gammas) -> np.ndarray:
    """sum over the first e terms (logs, weights w) of w_n n^(-i gamma)
    for each e of ends, at each ordinate: shape (len(ends), len(gammas)).

    The large phase g0 log n, g0 the start of gamma's PHASE_SPREAD cell, is
    reduced in extended precision (_phase), the rest (gamma - g0) log n
    goes through _exp_minus_i.  The terms are summed in ascending n within
    PREFIX_BLOCK-row blocks (np.cumsum, which adds in order), and a sum
    over e terms is the running sum of the whole blocks plus the partial
    sum of the last one."""
    cell = np.floor(gammas / PHASE_SPREAD)
    cells, inv = np.unique(cell, return_inverse=True)
    big = np.exp(-1j * _phase(PHASE_SPREAD * cells, logs_ext[:, None]))
    n_blocks = max(1, -(-logs.size // PREFIX_BLOCK))
    E = np.zeros((n_blocks * PREFIX_BLOCK, gammas.size), dtype=complex)
    rows = E[: logs.size]
    _exp_minus_i(np.multiply.outer(logs, gammas - PHASE_SPREAD * cell), rows)
    rows *= big[:, inv]
    rows *= w[:, None]
    part = np.zeros((n_blocks, PREFIX_BLOCK + 1, gammas.size), dtype=complex)
    np.cumsum(E.reshape(n_blocks, PREFIX_BLOCK, -1), axis=1, out=part[:, 1:])
    run = np.zeros((n_blocks + 1, gammas.size), dtype=complex)
    np.cumsum(part[:, -1], axis=0, out=run[1:])
    full = np.minimum(ends // PREFIX_BLOCK, n_blocks - 1)
    return run[full] + part[full, ends - PREFIX_BLOCK * full]


def _segment_of(xi: int) -> int:
    """The k with DIRECT_MAX 2^k < xi <= DIRECT_MAX 2^(k+1); negative for
    xi <= DIRECT_MAX."""
    return (xi - 1).bit_length() - DIRECT_MAX.bit_length()


def truncation_blocks(poly: DirichletPoly, xis, gammas: np.ndarray):
    """Yield (lo, vals) over consecutive runs of at most YIELD_ROWS of the
    finite, ascending gammas, each inside one transform block, where
    vals[i, b] = sum_{n<=xis[b]} a_n n^(-1/2-i*gammas[lo+i]); xis in [1,
    poly.length].

    The terms n <= DIRECT_MAX are direct exponentials (_direct_sums).
    Above it, the terms of each dyadic segment m < n <= 2m, m =
    DIRECT_MAX 2^k, are one column of a type-3 transform (zml.transform)
    per block [j BLOCK, (j + 1) BLOCK) of ordinates: with the segment's
    centre c and the block's centre g, w_n n^(-i gamma) = e^(-i gamma c)
    (w_n e^(-i g (log n - c))) e^(-i (gamma - g)(log n - c)), both large
    phases reduced in extended precision (_reduce).  A truncation inside a
    segment is one more column over the segment's prefix.  Its value is
    the direct sum, plus the whole segments below it in ascending order,
    plus its own column; so a value depends on its gamma and xi alone,
    whatever the other ordinates and truncation points.  A block's
    transform is built once, before its first run.
    """
    xis = np.asarray(xis, dtype=np.int64)
    if xis.ndim != 1 or xis.size == 0:
        raise InputError("xis must be a non-empty 1-d sequence")
    if xis.min() < 1 or xis.max() > poly.length:
        raise InputError(f"truncation points must lie in [1, {poly.length}]")
    gammas = np.asarray(gammas, dtype=float)
    if not (np.all(np.isfinite(gammas)) and np.all(gammas[1:] >= gammas[:-1])):
        raise InputError("ordinates must be finite and ascending")
    top = int(xis.max())
    w = poly.coeffs * np.exp(-0.5 * poly.logs)
    # coefficient index i holds a_{i+1}, so n <= xi means i < xi
    direct = np.flatnonzero(poly.coeffs[: min(top, DIRECT_MAX)])
    ends = np.searchsorted(direct, np.minimum(xis, DIRECT_MAX))
    segments = []
    while DIRECT_MAX << len(segments) < top:
        m = DIRECT_MAX << len(segments)
        ns = np.flatnonzero(poly.coeffs[m: min(2 * m, top)]) + m + 1
        centre = round(64.0 * (math.log(m) + 0.5 * math.log(2.0))) / 64.0
        x = poly.logs_ext[ns - 1] - np.longdouble(centre)
        segments.append(_Segment(centre, ns, w[ns - 1], x, transform.spread_plan(x)))
    # the columns of each segment: the whole segment if a truncation lies
    # above it, then one per distinct truncation point inside it
    n_whole = max(0, _segment_of(top))
    high = np.flatnonzero(xis > DIRECT_MAX)
    seg = np.array([_segment_of(xi) for xi in xis[high].tolist()], dtype=np.int64)
    counts = [[s.ns.size] if k < n_whole else [] for k, s in enumerate(segments)]
    local = {}
    for xi in sorted(set(xis[high].tolist())):
        k = _segment_of(xi)
        local[xi] = len(counts[k])
        counts[k].append(int(np.searchsorted(segments[k].ns, xi, side="right")))
    offsets = np.cumsum([0] + [len(c) for c in counts])
    col = offsets[seg] + [local[xi] for xi in xis[high].tolist()]
    centres = [np.longdouble(s.centre) for s in segments]

    def spectra(j: int) -> np.ndarray:
        g = np.longdouble(j * transform.BLOCK + transform.BLOCK / 2)
        out = np.empty((2 * transform.Q_HALF, offsets[-1]), dtype=complex)
        for s, c, a, b in zip(segments, counts, offsets, offsets[1:]):
            F = transform.grids(s.plan, s.weights * _exp_minus_i(_reduce(g * s.x)), c)
            out[:, a:b] = transform.spectra(F)
        return out

    ends, which = np.unique(np.append(ends, direct.size), return_inverse=True)
    stop = 0
    while stop < gammas.size:           # the ordinates in [j BLOCK, (j + 1) BLOCK)
        first, j = stop, float(gammas[stop] // transform.BLOCK)
        stop = int(np.searchsorted(gammas, (j + 1) * transform.BLOCK))
        spec = None                     # the last block's, freed before the next is built
        spec = spectra(int(j)) if high.size else None
        for lo in range(first, stop, YIELD_ROWS):
            gam = gammas[lo: min(lo + YIELD_ROWS, stop)]
            sums = _direct_sums(poly.logs[direct], poly.logs_ext[direct], w[direct], ends, gam)
            vals = sums[which[:-1]]      # (truncations, ordinates) until the end
            if high.size:
                h = transform.interpolate(spec, transform.targets(gam - j * transform.BLOCK)).T
                phase = np.multiply.outer(centres, gam.astype(np.longdouble))
                h *= np.repeat(_exp_minus_i(_reduce(phase)), np.diff(offsets), axis=0)
                run = [sums[which[-1]]]
                for k in range(n_whole):
                    run.append(run[-1] + h[offsets[k]])
                vals[high] = np.array(run)[seg] + h[col]
            yield lo, vals.T


def eval_truncations_at_zeros(poly: DirichletPoly, xis, gammas: np.ndarray) -> np.ndarray:
    """Truncations sum_{n<=xi} a_n n^(-1/2-i*gamma) for every xi in xis and
    every ascending ordinate; shape (len(gammas), len(xis)).  The runs of
    truncation_blocks, concatenated."""
    gammas = np.asarray(gammas, dtype=float)
    out = np.empty((gammas.size, np.size(xis)), dtype=complex)
    for lo, vals in truncation_blocks(poly, xis, gammas):
        out[lo: lo + len(vals)] = vals
    return out


# ---------------------------------------------------------------------------
# mean values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanValueReport:
    """Exact pair integral next to its main term and error envelope.

    ratio = |exact - main| / envelope is the empirical constant for the
    mean-value error term (the inequality itself carries no explicit one).
    """
    T: float
    exact: complex
    main: complex
    envelope: float
    ratio: float


def _row_fsums(x: np.ndarray) -> list:
    """math.fsum of each row of the 2-d array x, bit for bit: the columns
    of x.T summed over their whole length (_prefix_fsums), or the row
    itself when a term is too large for exact parts."""
    if not np.all(np.abs(x) < 2.0**960):
        return [math.fsum(row) for row in x.tolist()]
    return _prefix_fsums(x.T, [x.shape[1]])[0]


def _kernel_rows(logs: np.ndarray, lo: int, hi: int, width: int) -> np.ndarray:
    """Rows lo:hi and columns :width of R, R[n, m] = 1/(logs[m] - logs[n]),
    zero on the diagonal."""
    lam = logs[None, :width] - logs[lo:hi, None]
    on_diag = np.arange(lo, min(hi, width))
    lam[on_diag - lo, on_diag] = np.inf      # R = 1/lam is 0 there
    return np.reciprocal(lam, out=lam)


def _twisted(polys, Ts, logs_ext: np.ndarray) -> tuple:
    """Zero-padded rows of the coefficients c_n of each poly and of c_n n^(-iT)
    for its T: one _exp_minus_i call on every phase T log n, each reduced in
    extended precision (_phase)."""
    lens = np.array([p.length for p in polys])
    rows = np.repeat(np.arange(lens.size), lens)
    cols = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
    coeffs = np.concatenate([p.coeffs for p in polys])
    phase = _phase(np.repeat(np.asarray(Ts, dtype=np.longdouble), lens), logs_ext[cols])
    plain = np.zeros((lens.size, lens.max()), dtype=coeffs.dtype)
    twisted = np.zeros((lens.size, lens.max()), dtype=complex)
    plain[rows, cols] = coeffs
    twisted[rows, cols] = coeffs * _exp_minus_i(phase)
    return plain, twisted


def _pair_parts_many(triples) -> tuple:
    """(diagonal, off-diagonal, envelope) of the pair integral for each
    (A, B, T) of a sequence, as three lists: T sum a_n b_n and
    -i (u^T R v - a^T R b) (see the module docstring), both complex, and
    sqrt(sum n|a_n|^2) sqrt(sum n|b_n|^2).

    The triples go in order in groups of CHUNK_ELEMS // (16 max(len A, len B))
    pairs, at least one, so that a group's arrays hold about CHUNK_ELEMS
    entries in all (or a single pair's own vectors, if longer).  A group's
    u and v take len A + len B exponentials per pair (_twisted; v with -T);
    its rows Re v, Im v, Re b and Im b, padded with zeros to the group's
    longest B, meet each block of at most CHUNK_ELEMS entries of R in one
    matrix-vector product per row, which gives R v and R b for every pair
    of the group with the same bits on one BLAS thread or two (one
    matrix-matrix product did not), but not across OpenBLAS kernels
    (its Haswell and Sandybridge kernels differ), and the group's padded
    width and R's block rows shape them: cli.campaign_trials(11, 1000) in
    groups of cli.MV_BATCH = 81 and pair by pair (as pair_integral_exact,
    the tests' oracle, takes them) differ in 552 of 1,000 ratios
    (<= 8.7e-15 relative) and 641 exact values.  A pair's off-diagonal sum over the
    blocks of R is exactly rounded (math.fsum), and so are its diagonal and
    weighted norms, from the group's zero-padded coefficient rows
    (_row_fsums; the padding adds zeros).  Each pair is capped at
    PAIR_BUDGET coefficient pairs.
    """
    triples = list(triples)
    for A, B, _ in triples:
        n_pairs = A.length * B.length
        if n_pairs > PAIR_BUDGET:
            raise BudgetError(f"{n_pairs} coefficient pairs exceed budget {PAIR_BUDGET}")
    if not triples:
        return [], [], []
    len_a = max(A.length for A, _, _ in triples)
    len_b = max(B.length for _, B, _ in triples)
    ns = np.arange(1, max(len_a, len_b) + 1)
    weights = ns.astype(float)
    logs, logs_ext = np.log(weights), np.log(ns.astype(np.longdouble))
    rows = max(1, CHUNK_ELEMS // len_b)
    group = max(1, CHUNK_ELEMS // (16 * max(len_a, len_b)))
    diag, off, env = [], [], []
    for first in range(0, len(triples), group):
        As, Bs, Ts = zip(*triples[first: first + group])
        a, u = _twisted(As, Ts, logs_ext)
        b, v = _twisted(Bs, np.negative(Ts), logs_ext)
        g, width = b.shape
        n_diag = min(a.shape[1], width)
        prod = a[:, :n_diag] * b[:, :n_diag]
        diag += [T * complex(re, im) for T, re, im
                 in zip(Ts, _row_fsums(prod.real), _row_fsums(prod.imag))]
        env += [math.sqrt(na) * math.sqrt(nb) for na, nb in zip(
            _row_fsums(weights[: a.shape[1]] * np.abs(a) ** 2),
            _row_fsums(weights[:width] * np.abs(b) ** 2))]
        W = np.concatenate([v.real, v.imag, b.real, b.imag])
        parts = []
        for lo in range(0, a.shape[1], rows):
            hi = min(a.shape[1], lo + rows)
            P = np.matmul(W[:, None, :], _kernel_rows(logs, lo, hi, width).T)[:, 0]
            rv = P[:g] + 1j * P[g: 2 * g]
            rb = P[2 * g: 3 * g] + 1j * P[3 * g:]
            s = (np.einsum("ij,ij->i", u[:, lo:hi], rv)
                 - np.einsum("ij,ij->i", a[:, lo:hi], rb))
            parts.append(s)
        parts = np.array(parts).T         # off = -i s, summed over the blocks of R
        off += [complex(math.fsum(re), math.fsum(im))
                for re, im in zip(parts.imag.tolist(), (-parts.real).tolist())]
    return diag, off, env


def pair_integral_exact(A: DirichletPoly, B: DirichletPoly, T: float) -> complex:
    """int_0^T A(it)~B(it) dt in closed form (the module's oracle).

    A enters as sum a_n n^(-it), B as sum b_m m^(+it); the sum of the
    diagonal and off-diagonal parts of _pair_parts_many.
    """
    (diag,), (off,), _ = _pair_parts_many([(A, B, T)])
    return diag + off


def mv_reports(triples) -> list:
    """A MeanValueReport for each (A, B, T) of a sequence: main term
    T sum a_n b_n and envelope sqrt(sum n|a_n|^2 sum n|b_n|^2) against the
    exact integral, from one _pair_parts_many call.  The gap
    |exact - main| is taken as the modulus of the off-diagonal part itself,
    so no digits cancel."""
    triples = list(triples)
    reports = []
    for (_, _, T), main, off, env in zip(triples, *_pair_parts_many(triples)):
        gap = abs(off)
        if env > 0.0:
            ratio = gap / env
        else:
            ratio = 0.0 if gap == 0.0 else math.inf
        reports.append(MeanValueReport(T=T, exact=main + off, main=main,
                                       envelope=env, ratio=ratio))
    return reports
