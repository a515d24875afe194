"""Finite Dirichlet polynomials: the Mobius mollifier, pointwise evaluation,
batch evaluation of every truncation at the zeros, and the exact pairwise
mean-value integral.

The batch evaluation builds n^(-i gamma) multiplicatively: exponentials
only for the primes of the support, each composite as one product
(n/P)^(-i gamma) P^(-i gamma) with P its largest prime factor, and every
large phase gamma log p reduced mod 2 pi in extended precision; the small
rest of each prime phase goes through the table-driven _exp_minus_i.  The
large phase is split at the start of the ordinate's PHASE_SPREAD cell, so
a zero's value depends on its ordinate alone.  Against 30-digit sums of
the mollifier at the stored ordinates the error is at most 1.3e-15 of
sum |a_n| n^(-1/2) at the 40 highest zeros below 1e4 (xi = 3980; 1.0e-13
of 76.70 at gamma = 9976.56), 1.0e-15 at 20 zeros spread over (0, 1e4]
and 4.6e-16 at the 40 highest zeros below 1e5 (xi = 31622); one double
exponential per (gamma, n) gives 1.7e-13, 1.4e-13 and 8.5e-13.

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
from scipy.sparse import csr_matrix

from .errors import BudgetError, InputError
from .sieve import SieveTable, _exact_parts, build_sieve

PAIR_BUDGET = 10**8
# Largest (ordinates x terms) block of n^(-i gamma) values held at once.
CHUNK_ELEMS = 262_144
TWO_PI_EXT = 2 * np.arccos(np.longdouble(-1))
# Ordinates filled together lie in one cell [g0, g0 + PHASE_SPREAD), g0 a
# multiple of it; g0 log p is reduced in extended precision, and the rest,
# (gamma - g0) log p < 64 log p, is rounded to at most 64 log p 2^-52.
PHASE_SPREAD = 64.0
# Rows (in ascending n) per block of the running sums behind truncations.
PREFIX_BLOCK = 16
# Ordinates per block that truncation_blocks yields, before rounding up.
YIELD_ROWS = 1024
# The table of _exp_minus_i: e^(-i k c) for k < EXP_TABLE_SIZE, c = 2 pi /
# EXP_TABLE_SIZE, rounded from long double.
EXP_TABLE_SIZE = 1024
_EXP_ANGLES = np.arange(EXP_TABLE_SIZE) * (TWO_PI_EXT / EXP_TABLE_SIZE)
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


def mollifier(table: SieveTable, xi: int) -> DirichletPoly:
    """The truncated 1/zeta mimic: coefficients mu(n) for n <= xi."""
    table._check_range(xi, "xi")
    return DirichletPoly(coeffs=table.mobius[1: xi + 1].astype(np.float64))


def _phase(t: float, logs_ext: np.ndarray) -> np.ndarray:
    """t log n reduced mod 2 pi in extended precision, as doubles.  Its
    error is about |t log n| 2^-64, not the |t| ulp(log n) / 2 +
    ulp(t log n) / 2 (1e-10 at t = 1e5) of a double product."""
    return np.fmod(t * logs_ext, TWO_PI_EXT).astype(float)


def _exp_minus_i(phi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^(-i phi) into `out`, for a float array phi with |phi| < EXP_PHASE_MAX
    and a C-contiguous complex array `out` of its shape.

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


class FillPlan(NamedTuple):
    """Row layout of the multiplicative fill of n^(-i gamma) over a support.

    Row r holds n = ns[r].  Rows go by level Omega(n), the number of prime
    factors counted with multiplicity, ascending n within a level:
    levels[L]:levels[L+1] is level L, so row 0 is n = 1 and level 1 holds
    the primes (none when the support is {1}).  A row n of level >= 2 is
    the product of its cofactor row n/P and its prime row P, P the largest
    prime factor of n; both lie at lower levels.  Elsewhere cofactor and
    prime are -1.
    """
    ns: np.ndarray
    levels: np.ndarray
    cofactor: np.ndarray
    prime: np.ndarray


def fill_plan(support) -> FillPlan:
    """The FillPlan of an ascending support of integers n >= 1, closed by
    n -> n/P and n -> P, so every product finds both factors; n = 1 is
    always a row.  Rows added by the closure carry weight 0 in evaluation.
    """
    support = np.asarray(support, dtype=np.int64)
    top = int(support[-1]) if support.size else 1
    big = np.arange(top + 1)          # largest prime factor; 1 at n = 1
    omega = np.zeros(top + 1, dtype=np.int64)
    for p in build_sieve(max(top, 2)).primes:
        big[p:: p] = p
        pk = p
        while pk <= top:
            omega[pk:: pk] += 1
            pk *= p
    need = np.zeros(top + 1, dtype=bool)
    need[support] = True
    need[1] = True
    for level in range(int(omega[need].max()), 1, -1):
        ns = np.flatnonzero(need & (omega == level))
        need[ns // big[ns]] = True
        need[big[ns]] = True
    ns = np.flatnonzero(need)
    ns = ns[np.argsort(omega[ns], kind="stable")]
    levels = np.searchsorted(omega[ns], np.arange(max(omega[ns][-1], 1) + 2))
    row = np.empty(top + 1, dtype=np.int64)
    row[ns] = np.arange(ns.size)
    composite = omega[ns] >= 2
    cofactor = np.where(composite, row[ns // big[ns]], -1)
    prime = np.where(composite, row[big[ns]], -1)
    return FillPlan(ns=ns, levels=levels, cofactor=cofactor, prime=prime)


def truncation_blocks(poly: DirichletPoly, xis, gammas: np.ndarray):
    """Yield (lo, vals) over consecutive blocks of the ordinates, where
    vals[i, b] = sum_{n<=xis[b]} a_n n^(-1/2-i*gammas[lo+i]); xis in
    [1, poly.length].

    n^(-i gamma) is built by the FillPlan of the support {n <= max xi:
    a_n != 0}: exp(-i gamma log p) for its primes, written in place into
    their rows, then one complex product per composite row, level by level.
    One sparse product with the weights a_n n^(-1/2) then sums the rows:
    the rows with n <= xi are a prefix in ascending n, and a truncation
    adds the running sum over the whole PREFIX_BLOCKs of that prefix to
    the sum of its last partial block.  A fill takes consecutive ordinates
    of one PHASE_SPREAD cell, so a value depends on its gamma and xi alone.
    It holds at most CHUNK_ELEMS (rows x ordinates) values, in buffers
    reused by every fill; a yielded block covers YIELD_ROWS ordinates
    rounded up to whole fills.
    """
    xis = np.asarray(xis, dtype=np.int64)
    if xis.ndim != 1 or xis.size == 0:
        raise InputError("xis must be a non-empty 1-d sequence")
    if xis.min() < 1 or xis.max() > poly.length:
        raise InputError(f"truncation points must lie in [1, {poly.length}]")
    gammas = np.asarray(gammas, dtype=float)
    # coefficient index i holds a_{i+1}, so n <= xi means i < xi
    plan = fill_plan(np.flatnonzero(poly.coeffs[: xis.max()]) + 1)
    ns, levels = plan.ns, plan.levels
    logs = poly.logs[ns - 1]
    w = poly.coeffs[ns - 1] * np.exp(-0.5 * logs)
    by_n = np.argsort(ns)
    ends = np.searchsorted(ns[by_n], xis, side="right")
    n_blocks = ns.size // PREFIX_BLOCK
    full = ends // PREFIX_BLOCK
    cols = [by_n[: n_blocks * PREFIX_BLOCK]] + [
        by_n[f * PREFIX_BLOCK: e] for f, e in zip(full, ends)]
    rows = np.repeat(np.arange(n_blocks + xis.size),
                     [PREFIX_BLOCK] * n_blocks + [c.size for c in cols[1:]])
    cols = np.concatenate(cols)
    sums = csr_matrix((w[cols], (rows, cols)), shape=(n_blocks + xis.size, ns.size))
    real = not np.iscomplexobj(w)     # then one real product sums Re and Im
    primes = slice(levels[1], levels[2])
    logp = logs[primes]
    logp_ext = poly.logs_ext[ns[primes] - 1]
    fill = max(1, CHUNK_ELEMS // ns.size)
    step = fill * -(-YIELD_ROWS // fill)
    width = min(fill, gammas.size)
    # flat buffers for the rows, the running sums and a level's prime rows,
    # viewed per fill as C-contiguous (rows x ordinates) arrays
    buf = np.empty(ns.size * width, dtype=complex)
    run = np.empty((n_blocks + 1) * width, dtype=complex)
    prime_rows = np.empty(max(np.diff(levels[2:]), default=0) * width, dtype=complex)
    phases = np.empty(logp.size * width)
    for lo in range(0, gammas.size, step):
        vals = np.empty((min(step, gammas.size - lo), xis.size), dtype=complex)
        a = 0
        while a < len(vals):
            block = gammas[lo + a: lo + min(a + fill, len(vals))]
            cell = np.floor(block / PHASE_SPREAD)
            far = np.flatnonzero(cell != cell[0])
            block = block[: far[0]] if far.size else block
            m = block.size
            E = buf[: ns.size * m].reshape(ns.size, m)
            E[0] = 1.0
            # p^(-i gamma) = p^(-i g0) p^(-i (gamma - g0)), with the large
            # phase g0 log p reduced in extended precision (_phase)
            g0 = PHASE_SPREAD * cell[0]
            phi = phases[: logp.size * m].reshape(-1, m)
            np.multiply.outer(logp, block - g0, out=phi)
            _exp_minus_i(phi, E[primes])
            E[primes] *= np.exp(-1j * _phase(g0, logp_ext))[:, None]
            for L in range(2, levels.size - 1):
                # both factors lie below the level, so np.take fills it without a copy
                level, below = slice(levels[L], levels[L + 1]), E[: levels[L]]
                pr = prime_rows[: (levels[L + 1] - levels[L]) * m].reshape(-1, m)
                np.take(below, plan.prime[level], axis=0, out=pr, mode="clip")
                np.take(below, plan.cofactor[level], axis=0, out=E[level], mode="clip")
                E[level] *= pr
            S = (sums @ E.view(float)).view(complex) if real else sums @ E
            R = run[: (n_blocks + 1) * m].reshape(n_blocks + 1, m)
            R[0] = 0.0
            np.cumsum(S[:n_blocks], axis=0, out=R[1:])
            vals[a: a + m] = (R[full] + S[n_blocks:]).T
            a += m
        yield lo, vals


def eval_truncations_at_zeros(poly: DirichletPoly, xis, gammas: np.ndarray) -> np.ndarray:
    """Truncations sum_{n<=xi} a_n n^(-1/2-i*gamma) for every xi in xis and
    every ordinate; shape (len(gammas), len(xis)).  The blocks of
    truncation_blocks, concatenated."""
    gammas = np.asarray(gammas, dtype=float)
    out = np.empty((gammas.size, np.size(xis)), dtype=complex)
    for lo, vals in truncation_blocks(poly, xis, gammas):
        out[lo: lo + len(vals)] = vals
    return out


def eval_poly_at_zeros(poly: DirichletPoly, gammas: np.ndarray) -> np.ndarray:
    """Batch evaluation at s = 1/2 + i*gamma for an ordinate array."""
    return eval_truncations_at_zeros(poly, [poly.length], gammas)[:, 0]


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
    """math.fsum of each row of the 2-d array x, bit for bit: one
    math.fsum per row over the exact parts of the columns of x.T
    (_exact_parts), or over the row itself when a term is too large for
    them."""
    if not np.all(np.abs(x) < 2.0**960):
        return [math.fsum(row) for row in x.tolist()]
    parts = _exact_parts(x.T)
    return [math.fsum(row) for row in zip(*parts)] if parts else [0.0] * len(x)


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
    twisted[rows, cols] = coeffs * _exp_minus_i(phase, np.empty(phase.size, dtype=complex))
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
    matrix-matrix product did not).  A pair's off-diagonal sum over the
    blocks of R is exactly rounded (math.fsum), and so are its diagonal
    and weighted norms, from the group's zero-padded coefficient rows
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
