"""Arithmetic-function tables (Mobius mu, von Mangoldt Lambda, primes) and
the elementary sums and coefficient convolutions built on them.

Arrays are indexed by the integer itself (index 0 is present but unused), so
``table.mobius[n]`` is mu(n).  All floating-point sums go through
``math.fsum`` (exactly rounded), which makes every query deterministic to
the last bit and independent of summation order.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericsError, ValidationError

MEMORY_CAP = 10**8
SEGMENT = 1 << 16           # integers per numpy pass over the table
ALPHA_BLOCK = 1 << 14       # alpha_coefficients: (k, l) pairs per np.add.at
SIEVE_MAGIC = b"ZML-SIEVE1"

THREE_OVER_PI2 = 3.0 / math.pi**2
SIX_OVER_PI2 = 6.0 / math.pi**2


@dataclass(frozen=True)
class SieveTable:
    """Precomputed mu(n), Lambda(n) and primes for 1 <= n <= limit.

    Attributes:
        limit: Largest tabulated integer N.
        mobius: int8 array of length N+1, mobius[n] = mu(n); index 0 unused.
        mangoldt: float64 array of length N+1, mangoldt[n] = Lambda(n)
            in natural-log units; index 0 unused.
        primes: Ascending int64 array of the primes <= N.
    """
    limit: int
    mobius: np.ndarray
    mangoldt: np.ndarray
    primes: np.ndarray

    def _check_range(self, x: int, name: str = "x") -> None:
        if not 1 <= x <= self.limit:
            raise InputError(f"{name} = {x} outside table range 1..{self.limit}")


def _mobius_and_primes(limit: int) -> tuple:
    """mu(0..N), the primes <= sqrt(N) and all primes <= N, sieving only
    with the primes p <= sqrt(N).

    rad[n] is the product of the small primes dividing n, so it divides n
    and fits int32 for N < 2^31.  A squarefree n with rad[n] < n has exactly one more
    prime factor, above sqrt(N); an n > sqrt(N) with rad[n] = 1 is itself
    such a prime.  rad is compared with n one SEGMENT at a time.
    """
    root = math.isqrt(limit)
    is_small = np.ones(root + 1, dtype=bool)
    is_small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_small[p]:
            is_small[p * p:: p] = False
    small = np.nonzero(is_small)[0]

    mobius = np.ones(limit + 1, dtype=np.int8)
    mobius[0] = 0
    rad = np.ones(limit + 1, dtype=np.int32)
    for p in small.tolist():
        mobius[p:: p] *= -1
        mobius[p * p:: p * p] = 0
        rad[p:: p] *= p
    large = []
    offsets = np.arange(SEGMENT, dtype=np.int32)
    for lo in range(root + 1, limit + 1, SEGMENT):
        r = rad[lo: lo + SEGMENT]
        mu = mobius[lo: lo + SEGMENT]
        np.negative(mu, out=mu, where=r < offsets[: len(r)] + lo)
        large.append(np.flatnonzero(r == 1) + lo)
    primes = np.concatenate([small, *large]).astype(np.int64, copy=False)
    return mobius, small, primes


def build_sieve(limit: int, memory_cap: int = MEMORY_CAP) -> SieveTable:
    """Sieve mu, Lambda and the primes up to ``limit``.

    Args:
        limit: Upper bound N >= 2.
        memory_cap: Refuse limits above this (default 1e8).

    Returns:
        A fully populated, immutable SieveTable.
    """
    if limit < 2:
        raise InputError(f"limit = {limit} below minimum 2")
    if limit > memory_cap:
        raise InputError(f"limit = {limit} exceeds memory budget {memory_cap}")
    if limit >= 2**31:
        raise InputError(f"limit = {limit} exceeds the int32 radical's range")

    mobius, small, primes = _mobius_and_primes(limit)
    mangoldt = np.zeros(limit + 1, dtype=np.float64)
    logp = np.log(primes.astype(np.float64))
    mangoldt[primes] = logp
    for p, lp in zip(small.tolist(), logp[: len(small)].tolist()):
        pk = p * p
        while pk <= limit:
            mangoldt[pk] = lp
            pk *= p

    return SieveTable(limit=limit, mobius=mobius, mangoldt=mangoldt, primes=primes)


def mertens(table: SieveTable, x: int) -> int:
    """M(x) = sum_{n<=x} mu(n), exact integer arithmetic."""
    table._check_range(x)
    return int(table.mobius[1: x + 1].sum(dtype=np.int64))


def _exact_parts(x: np.ndarray) -> list:
    """Arrays whose column sums add up exactly to the column sums of the
    2-d array x (a 1-d x is one column), each computed without rounding
    (Rump, Ogita and Oishi's ExtractVector, SIAM J. Sci. Comput. 31 (2008)).

    With sigma = 2^k >= 2^M max|x| per column and 2^M >= rows + 2,
    q = (sigma + x) - sigma and x - q are exact, every q is a multiple of
    ulp(sigma)/2 below sigma / 2^M, so any order of summing q is exact;
    the residual x - q is at most ulp(sigma) and is extracted again until
    it is zero.  One math.fsum over all parts ever produced for a column is
    therefore bit-identical to one math.fsum over all its values.
    """
    if not np.all(np.abs(x) < 2.0**960):
        raise NumericsError("non-finite or huge term in an exact sum")
    M = (x.shape[0] + 2).bit_length()
    parts = []
    while np.any(x):
        sigma = np.ldexp(1.0, np.frexp(np.abs(x).max(axis=0))[1] + M)
        q = (sigma + x) - sigma
        parts.append(q.sum(axis=0))
        x = x - q
    return parts


def _squarefree(table: SieveTable, lo: int, hi: int):
    """The squarefree n in [lo, hi], ascending, as int64 arrays covering
    SEGMENT integers each."""
    for a in range(lo, hi + 1, SEGMENT):
        ns = np.flatnonzero(table.mobius[a: min(a + SEGMENT, hi + 1)])
        ns += a
        yield ns


def squarefree_harmonics(table: SieveTable, xis) -> list:
    """sum_{n<=xi} mu(n)^2 / n for every xi of xis (any order, repeats
    allowed), each bit-identical to one math.fsum over its own terms.

    One pass over n up to the largest xi, SEGMENT integers at a time, each
    stretch cut at the xi: exact parts (_exact_parts) of every stretch's
    reciprocals are carried, and each xi's sum is one math.fsum over the
    parts so far.  The sums grow like (6/pi^2) log xi + O(1); the O(1)
    envelope is pinned by a pilot run, not asserted here.
    """
    for xi in xis:
        table._check_range(xi, "xi")
    sums, parts, lo = {}, [], 1
    for xi in sorted(set(xis)):
        for ns in _squarefree(table, lo, xi):
            parts += _exact_parts(1.0 / ns)
        sums[xi] = math.fsum(parts)
        lo = xi + 1
    return [sums[xi] for xi in xis]


def squarefree_harmonic(table: SieveTable, xi: int) -> float:
    """sum_{n<=xi} mu(n)^2 / n, exactly rounded (see squarefree_harmonics)."""
    return squarefree_harmonics(table, [xi])[0]


def prime_log_sum(table: SieveTable, xi: int) -> float:
    """sum over primes p <= xi of log(p)/p (= log xi + O(1))."""
    table._check_range(xi, "xi")
    ps = table.primes[table.primes <= xi].astype(np.float64)
    return math.fsum(np.log(ps) / ps)


@dataclass(frozen=True)
class AlphaVector:
    """The convolution alpha_n = sum_{k*l = n, l <= xi} Lambda(k) mu(l).

    values[n] holds alpha_n for 1 <= n <= n_max (index 0 unused).  For
    n <= xi the constraint l <= xi is inactive and alpha_n collapses to
    -mu(n) log n; beyond xi the truncation matters.  |alpha_n| <= log n
    always.
    """
    xi: int
    values: np.ndarray

    @property
    def n_max(self) -> int:
        return len(self.values) - 1


def _prime_powers(primes: np.ndarray, n_max: int) -> tuple:
    """The prime powers k <= n_max of the ascending primes <= n_max, level
    by level (the primes, then their squares, cubes, ...), and math.log of
    each one's prime.  The primes with p^e <= n_max are a prefix of
    ``primes``."""
    logs = np.fromiter(map(math.log, primes.tolist()), np.float64, len(primes))
    levels = [primes]
    while True:
        m = int(np.count_nonzero(levels[-1] <= n_max // primes[: len(levels[-1])]))
        if not m:
            break
        levels.append(levels[-1][:m] * primes[:m])
    return np.concatenate(levels), np.concatenate([logs[: len(k)] for k in levels])


def alpha_coefficients(table: SieveTable, xi: int, n_max: int) -> AlphaVector:
    """Tabulate alpha_n for n <= n_max with truncation parameter xi.

    Every pair (k, l) of a prime power k and a squarefree l <= min(xi,
    n_max/k) adds Lambda(k) mu(l) to alpha_{kl}; the pairs with mu(l) = 0
    add +0.0 and are left out.  The pairs are listed k by k (the primes
    ascending, then the squares, ...) and l ascending, and added
    ALPHA_BLOCK at a time with np.add.at, which adds in input order.  An
    alpha_n gets its terms either from the primes of a squarefree n or from
    p^(a-1) and p^a for the one p with p^a || n, a >= 2, so every alpha_n
    receives the same additions in the same order as along the per-prime
    progressions p, p^2, ... and is bit-identical to them.  log p comes
    from math.log, as the table's Lambda (np.log) can differ in the last
    bit.  Cost: about (6/pi^2) sum_k min(xi, n_max/k) pairs, at most
    0.6 n_max (log log n_max + 1), of numpy work, one math.log per prime
    and one Python iteration per block.
    """
    table._check_range(xi, "xi")
    table._check_range(n_max, "n_max")
    ls = np.concatenate([ns.astype(np.int32) for ns in _squarefree(table, 1, xi)])
    mus = table.mobius[ls]
    primes = table.primes[: np.searchsorted(table.primes, n_max, side="right")]
    ks, logs = _prime_powers(primes, n_max)
    counts = np.searchsorted(ls, np.minimum(xi, n_max // ks), side="right")
    total = int(counts.sum())
    ends = np.cumsum(counts)
    starts = np.subtract(ends, counts, out=counts)
    values = np.zeros(n_max + 1, dtype=np.float64)
    for lo in range(0, total, ALPHA_BLOCK):
        hi = min(lo + ALPHA_BLOCK, total)
        first = np.searchsorted(ends, lo, side="right")
        last = np.searchsorted(ends, hi - 1, side="right") + 1
        which = np.repeat(
            np.arange(first, last),
            np.minimum(ends[first:last], hi) - np.maximum(starts[first:last], lo),
        )
        pos = np.arange(lo, hi) - starts[which]
        np.add.at(values, ks[which] * ls[pos], logs[which] * mus[pos])
    return AlphaVector(xi=xi, values=values)


class AlphaMobiusSum(NamedTuple):
    value: float
    prediction: float


def alpha_mobius_sum(table: SieveTable, xi: int) -> AlphaMobiusSum:
    """sum_{n<=xi} alpha_n mu(n) / n, with its predicted main term.

    Returns the directly-convolved sum together with the companion
    prediction -(3/pi^2) (log xi)^2 so callers can report the ratio.
    """
    table._check_range(xi, "xi")
    alpha = alpha_coefficients(table, xi, xi).values
    parts = []
    for ns in _squarefree(table, 1, xi):
        terms = alpha[ns]
        terms *= table.mobius[ns]
        terms /= ns
        parts += _exact_parts(terms)
    value = math.fsum(parts)
    pred = -THREE_OVER_PI2 * math.log(xi) ** 2
    return AlphaMobiusSum(value=value, prediction=pred)


# ---------------------------------------------------------------------------
# binary cache
# ---------------------------------------------------------------------------

def save_sieve(table: SieveTable, path) -> None:
    """Write the table as magic + little-endian u64 limit + mu bytes + Lambda."""
    with open(path, "wb") as fh:
        fh.write(SIEVE_MAGIC)
        fh.write(struct.pack("<Q", table.limit))
        fh.write(table.mobius[1:].tobytes())
        fh.write(table.mangoldt[1:].astype("<f8").tobytes())


def load_sieve(path, limit: int) -> SieveTable:
    """Load a cached sieve; the stored limit must equal the requested one,
    and the file must hold exactly magic + 8 + 9 * limit bytes.

    Primes are reconstructed from the Lambda column (n is prime exactly when
    Lambda(n) = log n).
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(SIEVE_MAGIC))
        if magic != SIEVE_MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise ValidationError(f"{path}: truncated header")
        (stored_limit,) = struct.unpack("<Q", header)
        if stored_limit != limit:
            raise ValidationError(
                f"{path}: cached limit {stored_limit} != requested {limit}"
            )
        size = os.fstat(fh.fileno()).st_size
        want = len(SIEVE_MAGIC) + 8 + 9 * limit
        if size != want:
            raise ValidationError(f"{path}: {size} bytes, expected {want}")
        mobius = np.empty(limit + 1, dtype=np.int8)
        mobius[0] = 0
        mobius[1:] = np.frombuffer(fh.read(limit), dtype=np.int8)
        mangoldt = np.zeros(limit + 1, dtype=np.float64)
        mangoldt[1:] = np.frombuffer(fh.read(8 * limit), dtype="<f8")
    candidates = np.nonzero(mangoldt)[0]
    logs = np.log(candidates.astype(np.float64))
    primes = candidates[np.abs(mangoldt[candidates] - logs) < 1e-9 * logs]
    return SieveTable(
        limit=limit, mobius=mobius, mangoldt=mangoldt, primes=primes.astype(np.int64)
    )
