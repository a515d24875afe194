"""Arithmetic-function tables (Mobius mu and the primes), von Mangoldt's
Lambda derived from the primes, and the elementary sums and coefficient
convolutions built on them.

The Mobius array is indexed by the integer itself (index 0 is present but
unused), so ``table.mobius[n]`` is mu(n).  All floating-point sums go through
``math.fsum`` (exactly rounded), which makes every query deterministic to
the last bit and independent of summation order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import store
from .errors import InputError, NumericsError, ValidationError

MEMORY_CAP = 10**8
SEGMENT = 1 << 16           # integers per numpy pass over the table
ALPHA_BLOCK = 1 << 14       # alpha_coefficients: (k, l) pairs per np.add.at
LOG_CHUNK = 1 << 12         # _prime_logs: primes per list of Python ints
SIEVE_MAGIC = "# zml-sieve v4"

THREE_OVER_PI2 = 3.0 / math.pi**2
SIX_OVER_PI2 = 6.0 / math.pi**2


@dataclass(frozen=True)
class SieveTable:
    """Precomputed mu(n) and the primes for 1 <= n <= limit; Lambda(n)
    comes from the primes (see mangoldt).

    Attributes:
        limit: Largest tabulated integer N.
        mobius: Read-only int8 array of length N+1, mobius[n] = mu(n), mobius[0] = 0.
        primes: Read-only ascending int64 array of the primes <= N.
    """
    limit: int
    mobius: np.ndarray
    primes: np.ndarray

    def _check_range(self, x: int, name: str = "x") -> None:
        if not 1 <= x <= self.limit:
            raise InputError(f"{name} = {x} outside table range 1..{self.limit}")


def _mobius_and_primes(limit: int) -> tuple:
    """mu(0..N) and the primes <= N, sieving only with the primes
    p <= sqrt(N).

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
    del rad, r              # r is a view of rad: free both before the join
    primes = np.concatenate([small, *large]).astype(np.int64, copy=False)
    return mobius, primes


def build_sieve(limit: int) -> SieveTable:
    """Sieve mu and the primes up to ``limit``.

    Args:
        limit: Upper bound N >= 2, at most MEMORY_CAP.

    Returns:
        A fully populated, immutable SieveTable.
    """
    if limit < 2:
        raise InputError(f"limit = {limit} below minimum 2")
    if limit > MEMORY_CAP:
        raise InputError(f"limit = {limit} exceeds memory budget {MEMORY_CAP}")
    if limit >= 2**31:
        raise InputError(f"limit = {limit} exceeds the int32 radical's range")

    mobius, primes = _mobius_and_primes(limit)
    for arr in (mobius, primes):
        arr.setflags(write=False)       # as in a table loaded from its cache
    return SieveTable(limit=limit, mobius=mobius, primes=primes)


def mangoldt(table: SieveTable, x: float) -> float:
    """Lambda(x): np.log(p) when x is, to 1e-9, an integer n = p^k, and
    zero otherwise.  p is the least stored prime dividing n, or n itself
    when no prime <= sqrt(n) divides it."""
    n = round(x)
    if abs(x - n) > 1e-9 or n < 2:
        return 0.0
    table._check_range(n)
    small = table.primes[: np.searchsorted(table.primes, math.isqrt(n), side="right")]
    divisors = small[n % small == 0]
    p = int(divisors[0]) if len(divisors) else n
    while n % p == 0:
        n //= p
    return float(np.log(np.float64(p))) if n == 1 else 0.0


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


def _squarefree_sums(table: SieveTable, xis, terms) -> list:
    """sum_{n<=xi} terms(n) over the squarefree n, for every xi of xis (any
    order, repeats allowed), each bit-identical to one math.fsum over its
    own terms.  terms maps an int64 array of n to the float64 array of
    their terms.

    One pass over n up to the largest xi, SEGMENT integers at a time, each
    stretch cut at the xi: exact parts (_exact_parts) of every stretch's
    terms are carried, and each xi's sum is one math.fsum over the parts
    so far.
    """
    for xi in xis:
        table._check_range(xi, "xi")
    sums, parts, lo = {}, [], 1
    for xi in sorted(set(xis)):
        for ns in _squarefree(table, lo, xi):
            parts += _exact_parts(terms(ns))
        sums[xi] = math.fsum(parts)
        lo = xi + 1
    return [sums[xi] for xi in xis]


def squarefree_harmonics(table: SieveTable, xis) -> list:
    """sum_{n<=xi} mu(n)^2 / n for every xi of xis, exactly rounded (see
    _squarefree_sums).  The sums grow like (6/pi^2) log xi + O(1); the
    report's neg4 section records the O(1) drift, not asserted here.
    """
    return _squarefree_sums(table, xis, lambda ns: 1.0 / ns)


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


def _prime_logs(primes: np.ndarray) -> np.ndarray:
    """math.log of each prime, for alpha_coefficients (the tests' oracle)
    only; np.log can differ from it in the last bit.  The primes go to
    Python ints LOG_CHUNK at a time."""
    logs = np.empty(len(primes))
    for lo in range(0, len(primes), LOG_CHUNK):
        chunk = primes[lo: lo + LOG_CHUNK].tolist()
        logs[lo: lo + len(chunk)] = np.fromiter(map(math.log, chunk), np.float64, len(chunk))
    return logs


def _prime_powers(primes: np.ndarray, n_max: int) -> tuple:
    """The prime powers k <= n_max of the ascending primes <= n_max, level
    by level (the primes, then their squares, cubes, ...), and math.log of
    each one's prime, for alpha_coefficients only.  The primes with
    p^e <= n_max are a prefix of ``primes``."""
    logs = _prime_logs(primes)
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
    from math.log, as in those progressions; mangoldt's np.log can differ
    from it in the last bit.  Cost: about (6/pi^2) sum_k min(xi, n_max/k) pairs, at most
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
    """sum_{n<=xi} alpha_n mu(n) / n, with its predicted main term
    -(3/pi^2) (log xi)^2, so callers can report the ratio.

    No alpha vector is built.  Only squarefree n count, and for them the
    cut l <= xi never binds, so alpha_n mu(n) = -mu(n)^2 log n: the value
    is the exactly rounded sum of the terms -np.log(n) / n over the
    squarefree n <= xi (see _squarefree_sums).  It can differ in the last
    bit from the exactly rounded sum of alpha_coefficients' terms, whose
    alpha_n adds math.log of n's primes one by one.
    """
    [value] = _squarefree_sums(table, [xi], lambda ns: -np.log(ns) / ns)
    pred = -THREE_OVER_PI2 * math.log(xi) ** 2
    return AlphaMobiusSum(value=value, prediction=pred)


# ---------------------------------------------------------------------------
# binary cache
# ---------------------------------------------------------------------------

def save_sieve(table: SieveTable, path) -> None:
    """Write the table atomically as a store container, kind SIEVE_MAGIC
    with keys limit and primes (the prime count), whose payload is the
    primes as little-endian int64, then table.mobius (0, mu(1..limit)) as bytes."""
    store.write(path, SIEVE_MAGIC, {"limit": table.limit, "primes": len(table.primes)},
                [table.primes.astype("<i8"), table.mobius])


def load_sieve(path, limit: int) -> SieveTable:
    """Load a cached sieve (see save_sieve) after store.read's checks.  The
    limit must be the requested one, the payload 8 * count + limit + 1
    bytes, and the primes must ascend from 2 to at most the limit, with
    mu(p) = -1 and no factor among the smaller stored primes q with
    q^3 <= limit: a composite n with mu(n) = -1 has three or more prime
    factors, the least at most n^(1/3), checked SEGMENT primes at a time
    (an int cube root keeps searchsorted from copying the primes as
    floats).  The table's arrays are read-only views of the payload."""
    fields, payload = store.read(path, SIEVE_MAGIC, {"limit": int, "primes": int})
    count = fields["primes"]
    if fields["limit"] != limit:
        raise ValidationError(f"{path}: cached limit {fields['limit']} != requested {limit}")
    if count < 0 or len(payload) != (want := 8 * count + limit + 1):
        raise ValidationError(f"{path}: payload of {len(payload)} bytes, expected {want}")
    primes = np.frombuffer(payload, dtype="<i8", count=count)
    mobius = np.frombuffer(payload, dtype=np.int8, offset=8 * count)
    small = primes[: np.searchsorted(primes, int(limit ** (1 / 3) + 1), side="right")]
    if not (count and primes[0] == 2 and primes[-1] <= limit and mobius[0] == 0
            and np.all(primes[1:] > primes[:-1]) and np.all(mobius[primes] == -1)
            and not any(np.any(primes[max(lo, k + 1): lo + SEGMENT] % q == 0)
                        for lo in range(0, count, SEGMENT) for k, q in enumerate(small))):
        raise ValidationError(f"{path}: damaged prime list")
    return SieveTable(limit=limit, mobius=mobius, primes=primes)
