"""Arithmetic functions, each sieved by its caller up to the integers it
reads: Mobius mu, von Mangoldt's Lambda by trial division, coefficient
convolutions built on them, and sums over the squarefree integers,
streamed a segment at a time.

The Mobius array is indexed by the integer itself (index 0 is present but
unused), so ``build_sieve(N)[n]`` is mu(n).  All floating-point sums go through
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
SEGMENT = 1 << 16           # integers per numpy pass
ALPHA_BLOCK = 1 << 14       # alpha_coefficients: (k, l) pairs per np.add.at
LOG_CHUNK = 1 << 12         # _prime_logs: primes per list of Python ints
SIEVE_MAGIC = "# zml-sieve v4"

THREE_OVER_PI2 = 3.0 / math.pi**2
SIX_OVER_PI2 = 6.0 / math.pi**2


def _primes_upto(n: int) -> np.ndarray:
    """The primes <= n, ascending, by the sieve of Eratosthenes."""
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p:: p] = False
    return np.flatnonzero(is_prime)


def _mobius(limit: int) -> np.ndarray:
    """mu(0..N), sieving only with the primes p <= sqrt(N).

    rad[n] is the product of the small primes dividing n, so it divides n
    and fits int32 for N < 2^31.  A squarefree n with rad[n] < n has exactly
    one more prime factor, above sqrt(N), and takes one more sign flip.
    rad is compared with n one SEGMENT at a time.
    """
    root = math.isqrt(limit)
    mobius = np.ones(limit + 1, dtype=np.int8)
    mobius[0] = 0
    rad = np.ones(limit + 1, dtype=np.int32)
    for p in _primes_upto(root).tolist():
        mobius[p:: p] *= -1
        mobius[p * p:: p * p] = 0
        rad[p:: p] *= p
    offsets = np.arange(min(SEGMENT, limit + 1), dtype=np.int32)
    for lo in range(root + 1, limit + 1, SEGMENT):
        r = rad[lo: lo + SEGMENT]
        mu = mobius[lo: lo + SEGMENT]
        np.negative(mu, out=mu, where=r < offsets[: len(r)] + lo)
    return mobius


def build_sieve(limit: int) -> np.ndarray:
    """mu(0..limit) as a read-only int8 array, mobius[n] = mu(n), mobius[0] = 0.

    Args:
        limit: Upper bound N >= 2, at most MEMORY_CAP.
    """
    if limit < 2:
        raise InputError(f"limit = {limit} below minimum 2")
    if limit > MEMORY_CAP:
        raise InputError(f"limit = {limit} exceeds memory budget {MEMORY_CAP}")
    if limit >= 2**31:
        raise InputError(f"limit = {limit} exceeds the int32 radical's range")
    mobius = _mobius(limit)
    mobius.setflags(write=False)        # as load_sieve's view is
    return mobius


def _in_range(n: int, name: str) -> None:
    if not 1 <= n <= MEMORY_CAP:
        raise InputError(f"{name} = {n} outside range 1..{MEMORY_CAP}")


def _mobius_upto(n: int, name: str) -> np.ndarray:
    """mu(0..max(n, 2)) by build_sieve, for 1 <= n <= MEMORY_CAP."""
    _in_range(n, name)
    return build_sieve(max(n, 2))


def mangoldt(x: float) -> float:
    """Lambda(x): np.log(p) when x is, to 1e-9, an integer n = p^k, and
    zero otherwise.  p is the least prime <= sqrt(n) dividing n, found by
    trial division, or n itself when there is none.  InputError for an x
    that is not finite or is an integer above MEMORY_CAP."""
    if not math.isfinite(x):
        raise InputError(f"x = {x} is not finite")
    n = round(x)
    if abs(x - n) > 1e-9 or n < 2:
        return 0.0
    if n > MEMORY_CAP:
        raise InputError(f"x = {x} outside range 1..{MEMORY_CAP}")
    small = _primes_upto(math.isqrt(n))
    divisors = small[n % small == 0]
    p = int(divisors[0]) if len(divisors) else n
    while n % p == 0:
        n //= p
    return float(np.log(np.float64(p))) if n == 1 else 0.0


def mertens(x: int) -> int:
    """M(x) = sum_{n<=x} mu(n), exact integer arithmetic."""
    return int(_mobius_upto(x, "x")[1: x + 1].sum(dtype=np.int64))


def _exact_parts(x: np.ndarray) -> np.ndarray:
    """Rows whose column sums add up exactly to the column sums of the
    2-d array x, each computed without rounding
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
        q = sigma + x
        q -= sigma
        parts.append(q.sum(axis=0))
        x = x - q
    return np.reshape(parts, (len(parts), x.shape[1]))


def _merge_parts(carry: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Two sets of exact-part rows over the same columns, compressed into
    one set of a few rows.  Callers extract each stretch on its own first
    (_exact_parts) and never join raw terms to the carry."""
    return _exact_parts(np.concatenate([carry, parts])) if len(carry) else parts


def _prefix_fsums(x: np.ndarray, ends) -> list:
    """math.fsum of each column of the 2-d x[:end], bit for bit, as a list
    per end of ends (any order, repeats and 0 allowed): one pass over the
    rows, carrying their exact parts (_merge_parts) from end to end, and
    one math.fsum per part column at each end."""
    carry, sums, lo = np.zeros((0, x.shape[1])), {}, 0
    for end in sorted(set(ends)):
        carry, lo = _merge_parts(carry, _exact_parts(x[lo:end])), end
        sums[end] = [math.fsum(col) for col in carry.T.tolist()]
    return [sums[end] for end in ends]


def _squarefree(lo: int, hi: int):
    """The squarefree n in [lo, hi], ascending, as int64 arrays covering
    SEGMENT integers each, with no table: per segment, one slice crosses
    out the multiples of each prime square below SEGMENT, and one step all
    larger squares p^2 <= hi, as each hits at most one n of the segment."""
    squares = _primes_upto(math.isqrt(hi)) ** 2
    small, large = squares[squares < SEGMENT].tolist(), squares[squares >= SEGMENT]
    for a in range(lo, hi + 1, SEGMENT):
        keep = np.ones(min(SEGMENT, hi + 1 - a), dtype=bool)
        for q in small:
            keep[-a % q:: q] = False
        first = -a % large              # offset of each one's first multiple >= a
        keep[first[first < len(keep)]] = False
        yield np.flatnonzero(keep) + a


def _squarefree_sums(xis, terms) -> list:
    """sum_{n<=xi} terms(n) over the squarefree n, for every xi of xis (any
    order, repeats allowed), each bit-identical to one math.fsum over its
    own terms.  terms maps an int64 array of n to the float64 array of
    their terms.

    One pass over n up to the largest xi, SEGMENT integers at a time, each
    stretch cut at the xi: the exact parts of the terms so far are carried
    (_merge_parts), and each xi's sum is one math.fsum over them.
    """
    for xi in xis:
        _in_range(xi, "xi")
    sums, parts, lo = {}, np.zeros((0, 1)), 1
    for xi in sorted(set(xis)):
        for ns in _squarefree(lo, xi):
            parts = _merge_parts(parts, _exact_parts(terms(ns)[:, None]))
        sums[xi] = math.fsum(parts[:, 0].tolist())
        lo = xi + 1
    return [sums[xi] for xi in xis]


def squarefree_harmonics(xis) -> list:
    """sum_{n<=xi} mu(n)^2 / n for every xi of xis, exactly rounded (see
    _squarefree_sums).  The sums grow like (6/pi^2) log xi + O(1); the
    report's neg4 section records the O(1) drift, not asserted here.
    """
    return _squarefree_sums(xis, lambda ns: 1.0 / ns)


def squarefree_harmonic(xi: int) -> float:
    """sum_{n<=xi} mu(n)^2 / n, exactly rounded (see squarefree_harmonics)."""
    return squarefree_harmonics([xi])[0]


def prime_log_sum(xi: int) -> float:
    """sum over primes p <= xi of log(p)/p (= log xi + O(1))."""
    _in_range(xi, "xi")
    ps = _primes_upto(xi).astype(np.float64)
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


def alpha_coefficients(xi: int, n_max: int) -> AlphaVector:
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
    mobius = _mobius_upto(xi, "xi")[: xi + 1]
    _in_range(n_max, "n_max")
    ls = np.flatnonzero(mobius).astype(np.int32)
    mus = mobius[ls]
    ks, logs = _prime_powers(_primes_upto(n_max), n_max)
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


def alpha_mobius_sum(xi: int) -> AlphaMobiusSum:
    """sum_{n<=xi} alpha_n mu(n) / n, with its predicted main term
    -(3/pi^2) (log xi)^2, so callers can report the ratio.

    No alpha vector is built.  Only squarefree n count, and for them the
    cut l <= xi never binds, so alpha_n mu(n) = -mu(n)^2 log n: the value
    is the exactly rounded sum of the terms -np.log(n) / n over the
    squarefree n <= xi (see _squarefree_sums).  It can differ in the last
    bit from the exactly rounded sum of alpha_coefficients' terms, whose
    alpha_n adds math.log of n's primes one by one.
    """
    def terms(ns):
        t = np.log(ns)      # in place: -(log n / n) is -log n / n bit for bit
        t /= ns
        return np.negative(t, out=t)

    [value] = _squarefree_sums([xi], terms)
    pred = -THREE_OVER_PI2 * math.log(xi) ** 2
    return AlphaMobiusSum(value=value, prediction=pred)


# ---------------------------------------------------------------------------
# binary container
# ---------------------------------------------------------------------------

def load_sieve(path, limit: int) -> np.ndarray:
    """Load a sieve container: kind SIEVE_MAGIC, keys limit and primes (the
    prime count), and the primes as little-endian int64, then mobius as
    bytes.  No step writes or reads one; it stays while perfbench's tracer
    names it (the tests write their own containers).  After store.read's
    checks, the limit must be the requested one, the payload
    8 * count + limit + 1 bytes, and the primes must ascend from 2 to at
    most the limit, with mu(p) = -1 and no factor among the smaller stored
    primes q with q^3 <= limit: a composite n with mu(n) = -1 has three or
    more prime factors, the least at most n^(1/3), checked SEGMENT primes
    at a time (an int cube root keeps searchsorted from copying the primes
    as floats).  Returns mu(0..limit), a read-only view of the payload, as
    build_sieve does."""
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
    return mobius
