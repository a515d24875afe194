"""Arithmetic-function tables (Mobius mu, von Mangoldt Lambda, primes) and
the elementary sums and coefficient convolutions built on them.

Arrays are indexed by the integer itself (index 0 is present but unused), so
``table.mobius[n]`` is mu(n).  All floating-point sums go through
``math.fsum`` (exactly rounded), which makes every query deterministic to
the last bit and independent of summation order.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, ValidationError

MEMORY_CAP = 10**8
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

    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p:: p] = False
    primes = np.nonzero(is_prime)[0].astype(np.int64)

    mobius = np.ones(limit + 1, dtype=np.int8)
    mobius[0] = 0
    for p in primes:
        mobius[p::p] *= -1
        sq = int(p) * int(p)
        if sq <= limit:
            mobius[sq::sq] = 0

    mangoldt = np.zeros(limit + 1, dtype=np.float64)
    logp = np.log(primes.astype(np.float64))
    mangoldt[primes] = logp
    for p, lp in zip(primes, logp):
        if p * p > limit:
            break
        pk = int(p) * int(p)
        while pk <= limit:
            mangoldt[pk] = lp
            pk *= int(p)

    return SieveTable(limit=limit, mobius=mobius, mangoldt=mangoldt, primes=primes)


def mertens(table: SieveTable, x: int) -> int:
    """M(x) = sum_{n<=x} mu(n), exact integer arithmetic."""
    table._check_range(x)
    return int(table.mobius[1: x + 1].sum(dtype=np.int64))


def squarefree_harmonic(table: SieveTable, xi: int) -> float:
    """sum_{n<=xi} mu(n)^2 / n, exactly-rounded accumulation.

    Grows like (6/pi^2) log xi + O(1); the O(1) envelope is pinned by a
    pilot run, not asserted here.
    """
    table._check_range(xi, "xi")
    ns = np.nonzero(table.mobius[1: xi + 1])[0] + 1
    return math.fsum(1.0 / ns)


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


def alpha_coefficients(table: SieveTable, xi: int, n_max: int) -> AlphaVector:
    """Tabulate alpha_n for n <= n_max with truncation parameter xi.

    Iterates over prime powers k (the support of Lambda) and adds
    Lambda(k) * mu(l) along the arithmetic progression n = k*l, l <= xi,
    so the cost is sum over prime powers of min(xi, n_max/k) rather than
    divisor-enumeration cost.
    """
    table._check_range(xi, "xi")
    table._check_range(n_max, "n_max")
    values = np.zeros(n_max + 1, dtype=np.float64)
    for p in table.primes:
        p = int(p)
        if p > n_max:
            break
        lp = math.log(p)
        k = p
        while k <= n_max:
            n_l = min(xi, n_max // k)
            values[k:: k][:n_l] += lp * table.mobius[1: n_l + 1]
            k *= p
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
    alpha = alpha_coefficients(table, xi, xi)
    ns = np.nonzero(table.mobius[1: xi + 1])[0] + 1
    terms = alpha.values[ns] * table.mobius[ns] / ns
    value = math.fsum(terms)
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
    """Load a cached sieve; the stored limit must equal the requested one.

    Primes are reconstructed from the Lambda column (n is prime exactly when
    Lambda(n) = log n).
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(SIEVE_MAGIC))
        if magic != SIEVE_MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}")
        (stored_limit,) = struct.unpack("<Q", fh.read(8))
        if stored_limit != limit:
            raise ValidationError(
                f"{path}: cached limit {stored_limit} != requested {limit}"
            )
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
