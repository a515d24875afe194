import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from zml import sieve
from zml.errors import InputError

import oracle_values as ov


def test_mobius_first_ten(sieve_10k):
    assert sieve_10k[1:11].tolist() == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_mangoldt_examples():
    assert sieve.mangoldt(8) == pytest.approx(math.log(2), rel=1e-15)
    assert sieve.mangoldt(6) == 0.0
    assert sieve.mangoldt(1) == 0.0
    assert sieve.mangoldt(9) == pytest.approx(math.log(3), rel=1e-15)
    assert sieve.mangoldt(8 + 1e-10) == sieve.mangoldt(8)
    assert sieve.mangoldt(8.5) == 0.0
    assert sieve.mangoldt(10**4 - 1e-12) == 0.0     # 10^4 = 2^4 5^4
    assert sieve.mangoldt(sieve.MEMORY_CAP + 0.5) == 0.0
    with pytest.raises(InputError, match=f"x = {sieve.MEMORY_CAP + 1} outside range"):
        sieve.mangoldt(sieve.MEMORY_CAP + 1)
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(InputError, match=f"x = {x} is not finite"):
            sieve.mangoldt(x)


def test_mangoldt_up_to_the_memory_cap():
    # trial division by the primes up to sqrt(n) alone: no sieve up to n
    import tracemalloc

    sieve.mangoldt(1000)
    tracemalloc.start()
    try:
        got = sieve.mangoldt(99_999_989)            # the largest prime below 10^8
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == float(np.log(np.float64(99_999_989)))
    assert peak < 2**20
    assert sieve.mangoldt(2**26) == float(np.log(np.float64(2)))
    assert sieve.mangoldt(sieve.MEMORY_CAP) == 0.0      # 2^8 5^8


def test_primes_ascending():
    p = sieve._primes_upto(10**4)
    assert p[0] == 2 and p[-1] <= 10**4
    assert np.all(np.diff(p) > 0)
    assert len(p) == 1229  # pi(10^4)


def test_build_rejects_bad_limits(monkeypatch):
    with pytest.raises(InputError, match="minimum 2"):
        sieve.build_sieve(1)
    with pytest.raises(InputError, match="memory budget"):
        sieve.build_sieve(10**9)
    # build_sieve reads MEMORY_CAP at call time; raised past the int32 range,
    # the int32 check still refuses before anything is allocated
    monkeypatch.setattr(sieve, "MEMORY_CAP", 2**32)
    with pytest.raises(InputError, match="int32"):
        sieve.build_sieve(2**31)


def test_divisor_sum_identities(sieve_10k):
    # direct divisor-sum accumulation, independent of how mu and Lambda are found
    n_max = 10**4
    mu_acc = np.zeros(n_max + 1, dtype=np.int64)
    lam_acc = np.zeros(n_max + 1)
    for d in range(1, n_max + 1):
        mu_acc[d::d] += sieve_10k[d]
        lam_acc[d::d] += sieve.mangoldt(d)
    assert mu_acc[1] == 1
    assert np.all(mu_acc[2:] == 0)
    ns = np.arange(2, n_max + 1)
    assert np.max(np.abs(lam_acc[2:] / np.log(ns) - 1.0)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**4))
def test_mobius_mangoldt_vs_factorization(sieve_10k, n):
    fac = sympy.factorint(n)
    if any(e > 1 for e in fac.values()):
        mu_ref = 0
    else:
        mu_ref = (-1) ** len(fac)
    assert sieve_10k[n] == mu_ref
    if len(fac) == 1:
        (p, _), = fac.items()
        assert sieve.mangoldt(n) == pytest.approx(math.log(p), rel=1e-15)
    else:
        assert sieve.mangoldt(n) == 0.0


def test_mertens_values():
    assert sieve.mertens(1) == 1
    assert sieve.mertens(10) == -1
    assert sieve.mertens(100) == 1
    # brute force over a range via independent factorization
    acc = 0
    for n in range(1, 201):
        fac = sympy.factorint(n)
        acc += 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)
        if n in (50, 100, 200):
            assert sieve.mertens(n) == acc
    # M(10^4) and M(10^5), OEIS A084237
    assert sieve.mertens(10**4) == -23 and sieve.mertens(10**5) == -48
    for bad in (0, sieve.MEMORY_CAP + 1):
        with pytest.raises(InputError, match=f"x = {bad} outside range"):
            sieve.mertens(bad)


def test_squarefree_harmonic_hand_values():
    assert sieve.squarefree_harmonic(1) == 1.0
    assert sieve.squarefree_harmonic(10) == pytest.approx(
        ov.SQUAREFREE_HARMONIC_10, rel=1e-15
    )


def test_squarefree_harmonic_monotone():
    vals = [sieve.squarefree_harmonic(xi) for xi in range(1, 200)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_squarefree_harmonic_drift_envelope():
    # measured: the O(1) constant sits near 1.0439 and is flat for xi >= 1e3
    for xi in (10**3, 10**4, 10**5, 10**6):
        drift = sieve.squarefree_harmonic(xi) - sieve.SIX_OVER_PI2 * math.log(xi)
        assert 0.9 < drift < 1.2


def test_alpha_mobius_sum_small():
    assert sieve.alpha_mobius_sum(1).value == 0.0
    got = sieve.alpha_mobius_sum(2)
    assert got.value == pytest.approx(-math.log(2) / 2, rel=1e-14)


def test_alpha_mobius_sum_main_term():
    got = sieve.alpha_mobius_sum(10**6)
    assert got.prediction == pytest.approx(-sieve.THREE_OVER_PI2 * math.log(10**6) ** 2, rel=1e-15)
    assert abs(got.value / got.prediction - 1.0) < 0.15


def test_determinism(sieve_10k):
    other = sieve.build_sieve(10**4)
    assert other.dtype == np.int8 and not other.flags.writeable
    assert other.tobytes() == sieve_10k.tobytes()


# ---------------------------------------------------------------------------
# bit-identity with the per-prime loops the sieve layer used to run
# ---------------------------------------------------------------------------

def _loop_sieve(limit):
    """mu, Lambda and the primes by one numpy slice per prime."""
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
    return mobius, mangoldt, primes


def _mangoldt_column(limit):
    """sieve.mangoldt at every n <= limit, as the dense column the sieve
    used to hold."""
    return np.array([sieve.mangoldt(n) for n in range(limit + 1)])


def _loop_alpha(mobius, xi, n_max):
    """alpha_n = sum_{k*l = n, l <= xi} Lambda(k) mu(l) for n <= n_max, by
    one progression n = k*l per prime power k, with mu(l) = mobius[l] and
    Lambda(k) = math.log(p): the tests' one alpha reference."""
    values = np.zeros(n_max + 1, dtype=np.float64)
    for p in sympy.primerange(2, n_max + 1):
        lp = math.log(p)
        k = p
        while k <= n_max:
            n_l = min(xi, n_max // k)
            values[k:: k][:n_l] += lp * mobius[1: n_l + 1]
            k *= p
    return values


def test_build_matches_per_prime_loop():
    limit = 10**5
    got = sieve.build_sieve(limit)
    mobius, mangoldt, primes = _loop_sieve(limit)
    assert got.dtype == mobius.dtype and np.array_equal(got, mobius)
    assert _mangoldt_column(limit).tobytes() == mangoldt.tobytes()
    assert np.array_equal(sieve._primes_upto(limit), primes)
    # n with one prime factor above sqrt(N) = 316, where only the radical
    # comparison sets the last sign
    big = sympy.prevprime(limit // 6)
    for n, want in ((big, -1), (2 * big, 1), (6 * big, -1), (4 * big, 0), (317 * 313, 1)):
        assert got[n] == want, n
    assert sieve._primes_upto(limit)[-1] == sympy.prevprime(limit + 1)


@pytest.mark.parametrize("limit", [2, 3, 4, 24, 25, 26, 121, 65537, 65536 + 317])
def test_build_matches_per_prime_loop_at_edges(limit):
    # squares of primes at the limit and limits either side of a SEGMENT
    mobius, mangoldt, primes = _loop_sieve(limit)
    assert np.array_equal(sieve.build_sieve(limit), mobius)
    assert _mangoldt_column(limit).tobytes() == mangoldt.tobytes()
    assert np.array_equal(sieve._primes_upto(limit), primes)


def test_squarefree_harmonics_grid(sieve_10k):
    xis = [9999, 10, 1, 5000, 10, 2, 10**4, 1, 4097]
    got = sieve.squarefree_harmonics(xis)
    for xi, value in zip(xis, got):
        ns = [n for n in range(1, xi + 1) if sieve_10k[n]]
        assert value == math.fsum(1.0 / n for n in ns), xi
    assert got[1] == got[4] and got[2] == got[7]
    assert sieve.squarefree_harmonics([]) == []
    assert sieve.squarefree_harmonic(4097) == got[-1]
    for bad in ([10, 0], [sieve.MEMORY_CAP + 1], [5, -3]):
        with pytest.raises(InputError, match="outside range"):
            sieve.squarefree_harmonics(bad)


def test_alpha_mobius_sum_matches_one_fsum(sieve_10k):
    xi = 10**4
    alpha = _loop_alpha(sieve_10k, xi, xi)
    ns = np.nonzero(sieve_10k[1: xi + 1])[0] + 1
    want = math.fsum(alpha[ns] * sieve_10k[ns] / ns)
    assert sieve.alpha_mobius_sum(xi).value == want


@pytest.fixture(scope="module")
def sieve_131073():
    return sieve.build_sieve(131073)


@pytest.mark.parametrize("xi", [1, 2, 3, 4, 65535, 65536, 65537, 131073])
def test_alpha_mobius_sum_matches_per_prime_loop(sieve_131073, xi):
    # stretch ends, square roots 1 and 2, and the sieve's own limit
    alpha = _loop_alpha(sieve_131073, xi, xi)
    ns = np.nonzero(sieve_131073[1: xi + 1])[0] + 1
    want = math.fsum(alpha[ns] * sieve_131073[ns] / ns)
    assert sieve.alpha_mobius_sum(xi).value == want


def test_alpha_mobius_sum_matches_per_prime_loop_at_1e6(sieve_1e6):
    xi = 10**6
    alpha = _loop_alpha(sieve_1e6, xi, xi)
    ns = np.nonzero(sieve_1e6[1: xi + 1])[0] + 1
    want = alpha[ns] * sieve_1e6[ns] / ns
    assert sieve.alpha_mobius_sum(xi).value == math.fsum(want)


def test_alpha_mobius_sum_correctly_rounded():
    # a near tie: the exactly rounded sum of the per-prime loop's terms
    # is one ulp off here, the sum of -log n / n is not
    got = sieve.alpha_mobius_sum(116939).value
    assert got == ov.ALPHA_MOBIUS_SUM_116939


def _sum_peak(f, xi) -> int:
    """The tracemalloc peak of f(xi), after a warm-up call at 1000."""
    import tracemalloc

    f(1000)
    tracemalloc.start()
    try:
        f(xi)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_alpha_mobius_sum_memory_peak():
    # streamed a SEGMENT at a time: no dense alpha vector (8 MB at 1e6)
    # and no table (1 MB of mu at 1e6)
    assert _sum_peak(sieve.alpha_mobius_sum, 10**6) < 2 * 2**20


def test_squarefree_harmonics_memory_peak():
    # no table: mu alone would be 10 MB at 1e7
    assert _sum_peak(lambda xi: sieve.squarefree_harmonics([xi]), 10**7) < 2 * 2**20


@pytest.mark.parametrize("hi", [1, 2, 3, 4, 8, 9, 48, 49, 50, sieve.SEGMENT - 1, sieve.SEGMENT,
                                sieve.SEGMENT + 1, 257**2, 2 * sieve.SEGMENT + 7, 10**6])
def test_squarefree_matches_the_table(sieve_1e6, hi):
    # squares at and either side of hi, the segment edges, 257^2 the first
    # prime square past SEGMENT (one vectorised step), and lo on both sides
    # of a segment edge
    for lo in (1, 2, 49, sieve.SEGMENT, sieve.SEGMENT + 1):
        parts = list(sieve._squarefree(lo, hi))
        assert len(parts) == len(range(lo, hi + 1, sieve.SEGMENT))
        assert all(p.dtype == np.int64 and np.all(p[-1:] - p[:1] < sieve.SEGMENT)
                   for p in parts)
        got = np.concatenate([np.zeros(0, np.int64), *parts])
        assert np.array_equal(got, np.flatnonzero(sieve_1e6[lo: hi + 1]) + lo), lo


def test_build_memory_peak():
    # The build holds mobius and the int32 radical (1 + 4 bytes per entry)
    # and one SEGMENT's temporaries (0.6 MB); no list of the primes above
    # sqrt(N) (0.6 MB at 1e6) and no dense Lambda column is built.
    import tracemalloc

    limit = 10**6
    sieve.build_sieve(1000)
    tracemalloc.start()
    try:
        sieve.build_sieve(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * (limit + 1) + 2**20
