import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from zml import sieve
from zml.errors import InputError, ValidationError

import oracle_values as ov


def test_mobius_first_ten(sieve_10k):
    assert sieve_10k.mobius[1:11].tolist() == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_mangoldt_examples(sieve_10k):
    assert sieve_10k.mangoldt[8] == pytest.approx(math.log(2), rel=1e-15)
    assert sieve_10k.mangoldt[6] == 0.0
    assert sieve_10k.mangoldt[1] == 0.0
    assert sieve_10k.mangoldt[9] == pytest.approx(math.log(3), rel=1e-15)


def test_primes_ascending(sieve_10k):
    p = sieve_10k.primes
    assert p[0] == 2 and p[-1] <= 10**4
    assert np.all(np.diff(p) > 0)
    assert len(p) == 1229  # pi(10^4)


def test_build_rejects_bad_limits():
    with pytest.raises(InputError, match="minimum 2"):
        sieve.build_sieve(1)
    with pytest.raises(InputError, match="memory budget"):
        sieve.build_sieve(10**9)
    with pytest.raises(InputError, match="int32"):
        sieve.build_sieve(2**31, memory_cap=2**32)


def test_divisor_sum_identities(sieve_10k):
    # direct divisor-sum accumulation, independent of how the table was built
    n_max = 10**4
    mu_acc = np.zeros(n_max + 1, dtype=np.int64)
    lam_acc = np.zeros(n_max + 1)
    for d in range(1, n_max + 1):
        mu_acc[d::d] += sieve_10k.mobius[d]
        lam_acc[d::d] += sieve_10k.mangoldt[d]
    assert mu_acc[1] == 1
    assert np.all(mu_acc[2:] == 0)
    ns = np.arange(2, n_max + 1)
    assert np.max(np.abs(lam_acc[2:] / np.log(ns) - 1.0)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**4))
def test_mobius_mangoldt_vs_factorization(n):
    table = _small_table()
    fac = sympy.factorint(n)
    if any(e > 1 for e in fac.values()):
        mu_ref = 0
    else:
        mu_ref = (-1) ** len(fac)
    assert table.mobius[n] == mu_ref
    if len(fac) == 1:
        (p, _), = fac.items()
        assert table.mangoldt[n] == pytest.approx(math.log(p), rel=1e-15)
    else:
        assert table.mangoldt[n] == 0.0


_CACHED = {}


def _small_table():
    if "t" not in _CACHED:
        _CACHED["t"] = sieve.build_sieve(10**4)
    return _CACHED["t"]


def test_mertens_values(sieve_10k):
    assert sieve.mertens(sieve_10k, 1) == 1
    assert sieve.mertens(sieve_10k, 10) == -1
    assert sieve.mertens(sieve_10k, 100) == 1
    # brute force over a range via independent factorization
    acc = 0
    for n in range(1, 201):
        fac = sympy.factorint(n)
        acc += 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)
        if n in (50, 100, 200):
            assert sieve.mertens(sieve_10k, n) == acc
    with pytest.raises(InputError, match="outside table range"):
        sieve.mertens(sieve_10k, 10**5)


def test_squarefree_harmonic_hand_values(sieve_10k):
    assert sieve.squarefree_harmonic(sieve_10k, 1) == 1.0
    assert sieve.squarefree_harmonic(sieve_10k, 10) == pytest.approx(
        ov.SQUAREFREE_HARMONIC_10, rel=1e-15
    )


def test_squarefree_harmonic_monotone(sieve_10k):
    vals = [sieve.squarefree_harmonic(sieve_10k, xi) for xi in range(1, 200)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_squarefree_harmonic_drift_envelope(sieve_1e6):
    # pilot: the O(1) constant sits near 1.0439 and is flat for xi >= 1e3
    for xi in (10**3, 10**4, 10**5, 10**6):
        drift = sieve.squarefree_harmonic(sieve_1e6, xi) - sieve.SIX_OVER_PI2 * math.log(xi)
        assert 0.9 < drift < 1.2


def test_prime_log_sum_hand_values(sieve_10k):
    assert sieve.prime_log_sum(sieve_10k, 2) == pytest.approx(math.log(2) / 2, rel=1e-15)
    want = sum(math.log(p) / p for p in (2, 3, 5, 7))
    assert sieve.prime_log_sum(sieve_10k, 10) == pytest.approx(want, rel=1e-14)


def test_prime_log_sum_drift(sieve_1e6):
    # Mertens-type constant: the drift settles near -1.332
    drift = sieve.prime_log_sum(sieve_1e6, 10**6) - math.log(10**6)
    assert -1.4 < drift < 0.0


def test_alpha_examples(sieve_10k):
    a = sieve.alpha_coefficients(sieve_10k, 10, 10)
    assert a.values[1] == 0.0
    assert a.values[2] == pytest.approx(math.log(2), rel=1e-14)
    assert a.values[4] == pytest.approx(0.0, abs=1e-14)
    assert a.values[6] == pytest.approx(-math.log(6), rel=1e-14)


def test_alpha_identity_below_xi(sieve_10k):
    xi = 8000
    a = sieve.alpha_coefficients(sieve_10k, xi, xi)
    ns = np.arange(2, xi + 1)
    ref = -sieve_10k.mobius[ns] * np.log(ns)
    scale = np.log(ns)
    assert np.max(np.abs(a.values[ns] - ref) / scale) < 1e-12


def test_alpha_trivial_bound(sieve_10k):
    # the constrained convolution never exceeds log n, any xi
    a = sieve.alpha_coefficients(sieve_10k, 50, 5000)
    ns = np.arange(2, 5001)
    assert np.all(np.abs(a.values[ns]) <= np.log(ns) * (1 + 1e-12))


def test_alpha_mobius_sum_small(sieve_10k):
    assert sieve.alpha_mobius_sum(sieve_10k, 1).value == 0.0
    got = sieve.alpha_mobius_sum(sieve_10k, 2)
    assert got.value == pytest.approx(-math.log(2) / 2, rel=1e-14)


def test_alpha_mobius_sum_main_term(sieve_1e6):
    got = sieve.alpha_mobius_sum(sieve_1e6, 10**6)
    assert got.prediction == pytest.approx(-sieve.THREE_OVER_PI2 * math.log(10**6) ** 2, rel=1e-15)
    assert abs(got.value / got.prediction - 1.0) < 0.15


def test_determinism(sieve_10k):
    other = sieve.build_sieve(10**4)
    assert np.array_equal(other.mobius, sieve_10k.mobius)
    assert np.array_equal(other.mangoldt, sieve_10k.mangoldt)
    assert sieve.squarefree_harmonic(other, 9999) == sieve.squarefree_harmonic(
        sieve_10k, 9999
    )


def test_cache_roundtrip(tmp_path, sieve_10k):
    path = tmp_path / "sieve.bin"
    sieve.save_sieve(sieve_10k, path)
    loaded = sieve.load_sieve(path, 10**4)
    assert np.array_equal(loaded.mobius, sieve_10k.mobius)
    assert np.array_equal(loaded.mangoldt, sieve_10k.mangoldt)
    assert np.array_equal(loaded.primes, sieve_10k.primes)
    with pytest.raises(ValidationError, match="limit"):
        sieve.load_sieve(path, 10**5)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOT-A-SIEVE" + b"\x00" * 64)
    with pytest.raises(ValidationError, match="magic"):
        sieve.load_sieve(bad, 10**4)


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


def _loop_alpha(table, xi, n_max):
    """alpha_n by one progression n = k*l per prime power k."""
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
    return values


def test_build_matches_per_prime_loop():
    limit = 10**5
    table = sieve.build_sieve(limit)
    mobius, mangoldt, primes = _loop_sieve(limit)
    assert table.mobius.dtype == mobius.dtype and np.array_equal(table.mobius, mobius)
    assert table.mangoldt.tobytes() == mangoldt.tobytes()
    assert table.primes.dtype == primes.dtype and np.array_equal(table.primes, primes)
    # n with one prime factor above sqrt(N) = 316, where only the radical
    # comparison sets the last sign
    big = sympy.prevprime(limit // 6)
    for n, want in ((big, -1), (2 * big, 1), (6 * big, -1), (4 * big, 0), (317 * 313, 1)):
        assert table.mobius[n] == want, n
    assert table.primes[-1] == sympy.prevprime(limit + 1)


@pytest.mark.parametrize("limit", [2, 3, 4, 24, 25, 26, 121, 65537, 65536 + 317])
def test_build_matches_per_prime_loop_at_edges(limit):
    # squares of primes at the limit and limits either side of a SEGMENT
    table = sieve.build_sieve(limit)
    mobius, mangoldt, primes = _loop_sieve(limit)
    assert np.array_equal(table.mobius, mobius)
    assert table.mangoldt.tobytes() == mangoldt.tobytes()
    assert np.array_equal(table.primes, primes)


@pytest.mark.parametrize("xi,n_max", [(10, 10), (50, 5000), (8000, 8000), (70, 10**4)])
def test_alpha_matches_per_prime_loop(sieve_10k, xi, n_max):
    got = sieve.alpha_coefficients(sieve_10k, xi, n_max).values
    want = _loop_alpha(sieve_10k, xi, n_max)
    assert got.tobytes() == want.tobytes()
    # prime-power rows collect terms from several k
    powers = [p**e for p in (2, 3, 5, 7) for e in range(2, 14) if p**e <= n_max]
    assert powers and np.array_equal(got[powers], want[powers])


def test_alpha_logs_from_math_log(sieve_1e6):
    # with xi = 1 each alpha_k is Lambda(k) * mu(1); np.log differs from
    # math.log in the last bit at a few primes below 1e6 (285343, ...)
    a = sieve.alpha_coefficients(sieve_1e6, 1, 10**6).values
    ks, want = [], []
    for p in sieve_1e6.primes.tolist():
        k = p
        while k <= 10**6:
            ks.append(k)
            want.append(math.log(p))
            k *= p
    assert a[ks].tolist() == want
    assert np.count_nonzero(a) == len(ks)


def test_alpha_without_primes(sieve_10k):
    assert sieve.alpha_coefficients(sieve_10k, 1, 1).values.tolist() == [0.0, 0.0]


def test_squarefree_harmonics_grid(sieve_10k):
    xis = [9999, 10, 1, 5000, 10, 2, 10**4, 1, 4097]
    got = sieve.squarefree_harmonics(sieve_10k, xis)
    for xi, value in zip(xis, got):
        ns = [n for n in range(1, xi + 1) if sieve_10k.mobius[n]]
        assert value == math.fsum(1.0 / n for n in ns), xi
    assert got[1] == got[4] and got[2] == got[7]
    assert sieve.squarefree_harmonics(sieve_10k, []) == []
    assert sieve.squarefree_harmonic(sieve_10k, 4097) == got[-1]
    for bad in ([10, 0], [10**4 + 1], [5, -3]):
        with pytest.raises(InputError, match="outside table range"):
            sieve.squarefree_harmonics(sieve_10k, bad)


def test_alpha_mobius_sum_matches_one_fsum(sieve_10k):
    xi = 10**4
    alpha = _loop_alpha(sieve_10k, xi, xi)
    ns = np.nonzero(sieve_10k.mobius[1: xi + 1])[0] + 1
    want = math.fsum(alpha[ns] * sieve_10k.mobius[ns] / ns)
    assert sieve.alpha_mobius_sum(sieve_10k, xi).value == want


def test_build_memory_peak():
    # The per-prime build peaked at 11,884,594 bytes at N = 1e6: is_prime,
    # mobius and mangoldt (1 + 1 + 8 bytes per entry), three arrays of the
    # primes (int64 twice, float64 logs) and 632 bytes.  The int32 radical
    # must not raise the peak above those arrays.
    import tracemalloc

    limit = 10**6
    sieve.build_sieve(1000)
    tracemalloc.start()
    try:
        table = sieve.build_sieve(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * (limit + 1) + 24 * len(table.primes)


@pytest.mark.parametrize("damage", ["truncated", "extra bytes", "short header"])
def test_load_rejects_wrong_size(tmp_path, sieve_10k, damage):
    path = tmp_path / "sieve.bin"
    sieve.save_sieve(sieve_10k, path)
    data = path.read_bytes()
    data = {"truncated": data[:50_000], "extra bytes": data + b"\x00",
            "short header": data[: len(sieve.SIEVE_MAGIC) + 3]}[damage]
    path.write_bytes(data)
    with pytest.raises(ValidationError):
        sieve.load_sieve(path, 10**4)
