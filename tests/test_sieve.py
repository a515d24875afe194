import math
import re

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from zml import sieve
from zml.errors import InputError, ParseError, ValidationError, ZmlError

import oracle_values as ov


def test_mobius_first_ten(sieve_10k):
    assert sieve_10k.mobius[1:11].tolist() == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_mangoldt_examples(sieve_10k):
    assert sieve.mangoldt(sieve_10k, 8) == pytest.approx(math.log(2), rel=1e-15)
    assert sieve.mangoldt(sieve_10k, 6) == 0.0
    assert sieve.mangoldt(sieve_10k, 1) == 0.0
    assert sieve.mangoldt(sieve_10k, 9) == pytest.approx(math.log(3), rel=1e-15)
    assert sieve.mangoldt(sieve_10k, 8 + 1e-10) == sieve.mangoldt(sieve_10k, 8)
    assert sieve.mangoldt(sieve_10k, 8.5) == 0.0
    assert sieve.mangoldt(sieve_10k, 10**4 - 1e-12) == 0.0     # 10^4 = 2^4 5^4
    with pytest.raises(InputError, match="outside table range"):
        sieve.mangoldt(sieve_10k, 10**4 + 1)


def test_primes_ascending(sieve_10k):
    p = sieve_10k.primes
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
    # direct divisor-sum accumulation, independent of how the table was built
    n_max = 10**4
    mu_acc = np.zeros(n_max + 1, dtype=np.int64)
    lam_acc = np.zeros(n_max + 1)
    for d in range(1, n_max + 1):
        mu_acc[d::d] += sieve_10k.mobius[d]
        lam_acc[d::d] += sieve.mangoldt(sieve_10k, d)
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
        assert sieve.mangoldt(table, n) == pytest.approx(math.log(p), rel=1e-15)
    else:
        assert sieve.mangoldt(table, n) == 0.0


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
    # measured: the O(1) constant sits near 1.0439 and is flat for xi >= 1e3
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
    assert np.array_equal(other.primes, sieve_10k.primes)
    assert _mangoldt_column(other).tobytes() == _mangoldt_column(sieve_10k).tobytes()
    assert sieve.squarefree_harmonic(other, 9999) == sieve.squarefree_harmonic(
        sieve_10k, 9999
    )


def test_cache_roundtrip(tmp_path, sieve_10k):
    path = tmp_path / "sieve.bin"
    sieve.save_sieve(sieve_10k, path)
    # magic, limit, prime count and CRC lines, eight bytes per prime, one
    # byte of mu per n from 0
    head = b"# zml-sieve v4\n# limit 10000\n# primes 1229\n# crc32 "
    assert path.read_bytes().startswith(head)
    assert path.stat().st_size == len(head) + 9 + 8 * 1229 + 10**4 + 1
    loaded = sieve.load_sieve(path, 10**4)
    assert np.array_equal(loaded.mobius, sieve_10k.mobius)
    assert loaded.primes.dtype == np.int64
    assert np.array_equal(loaded.primes, sieve_10k.primes)
    assert _mangoldt_column(loaded).tobytes() == _mangoldt_column(sieve_10k).tobytes()
    with pytest.raises(ValidationError, match="limit"):
        sieve.load_sieve(path, 10**5)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOT-A-SIEVE" + b"\x00" * 64)
    with pytest.raises(ParseError, match=":1: expected '# zml-sieve v4'"):
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


def _mangoldt_column(table):
    """sieve.mangoldt at every n <= limit, as the dense column the table
    used to hold."""
    return np.array([sieve.mangoldt(table, n) for n in range(table.limit + 1)])


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
    assert _mangoldt_column(table).tobytes() == mangoldt.tobytes()
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
    assert _mangoldt_column(table).tobytes() == mangoldt.tobytes()
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


@pytest.fixture(scope="module")
def sieve_131073():
    return sieve.build_sieve(131073)


@pytest.mark.parametrize("xi", [1, 2, 3, 4, 65535, 65536, 65537, 131073])
def test_alpha_mobius_sum_matches_per_prime_loop(sieve_131073, xi):
    # stretch ends, square roots 1 and 2, and the table's own limit
    alpha = _loop_alpha(sieve_131073, xi, xi)
    ns = np.nonzero(sieve_131073.mobius[1: xi + 1])[0] + 1
    want = math.fsum(alpha[ns] * sieve_131073.mobius[ns] / ns)
    assert sieve.alpha_mobius_sum(sieve_131073, xi).value == want


def test_alpha_mobius_sum_matches_alpha_coefficients(sieve_1e6):
    xi = 10**6
    alpha = sieve.alpha_coefficients(sieve_1e6, xi, xi).values
    ns = np.nonzero(sieve_1e6.mobius[1: xi + 1])[0] + 1
    want = alpha[ns] * sieve_1e6.mobius[ns] / ns
    assert sieve.alpha_mobius_sum(sieve_1e6, xi).value == math.fsum(want)


def test_alpha_mobius_sum_correctly_rounded(sieve_1e6):
    # a near tie: the exactly rounded sum of the alpha_coefficients terms
    # is one ulp off here, the sum of -log n / n is not
    got = sieve.alpha_mobius_sum(sieve_1e6, 116939).value
    assert got == ov.ALPHA_MOBIUS_SUM_116939


def test_alpha_mobius_sum_memory_peak(sieve_1e6):
    # streamed a SEGMENT at a time: no dense alpha vector (8 MB at 1e6)
    import tracemalloc

    sieve.alpha_mobius_sum(sieve_1e6, 1000)
    tracemalloc.start()
    try:
        sieve.alpha_mobius_sum(sieve_1e6, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_build_memory_peak():
    # The build holds mobius and the int32 radical (1 + 4 bytes per entry)
    # and at most three int64-sized arrays of the primes; no dense Lambda
    # column is built.
    import tracemalloc

    limit = 10**6
    sieve.build_sieve(1000)
    tracemalloc.start()
    try:
        table = sieve.build_sieve(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * (limit + 1) + 24 * len(table.primes)


def test_load_memory_peak(tmp_path, sieve_1e7):
    # The load holds the payload (15.3 MB at 1e7) and checks the primes
    # with temporaries of a few bytes per prime and one SEGMENT slice: 1.3
    # MB above it.  A float copy of the whole prime list and one int64
    # remainder of it per small prime made it 6.0 MB.
    import tracemalloc

    path = tmp_path / "sieve.bin"
    sieve.save_sieve(sieve_1e7, path)
    tracemalloc.start()
    try:
        table = sieve.load_sieve(path, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(table.primes, sieve_1e7.primes)
    assert peak < path.stat().st_size + 2 * 2**20


@pytest.mark.parametrize("damage", ["truncated", "extra bytes", "short header",
                                    "count header"])
def test_load_rejects_wrong_size(tmp_path, sieve_10k, damaged_sieve, damage):
    # a file cut or extended fails its CRC; a count that does not match the
    # payload's size fails the size check
    path = tmp_path / "sieve.bin"
    sieve.save_sieve(sieve_10k, path)
    path.write_bytes(damaged_sieve(path.read_bytes(), damage))
    match = {"count header": "payload of 19833 bytes, expected 19825",
             "short header": ":2: missing '# limit' header"}.get(damage, "crc32 mismatch")
    with pytest.raises(ZmlError, match=re.escape(match)):
        sieve.load_sieve(path, 10**4)


@pytest.mark.parametrize("damage", ["v1 file", "v2 file", "v3 file", "composite prime",
                                    "composite prime, mu -1", "swapped primes",
                                    "mu(6) -1", "97 deleted, count lowered"])
def test_load_rejects_damaged_primes(tmp_path, sieve_10k, damaged_sieve, damage):
    # the prime-list cases carry a forged CRC that matches their payload
    path = tmp_path / "sieve.bin"
    sieve.save_sieve(sieve_10k, path)
    good = path.read_bytes()
    bad = damaged_sieve(good, damage)
    assert len(bad) == len(good) or damage.endswith((" file", "count lowered"))
    path.write_bytes(bad)
    match = {"mu(6) -1": "crc32 mismatch", "97 deleted, count lowered": "crc32 mismatch"}.get(
        damage, "expected '# zml-sieve v4'" if damage.endswith(" file") else "prime list")
    with pytest.raises(ZmlError, match=match):
        sieve.load_sieve(path, 10**4)
