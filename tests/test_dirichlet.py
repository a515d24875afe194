import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from zml import dirichlet, sieve
from zml.errors import BudgetError, InputError

import oracle_values as ov


# sha256 of the little-endian ratios of mv_campaign(seed, trials)
CAMPAIGN_DIGESTS = [
    (0, 7, "5000e9dbc1d96b39a8ff3552f60b8a948ea4bb7f4d8330745842194c5488a28c"),
    (42, 100, "b7c1d62f7e4fe0539588087d25efcd47a7fad581dd8993062c2a299bc7be7c1a"),
    (9, 1000, "3782be97fe32b57dee0b9b48a2613a4e44f138cddf3194774ead6ac2be6617e9")]


def quad_pair_integral(A, B, T):
    """Adaptive-quadrature oracle for the pair integral."""
    la, lb = A.logs, B.logs

    def f(t):
        return (A.coeffs * np.exp(-1j * t * la)).sum() * (
            B.coeffs * np.exp(1j * t * lb)
        ).sum()

    re, _ = quad(lambda t: f(t).real, 0.0, T, limit=800, epsabs=1e-11, epsrel=1e-11)
    im, _ = quad(lambda t: f(t).imag, 0.0, T, limit=800, epsabs=1e-11, epsrel=1e-11)
    return complex(re, im)


def mp_pair_parts(a, b, T):
    """30-digit pairwise sums of the closed form, (diagonal, off-diagonal):
    T a_n b_n on the diagonal, a_n b_m (e^(iT lam) - 1)/(i lam) off it,
    lam = log m - log n."""
    with mp.workdps(30):
        T = mp.mpf(T)
        la = [mp.log(n) for n in range(1, len(a) + 1)]
        lb = [mp.log(m) for m in range(1, len(b) + 1)]
        ea = [mp.expj(-T * x) for x in la]
        eb = [mp.expj(T * x) for x in lb]
        bs = [mp.mpc(complex(x)) for x in b]
        diag, off = mp.mpc(0), mp.mpc(0)
        for n, an in enumerate(a):
            an = mp.mpc(complex(an))
            row = mp.fsum(bs[m] * (ea[n] * eb[m] - 1) / (lb[m] - la[n])
                          for m in range(len(b)) if m != n)
            off += an * row
            if n < len(b):
                diag += an * bs[n]
        return T * diag, -1j * off


def mp_pair_integral(a, b, T):
    """The pair integral as the sum of mp_pair_parts."""
    diag, off = mp_pair_parts(a, b, T)
    with mp.workdps(30):
        return complex(diag + off)


def mp_pair_integral_series(a, b, T, terms=16):
    """The pair integral as a power series in T (for T log(max length) << 1):
    int_0^T e^(i t lam) dt = T sum_k (iT lam)^k/(k+1)!, and
    sum_{n,m} a_n b_m lam^k = sum_j C(k, j) P_b(j) P_a(k - j) with the
    log moments P_b(j) = sum_m b_m (log m)^j, P_a(j) = sum_n a_n (-log n)^j."""
    with mp.workdps(40):
        T = mp.mpf(T)
        la = [mp.log(n) for n in range(1, len(a) + 1)]
        lb = [mp.log(m) for m in range(1, len(b) + 1)]
        pa = [mp.fsum(mp.mpf(x) * (-y) ** j for x, y in zip(a, la)) for j in range(terms)]
        pb = [mp.fsum(mp.mpf(x) * y ** j for x, y in zip(b, lb)) for j in range(terms)]
        total = mp.fsum(
            (1j * T) ** k / mp.factorial(k + 1)
            * mp.fsum(mp.binomial(k, j) * pb[j] * pa[k - j] for j in range(k + 1))
            for k in range(terms)
        )
        return complex(T * total)


def kernel_pair_integral(a, b, T):
    """The closed form one kernel per pair: K(x) = T e^(ix/2) sinc(x/2),
    x = T log(m/n), with K(0) = T on the diagonal."""
    ns = np.arange(1, a.size + 1, dtype=float)
    ms = np.arange(1, b.size + 1, dtype=float)
    x = T * np.log(ms[None, :] / ns[:, None])
    kernel = T * np.exp(0.5j * x) * np.sinc(x / (2.0 * math.pi))
    return (a[:, None] * b[None, :] * kernel).sum()


def fsum_diagonal(A, B):
    """sum_{n <= min(len A, len B)} a_n b_n, one math.fsum per part."""
    n_diag = min(A.length, B.length)
    prod = A.coeffs[:n_diag] * B.coeffs[:n_diag]
    return complex(math.fsum(prod.real.tolist()), math.fsum(prod.imag.tolist()))


def fsum_weighted_norm2(A):
    """sum n |a_n|^2, one math.fsum."""
    ns = np.arange(1, A.length + 1, dtype=float)
    return math.fsum((ns * np.abs(A.coeffs) ** 2).tolist())


def direct_truncation(poly, gammas):
    """sum a_n n^(-1/2-i gamma) with one exponential per (gamma, n) and
    a_n != 0, the plain evaluator the batch one is measured against."""
    support = np.flatnonzero(poly.coeffs)
    logs = poly.logs[support]
    w = poly.coeffs[support] * np.exp(-0.5 * logs)
    return np.exp(np.multiply.outer(gammas, -1j * logs)) @ w


class TestMollifier:
    def test_trivial_length_one(self):
        m = dirichlet.mollifier(1)
        assert m.length == 1 and m.coeffs[0] == 1.0

    def test_xi_range(self):
        # mu is sieved for the call itself, so xi is bounded by the memory cap alone
        assert dirichlet.mollifier(2).coeffs.tolist() == [1.0, -1.0]
        for xi in (0, sieve.MEMORY_CAP + 1):
            with pytest.raises(InputError, match=f"xi = {xi} outside range"):
                dirichlet.mollifier(xi)

    def test_eval_at_zero_is_mertens(self):
        m = dirichlet.mollifier(10)
        assert dirichlet.eval_poly(m, 0.0) == pytest.approx(-1.0, abs=1e-14)

    def test_squarefull_coefficients_vanish(self):
        m = dirichlet.mollifier(12)
        for n in (4, 8, 9, 12):
            assert m.coeffs[n - 1] == 0.0

    def test_partial_sums_of_mu_over_n_bounded(self):
        m = dirichlet.mollifier(10**6)
        assert abs(dirichlet.eval_poly(m, 1.0)) <= 3.0


class TestEval:
    def test_eval_at_zero_sums_coefficients(self):
        poly = dirichlet.DirichletPoly(coeffs=np.array([2.0, -3.0, 0.5]))
        assert dirichlet.eval_poly(poly, 0.0) == pytest.approx(-0.5, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=30),
        st.floats(-2, 2),
        st.floats(-50, 50),
    )
    def test_conjugate_reflection(self, coeffs, sig, t):
        poly = dirichlet.DirichletPoly(coeffs=np.array(coeffs))
        s = complex(sig, t)
        lhs = dirichlet.eval_poly(poly, s.conjugate())
        rhs = dirichlet.eval_poly(poly, s).conjugate()
        assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(rhs)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=30), st.floats(-100, 100))
    def test_critical_line_reflection(self, coeffs, t):
        # on Re(s) = 1/2, 1 - s = conj(s)
        poly = dirichlet.DirichletPoly(coeffs=np.array(coeffs))
        s = complex(0.5, t)
        lhs = dirichlet.eval_poly(poly, 1.0 - s)
        rhs = dirichlet.eval_poly(poly, s).conjugate()
        assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(rhs)))

    def test_batch_matches_scalar(self):
        poly = dirichlet.mollifier(50)
        gammas = np.array([14.13, 777.7, 9999.9])
        batch = dirichlet.eval_truncations_at_zeros(poly, [poly.length], gammas)[:, 0]
        for g, b in zip(gammas, batch):
            assert b == pytest.approx(dirichlet.eval_poly(poly, complex(0.5, g)), rel=1e-12)

    def test_truncations_match_scalar(self, sieve_10k):
        # complex coefficients, zeros at the squarefull n and at n = xi (P(0) = 0);
        # truncation points unsorted and repeated
        ns = np.arange(1, 61)
        taper = np.log(60 / ns) / math.log(60)          # P(x) = x
        coeffs = sieve_10k[1:61] * taper * np.exp(1j * np.arange(60) / 7.0)
        poly = dirichlet.DirichletPoly(coeffs=coeffs)
        assert np.count_nonzero(coeffs) < 60 and coeffs[-1] == 0.0
        xis = [60, 1, 17, 4, 17, 59, 5]
        gammas = np.array([0.0, 14.13, 777.7, 9999.9])
        vals = dirichlet.eval_truncations_at_zeros(poly, xis, gammas)
        assert vals.shape == (4, 7)
        for b, xi in enumerate(xis):
            trunc = dirichlet.DirichletPoly(coeffs=coeffs[:xi])
            for g, v in zip(gammas, vals[:, b]):
                assert v == pytest.approx(dirichlet.eval_poly(trunc, complex(0.5, g)), rel=1e-12)

    def test_truncations_validate_points(self):
        poly = dirichlet.mollifier(10)
        for bad in ([], [0, 5], [11]):
            with pytest.raises(InputError, match="xis|truncation"):
                dirichlet.eval_truncations_at_zeros(poly, bad, np.array([14.13]))
        assert dirichlet.eval_truncations_at_zeros(poly, [3, 10], np.array([])).shape == (0, 2)
        for bad in ([14.13, 21.02, 14.13], [14.13, np.inf], [np.nan]):
            with pytest.raises(InputError, match="finite and ascending"):
                dirichlet.eval_truncations_at_zeros(poly, [3, 10], np.array(bad))


class TestFill:
    @pytest.mark.parametrize("xi, sample", [
        (3980, ov.MOLLIFIER_3980), (31622, ov.MOLLIFIER_31622),
        (3980, ov.MOLLIFIER_SPREAD_3980)])
    def test_error_against_oracle(self, xi, sample):
        # error per zero over sum |a_n| n^(-1/2), with the sample alone: a
        # zero's value does not depend on the other ordinates, so it is the
        # value over a whole list.  Measured on x86-64 with 80-bit long
        # double: 3.9e-16 against 1.7e-13 (direct) at the 40 highest zeros
        # below 1e4, 2.7e-16 against 1.4e-13 over (0, 1e4], and 3.8e-16
        # against 8.5e-13 near 1e5 (the multiplicative fill it replaced:
        # 1.3e-15, 1.0e-15 and 4.6e-16)
        gammas = np.array([g for g, _, _ in sample])
        ref = np.array([complex(re, im) for _, re, im in sample])
        poly = dirichlet.mollifier(xi)
        scale = np.abs(poly.coeffs) @ np.exp(-0.5 * poly.logs)
        vals = dirichlet.eval_truncations_at_zeros(poly, [poly.length], gammas)[:, 0]
        batch = np.abs(vals - ref).max() / scale
        direct = np.abs(direct_truncation(poly, gammas) - ref).max() / scale
        assert batch <= direct
        assert batch <= 5e-15

    def test_error_against_spread_sample(self):
        # both truncations at 40 zeros spread over (0, 1e5]: xi = 70 is all
        # direct exponentials, xi = 31622 mostly the transform
        gammas = np.array([s[0] for s in ov.MOLLIFIER_SPREAD_1E5])
        poly = dirichlet.mollifier(31622)
        vals = dirichlet.eval_truncations_at_zeros(poly, [70, 31622], gammas)
        for b, xi in enumerate((70, 31622)):
            ref = np.array([complex(s[1 + 2 * b], s[2 + 2 * b]) for s in ov.MOLLIFIER_SPREAD_1E5])
            scale = np.abs(poly.coeffs[:xi]) @ np.exp(-0.5 * poly.logs[:xi])
            err = np.abs(vals[:, b] - ref).max() / scale
            assert err <= 5e-15, (
                f"xi = {xi}: {err:.2g} of sum |a_n| n^(-1/2), measured 2.5e-15 (xi = 70) and "
                "3.0e-16 (xi = 31622); the multiplicative fill measured 2.2e-15 and 6.1e-16 "
                "here, and 1.3e-15, 1.0e-15 and 4.6e-16 on the samples above")

    def test_value_independent_of_other_ordinates(self):
        # every zero of the oracle samples, alone and inside a list of
        # other ordinates that moves where each fill starts and ends
        poly = dirichlet.mollifier(3980)
        gammas = np.array([g for sample in (ov.MOLLIFIER_3980, ov.MOLLIFIER_SPREAD_3980)
                           for g, _, _ in sample])
        alone = [dirichlet.eval_truncations_at_zeros(poly, [3980, 70], gammas[i:i + 1])
                 for i in range(gammas.size)]
        rng = np.random.default_rng(5)
        near = gammas + rng.uniform(-70.0, 70.0, (4, gammas.size))
        others = np.concatenate([near.ravel(), np.linspace(9900.0, 1e4, 200)])
        for ords in (np.sort(np.concatenate([gammas, others])),
                     np.sort(np.concatenate([gammas, others[::3]]))):
            vals = dirichlet.eval_truncations_at_zeros(poly, [70, 3980], ords)
            at = [int(np.flatnonzero(ords == g)[0]) for g in gammas]
            assert np.array_equal(vals[at][:, ::-1], np.concatenate(alone))

    def test_truncation_independent_of_other_points(self):
        poly = dirichlet.mollifier(3000)
        gammas = np.linspace(9000.0, 9010.0, 13)
        alone = dirichlet.eval_truncations_at_zeros(poly, [1234], gammas)[:, 0]
        for xis in ([7, 1234, 3000], [3000, 1234, 1234, 17], [1233, 1234]):
            vals = dirichlet.eval_truncations_at_zeros(poly, xis, gammas)
            assert np.array_equal(vals[:, xis.index(1234)], alone)

    def test_small_blocks(self, monkeypatch):
        # runs of at most 198 ordinates inside each of three transform
        # blocks; truncations below, at and above DIRECT_MAX
        poly = dirichlet.mollifier(400)
        gammas = np.sort(np.concatenate([np.linspace(9000.0, 9100.0, 290),
                                         [14.13, 5000.5, 9050.0, 20.0, 9999.9]]))
        xis = [400, 7, 150, 1, 399, 128]
        whole = dirichlet.eval_truncations_at_zeros(poly, xis, gammas)
        monkeypatch.setattr(dirichlet, "YIELD_ROWS", 198)
        blocks = list(dirichlet.truncation_blocks(poly, xis, gammas))
        assert [(lo, v.shape) for lo, v in blocks] == [
            (0, (2, 6)), (2, (1, 6)), (3, (198, 6)), (201, (94, 6))]
        assert np.array_equal(np.concatenate([v for _, v in blocks]), whole)
        scale = np.abs(poly.coeffs) @ np.exp(-0.5 * poly.logs)
        ref = direct_truncation(dirichlet.DirichletPoly(coeffs=poly.coeffs[:150]), gammas)
        assert np.abs(whole[:, 2] - ref).max() <= 1e-12 * scale


class TestExpMinusI:
    def test_reduction_constants(self):
        # c = 2 pi / EXP_TABLE_SIZE in three parts; C1 and C2 carry at most 32
        # significant bits, so k C1 and k C2 are exact for |k| < 2^21
        parts = (dirichlet._C1, dirichlet._C2, dirichlet._C3)
        with mp.workdps(50):
            c = 2 * mp.pi / dirichlet.EXP_TABLE_SIZE
            assert abs(mp.fsum(mp.mpf(x) for x in parts) - c) <= 1e-39
            assert abs(mp.mpf(dirichlet._C1) - c) <= 2.0**-39
            assert abs(mp.mpf(dirichlet._C1) + mp.mpf(dirichlet._C2) - c) <= 2.0**-73
            assert dirichlet.EXP_PHASE_MAX == pytest.approx(float(c) * 2**21, rel=1e-15)
        for x in parts[:2]:
            mantissa, _ = math.frexp(x)
            assert (mantissa * 2**32).is_integer()

    def test_table_against_mpmath(self):
        # rounded from long double: at most 0.502 ulp off, and 2e-19 where
        # the value is 0 (measured 0.5016 ulp and 1.8e-19)
        n = dirichlet.EXP_TABLE_SIZE
        with mp.workdps(30):
            for j, t in enumerate(dirichlet._EXP_TABLE):
                ref = mp.expj(-2 * mp.pi * j / n)
                for got, want in ((t.real, ref.real), (t.imag, ref.imag)):
                    zero = abs(want) < 1e-25
                    bound = 2e-19 if zero else 0.502 * np.spacing(abs(float(want)))
                    assert abs(got - want) <= bound

    def test_error_against_mpmath(self):
        # random phases up to the direct terms' 64 log n, the rounding
        # boundaries of k (r = +-c/2) and the ends of the domain
        c = 2.0 * math.pi / dirichlet.EXP_TABLE_SIZE
        rng = np.random.default_rng(17)
        edges = (np.arange(-300, 300) + 0.5) * c
        top = dirichlet.EXP_PHASE_MAX * (1.0 - 1e-12)
        phi = np.concatenate([
            rng.uniform(-1100.0, 1100.0, 600), rng.uniform(-7.0, 7.0, 100),
            edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
            rng.uniform(-top, top, 50), [top, -top, 0.0, -0.0, 1e-300, c, -c]])
        got = dirichlet._exp_minus_i(phi, np.empty(phi.size, dtype=complex))
        with mp.workdps(30):
            err = max(abs(mp.expj(-mp.mpf(x)) - mp.mpc(z)) for x, z in zip(phi, got))
        assert err <= 2e-16

    def test_shapes_and_chunks(self, monkeypatch):
        phi = np.random.default_rng(5).uniform(-700.0, 700.0, (37, 29))
        whole = dirichlet._exp_minus_i(phi, np.empty(phi.shape, dtype=complex))
        assert np.abs(whole - np.exp(-1j * phi)).max() <= 4e-16
        # each element's arithmetic does not depend on the chunking
        monkeypatch.setattr(dirichlet, "EXP_CHUNK", 100)
        chunked = dirichlet._exp_minus_i(phi, np.empty(phi.shape, dtype=complex))
        assert np.array_equal(chunked, whole)
        for out in (np.empty((37, 58), dtype=complex)[:, ::2], np.empty(37 * 29, dtype=complex)):
            with pytest.raises(ValueError, match="C-contiguous"):
                dirichlet._exp_minus_i(phi, out)


class TestPairIntegral:
    def test_single_diagonal_term(self):
        one = dirichlet.DirichletPoly(coeffs=np.array([1.0]))
        assert dirichlet.pair_integral_exact(one, one, 7.25) == pytest.approx(7.25, rel=1e-15)

    def test_full_period_off_diagonal(self):
        a = dirichlet.DirichletPoly(coeffs=np.array([0.0, 1.0]))
        b = dirichlet.DirichletPoly(coeffs=np.array([0.0, 0.0, 1.0]))
        T = 2.0 * math.pi / math.log(1.5)
        assert abs(dirichlet.pair_integral_exact(a, b, T)) < 1e-12

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            A = dirichlet.DirichletPoly(coeffs=rng.uniform(-1, 1, int(rng.integers(2, 51))))
            B = dirichlet.DirichletPoly(coeffs=rng.uniform(-1, 1, int(rng.integers(2, 51))))
            T = float(rng.uniform(10.0, 200.0))
            exact = dirichlet.pair_integral_exact(A, B, T)
            assert abs(exact - quad_pair_integral(A, B, T)) <= 1e-8

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-2, 2), min_size=1, max_size=12),
        st.lists(st.floats(-2, 2), min_size=1, max_size=12),
        st.lists(st.floats(-2, 2), min_size=1, max_size=12),
        st.floats(1, 500),
    )
    def test_bilinearity(self, c1, c2, c3, T):
        n = max(len(c1), len(c2))
        a1 = np.zeros(n)
        a1[: len(c1)] = c1
        a2 = np.zeros(n)
        a2[: len(c2)] = c2
        A1, A2 = dirichlet.DirichletPoly(coeffs=a1), dirichlet.DirichletPoly(coeffs=a2)
        A12 = dirichlet.DirichletPoly(coeffs=a1 + 2.5 * a2)
        B = dirichlet.DirichletPoly(coeffs=np.array(c3))
        lhs = dirichlet.pair_integral_exact(A12, B, T)
        rhs = dirichlet.pair_integral_exact(A1, B, T) + 2.5 * dirichlet.pair_integral_exact(A2, B, T)
        scale = 1.0 + abs(lhs) + abs(rhs)
        assert lhs == pytest.approx(rhs, abs=1e-9 * scale)

    @pytest.mark.parametrize("len_a, len_b, T", [
        (200, 200, 1.0e4), (200, 37, 5000.5), (113, 200, 10.0), (1, 200, 777.7),
    ])
    def test_against_mpmath_at_campaign_scale(self, len_a, len_b, T):
        # lengths and heights of the mean-value campaign (the quadrature oracle
        # stops at length 50 and T = 200); the documented tolerance is 1e-10
        rng = np.random.default_rng(len_a * len_b)
        a = rng.uniform(-1.0, 1.0, len_a)
        b = rng.uniform(-1.0, 1.0, len_b)
        got = dirichlet.pair_integral_exact(
            dirichlet.DirichletPoly(coeffs=a), dirichlet.DirichletPoly(coeffs=b), T)
        ref = mp_pair_integral(a, b, T)
        assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_small_T_long_polynomials(self):
        # at T = 0.01 each off-diagonal term (e^(iT lam) - 1)/(i lam) is about T,
        # while u^T R v and a^T R b (each about 4.4e3 here) sum terms 1/lam:
        # their difference is 1.2e-4 of their size
        rng = np.random.default_rng(500)
        a = rng.uniform(-1.0, 1.0, 500)
        b = rng.uniform(-1.0, 1.0, 500)
        got = dirichlet.pair_integral_exact(
            dirichlet.DirichletPoly(coeffs=a), dirichlet.DirichletPoly(coeffs=b), 0.01)
        ref = mp_pair_integral_series(a, b, 0.01)
        assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_series_oracle_matches_pairwise_oracle(self):
        rng = np.random.default_rng(7)
        a, b = rng.uniform(-1.0, 1.0, 30), rng.uniform(-1.0, 1.0, 45)
        ref = mp_pair_integral(a, b, 0.01)
        assert abs(mp_pair_integral_series(a, b, 0.01) - ref) <= 1e-14 * abs(ref)

    def test_complex_coefficients_match_pairwise_kernel(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1.0, 1.0, 150) + 1j * rng.uniform(-1.0, 1.0, 150)
        b = rng.uniform(-1.0, 1.0, 90) * np.exp(1j * np.arange(90) / 5.0)
        for T in (0.3, 777.7, 9999.0):
            got = dirichlet.pair_integral_exact(
                dirichlet.DirichletPoly(coeffs=a), dirichlet.DirichletPoly(coeffs=b), T)
            ref = kernel_pair_integral(a, b, T)
            assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_row_blocks_match_one_block(self, monkeypatch):
        # blocks of 7 rows of R; rows past len B have no diagonal entry
        rng = np.random.default_rng(3)
        A = dirichlet.DirichletPoly(coeffs=rng.uniform(-1.0, 1.0, 60))
        B = dirichlet.DirichletPoly(coeffs=rng.uniform(-1.0, 1.0, 40))
        whole = dirichlet.pair_integral_exact(A, B, 123.4)
        monkeypatch.setattr(dirichlet, "CHUNK_ELEMS", 7 * B.length)
        assert dirichlet.pair_integral_exact(A, B, 123.4) == pytest.approx(whole, rel=1e-13)

    def test_pair_budget(self):
        big = dirichlet.DirichletPoly(coeffs=np.ones(20001))
        with pytest.raises(BudgetError, match="pairs"):
            dirichlet.pair_integral_exact(big, big, 10.0)
        # the cap holds per pair: a batch fails on any pair above it
        one = dirichlet.DirichletPoly(coeffs=np.ones(1))
        with pytest.raises(BudgetError, match="pairs"):
            dirichlet.mv_reports([(one, one, 5.0), (big, big, 10.0)])

    @staticmethod
    def _mixed_triples():
        # lengths 1 to 90, real and complex coefficients, T from 0.5 to 9999
        rng = np.random.default_rng(23)
        triples = []
        for i in range(25):
            la, lb = (int(x) for x in rng.integers(1, 91, 2))
            a = rng.uniform(-1.0, 1.0, la)
            b = rng.uniform(-1.0, 1.0, lb)
            if i % 3 == 0:
                a = a + 1j * rng.uniform(-1.0, 1.0, la)
            if i % 4 == 1:
                b = b * np.exp(1j * np.arange(lb) / 3.0)
            T = 0.5 if i == 7 else float(rng.uniform(10.0, 9999.0))
            triples.append((dirichlet.DirichletPoly(coeffs=a),
                            dirichlet.DirichletPoly(coeffs=b), T))
        return triples

    def test_batch_matches_single_pairs(self, monkeypatch):
        # a pair's value depends on the other pairs of its batch only through
        # the zero padding of the matrix products: 1.7e-13 relative at T = 0.5,
        # where u^T R v and a^T R b cancel most, and <= 6e-16 elsewhere
        triples = self._mixed_triples()
        diag, off, _ = dirichlet._pair_parts_many(triples)
        assert len(diag) == len(off) == len(triples)
        # longest A 79, longest B 86: groups of 3 pairs, blocks of 50 rows of R
        monkeypatch.setattr(dirichlet, "CHUNK_ELEMS", 16 * 3 * 90)
        small = dirichlet._pair_parts_many(triples)[:2]
        monkeypatch.undo()
        for (A, B, T), d, o, d2, o2 in zip(triples, diag, off, *small):
            single = dirichlet.pair_integral_exact(A, B, T)
            ref = kernel_pair_integral(A.coeffs, B.coeffs, T)
            assert d == T * fsum_diagonal(A, B) == d2
            assert abs(d + o - single) <= 1e-12 * abs(single)
            assert abs(o2 - o) <= 1e-12 * abs(o)
            assert abs(d + o - ref) <= 1e-10 * abs(ref)
        assert dirichlet._pair_parts_many([]) == ([], [], [])

    @pytest.mark.parametrize("which", ["mixed", "campaign", "huge"])
    def test_diagonal_and_envelope_match_one_fsum_per_pair(self, monkeypatch, which):
        # exact parts of a group's zero-padded rows give every pair's
        # diagonal and weighted norms bit for bit, for any grouping; terms
        # of 2^960 and more, beyond the exact parts' range, too
        from zml.cli import campaign_trials

        poly = dirichlet.DirichletPoly
        triples = {
            "mixed": self._mixed_triples,
            "campaign": lambda: list(campaign_trials(7, 300)),
            "huge": lambda: [
                (poly(coeffs=np.array([1e150, 1.0])), poly(coeffs=np.array([1e150, -2.0])), 10.0),
                (poly(coeffs=np.array([0.5])), poly(coeffs=np.array([0.25, 1.0])), 20.0)],
        }[which]()
        want = [(T * fsum_diagonal(A, B),
                 math.sqrt(fsum_weighted_norm2(A)) * math.sqrt(fsum_weighted_norm2(B)))
                for A, B, T in triples]
        for chunk in (dirichlet.CHUNK_ELEMS, 16 * 3 * 200, 1):
            monkeypatch.setattr(dirichlet, "CHUNK_ELEMS", chunk)
            diag, _, env = dirichlet._pair_parts_many(triples)
            assert list(zip(diag, env)) == want, chunk
        reports = dirichlet.mv_reports(triples)
        assert [(rep.main, rep.envelope) for rep in reports] == want

    def test_batch_reports_match_single(self):
        triples = self._mixed_triples()
        reports = dirichlet.mv_reports(triples)
        assert dirichlet.mv_reports([]) == []
        for (A, B, T), rep in zip(triples, reports):
            one = dirichlet.mv_reports([(A, B, T)])[0]
            assert rep.T == T and rep.main == one.main and rep.envelope == one.envelope
            assert rep.ratio == pytest.approx(one.ratio, rel=1e-12)
            assert type(rep.ratio) is float and type(rep.exact) is complex


class TestMeanValueReport:
    def test_diagonal_only_ratio_zero(self):
        one = dirichlet.DirichletPoly(coeffs=np.array([1.0]))
        rep = dirichlet.mv_reports([(one, one, 5.0)])[0]
        assert rep.exact == rep.main
        assert rep.ratio == 0.0

    def test_envelope_hand_value(self):
        poly = dirichlet.DirichletPoly(coeffs=1.0 / np.arange(1.0, 6.0))
        rep = dirichlet.mv_reports([(poly, poly, 50.0)])[0]
        assert rep.envelope == pytest.approx(ov.ENVELOPE_INV_N_5, rel=1e-14)

    def test_scaled_mollifier_ratio_bounded(self, sieve_10k):
        # coefficients mu(n) n^(-c) at the off-line abscissa c = 1 + 1/log T
        T = 1000.0
        c = 1.0 + 1.0 / math.log(T)
        ns = np.arange(1.0, 101.0)
        coeffs_a = sieve_10k[1:101] * ns ** (-c)
        coeffs_b = sieve_10k[1:101] * ns ** (c - 1.0)
        A = dirichlet.DirichletPoly(coeffs=coeffs_a)
        B = dirichlet.DirichletPoly(coeffs=coeffs_b)
        rep = dirichlet.mv_reports([(A, B, T)])[0]
        assert rep.ratio <= 10.0

    def test_gap_is_the_off_diagonal_part(self):
        # the diagonal T (1 + 1e-18) dwarfs the off-diagonal part (~1e-9):
        # exact - main would keep about 3 of its digits
        a = np.array([1.0, 1e-9])
        poly = dirichlet.DirichletPoly(coeffs=a)
        rep = dirichlet.mv_reports([(poly, poly, 9876.5)])[0]
        _, off = mp_pair_parts(a, a, 9876.5)
        assert rep.ratio == pytest.approx(float(abs(off)) / rep.envelope, rel=1e-12)
        assert rep.exact == pytest.approx(mp_pair_integral(a, a, 9876.5), rel=1e-15)

    def test_campaign_trial_973(self):
        # the seed-42 trial with the smallest ratio, 0.0018, where |main| is
        # 2.4e3 |gap|: 4.3e-11 off with double phases T log n, with or without
        # the diagonal subtracted; 2.9e-13 with the phases reduced in long double
        from zml.cli import campaign_trials, mv_campaign

        ratio = mv_campaign(seed=42, trials=974)[973]
        A, B, T = list(campaign_trials(seed=42, trials=974))[973]
        _, off = mp_pair_parts(A.coeffs, B.coeffs, T)
        ref = float(abs(off)) / dirichlet.mv_reports([(A, B, T)])[0].envelope
        assert ref == pytest.approx(0.0018150490542916119, rel=1e-15)
        assert ratio == pytest.approx(ref, rel=1e-12)

    def test_campaign_max_ratio(self):
        from zml.cli import mv_campaign

        ratios = mv_campaign(seed=42, trials=200)
        assert max(ratios) <= 10.0

    def test_campaign_pinned(self):
        # a change to the RNG draw order or to the pair integral shows here
        from zml.cli import mv_campaign

        ratios = mv_campaign(seed=42, trials=1000)
        max_ratio, mean_ratio = ov.MV_CAMPAIGN_42_1000
        assert max(ratios) == pytest.approx(max_ratio, rel=1e-9)
        assert math.fsum(ratios) / len(ratios) == pytest.approx(mean_ratio, rel=1e-9)

    @pytest.mark.parametrize("seed, trials, digest", CAMPAIGN_DIGESTS,
                             ids=[f"{seed}-{trials}" for seed, trials, _ in CAMPAIGN_DIGESTS])
    def test_campaign_bits_pinned(self, seed, trials, digest):
        """Every ratio bit for bit as when one mv_reports call took every
        trial, fewer than one batch, across one and across many.  The
        digests hold one host's bits: the pair integral's matrix-vector
        products give other bits under another OpenBLAS kernel, and no
        kernel of this OpenBLAS gives these digests on an AVX-512 host."""
        from zml.cli import mv_campaign

        ratios = np.array(mv_campaign(seed, trials), dtype="<f8")
        assert hashlib.sha256(ratios.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_campaign_bits_do_not_depend_on_blas_threads(self, threads):
        # one matrix-matrix product of R gave other bits on one BLAS thread
        # than on two; the pins hold in a process with either count
        code = ("import hashlib, numpy as np; from zml.cli import mv_campaign\n"
                "for seed, trials, _ in %r:\n"
                "    r = np.array(mv_campaign(seed, trials), dtype='<f8')\n"
                "    print(hashlib.sha256(r.tobytes()).hexdigest())" % (CAMPAIGN_DIGESTS,))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [digest for _, _, digest in CAMPAIGN_DIGESTS]

    def test_campaign_holds_one_batch(self):
        # 6.5 MB with every trial's polynomials held at once, 3.4 MB with
        # one batch of MV_BATCH trials
        from zml.cli import mv_campaign

        tracemalloc.start()
        try:
            mv_campaign(42, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5e6
