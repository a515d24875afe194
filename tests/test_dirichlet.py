import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from zml import dirichlet, sieve
from zml.errors import BudgetError, InputError

import oracle_values as ov


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


def direct_truncation(poly, gammas):
    """sum a_n n^(-1/2-i gamma) with one exponential per (gamma, n) and
    a_n != 0: the evaluator that the prime fill replaced."""
    support = np.flatnonzero(poly.coeffs)
    logs = poly.logs[support]
    w = poly.coeffs[support] * np.exp(-0.5 * logs)
    return np.exp(np.multiply.outer(gammas, -1j * logs)) @ w


class TestMollifier:
    def test_trivial_length_one(self, sieve_10k):
        m = dirichlet.mollifier(sieve_10k, 1)
        assert m.length == 1 and m.coeffs[0] == 1.0

    def test_eval_at_zero_is_mertens(self, sieve_10k):
        m = dirichlet.mollifier(sieve_10k, 10)
        assert dirichlet.eval_poly(m, 0.0) == pytest.approx(-1.0, abs=1e-14)

    def test_squarefull_coefficients_vanish(self, sieve_10k):
        m = dirichlet.mollifier(sieve_10k, 12)
        for n in (4, 8, 9, 12):
            assert m.coeffs[n - 1] == 0.0

    def test_partial_sums_of_mu_over_n_bounded(self, sieve_1e6):
        m = dirichlet.mollifier(sieve_1e6, 10**6)
        assert abs(dirichlet.eval_poly(m, 1.0)) <= 3.0


class TestTaper:
    def test_constant_taper_is_identity(self, sieve_10k):
        plain = dirichlet.mollifier(sieve_10k, 100)
        tapered = dirichlet.tapered_mollifier(sieve_10k, 100, dirichlet.TaperSpec())
        assert np.array_equal(plain.coeffs, tapered.coeffs)

    def test_linear_taper_endpoints(self, sieve_10k):
        tp = dirichlet.tapered_mollifier(sieve_10k, 10, dirichlet.TaperSpec((0.0, 1.0)))
        assert tp.coeffs[-1] == 0.0      # P(log(xi/xi)/log xi) = P(0) = 0
        assert tp.coeffs[0] == 1.0       # P(1) * mu(1) = 1

    def test_degree_cap(self):
        with pytest.raises(InputError, match="degree"):
            dirichlet.TaperSpec(tuple(range(10)))


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

    def test_batch_matches_scalar(self, sieve_10k):
        poly = dirichlet.mollifier(sieve_10k, 50)
        gammas = np.array([14.13, 777.7, 9999.9])
        batch = dirichlet.eval_poly_at_zeros(poly, gammas)
        for g, b in zip(gammas, batch):
            assert b == pytest.approx(dirichlet.eval_poly(poly, complex(0.5, g)), rel=1e-12)

    def test_truncations_match_scalar(self, sieve_10k):
        # complex coefficients, zeros at the squarefull n and at n = xi (P(0) = 0);
        # truncation points unsorted and repeated
        tapered = dirichlet.tapered_mollifier(sieve_10k, 60, dirichlet.TaperSpec((0.0, 1.0)))
        coeffs = tapered.coeffs * np.exp(1j * np.arange(60) / 7.0)
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

    def test_truncations_validate_points(self, sieve_10k):
        poly = dirichlet.mollifier(sieve_10k, 10)
        for bad in ([], [0, 5], [11]):
            with pytest.raises(InputError, match="xis|truncation"):
                dirichlet.eval_truncations_at_zeros(poly, bad, np.array([14.13]))
        assert dirichlet.eval_truncations_at_zeros(poly, [3, 10], np.array([])).shape == (0, 2)


class TestFill:
    @pytest.mark.parametrize("xi, depth, n_primes, n_products", [
        (3980, 5, 549, 1870), (31622, 6, 3401, 15822)])
    def test_mollifier_plan(self, sieve_1e6, xi, depth, n_primes, n_products):
        support = np.flatnonzero(sieve_1e6.mobius[1: xi + 1]) + 1
        plan = dirichlet.fill_plan(support)
        lv = plan.levels
        assert len(lv) - 2 == depth and plan.ns[0] == 1
        # no row beyond the squarefree support: it is closed
        assert np.array_equal(np.sort(plan.ns), support)
        primes = sieve_1e6.primes[sieve_1e6.primes <= xi]
        assert np.array_equal(plan.ns[lv[1]: lv[2]], primes) and len(primes) == n_primes
        # one product per composite row, of its cofactor and largest prime
        comp = np.arange(lv[2], len(plan.ns))
        assert len(comp) == n_products == len(support) - n_primes - 1
        cof, pr = plan.cofactor[comp], plan.prime[comp]
        assert np.array_equal(plan.ns[cof] * plan.ns[pr], plan.ns[comp])
        assert np.all((lv[1] <= pr) & (pr < lv[2]))
        largest = np.arange(xi + 1)
        for p in primes:
            largest[p:: p] = p
        assert np.all(largest[plan.ns[cof]] < plan.ns[pr])
        level = np.searchsorted(lv, comp, side="right") - 1
        assert np.all(cof < lv[level]) and np.all(cof >= lv[level - 1])
        assert np.all(plan.cofactor[: lv[2]] == -1) and np.all(plan.prime[: lv[2]] == -1)

    def test_non_closed_support(self):
        # a_12 != 0 while a_4 = a_6 = 0: 12 = 4 * 3 and 4 = 2 * 2 need rows
        # 4 and 2, added with weight 0
        coeffs = np.zeros(12, dtype=complex)
        coeffs[[0, 2, 6, 11]] = [1.0 - 0.5j, 2.0j, -0.75, 0.3 + 0.4j]
        plan = dirichlet.fill_plan(np.flatnonzero(coeffs) + 1)
        assert plan.ns.tolist() == [1, 2, 3, 7, 4, 12]
        poly = dirichlet.DirichletPoly(coeffs=coeffs)
        xis = [12, 3, 11, 4, 1]
        gammas = np.array([0.0, 14.13, 777.7, 9999.9])
        vals = dirichlet.eval_truncations_at_zeros(poly, xis, gammas)
        for b, xi in enumerate(xis):
            trunc = dirichlet.DirichletPoly(coeffs=coeffs[:xi])
            for g, v in zip(gammas, vals[:, b]):
                assert abs(v - dirichlet.eval_poly(trunc, complex(0.5, g))) <= 1e-12

    @pytest.mark.parametrize("xi, sample", [
        (3980, ov.MOLLIFIER_3980), (31622, ov.MOLLIFIER_31622)])
    def test_error_against_oracle(self, sieve_1e6, xi, sample):
        # error per zero over sum |a_n| n^(-1/2); measured 2.4e-16 (fill)
        # against 1.7e-13 (direct) near 1e4, and 3.6e-16 against 8.5e-13
        # near 1e5, on x86-64 with 80-bit long double
        gammas = np.array([g for g, _, _ in sample])
        ref = np.array([complex(re, im) for _, re, im in sample])
        poly = dirichlet.mollifier(sieve_1e6, xi)
        scale = np.abs(poly.coeffs) @ np.exp(-0.5 * poly.logs)
        fill = np.abs(dirichlet.eval_poly_at_zeros(poly, gammas) - ref).max() / scale
        direct = np.abs(direct_truncation(poly, gammas) - ref).max() / scale
        assert fill <= direct
        assert fill <= 1e-14

    def test_truncation_independent_of_other_points(self, sieve_10k):
        poly = dirichlet.mollifier(sieve_10k, 3000)
        gammas = np.linspace(9000.0, 9010.0, 13)
        alone = dirichlet.eval_truncations_at_zeros(poly, [1234], gammas)[:, 0]
        for xis in ([7, 1234, 3000], [3000, 1234, 1234, 17], [1233, 1234]):
            vals = dirichlet.eval_truncations_at_zeros(poly, xis, gammas)
            assert np.array_equal(vals[:, xis.index(1234)], alone)

    def test_small_blocks(self, sieve_10k, monkeypatch):
        # 243 rows: fills of 4 ordinates, yielded blocks of 200 ordinates
        poly = dirichlet.mollifier(sieve_10k, 400)
        gammas = np.concatenate([np.linspace(9000.0, 9100.0, 290),
                                 [14.13, 5000.5, 9050.0, 20.0, 9999.9]])
        xis = [400, 7, 150, 1, 399]
        whole = dirichlet.eval_truncations_at_zeros(poly, xis, gammas)
        monkeypatch.setattr(dirichlet, "CHUNK_ELEMS", 1000)
        monkeypatch.setattr(dirichlet, "YIELD_ROWS", 198)
        blocks = list(dirichlet.truncation_blocks(poly, xis, gammas))
        assert [(lo, v.shape) for lo, v in blocks] == [(0, (200, 5)), (200, (95, 5))]
        scale = np.abs(poly.coeffs) @ np.exp(-0.5 * poly.logs)
        assert np.abs(np.concatenate([v for _, v in blocks]) - whole).max() <= 1e-14 * scale
        ref = direct_truncation(dirichlet.DirichletPoly(coeffs=poly.coeffs[:150]), gammas)
        assert np.abs(whole[:, 2] - ref).max() <= 1e-12 * scale


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


class TestMeanValueReport:
    def test_diagonal_only_ratio_zero(self):
        one = dirichlet.DirichletPoly(coeffs=np.array([1.0]))
        rep = dirichlet.mv_report(one, one, 5.0)
        assert rep.exact == rep.main
        assert rep.ratio == 0.0

    def test_envelope_hand_value(self):
        poly = dirichlet.DirichletPoly(coeffs=1.0 / np.arange(1.0, 6.0))
        rep = dirichlet.mv_report(poly, poly, 50.0)
        assert rep.envelope == pytest.approx(ov.ENVELOPE_INV_N_5, rel=1e-14)

    def test_scaled_mollifier_ratio_bounded(self, sieve_10k):
        # coefficients mu(n) n^(-c) at the off-line abscissa c = 1 + 1/log T
        T = 1000.0
        c = 1.0 + 1.0 / math.log(T)
        ns = np.arange(1.0, 101.0)
        coeffs_a = sieve_10k.mobius[1:101] * ns ** (-c)
        coeffs_b = sieve_10k.mobius[1:101] * ns ** (c - 1.0)
        A = dirichlet.DirichletPoly(coeffs=coeffs_a)
        B = dirichlet.DirichletPoly(coeffs=coeffs_b)
        rep = dirichlet.mv_report(A, B, T)
        assert rep.ratio <= 10.0

    def test_gap_is_the_off_diagonal_part(self):
        # the diagonal T (1 + 1e-18) dwarfs the off-diagonal part (~1e-9):
        # exact - main would keep about 3 of its digits
        a = np.array([1.0, 1e-9])
        poly = dirichlet.DirichletPoly(coeffs=a)
        rep = dirichlet.mv_report(poly, poly, 9876.5)
        _, off = mp_pair_parts(a, a, 9876.5)
        assert rep.ratio == pytest.approx(float(abs(off)) / rep.envelope, rel=1e-12)
        assert rep.exact == pytest.approx(mp_pair_integral(a, a, 9876.5), rel=1e-15)

    def test_campaign_trial_973(self, monkeypatch):
        # the seed-42 trial with the smallest ratio, 0.0018, where |main| is
        # 2.4e3 |gap|: 4.3e-11 off with double phases T log n, with or without
        # the diagonal subtracted; 2.9e-13 with the phases reduced in long double
        from zml.cli import mv_campaign

        seen = []
        real = dirichlet.mv_report
        monkeypatch.setattr(dirichlet, "mv_report",
                            lambda A, B, T: seen.append((A, B, T)) or real(A, B, T))
        ratio = mv_campaign(seed=42, trials=974)[973]
        A, B, T = seen[973]
        _, off = mp_pair_parts(A.coeffs, B.coeffs, T)
        ref = float(abs(off)) / real(A, B, T).envelope
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
