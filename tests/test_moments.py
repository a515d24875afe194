import dataclasses
import math
import random

import numpy as np
import pytest

from zml import dirichlet, moments, sieve, zeros
from zml.errors import InputError, NumericsError, SimplicityError

import oracle_values as ov

PI3 = math.pi**3


@pytest.fixture(scope="module")
def poly10():
    return dirichlet.mollifier(10)


@pytest.fixture(scope="module")
def poly_one():
    return dirichlet.DirichletPoly(coeffs=np.array([1.0]))


def _tampered(zlist, i):
    """zlist with |zeta'| of zero i set below the simplicity guard."""
    z_primes = zlist.z_primes.copy()
    z_primes[i] = 1e-5
    return dataclasses.replace(zlist, z_primes=z_primes)


class TestJMoment:
    def test_empty_range(self, zeros_110):
        assert moments.j_moment(zeros_110, 1.0, 12.0) == 0.0

    def test_two_zero_desk_case(self, zeros_110):
        want = 1.0 / ov.Z_PRIME[0] ** 2 + 1.0 / ov.Z_PRIME[1] ** 2
        assert moments.j_moment(zeros_110, 1.0, 22.0) == pytest.approx(want, rel=1e-9)

    def test_additivity(self, zeros_1010):
        T1 = zeros.snap_to_midgap(zeros_1010, 300.0)
        T2 = zeros.snap_to_midgap(zeros_1010, 900.0)
        whole = moments.j_moment(zeros_1010, 1.0, T2)
        first = moments.j_moment(zeros_1010, 1.0, T1)
        o = zeros_1010.ordinates
        mask = (o > T1) & (o <= T2)
        tail = math.fsum(zeros_1010.zeta_prime_mods[mask] ** -2.0)
        assert whole == pytest.approx(first + tail, rel=1e-12)

    def test_permutation_invariance(self, zeros_1010):
        T = zeros.snap_to_midgap(zeros_1010, 900.0)
        direct = moments.j_moment(zeros_1010, 1.0, T)
        terms = list(zeros_1010.zeta_prime_mods[: zeros_1010.count_below(T)] ** -2.0)
        random.Random(5).shuffle(terms)
        assert math.fsum(terms) == pytest.approx(direct, rel=1e-12)

    def test_general_k(self, zeros_110):
        j2 = moments.j_moment(zeros_110, 2.0, 22.0)
        want = 1.0 / ov.Z_PRIME[0] ** 4 + 1.0 / ov.Z_PRIME[1] ** 4
        assert j2 == pytest.approx(want, rel=1e-9)

    def test_uncertified_refused(self, zeros_110):
        bad = dataclasses.replace(zeros_110, certified=False)
        with pytest.raises(InputError, match="certified"):
            moments.j_moment(bad, 1.0, 50.0)

    def test_t_beyond_list(self, zeros_110):
        with pytest.raises(InputError, match="t_max"):
            moments.j_moment(zeros_110, 1.0, 500.0)

    def test_simplicity_guard(self, zeros_110):
        # the largest window is guarded, as moment_grid guards each of its
        # windows; one that ends before the tampered zero sums as before
        tampered = _tampered(zeros_110, 3)
        g = tampered.ordinates[3]
        before = 0.5 * (tampered.ordinates[2] + g)
        with pytest.raises(SimplicityError, match=f"at gamma = {g:.9f};"):
            moments.j_moments(tampered, 1.0, [before, 50.0])
        assert moments.j_moments(tampered, 1.0, [before]) == moments.j_moments(
            zeros_110, 1.0, [before])

    def test_batch_equals_one_fsum_per_window(self, zeros_1010):
        # unsorted and repeated T, one below the first zero (an empty window)
        Ts = [zeros.snap_to_midgap(zeros_1010, t) for t in (900.0, 100.0, 500.0, 900.0)] + [12.0]
        for k in (1.0, 2.0):
            got = moments.j_moments(zeros_1010, k, Ts)
            mods = zeros_1010.zeta_prime_mods
            assert got == [math.fsum(mods[: zeros_1010.count_below(T)] ** (-2.0 * k)) for T in Ts]
            assert got[-1] == 0.0
            assert got == [moments.j_moment(zeros_1010, k, T) for T in Ts]
        assert moments.j_moments(zeros_1010, 1.0, []) == []


class TestPredictions:
    def test_gonek_prediction_cancellation(self):
        assert moments.gonek_prediction(PI3) == pytest.approx(3.0, rel=1e-15)

    def test_halfbound_is_half(self):
        for T in (1.0, 123.4, 1e4):
            assert moments.halfbound_prediction(T) / moments.gonek_prediction(T) == 0.5

    def test_gonek_prediction_at_1e4(self):
        assert moments.gonek_prediction(1e4) == pytest.approx(967.55, abs=0.01)

    def test_predict_m1_value(self):
        params = moments.MollifierParams.from_theta(0.5, 5000.0)
        assert moments.predict_m1(params) == pytest.approx(
            1.5 / PI3 * 5000.0 * math.log(5000.0), rel=1e-15
        )
        assert moments.predict_m1(params) == pytest.approx(2060.4, abs=0.5)

    def test_predict_m1_finite_hand_sum(self):
        params = moments.MollifierParams(theta_exp=0.5, T=100.0, xi=10)
        want = 100.0 / (2 * math.pi) * (1 + 1/2 + 1/3 + 1/5 + 1/6 + 1/7 + 1/10)
        assert moments.predict_m1_finite(params) == pytest.approx(want, rel=1e-15)

    def test_predict_m1_finite_beyond_sieve(self):
        # no table to reach: the streamed sum stops at the sieve's memory cap
        params = moments.MollifierParams(theta_exp=0.99, T=1e9, xi=sieve.MEMORY_CAP + 1)
        with pytest.raises(InputError, match=f"xi = {sieve.MEMORY_CAP + 1} outside range"):
            moments.predict_m1_finite(params)

    def test_finite_xi_excess_is_the_constant_c(self):
        # sum_{n<=xi} mu(n)^2/n = (6/pi^2)(log xi + c) + O(xi^(-1/2)); the
        # largest |remainder| * sqrt(xi) on this grid is 0.31, at xi = 7
        for xi in (7, 31, 70, 388, 2133, 3980, 10**4):
            rem = sieve.squarefree_harmonic(xi) - sieve.SIX_OVER_PI2 * (
                math.log(xi) + ov.SQUAREFREE_HARMONIC_C
            )
            assert abs(rem) <= xi**-0.5, xi

    def test_finite_over_first_order_at_criterion_5(self):
        # (log xi + c) / (theta log T) = 1.4008 at theta = 0.5, T = 5000, xi = 70,
        # up to the xi^(-1/2) remainder of the squarefree harmonic sum
        params = moments.MollifierParams.from_theta(0.5, 5000.0)
        ratio = moments.predict_m1_finite(params) / moments.predict_m1(params)
        want = (math.log(params.xi) + ov.SQUAREFREE_HARMONIC_C) / (0.5 * math.log(5000.0))
        slack = params.xi**-0.5 / (sieve.SIX_OVER_PI2 * 0.5 * math.log(5000.0))
        assert want == pytest.approx(1.4008, abs=1e-4)
        assert abs(ratio - want) <= slack

    def test_predict_m2_theta_to_one(self):
        params = moments.MollifierParams.from_theta(1.0 - 1e-9, 5000.0)
        ratio = moments.predict_m2(params) / (5000.0 * math.log(5000.0) ** 2)
        assert ratio == pytest.approx(6.0 / PI3, abs=1e-5)
        assert ratio == pytest.approx(0.19351, abs=1e-4)

    def test_m1_m2_algebraic_identity(self):
        for th in (0.3, 0.5, 0.9):
            params = moments.MollifierParams.from_theta(th, 7777.0)
            lhs = moments.predict_m1(params) * math.log(params.T) * (1.0 + th)
            assert lhs / moments.predict_m2(params) == pytest.approx(1.0, rel=1e-12)

    def test_sweep_prediction(self):
        assert moments.sweep_prediction(0.5, 300.0) == pytest.approx(300.0 / PI3, rel=1e-14)
        vals = [moments.sweep_prediction(th, 100.0) for th in np.linspace(0.05, 0.95, 10)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_params_validation(self):
        with pytest.raises(InputError):
            moments.MollifierParams.from_theta(1.5, 100.0)
        with pytest.raises(InputError):
            moments.MollifierParams.from_theta(0.5, 0.5)


def _report(zlist, poly, T):
    """moment_report at T with theta such that xi = poly.length (poly_one
    and poly10 are the mollifiers of lengths 1 and 10)."""
    rep = moments.moment_report(zlist, math.log(poly.length + 0.5) / math.log(T), T)
    assert rep.params.xi == poly.length
    return rep


def _oracle_sums(zlist, poly, T):
    """(M1, M2) over the zeros up to T from dirichlet.eval_poly, the exactly
    rounded scalar evaluator, which shares no code with truncation_blocks."""
    n = zlist.count_below(T)
    vals = np.array([dirichlet.eval_poly(poly, complex(0.5, g)) for g in zlist.ordinates[:n]])
    terms = np.conj(vals) / zlist.zeta_primes[:n]
    return complex(math.fsum(terms.real), math.fsum(terms.imag)), math.fsum(np.abs(vals) ** 2)


class TestM1M2:
    def test_below_first_zero(self, zeros_110, poly_one, poly10):
        for poly in (poly_one, poly10):
            rep = _report(zeros_110, poly, 12.0)
            assert (rep.m1, rep.m2) == (0j, 0.0)

    def test_constant_poly_degenerations(self, zeros_110, poly_one):
        T = 100.0
        n = zeros_110.count_below(T)
        rep = _report(zeros_110, poly_one, T)
        assert rep.m2 == pytest.approx(float(n), rel=1e-14)
        want = complex(
            math.fsum((1.0 / zeros_110.zeta_primes[:n]).real),
            math.fsum((1.0 / zeros_110.zeta_primes[:n]).imag),
        )
        assert rep.m1 == pytest.approx(want, rel=1e-14)

    def test_two_zero_m1_from_oracle(self, zeros_110, poly_one):
        want = 1.0 / complex(*ov.ZETA_PRIME[0]) + 1.0 / complex(*ov.ZETA_PRIME[1])
        assert _report(zeros_110, poly_one, 22.0).m1 == pytest.approx(want, abs=1e-8)

    def test_matches_scalar_oracle(self, zeros_110, poly_one, poly10):
        for poly in (poly_one, poly10):
            rep = _report(zeros_110, poly, 100.0)
            m1, m2 = _oracle_sums(zeros_110, poly, 100.0)
            assert abs(rep.m1 - m1) <= 1e-12 * abs(m1)
            assert rep.m2 == pytest.approx(m2, rel=1e-12)

    def test_conjugation_consistency(self, zeros_110, poly10):
        # |M(rho)|^2 equals M(rho) * M(1-rho) through the critical-line identity
        T = 100.0
        n = zeros_110.count_below(T)
        direct = _report(zeros_110, poly10, T).m2
        via_reflection = math.fsum(
            (
                dirichlet.eval_poly(poly10, complex(0.5, g))
                * dirichlet.eval_poly(poly10, 1.0 - complex(0.5, g))
            ).real
            for g in zeros_110.ordinates[:n]
        )
        assert direct == pytest.approx(via_reflection, rel=1e-10)

    def test_simplicity_guard_halts(self, zeros_110, poly_one, poly10):
        tampered = _tampered(zeros_110, 3)
        for poly in (poly_one, poly10):
            with pytest.raises(SimplicityError,
                               match=f"guard .* at gamma = {tampered.ordinates[3]:.9f};"):
                _report(tampered, poly, 50.0)


class TestCauchyChain:
    def test_holds_on_desk_case(self, zeros_110):
        T = zeros.snap_to_midgap(zeros_110, 22.0)
        rep = moments.moment_report(zeros_110, 0.5, T)
        assert moments.cauchy_chain(rep)
        assert rep.j_minus_1 >= rep.cauchy_lb

    def test_holds_across_grid(self, zeros_1010):
        for T_req in (100.0, 300.0, 1000.0):
            T = zeros.snap_to_midgap(zeros_1010, T_req)
            for th in (0.3, 0.5, 0.7):
                rep = moments.moment_report(zeros_1010, th, T)
                assert moments.cauchy_chain(rep)

    def test_constant_weight_case(self, zeros_110, poly_one):
        T = 100.0
        n = zeros_110.count_below(T)
        m1 = _report(zeros_110, poly_one, T).m1
        j = moments.j_moment(zeros_110, 1.0, T)
        assert abs(m1) ** 2 / n <= j * (1 + 1e-12)


class TestMomentGrid:
    def test_matches_per_point_sums(self, zeros_1010):
        # unsorted, with one point repeated; compared with one mollifier per
        # point, evaluated zero by zero by the scalar oracle
        Ts = [zeros.snap_to_midgap(zeros_1010, t) for t in (1000.0, 100.0, 300.0)]
        points = [(th, T) for T in Ts for th in (0.9, 0.3, 0.5, 0.7)] + [(0.5, Ts[1])]
        reports = moments.moment_grid(zeros_1010, points)
        assert len(reports) == len(points)
        for (th, T), rep in zip(points, reports):
            assert (rep.params.theta_exp, rep.params.T) == (th, T)
            m1, m2 = _oracle_sums(zeros_1010, dirichlet.mollifier(rep.params.xi), T)
            assert rep.j_minus_1 == moments.j_moment(zeros_1010, 1.0, T)
            assert rep.m1 == pytest.approx(m1, rel=1e-12)
            assert rep.m2 == pytest.approx(m2, rel=1e-12)
            assert rep.sweep_pred == moments.sweep_prediction(th, T)
            assert rep.m1_pred == moments.predict_m1(rep.params)
            assert rep.m2_pred == moments.predict_m2(rep.params)

    def test_streamed_sums_equal_one_fsum(self, zeros_1010, monkeypatch):
        # yielded blocks of 60 zeros: windows end inside blocks, and each
        # sum must equal one fsum over its window
        monkeypatch.setattr(dirichlet, "YIELD_ROWS", 60)
        Ts = [zeros.snap_to_midgap(zeros_1010, t) for t in (1000.0, 100.0, 300.0, 777.0)]
        points = [(th, T) for T in Ts for th in (0.3, 0.5, 0.9)]
        reports = moments.moment_grid(zeros_1010, points)
        xis = [rep.params.xi for rep in reports]
        n_max = zeros_1010.count_below(max(Ts))
        vals = dirichlet.eval_truncations_at_zeros(
            dirichlet.mollifier(max(xis)), xis, zeros_1010.ordinates[:n_max])
        for b, rep in enumerate(reports):
            n = zeros_1010.count_below(rep.params.T)
            terms = np.conj(vals[:n, b]) / zeros_1010.zeta_primes[:n]
            assert rep.m1 == complex(math.fsum(terms.real), math.fsum(terms.imag))
            assert rep.m2 == math.fsum(np.abs(vals[:n, b]) ** 2)

    def test_every_point_equals_moment_report(self, zeros_10k_timed):
        # the reproduction's theta-sweep grid at t_max 1e4: a zero's
        # mollifier value depends on its gamma and xi alone, so each point
        # of the one pass is the same bits as the point evaluated alone
        zlist, _ = zeros_10k_timed
        Ts = [zeros.snap_to_midgap(zlist, float(t)) for t in range(1000, 10001, 1000)]
        points = [(th, T) for T in Ts for th in (0.3, 0.5, 0.7, 0.9)]
        reports = moments.moment_grid(zlist, points)
        assert len(reports) == 40
        for (th, T), rep in zip(points, reports):
            assert rep == moments.moment_report(zlist, th, T)

    def test_matches_direct_evaluator(self, zeros_1010):
        # against one exponential per (zero, n), reduced with math.fsum
        T = zeros.snap_to_midgap(zeros_1010, 1000.0)
        n = zeros_1010.count_below(T)
        for rep in moments.moment_grid(zeros_1010, [(0.5, T), (0.9, T)]):
            poly = dirichlet.mollifier(rep.params.xi)
            support = np.flatnonzero(poly.coeffs)
            logs = poly.logs[support]
            vals = np.exp(np.multiply.outer(zeros_1010.ordinates[:n], -1j * logs)) @ (
                poly.coeffs[support] * np.exp(-0.5 * logs))
            terms = np.conj(vals) / zeros_1010.zeta_primes[:n]
            m1 = complex(math.fsum(terms.real), math.fsum(terms.imag))
            assert abs(rep.m1 - m1) <= 1e-12 * abs(m1)
            assert rep.m2 == pytest.approx(math.fsum(np.abs(vals) ** 2), rel=1e-12)

    def test_empty_grid_and_empty_window(self, zeros_110):
        assert moments.moment_grid(zeros_110, []) == []
        rep, = moments.moment_grid(zeros_110, [(0.5, 12.0)])
        assert (rep.j_minus_1, rep.m1, rep.m2, rep.cauchy_lb) == (0.0, 0j, 0.0, 0.0)

    def test_block_of_zero_values(self, zeros_110, monkeypatch):
        # a block whose every term is zero leaves no exact parts
        def zero_blocks(poly, xis, gammas):
            yield 0, np.zeros((len(gammas), len(xis)), dtype=complex)
        monkeypatch.setattr(moments, "truncation_blocks", zero_blocks)
        T = zeros.snap_to_midgap(zeros_110, 100.0)
        rep, = moments.moment_grid(zeros_110, [(0.5, T)])
        assert (rep.m1, rep.m2, rep.cauchy_lb) == (0j, 0.0, 0.0)

    def test_simplicity_error_from_any_point(self, zeros_110):
        tampered = _tampered(zeros_110, 3)
        g = tampered.ordinates[3]
        before, after = 0.5 * (tampered.ordinates[2] + g), 50.0
        for points in ([(0.5, after)], [(0.5, before), (0.3, after)],
                       [(0.3, after), (0.5, before)]):
            with pytest.raises(SimplicityError, match="guard"):
                moments.moment_grid(tampered, points)
        assert moments.moment_grid(tampered, [(0.5, before)])[0].m2 > 0.0

    def test_checks_every_point(self, zeros_110):
        with pytest.raises(InputError, match="theta_exp"):
            moments.moment_grid(zeros_110, [(0.3, 50.0), (1.0, 50.0)])
        with pytest.raises(InputError, match="t_max"):
            moments.moment_grid(zeros_110, [(0.5, 50.0), (0.5, 500.0)])
        bad = dataclasses.replace(zeros_110, certified=False)
        with pytest.raises(InputError, match="certified"):
            moments.moment_grid(bad, [(0.5, 50.0)])


class TestExactParts:
    @staticmethod
    def _check_every_prefix(x, block):
        # the ends of every stretch of `block` rows, shuffled, with repeats and 0
        ends = list(range(0, x.shape[0], block)) + [x.shape[0]]
        ends = [int(e) for e in np.random.default_rng(block).permutation(ends + ends[::3])]
        sums = sieve._prefix_fsums(x, ends)
        assert len(sums) == len(ends)
        for end, got in zip(ends, sums):
            assert got == [math.fsum(x[:end, k]) for k in range(x.shape[1])]
        return sums[ends.index(x.shape[0])]

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_random_magnitudes(self, block):
        rng = np.random.default_rng(block)
        x = rng.standard_normal((600, 4)) * 10.0 ** rng.uniform(-30, 30, (600, 4))
        x[:, 3] = np.abs(x[:, 3])
        self._check_every_prefix(x, block)

    @pytest.mark.parametrize("block", [1, 2, 3, 64])
    def test_cancelling_terms(self, block):
        cols = [
            [1e16, 1.0, -1e16, 1e-16, 3.0, -3.0, -1e-16],
            [1.0, 2.0**-53, 2.0**-105, 0.0, 0.0, 0.0, 0.0],   # rounds up, not to even
            [2.0**-1074, 1e200, -2.0**-1074, -1e200, 2.0**-1074, 5e-324, 0.0],
            [0.1] * 6 + [-0.6],
            [1e100, 1.0, -1e100, 1e-100, -1.0, 2.0**-60, -1e-100],
        ]
        whole = self._check_every_prefix(np.array(cols).T, block)
        assert whole == [math.fsum(c) for c in cols]
        assert whole[1] == 1.0 + 2.0**-52

    def test_one_column_and_no_rows(self):
        x = np.array([[0.1], [0.2], [0.3]])
        assert sieve._prefix_fsums(x, [3, 0, 2]) == [[math.fsum(x[:, 0])], [0.0], [0.1 + 0.2]]
        assert sieve._prefix_fsums(np.zeros((0, 2)), [0, 0]) == [[0.0, 0.0]] * 2
        assert sieve._prefix_fsums(x, []) == []

    def test_non_finite_rejected(self):
        with pytest.raises(NumericsError):
            sieve._exact_parts(np.array([[1.0], [math.nan]]))
        with pytest.raises(NumericsError):
            sieve._exact_parts(np.array([[math.inf], [0.0]]))


class TestThetaSweep:
    @staticmethod
    def _sweep(zlist, T, thetas):
        # rows as cmd_moments assembles them
        points = [(th, T) for th in thetas]
        reports = dict(zip(points, moments.moment_grid(zlist, points)))
        return moments.theta_sweep(T, thetas, reports)

    def test_rows_match_moment_report(self, zeros_1010):
        T = zeros.snap_to_midgap(zeros_1010, 1000.0)
        rows = self._sweep(zeros_1010, T, [0.3, 0.5, 0.99])
        assert rows[0]["cauchy_ok"] and rows[1]["cauchy_ok"]
        assert rows[0]["cauchy_lb"] > 0
        rep = moments.moment_report(zeros_1010, 0.5, T)
        assert rows[1]["cauchy_lb"] == rep.cauchy_lb
        # mu is sieved up to the largest xi, 1000.57^0.99 -> 933, for the grid itself
        assert rows[2]["xi"] == 933 and rows[2]["cauchy_ok"]


class TestLandau:
    def test_main_terms(self, zeros_110):
        T = 100.0
        rep6 = moments.landau_gonek(zeros_110, 6.0, T)
        assert rep6.main_term == 0.0
        rep4 = moments.landau_gonek(zeros_110, 4.0, T)
        rep2 = moments.landau_gonek(zeros_110, 2.0, T)
        want = -(T / (2 * math.pi)) * math.log(2.0)
        assert rep4.main_term == pytest.approx(want, rel=1e-14)
        assert rep2.main_term == rep4.main_term

    def test_non_integer_x(self, zeros_110):
        rep = moments.landau_gonek(zeros_110, 2.5, 100.0)
        assert rep.main_term == 0.0
        assert rep.deviation == abs(rep.zero_sum)

    def test_zero_sum_value(self, zeros_110):
        # direct two-zero evaluation
        rep = moments.landau_gonek(zeros_110, 3.0, 22.0)
        want = sum(
            math.sqrt(3.0) * np.exp(1j * g * math.log(3.0)) for g in ov.ZERO_ORDINATES[:2]
        )
        assert rep.zero_sum == pytest.approx(want, rel=1e-9)

    def test_sums_equal_one_fsum_per_window(self, zeros_1010):
        # unsorted and repeated T, one below the first zero; every x in one
        # pass gives the bits of one math.fsum per (x, T)
        Ts = [zeros.snap_to_midgap(zeros_1010, t) for t in (900.0, 100.0, 500.0, 900.0)] + [12.0]
        xs = (2.0, 4.0, 6.5)
        for x, reps in zip(xs, moments.landau_sums(zeros_1010, xs, Ts), strict=True):
            for T, rep in zip(Ts, reps, strict=True):
                phases = zeros_1010.ordinates[: zeros_1010.count_below(T)] * math.log(x)
                want = complex(math.sqrt(x) * math.fsum(np.cos(phases)),
                               math.sqrt(x) * math.fsum(np.sin(phases)))
                assert rep.T == T and rep.zero_sum == want
                assert rep == moments.landau_gonek(zeros_1010, x, T)
                assert rep.deviation == abs(want - rep.main_term)

    def test_x_domain(self, zeros_110):
        with pytest.raises(InputError):
            moments.landau_gonek(zeros_110, 1.0, 50.0)


class TestSerialization:
    def test_report_json_keys(self, zeros_110):
        T = zeros.snap_to_midgap(zeros_110, 50.0)
        rep = moments.moment_report(zeros_110, 0.5, T)
        import json

        data = json.loads(json.dumps(rep.to_json_dict(), sort_keys=True))
        for key in ("theta_exp", "t", "xi", "j_minus_1", "m1_re", "m1_im", "m2",
                    "m1_pred", "m2_pred", "cauchy_lb", "gonek_pred",
                    "halfbound_pred", "sweep_pred"):
            assert key in data

    def test_csv_rows(self, zeros_110):
        T = zeros.snap_to_midgap(zeros_110, 50.0)
        reps = [moments.moment_report(zeros_110, th, T) for th in (0.3, 0.5)]
        lines = moments.reports_csv_text(reps).splitlines()
        assert len(lines) == 3
        assert lines[0].split(",") == sorted(lines[0].split(","))
