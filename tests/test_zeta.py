import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from zml import zeta
from zml.errors import InputError, SingularityError

import oracle_values as ov

mp.mp.dps = 25
CFG = zeta.EvalConfig()


class TestEulerMaclaurin:
    def test_classical_values(self):
        assert zeta.zeta_euler_maclaurin(2.0) == pytest.approx(ov.ZETA_2, abs=1e-10)
        assert zeta.zeta_euler_maclaurin(0.0) == pytest.approx(-0.5, abs=1e-10)
        assert zeta.zeta_euler_maclaurin(3.0) == pytest.approx(ov.ZETA_3, abs=1e-10)
        assert zeta.zeta_euler_maclaurin(0.5) == pytest.approx(ov.ZETA_HALF, abs=1e-10)

    def test_complex_points(self):
        for (sig, t), (re, im) in ov.ZETA_AT.items():
            got = zeta.zeta_euler_maclaurin(complex(sig, t))
            assert got == pytest.approx(complex(re, im), abs=1e-9)

    def test_against_reference_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            s = complex(rng.uniform(-0.9, 3.0), rng.uniform(0.0, 1.0e4))
            got = zeta.zeta_euler_maclaurin(s)
            ref = complex(mp.zeta(mp.mpc(s)))
            # 1e-10 absolute with a double-precision relative floor where
            # |zeta| is large (negative sigma, large t)
            assert abs(got - ref) <= max(1e-10, 2e-11 * abs(ref))

    def test_domain_errors(self):
        with pytest.raises(SingularityError):
            zeta.zeta_euler_maclaurin(1.0)
        with pytest.raises(InputError, match="Re"):
            zeta.zeta_euler_maclaurin(-1.5)
        with pytest.raises(InputError, match="Im"):
            zeta.zeta_euler_maclaurin(0.5 + 2e4j)

    def test_conjugate_symmetry(self):
        for s in (0.7 + 123.4j, 0.5 + 55.5j, 1.3 + 999.0j):
            assert zeta.zeta_euler_maclaurin(s.conjugate()) == zeta.zeta_euler_maclaurin(
                s
            ).conjugate()


class TestTheta:
    def test_frozen_values(self):
        assert zeta.rs_theta(100.0) == pytest.approx(ov.THETA_100, abs=1e-10)
        assert zeta.rs_theta(10.0) == pytest.approx(ov.THETA_10, abs=1e-10)

    def test_vanishes_at_first_gram_point(self):
        assert abs(zeta.rs_theta(ov.GRAM[0])) < 1e-9

    def test_against_loggamma_oracle(self):
        # independent route: theta = Im log Gamma(1/4 + it/2) - (t/2) log pi
        for t in np.geomspace(2.0, 1e5, 40):
            ref = float(mp.im(mp.loggamma(mp.mpc(0.25, 0.5 * t))) - 0.5 * t * mp.log(mp.pi))
            assert zeta.rs_theta(float(t)) == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, t):
        with pytest.raises(InputError, match="finite"):
            zeta.rs_theta(t)

    def test_monotone_above_ten(self):
        ts = np.linspace(10.0, 5000.0, 400)
        vals = zeta.rs_theta_many(ts)
        assert np.all(np.diff(vals) > 0)


class TestHardyZ:
    def test_first_zero_bracket(self):
        assert zeta.hardy_z(14.0) * zeta.hardy_z(15.0) < 0

    def test_z_squared_equals_zeta_squared(self):
        for t in (50.0, 500.0, 5000.0):
            z = zeta.hardy_z(t, CFG)
            zeta_val = zeta.zeta_euler_maclaurin(0.5 + 1j * t, CFG)
            assert z * z == pytest.approx(abs(zeta_val) ** 2, rel=1e-8)

    def test_auto_matches_rotated_em_on_overlap(self):
        # cross-evaluator agreement window
        for t in np.linspace(30.0, 500.0, 60):
            em = zeta.hardy_z(float(t), CFG, method="em")
            assert abs(zeta.hardy_z(float(t), CFG) - em) <= 1e-8

    def test_rs_route_vs_em_route(self):
        # genuine dual-route agreement; RS truncation dominates below ~100
        worst_low = worst_high = 0.0
        for t in np.linspace(30.0, 500.0, 120):
            gap = abs(
                zeta.hardy_z(float(t), CFG, method="rs")
                - zeta.hardy_z(float(t), CFG, method="em")
            )
            if t < zeta.RS_CROSSOVER:
                worst_low = max(worst_low, gap)
            else:
                worst_high = max(worst_high, gap)
        assert worst_low < 5e-6
        assert worst_high < 1e-8

    def test_rs_corrections_validated_against_reference(self):
        # the embedded Taylor data, all orders, against 25-digit reference
        for t in (30.0, 75.0, 300.0, 1000.0, 10000.0, 99000.0):
            ref = float(mp.siegelz(t))
            errs = [
                abs(zeta.hardy_z(t, zeta.EvalConfig(rs_correction_order=j), "rs") - ref)
                for j in range(5)
            ]
            assert errs[4] <= {30.0: 2e-6, 75.0: 1e-7}.get(t, 1e-8)
            assert errs[4] <= errs[0]

    def test_accuracy_against_reference(self):
        for t in (14.2, 95.0, 299.9, 300.1, 2500.0, 99999.5):
            assert zeta.hardy_z(t, CFG) == pytest.approx(float(mp.siegelz(t)), abs=1e-8)

    def test_rotated_evaluation_is_real(self):
        # Z comes from Re(exp(i theta) zeta); the discarded imaginary part
        # must be residual-sized
        for t in (20.0, 150.0, 1234.5, 9999.0):
            z = zeta.zeta_euler_maclaurin(0.5 + 1j * t, CFG)
            rotated = cmath.exp(1j * zeta.rs_theta(t)) * z
            assert abs(rotated.imag) <= 1e-9

    def test_gram_law_mostly_holds(self):
        from zml import zeros as zr

        ks = np.arange(0, 600)
        gs = zr.gram_points_many(ks.astype(float))
        zs = zeta.hardy_z_many(gs, CFG)
        flips = np.sum(zs[:-1] * zs[1:] < 0)
        violations = len(ks) - 1 - int(flips)
        # violations exist but are rare at these heights; record, don't forbid
        assert violations <= 0.1 * len(ks)

    def test_domain_errors(self):
        with pytest.raises(InputError):
            zeta.hardy_z(0.0)
        with pytest.raises(InputError):
            zeta.hardy_z(-3.0)
        with pytest.raises(InputError):
            zeta.hardy_z(2e5)
        with pytest.raises(InputError):
            zeta.hardy_z(20.0, CFG, method="rs")


def _dense_masked_z(ts, order):
    """The Riemann-Siegel Z of a dense main sum: m_max terms for every point,
    masked to each point's m (the formula the grouped sum replaced)."""
    a = np.sqrt(ts / zeta.TWO_PI)
    m = np.floor(a).astype(np.int64)
    u = 2.0 * (a - m) - 1.0
    ns = np.arange(1, m.max() + 1, dtype=float)
    phases = zeta.rs_theta_many(ts)[:, None] - ts[:, None] * np.log(ns)[None, :]
    terms = np.cos(phases) / np.sqrt(ns)[None, :]
    main = 2.0 * (terms * (ns[None, :] <= m[:, None])).sum(axis=1)
    corr = sum(np.polyval(zeta._RS_SERIES[j], u) / a ** j for j in range(order + 1))
    return main + np.where(m % 2 == 1, 1.0, -1.0) * corr / np.sqrt(a)


class TestRiemannSiegelSum:
    def test_grouped_sum_matches_dense_formula(self):
        rng = np.random.default_rng(5)
        edges = 2.0 * math.pi * np.arange(7, 127, 10, dtype=float) ** 2
        ts = np.concatenate([
            rng.uniform(300.0, 1e5, 400),
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        ])
        ts = rng.permutation(np.concatenate([ts, ts[:50]]))
        got = zeta._z_rs_batch(ts, 4)
        assert np.abs(got - _dense_masked_z(ts, 4)).max() <= 1e-13

    def test_value_does_not_depend_on_the_batch(self):
        ts = np.random.default_rng(8).uniform(300.0, 1e5, 2000)
        batch = zeta.hardy_z_many(ts, CFG)
        alone = np.array([zeta.hardy_z_many(ts[i:i + 1], CFG)[0] for i in range(ts.size)])
        assert np.array_equal(batch, alone)
        perm = np.random.default_rng(9).permutation(ts.size)[:700]
        assert np.array_equal(zeta.hardy_z_many(ts[perm], CFG), batch[perm])


class TestHardyZPrime:
    def test_first_zero_derivative(self):
        assert zeta.hardy_z_prime(ov.ZERO_ORDINATES[0], CFG) == pytest.approx(
            ov.Z_PRIME[0], abs=1e-7
        )

    def test_nonzero_at_simple_zeros(self):
        for gam in ov.ZERO_ORDINATES:
            assert abs(zeta.hardy_z_prime(gam, CFG)) > 0.1

    def test_step_halving_consistency(self):
        for t in (100.0, 1234.5, 9876.5):
            full = zeta.hardy_z_prime(t, zeta.EvalConfig(deriv_step=2e-4))
            half = zeta.hardy_z_prime(t, zeta.EvalConfig(deriv_step=1e-4))
            assert abs(full - half) < 4e-6

    def test_against_reference(self):
        for t in (50.0, 500.0, 5000.0):
            ref = float(mp.siegelz(t, derivative=1))
            assert zeta.hardy_z_prime(t, CFG) == pytest.approx(ref, abs=1e-6)

    def test_stencil_domain(self):
        with pytest.raises(InputError):
            zeta.hardy_z_prime(1e-5, CFG)


class TestChi:
    def test_symmetric_point(self):
        assert zeta.chi_factor(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_unit_modulus_on_critical_line(self):
        for t in (10.0, 100.0, 1000.0):
            assert abs(zeta.chi_factor(0.5 + 1j * t)) == pytest.approx(1.0, abs=1e-9)

    def test_stirling_modulus(self):
        assert abs(zeta.chi_factor(50j)) == pytest.approx(
            math.sqrt(50.0 / (2 * math.pi)), rel=1e-2
        )

    def test_functional_equation(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = complex(rng.uniform(-0.5, 1.5), rng.uniform(10.0, 100.0))
            lhs = zeta.zeta_euler_maclaurin(s)
            rhs = zeta.chi_factor(s) * zeta.zeta_euler_maclaurin(1.0 - s)
            assert abs(lhs - rhs) <= 1e-8 * abs(lhs)

    def test_modulus_approx_gap(self):
        for sigma in (-1.0, 0.0, 0.5, 1.0, 2.0):
            for t in np.geomspace(10.0, 1e4, 12):
                exact = abs(zeta.chi_factor(complex(sigma, float(t))))
                approx = (float(t) / (2 * math.pi)) ** (0.5 - sigma)
                assert abs(exact - approx) / approx <= 5.0 / t

    def test_pole_rejection(self):
        for n in (1, 2, 3):
            with pytest.raises(SingularityError):
                zeta.chi_factor(float(n))
        with pytest.raises(InputError):
            zeta.chi_factor(0.5 + 2e5j)

    def test_conjugate_symmetry(self):
        s = 0.3 + 44.4j
        assert zeta.chi_factor(s.conjugate()) == pytest.approx(
            zeta.chi_factor(s).conjugate(), rel=1e-12
        )


def test_counters_track_evaluations():
    zeta.reset_counters()
    zeta.hardy_z_many(np.linspace(40, 60, 7))
    assert zeta.counters["z_evals"] == 7
    zeta.zeta_euler_maclaurin(2.0 + 3.0j)
    assert zeta.counters["zeta_evals"] >= 1
    zeta.reset_counters()
    assert zeta.counters["z_evals"] == 0


def test_config_validation():
    with pytest.raises(InputError):
        zeta.EvalConfig(rs_correction_order=5)
    with pytest.raises(InputError):
        zeta.EvalConfig(deriv_step=-1.0)
    with pytest.raises(InputError):
        zeta.EvalConfig(em_terms=0)
