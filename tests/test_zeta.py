import cmath
import hashlib
import math
import os
import signal
import threading
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from zml import _rs_coeffs, _special, zeta
from zml.errors import InputError

import oracle_values as ov

mp.mp.dps = 25

# sha256 of the bits of hardy_z_many(np.linspace(10.0, 1e5, 100_001)) and of
# hardy_z_prime_many(np.linspace(10.0, 99_990.0, 20_001))
Z_SHA256 = "51ac345c84ff6870c6e39c6c3ea773f1179783c6d50bfcd066bb0689e711d71d"
Z_PRIME_SHA256 = "1b69a1139bcf1a88e34f8a181c2c1e1b74ed1dfeafdbeaef15bc6276ca0dfe86"


def em_zeta(s):
    """zeta(s) from the Euler-Maclaurin route, one point per batch."""
    return complex(zeta._em_batch(np.array([complex(s)]))[0])


def em_z(ts):
    """Z(t) with every point on the Euler-Maclaurin route."""
    return zeta._z_em(np.asarray(ts, dtype=float))


def z_prime(t):
    """Z'(t) from hardy_z_prime_many at one point."""
    return float(zeta.hardy_z_prime_many(np.array([t]))[0])


class TestEulerMaclaurin:
    def test_classical_values(self):
        assert em_zeta(2.0) == pytest.approx(ov.ZETA_2, abs=1e-10)
        assert em_zeta(0.0) == pytest.approx(-0.5, abs=1e-10)
        assert em_zeta(3.0) == pytest.approx(ov.ZETA_3, abs=1e-10)
        assert em_zeta(0.5) == pytest.approx(ov.ZETA_HALF, abs=1e-10)

    def test_complex_points(self):
        for (sig, t), (re, im) in ov.ZETA_AT.items():
            got = em_zeta(complex(sig, t))
            assert got == pytest.approx(complex(re, im), abs=1e-9)

    def test_against_reference_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            s = complex(rng.uniform(-0.9, 3.0), rng.uniform(0.0, 1.0e4))
            got = em_zeta(s)
            ref = complex(mp.zeta(mp.mpc(s)))
            # 1e-10 absolute with a double-precision relative floor where
            # |zeta| is large (negative sigma, large t)
            assert abs(got - ref) <= max(1e-10, 2e-11 * abs(ref))

    def test_functional_equation(self):
        # zeta(s) = chi(s) zeta(1-s), chi(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s)
        # in 30-digit mpmath
        rng = np.random.default_rng(11)
        with mp.workdps(30):
            for _ in range(100):
                s = complex(rng.uniform(-0.5, 1.5), rng.uniform(10.0, 100.0))
                z = mp.mpc(s)
                chi = (mp.power(2, z) * mp.power(mp.pi, z - 1)
                       * mp.sin(mp.pi * z / 2) * mp.gamma(1 - z))
                lhs = em_zeta(s)
                rhs = complex(chi) * em_zeta(1.0 - s)
                assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


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

    def test_below_ten_is_scipy_loggamma_bit_for_bit(self):
        # scipy.special is the oracle of the port: t = 0 and a 20,000-point
        # grid of (0, 10), 20,000 random points, and their negatives
        from scipy.special import loggamma

        grid = np.linspace(0.0, 10.0, 20_001, endpoint=False)
        rand = np.random.default_rng(17).uniform(0.0, 10.0, 20_000)
        ts = np.concatenate([grid, rand])
        ts = np.concatenate([ts, -ts])
        ref = loggamma(0.25 + 0.5j * ts).imag - 0.5 * ts * zeta.LOG_PI
        got = zeta.rs_theta_many(ts)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        # odd in t to the bit
        n = ts.size // 2
        assert np.array_equal(got[n:], -got[:n])

    def test_stirling_is_scipy_loggamma_bit_for_bit(self):
        # on Re z > 7 SciPy takes the Stirling series alone: a 20,001-point
        # strip over the heights and real parts the recurrence reaches
        from scipy.special import loggamma

        rng = np.random.default_rng(19)
        zs = rng.uniform(7.0, 8.0, 20_001) + 1j * rng.uniform(0.0, 5.0, 20_001)
        zs = zs[zs.real > 7.0]
        got = np.array([_special._loggamma_stirling(complex(z)) for z in zs])
        assert np.array_equal(got.view(np.int64), loggamma(zs).view(np.int64))

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
            z = zeta.hardy_z(t)
            zeta_val = em_zeta(0.5 + 1j * t)
            assert z * z == pytest.approx(abs(zeta_val) ** 2, rel=1e-8)

    def test_auto_matches_rotated_em_on_overlap(self):
        # cross-evaluator agreement window
        ts = np.linspace(30.0, 500.0, 60)
        assert np.abs(zeta.hardy_z_many(ts) - em_z(ts)).max() <= 1e-8

    def test_rs_route_vs_em_route(self):
        # genuine dual-route agreement; RS truncation dominates below ~100
        ts = np.linspace(30.0, 500.0, 120)
        gap = np.abs(zeta._z_rs_batch(ts) - em_z(ts))
        low = ts < zeta.RS_CROSSOVER
        assert gap[low].max() < 5e-6
        assert gap[~low].max() < 1e-8

    def test_rs_corrections_validated_against_reference(self):
        # the embedded Chebyshev data, orders 0..4, against 25-digit reference
        for t in (30.0, 75.0, 300.0, 1000.0, 10000.0, 99000.0):
            err = abs(zeta._z_rs_batch(np.array([t]))[0] - float(mp.siegelz(t)))
            assert err <= {30.0: 2e-6, 75.0: 1e-7}.get(t, 1e-8)

    def test_value_below_the_crossover_does_not_depend_on_the_batch(self):
        # the Euler-Maclaurin main sum has one length below RS_CROSSOVER, so
        # Z and Z' there are the same bits alone and in any batch
        ts = np.random.default_rng(10).uniform(10.0, zeta.RS_CROSSOVER, 500)
        mixed = np.concatenate([ts, np.linspace(300.0, 1e4, 50)])
        for f in (zeta.hardy_z_many, zeta.hardy_z_prime_many):
            alone = np.array([f(ts[i:i + 1])[0] for i in range(ts.size)])
            assert np.array_equal(f(ts), alone)
            assert np.array_equal(f(mixed)[: ts.size], alone)
            assert np.array_equal(f(ts[::-1]), alone[::-1])

    def test_accuracy_against_reference(self):
        for t in (14.2, 95.0, 299.9, 300.1, 2500.0, 99999.5):
            assert zeta.hardy_z(t) == pytest.approx(float(mp.siegelz(t)), abs=1e-8)

    def test_rotated_evaluation_is_real(self):
        # Z comes from Re(exp(i theta) zeta); the discarded imaginary part
        # must be residual-sized
        for t in (20.0, 150.0, 1234.5, 9999.0):
            z = em_zeta(0.5 + 1j * t)
            rotated = cmath.exp(1j * zeta.rs_theta(t)) * z
            assert abs(rotated.imag) <= 1e-9

    def test_gram_law_mostly_holds(self):
        from zml import zeros as zr

        ks = np.arange(0, 600)
        gs = zr.gram_points_many(ks.astype(float))
        zs = zeta.hardy_z_many(gs)
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


def _rs_correction(j, u):
    """C_j(u) by numpy's chebval in u: C_j's coefficients in x = 2u^2 - 1 are
    those of T_2k(u) (even j) or T_2k+1(u) (odd j), zero in between."""
    coeffs = np.zeros(2 * len(_rs_coeffs.SERIES[j]))
    coeffs[j % 2::2] = _rs_coeffs.SERIES[j]
    return chebval(u, coeffs)


def _dense_masked_z(ts, order):
    """The Riemann-Siegel Z of a dense main sum: m_max terms for every point,
    masked to each point's m (the formula the grouped sum replaced), with
    corrections from numpy's Chebyshev evaluator."""
    a = np.sqrt(ts / zeta.TWO_PI)
    m = np.floor(a).astype(np.int64)
    u = 2.0 * (a - m) - 1.0
    ns = np.arange(1, m.max() + 1, dtype=float)
    phases = zeta.rs_theta_many(ts)[:, None] - ts[:, None] * np.log(ns)[None, :]
    terms = np.cos(phases) / np.sqrt(ns)[None, :]
    main = 2.0 * (terms * (ns[None, :] <= m[:, None])).sum(axis=1)
    corr = sum(_rs_correction(j, u) / a ** j for j in range(order + 1))
    return main + np.where(m % 2 == 1, 1.0, -1.0) * corr / np.sqrt(a)


def _m_boundary_ts():
    """Random t in [300, 1e5] with the points where m steps, their float
    neighbours and 50 repeats, shuffled."""
    rng = np.random.default_rng(5)
    edges = 2.0 * math.pi * np.arange(7, 127, 10, dtype=float) ** 2
    ts = np.concatenate([
        rng.uniform(300.0, 1e5, 400),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
    ])
    return rng.permutation(np.concatenate([ts, ts[:50]]))


def _random_ts():
    return np.random.default_rng(8).uniform(300.0, 1e5, 2000)


@pytest.fixture
def z_threads(monkeypatch):
    """use(n): sum Riemann-Siegel batches on n threads, from a new pool.
    The pools made meanwhile are shut down afterwards."""
    original = zeta._pool
    made = []

    def use(n):
        made.append(zeta._pool)
        monkeypatch.setattr(zeta, "Z_THREADS", n)
        monkeypatch.setattr(zeta, "_pool", None)

    yield use
    for pool in made + [zeta._pool]:
        if pool is not None and pool is not original:
            pool.shutdown()


class TestRiemannSiegelSum:
    def test_grouped_sum_matches_dense_formula(self):
        ts = _m_boundary_ts()
        got = zeta._z_rs_batch(ts)
        assert np.abs(got - _dense_masked_z(ts, 4)).max() <= 1e-13

    def test_value_does_not_depend_on_the_batch(self):
        ts = _random_ts()
        batch = zeta.hardy_z_many(ts)
        alone = np.array([zeta.hardy_z_many(ts[i:i + 1])[0] for i in range(ts.size)])
        assert np.array_equal(batch, alone)
        perm = np.random.default_rng(9).permutation(ts.size)[:700]
        assert np.array_equal(zeta.hardy_z_many(ts[perm]), batch[perm])


class TestThreadedMainSum:
    @pytest.mark.parametrize("make_ts", [_random_ts, _m_boundary_ts])
    def test_value_does_not_depend_on_the_thread_count(self, z_threads, make_ts):
        ts = make_ts()
        got = {}
        for n in (1, 2, 3):
            z_threads(n)
            got[n] = zeta._z_rs_batch(ts)
            assert (zeta._pool is None) == (n == 1)
        assert np.array_equal(got[1], got[2]) and np.array_equal(got[1], got[3])

    def test_scan_does_not_depend_on_the_thread_count(self, z_threads, monkeypatch):
        from zml import zeros as zr

        # split every batch, down to single points, so that parts come out empty
        monkeypatch.setattr(zeta, "RS_SPLIT_TERMS", 1)
        scans = []
        for n in (1, 2):
            z_threads(n)
            scans.append(zr.scan_and_refine(10.0, 1010.0))
        one, two = scans
        for name in ("ordinates", "z_primes"):
            assert np.array_equal(getattr(one, name), getattr(two, name))
        assert one.certified and two.certified

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_makes_its_own_pool(self, z_threads):
        # the parent's pool threads do not exist in a forked child, so
        # submitting to that pool would wait forever
        z_threads(2)
        ts = _random_ts()
        want = zeta._z_rs_batch(ts)
        pid = os.fork()
        if pid == 0:
            os._exit(0 if np.array_equal(zeta._z_rs_batch(ts), want) else 3)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.02)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish in 30 s")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_small_batch_makes_no_pool(self, z_threads):
        z_threads(2)
        ts = np.linspace(300.0, 1e4, 50)      # about 2,000 main-sum terms
        zeta.hardy_z_many(ts)
        assert zeta._pool is None

    def test_one_call_per_batch_on_the_callers_thread(self, z_threads, monkeypatch):
        # perfbench's tracer wraps _z_rs_batch by name with a span stack that
        # is not thread-safe; only the unwrapped main sum may leave the thread
        z_threads(2)
        rs_threads, sum_threads = [], set()
        rs_batch, main_sum = zeta._z_rs_batch, zeta._rs_main_sum

        def record_rs(ts):
            rs_threads.append(threading.current_thread())
            return rs_batch(ts)

        def record_sum(*args):
            sum_threads.add(threading.current_thread())
            return main_sum(*args)

        monkeypatch.setattr(zeta, "_z_rs_batch", record_rs)
        monkeypatch.setattr(zeta, "_rs_main_sum", record_sum)
        ts = np.random.default_rng(8).uniform(10.0, 1e5, 2000)
        for batch in (ts, ts[ts >= 300.0], ts[ts < 300.0], ts[:1]):
            rs_threads.clear()
            zeta.hardy_z_many(batch)
            assert len(rs_threads) <= 1
            assert all(t is threading.main_thread() for t in rs_threads)
        assert len(sum_threads) == 2 and threading.main_thread() in sum_threads
        # the Z' stencil reaches the route by its module name too
        rs_threads.clear()
        zeta.hardy_z_prime_many(ts)
        assert rs_threads == [threading.main_thread()] * 4


def _one_call_z_prime(ts):
    """hardy_z_prime_many's stencil with one route call per offset over all
    the centres of that route."""
    h = zeta.DERIV_STEP
    out = np.empty(ts.shape)
    low = ts < zeta.RS_CROSSOVER
    for where, route in ((low, zeta._z_em), (~low, zeta._z_rs_batch)):
        zp2, zp1, zm1, zm2 = (route(ts[where] + d) for d in (2.0 * h, h, -h, -2.0 * h))
        out[where] = (8.0 * (zp1 - zm1) - (zp2 - zm2)) / (12.0 * h)
    return out


class TestBlockedEvaluation:
    @pytest.mark.parametrize("block", [None, 7])
    def test_blocks_give_the_bits_of_one_call(self, monkeypatch, block):
        # both routes, shuffled so that most blocks mix them, over several
        # block edges at the real Z_BLOCK and at 7 points
        if block is not None:
            monkeypatch.setattr(zeta, "Z_BLOCK", block)
        rng = np.random.default_rng(12)
        n_rs = 2 * zeta.Z_BLOCK + 100 if block is None else 600
        ts = rng.permutation(np.concatenate([
            rng.uniform(10.0, zeta.RS_CROSSOVER, 300), rng.uniform(300.0, 1e5 - 1.0, n_rs)]))
        low = ts < zeta.RS_CROSSOVER
        want = np.empty(ts.shape)
        want[low], want[~low] = zeta._z_em(ts[low]), zeta._z_rs_batch(ts[~low])
        assert np.array_equal(zeta.hardy_z_many(ts), want)
        assert np.array_equal(zeta.hardy_z_many(ts.reshape(2, -1)), want.reshape(2, -1))
        assert np.array_equal(zeta.hardy_z_prime_many(ts), _one_call_z_prime(ts))

    def test_scan_working_set(self, z_threads):
        # tracemalloc peak of the scan to 3e4 with the main sum on two
        # threads: 8.3-8.4 MB when Z and Z' took each batch whole and the
        # bisection copied its brackets every pass (7.6 MB on one thread),
        # 6.0 MB in blocks of Z_BLOCK points (5.6 MB on one thread, set by
        # the Gram points), 2.78-2.80 MB with every scan stage bounded (2.63
        # MB on one thread)
        from zml import zeros

        z_threads(2)
        tracemalloc.start()
        try:
            zl = zeros.scan_and_refine(10.0, 30005.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert zl.certified and len(zl) == 35679
        assert peak < 3.1e6


class TestHardyZPrime:
    def test_first_zero_derivative(self):
        assert z_prime(ov.ZERO_ORDINATES[0]) == pytest.approx(
            ov.Z_PRIME[0], abs=1e-7
        )

    def test_nonzero_at_simple_zeros(self):
        for gam in ov.ZERO_ORDINATES:
            assert abs(z_prime(gam)) > 0.1

    def test_step_halving_consistency(self, monkeypatch):
        for t in (100.0, 1234.5, 9876.5):
            half = z_prime(t)
            with monkeypatch.context() as m:
                m.setattr(zeta, "DERIV_STEP", 2e-4)
                full = z_prime(t)
            assert abs(full - half) < 4e-6

    def test_against_reference(self):
        for t in (50.0, 500.0, 5000.0):
            ref = float(mp.siegelz(t, derivative=1))
            assert z_prime(t) == pytest.approx(ref, abs=1e-6)

    def test_stencil_error_on_the_stated_sample(self):
        # 4 of the 40 points of default_rng(2023).uniform(1e3, 1e5, 40), with
        # the largest error of the 40, 4.56e-6 at t = 88,869.2497, held at
        # the bound that hardy_z_prime_many's docstring states
        ts = np.random.default_rng(2023).uniform(1e3, 1e5, 40)[[0, 6, 29, 32]]
        assert round(ts[2], 4) == 88869.2497
        with mp.workdps(30):
            refs = [float(mp.siegelz(mp.mpf(t), derivative=1)) for t in ts]
        errs = np.abs(zeta.hardy_z_prime_many(ts) - refs)
        assert errs.max() <= 4.6e-6 and errs.argmax() == 2

    def test_stencil_at_the_crossover(self):
        # a stencil across RS_CROSSOVER used to mix the two routes of Z and
        # was off by 1.1e-5 at t = 300; each centre alone and all in a batch
        ts = np.array([299.99985, 299.9999, 300.0, 300.0001])
        with mp.workdps(30):
            refs = [float(mp.siegelz(mp.mpf(t), derivative=1)) for t in ts]
        for t, ref, in_batch in zip(ts, refs, zeta.hardy_z_prime_many(ts)):
            assert abs(z_prime(t) - ref) <= 1e-8
            assert abs(in_batch - ref) <= 1e-8


class TestPinnedBits:
    """Z and Z' over [10, 1e5], both routes and the crossover, keep the
    bits of Z_SHA256 and Z_PRIME_SHA256 across commits.  They may be
    re-pinned only by a change that states which bits it moves and why
    (ROADMAP item 2c)."""

    def test_z_pinned(self):
        z = zeta.hardy_z_many(np.linspace(10.0, 1e5, 100_001))
        assert hashlib.sha256(z.tobytes()).hexdigest() == Z_SHA256

    def test_z_prime_pinned(self):
        zp = zeta.hardy_z_prime_many(np.linspace(10.0, 99_990.0, 20_001))
        assert hashlib.sha256(zp.tobytes()).hexdigest() == Z_PRIME_SHA256


def test_counters_track_evaluations():
    zeta.reset_counters()
    zeta.hardy_z_many(np.linspace(40, 60, 7))
    assert zeta.counters["z_evals"] == 7
    zeta._em_batch(np.array([2.0 + 3.0j]))
    assert zeta.counters["zeta_evals"] >= 1
    zeta.reset_counters()
    assert zeta.counters["z_evals"] == 0

