"""Acceptance gate: every criterion at its stated tolerance, one printed
PASS/FAIL line per criterion (run with ``pytest -s`` to see them all).

Criterion 5's M1 envelope [0.7, 1.3] is asserted exactly as stated, against
the finite-xi main term of the residue theorem, (T/2pi) sum_{n<=xi} mu(n)^2/n
(moments.predict_m1_finite). The first-order form (3 theta/pi^3) T log T
(moments.predict_m1) drops the O(T) term (3/pi^3) c T, with
c = gamma - 2 zeta'(2)/zeta(2) = 1.7171; at (theta = 0.5, T ~ 5000) that
term alone is a 40% excess, c / (theta log T), so Re(M1) sits at ~1.40 of
the first-order term and ~1.00 of the finite-xi one. Both ratios are printed.
"""
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from zml import cli, dirichlet, moments, sieve, zeros, zeta

import oracle_values as ov
from test_sieve import _loop_alpha

GRID = [float(T) for T in range(1000, 10001, 1000)]
SWEEP = (0.3, 0.5, 0.7, 0.9)


def _criterion(num: str, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


# ---------------------------------------------------------------------------
# 1. zero location
# ---------------------------------------------------------------------------

def test_criterion_1_zero_location(zeros_10k_timed):
    zlist, seconds = zeros_10k_timed
    errs = [
        abs(g - want)
        for g, want in zip(zlist.ordinates[:10], ov.ZERO_ORDINATES)
    ]
    ord_ok = max(errs) <= 1e-6
    count_ok = zlist.count_below(100.0) == 29
    cert = zeros.zero_count_check(zlist, 1e4)
    time_ok = seconds < 60.0
    ok = _criterion(
        "1",
        ord_ok and count_ok and bool(cert) and zlist.certified and time_ok,
        f"max ordinate err {max(errs):.2e}, count(0,100]={zlist.count_below(100.0)}, "
        f"certified={bool(cert)}, scan {seconds:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. rotation identity and simplicity guard
# ---------------------------------------------------------------------------

def test_criterion_2_rotation_identity(zeros_10k_timed):
    zlist, _ = zeros_10k_timed
    gap = np.abs(zlist.zeta_prime_mods - np.abs(zlist.z_primes))
    cross = np.abs(np.abs(zlist.zeta_primes) - np.abs(zlist.z_primes))
    min_mod = float(zlist.zeta_prime_mods.min())
    ok = _criterion(
        "2",
        gap.max() <= 1e-9 and cross.max() <= 1e-9 and min_mod > 1e-4,
        f"max ||zeta'|-|Z'|| = {max(gap.max(), cross.max()):.2e}, "
        f"min |Z'(gamma)| = {min_mod:.4f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. conjectured linear rate of J_{-1}
# ---------------------------------------------------------------------------

def test_criterion_3_conjecture_trend(zeros_10k_timed):
    zlist, _ = zeros_10k_timed
    ts, js, ratios = [], [], []
    for T_req in GRID:
        T = zeros.snap_to_midgap(zlist, T_req)
        j = moments.j_moment(zlist, 1.0, T)
        ts.append(T)
        js.append(j)
        ratios.append(j / moments.gonek_prediction(T))
    design = np.vstack([ts, np.ones(len(ts))]).T
    slope = float(np.linalg.lstsq(design, js, rcond=None)[0][0])
    slope_dev = abs(slope - moments.GONEK_CONSTANT) / moments.GONEK_CONSTANT
    ratios_ok = all(0.7 <= r <= 1.3 for r in ratios)
    ok = _criterion(
        "3",
        ratios_ok and slope_dev <= 0.25,
        f"slope {slope:.5f} (target {moments.GONEK_CONSTANT:.5f}, dev {slope_dev:.1%}), "
        f"ratios in [{min(ratios):.3f}, {max(ratios):.3f}]",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. Cauchy-Schwarz chain and the half-rate echo
# ---------------------------------------------------------------------------

def test_criterion_4_theorem_chain(zeros_10k_timed):
    zlist, _ = zeros_10k_timed
    all_ok = True
    lb_09_top = None
    for T_req in GRID:
        T = zeros.snap_to_midgap(zlist, T_req)
        for th in SWEEP:
            rep = moments.moment_report(zlist, th, T)
            all_ok &= moments.cauchy_chain(rep)
            if th == 0.9 and T_req == 10000.0:
                lb_09_top = rep.cauchy_lb
    T_top = zeros.snap_to_midgap(zlist, 10000.0)
    echo = lb_09_top > 0.5 * moments.halfbound_prediction(T_top)
    ok = _criterion(
        "4",
        all_ok and echo,
        f"cauchy_chain on {len(GRID)}x{len(SWEEP)} gridpoints: {all_ok}; "
        f"lb(0.9, 1e4) = {lb_09_top:.1f} vs 0.5*halfbound = "
        f"{0.5 * moments.halfbound_prediction(T_top):.1f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. Proposition main terms
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def proposition_report(zeros_10k_timed):
    zlist, _ = zeros_10k_timed
    T = zeros.snap_to_midgap(zlist, 5000.0)
    return moments.moment_report(zlist, 0.5, T)


def test_criterion_5_proposition_m2(proposition_report):
    rep = proposition_report
    ratio = rep.m2 / rep.m2_pred
    ok = _criterion(
        "5 (m2)",
        0.75 <= ratio <= 1.25,
        f"m2 = {rep.m2:.1f}, predicted {rep.m2_pred:.1f}, ratio {ratio:.4f}",
    )
    assert ok


def test_criterion_5_proposition_m1(proposition_report):
    rep = proposition_report
    finite_pred = moments.predict_m1_finite(rep.params)
    ratio_re = rep.m1.real / finite_pred
    ratio_first_order = rep.m1.real / rep.m1_pred
    # what the first-order ratio should be if the gap is the constant c alone
    derived = (math.log(rep.params.xi) + ov.SQUAREFREE_HARMONIC_C) / (
        rep.params.theta_exp * math.log(rep.params.T)
    )
    im_over_re = abs(rep.m1.imag) / abs(rep.m1.real)
    ok = _criterion(
        "5 (m1)",
        0.7 <= ratio_re <= 1.3 and im_over_re <= 0.3,
        f"Re(m1)/finite-xi pred = {ratio_re:.4f} (envelope [0.7, 1.3]), "
        f"|Im/Re| = {im_over_re:.5f}; Re(m1)/first-order pred = "
        f"{ratio_first_order:.4f} ((log xi + c)/(theta log T) = {derived:.4f}); "
        f"m1 = {rep.m1.real:.1f}{rep.m1.imag:+.2f}i, finite-xi pred = {finite_pred:.1f}, "
        f"first-order pred = {rep.m1_pred:.1f}",
    )
    assert ok, (
        "M1 envelope missed against the finite-xi main term "
        f"(T/2pi) sum_(n<=xi) mu(n)^2/n: Re(m1)/pred = {ratio_re:.4f}, "
        f"|Im/Re| = {im_over_re:.5f} (m1 = {rep.m1}, pred = {finite_pred}); "
        f"first-order ratio {ratio_first_order:.4f} against (log xi + c)/(theta log T) "
        f"= {derived:.4f}"
    )


# ---------------------------------------------------------------------------
# 6. mean-value lemma
# ---------------------------------------------------------------------------

def test_criterion_6_mean_value_lemma():
    rng = np.random.default_rng(42)
    worst_quad = 0.0
    for _ in range(100):
        A = dirichlet.DirichletPoly(coeffs=rng.uniform(-1, 1, int(rng.integers(2, 51))))
        B = dirichlet.DirichletPoly(coeffs=rng.uniform(-1, 1, int(rng.integers(2, 51))))
        T = float(rng.uniform(10.0, 200.0))
        la, lb = A.logs, B.logs

        def f(t):
            return (A.coeffs * np.exp(-1j * t * la)).sum() * (
                B.coeffs * np.exp(1j * t * lb)
            ).sum()

        re, _ = quad(lambda t: f(t).real, 0, T, limit=800, epsabs=1e-11, epsrel=1e-11)
        im, _ = quad(lambda t: f(t).imag, 0, T, limit=800, epsabs=1e-11, epsrel=1e-11)
        worst_quad = max(
            worst_quad, abs(dirichlet.pair_integral_exact(A, B, T) - complex(re, im))
        )
    ratios = cli.mv_campaign(seed=42, trials=1000)
    max_ratio = max(ratios)
    ok = _criterion(
        "6",
        worst_quad <= 1e-8 and max_ratio <= 10.0,
        f"quadrature gap {worst_quad:.2e} over 100 instances; "
        f"campaign max ratio {max_ratio:.3f} over 1000 trials (bound 10)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. elementary sums
# ---------------------------------------------------------------------------

def test_criterion_7_elementary_sums():
    xi_grid = sorted({int(x) for x in np.geomspace(1e3, 1e7, 21)})
    drifts = [
        sieve.squarefree_harmonic(xi) - sieve.SIX_OVER_PI2 * math.log(xi)
        for xi in xi_grid
    ]
    width = max(drifts) - min(drifts)
    ams = sieve.alpha_mobius_sum(10**6)
    alpha_ratio = ams.value / ams.prediction
    mobius = sieve.build_sieve(10**5)
    alpha = _loop_alpha(mobius, 10**5, 10**5)
    ns = np.arange(2, 10**5 + 1)
    ident_err = float(np.max(np.abs(alpha[ns] + mobius[ns] * np.log(ns)) / np.log(ns)))
    ok = _criterion(
        "7",
        width < 1.0 and abs(alpha_ratio - 1.0) <= 0.15 and ident_err < 1e-12,
        f"drift width {width:.4f} over xi in [1e3, 1e7]; "
        f"alpha-sum ratio {alpha_ratio:.4f}; identity err {ident_err:.2e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. prime-power zero sums
# ---------------------------------------------------------------------------

def test_criterion_8_landau(zeros_10k_timed):
    zlist, _ = zeros_10k_timed
    T = zeros.snap_to_midgap(zlist, 10000.0)
    parts = []
    ok = True
    for x in (2.0, 3.0, 4.0):
        rep = moments.landau_gonek(zlist, x, T)
        re_dev = abs(rep.zero_sum.real - rep.main_term) / abs(rep.main_term)
        im_frac = abs(rep.zero_sum.imag) / abs(rep.main_term)
        ok &= re_dev <= 0.3 and im_frac <= 0.3
        parts.append(f"x={x:g}: re_dev {re_dev:.3f}, im {im_frac:.3f}")
    rep6 = moments.landau_gonek(zlist, 6.0, T)
    bound = 0.1 * (T / (2 * math.pi)) * math.log(2.0)
    ok &= abs(rep6.zero_sum) <= bound
    parts.append(f"x=6: |sum| {abs(rep6.zero_sum):.2f} <= {bound:.2f}")
    ok = _criterion("8", ok, "; ".join(parts))
    assert ok


# ---------------------------------------------------------------------------
# 9. end-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    def run(out):
        args = [
            "--t-max", "1000", "--sieve-limit", "20000", "--trials", "50",
            "--seed", "42", "--theta", "0.5",
            "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(out),
        ]
        assert cli.main(["zeros"] + args) == 0
        assert cli.main(["report"] + args) == 0

    run(tmp_path / "out1")
    run(tmp_path / "out2")
    files1 = sorted(p.relative_to(tmp_path / "out1") for p in (tmp_path / "out1").rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(tmp_path / "out2") for p in (tmp_path / "out2").rglob("*") if p.is_file())
    same_names = files1 == files2
    same_bytes = all(
        (tmp_path / "out1" / f).read_bytes() == (tmp_path / "out2" / f).read_bytes()
        for f in files1
    )
    report = json.loads((tmp_path / "out1" / "report.json").read_text())
    sections_ok = all(tag in report for tag in cli.EQ_TAGS)
    ok = _criterion(
        "9",
        same_names and same_bytes and sections_ok,
        f"{len(files1)} output files byte-identical across two runs; "
        f"all {len(cli.EQ_TAGS)} report sections present",
    )
    assert ok
