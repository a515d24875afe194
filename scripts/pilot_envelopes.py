#!/usr/bin/env python3
"""Pilot runs that pin the empirical O(1) envelopes used in the reports.

None of the asymptotic statements come with explicit constants, so the
working envelopes (the squarefree-harmonic drift constant, the prime-log
Mertens-type constant, the mean-value ratio ceiling, the moment-ratio
windows) are measured here and recorded in output, not asserted as truth.

Also compares a few fixed taper polynomials on the mollifier: the constant
taper should give the largest Cauchy-Schwarz lower bound.

Usage: python scripts/pilot_envelopes.py [--t-max 5000] [--sieve-limit 1000000]
"""
import argparse
import math
import sys

import numpy as np

from zml import dirichlet, moments, sieve, zeros
from zml.cli import mv_campaign
from zml.errors import ZmlError


def elementary_envelopes(table):
    print("== elementary-sum envelopes ==")
    xis = [xi for xi in (10**3, 10**4, 10**5, 10**6) if xi <= table.limit]
    for xi, h in zip(xis, sieve.squarefree_harmonics(table, xis)):
        drift = h - sieve.SIX_OVER_PI2 * math.log(xi)
        pls = sieve.prime_log_sum(table, xi) - math.log(xi)
        print(f"xi = {xi:>8}: sqfree-harmonic drift {drift:+.6f}   prime-log drift {pls:+.6f}")
    xi = min(10**6, table.limit)
    ams = sieve.alpha_mobius_sum(table, xi)
    print(f"alpha-mobius sum at xi={xi}: {ams.value:.3f} vs {ams.prediction:.3f} "
          f"(ratio {ams.value / ams.prediction:.4f})")


def mv_envelope(seed=42, trials=1000):
    print("\n== mean-value ratio campaign ==")
    ratios = mv_campaign(seed=seed, trials=trials)
    print(f"{trials} trials (seed {seed}): max ratio {max(ratios):.4f}, "
          f"mean {math.fsum(ratios) / len(ratios):.4f}")


def moment_envelopes(zlist, table, t_max):
    print("\n== moment-ratio windows ==")
    for t_req in np.linspace(1000.0, t_max, 5):
        T = zeros.snap_to_midgap(zlist, float(t_req))
        rep = moments.moment_report(zlist, table, 0.5, T)
        print(
            f"T = {T:9.2f}: J ratio {rep.j_minus_1 / rep.gonek_pred:.4f}  "
            f"m1 ratio {rep.m1.real / rep.m1_pred:.4f} "
            f"(finite-xi {rep.m1.real / moments.predict_m1_finite(rep.params, table):.4f})  "
            f"m2 ratio {rep.m2 / rep.m2_pred:.4f}"
        )


def taper_comparison(zlist, table, t_max):
    print("\n== taper comparison (constant taper should win) ==")
    T = zeros.snap_to_midgap(zlist, t_max)
    xi = int(math.floor(T**0.5))
    tapers = {
        "P = 1": dirichlet.TaperSpec((1.0,)),
        "P = x": dirichlet.TaperSpec((0.0, 1.0)),
        "P = x^2": dirichlet.TaperSpec((0.0, 0.0, 1.0)),
        "P = (1+x)/2": dirichlet.TaperSpec((0.5, 0.5)),
    }
    for name, taper in tapers.items():
        poly = dirichlet.tapered_mollifier(table, xi, taper)
        m1 = moments.m1_sum(zlist, poly, T)
        m2 = moments.m2_sum(zlist, poly, T)
        lb = abs(m1) ** 2 / m2
        print(f"{name:>12}: cauchy lower bound {lb:10.3f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--t-max", type=float, default=5000.0)
    ap.add_argument("--sieve-limit", type=int, default=10**6)
    args = ap.parse_args()

    try:
        table = sieve.build_sieve(args.sieve_limit)
        elementary_envelopes(table)
        mv_envelope()
        zlist = zeros.scan_and_refine(10.0, args.t_max + 5.0)
        moment_envelopes(zlist, table, args.t_max)
        taper_comparison(zlist, table, args.t_max)
    except ZmlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
