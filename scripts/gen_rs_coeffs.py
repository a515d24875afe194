#!/usr/bin/env python3
"""Regenerate src/zml/_rs_coeffs.py (Chebyshev data for the Riemann-Siegel
correction terms).

The remainder of the Riemann-Siegel main sum is expanded as

    Z(t) = 2 sum_{n<=m} cos(theta(t) - t log n)/sqrt(n)
           + (-1)^(m-1) * (t/2pi)^(-1/4) * sum_j C_j(p) (t/2pi)^(-j/2)

with p = frac(sqrt(t/2pi)).  Each C_j is a fixed linear combination of
derivatives of the entire function

    F(u) = cos(pi u^2/2 + 3 pi/8) / cos(pi u),   u = 2p - 1,

(the classical shape function; every zero of the denominator is cancelled
by the numerator).  This script computes the Taylor series of F at u = 0
by power-series arithmetic at 100 decimal digits, assembles the C_j
series, and converts each to a Chebyshev series in u at that precision.
The division by cos(pi u), whose poles at u = +-1/2 make the terms grow
like 2^n before they cancel, loses about 29 digits by degree 95, and C4
takes the 12th derivative of that noise: at 60 digits it reached 2.7e-20
in C4's coefficients.  At 100 digits the output equals that of 120 digits
and 160 terms.  C_0, C_2, C_4 are even and C_1, C_3 odd, so with x = 2u^2 - 1

    C_j(u) = sum_k c_k T_2k(u)   = sum_k c_k T_k(x)     (j even),
    C_j(u) = sum_k c_k T_2k+1(u) = u sum_k c_k V_k(x)   (j odd),

where V_k(x) = T_2k+1(u)/u is the Chebyshev polynomial of the third kind.
Every coefficient below 1e-18 max|C_j| (the maximum over 129 points of
[-1, 1]) is dropped.  |T_k| and |u V_k| are at most 1 on [-1, 1], so the
sum of the dropped |c_k| bounds the truncation error of C_j there; the
generated docstring states it for each j.

The rational weights for C0..C3 are the classical published ones.  The C4
weights were re-derived numerically (see tests/test_zeta.py for the
validation): sampling t = 2pi (m+p)^2 so that p is exact, solving the
Vandermonde system for the C_j(p) values against 80-digit reference Z(t),
and identifying the weight of each F-derivative.  The identified weights
are exact simple rationals and reproduce reference Z(t) to the expected
O(t^(-11/4)) order.

Usage:  python scripts/gen_rs_coeffs.py > src/zml/_rs_coeffs.py
"""
import mpmath as mp

mp.mp.dps = 100
PI = mp.pi
NF = 96        # working series length for F
DROP = mp.mpf("1e-18")  # drop Chebyshev coefficients below DROP * max|C_j|


def series_mul(a, b, n):
    out = [mp.mpf(0)] * n
    for i, ai in enumerate(a[:n]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: n - i]):
            out[i + j] += ai * bj
    return out


def series_recip(a, n):
    out = [mp.mpf(0)] * n
    out[0] = 1 / a[0]
    for k in range(1, n):
        s = mp.mpf(0)
        for j in range(1, k + 1):
            if j < len(a):
                s += a[j] * out[k - j]
        out[k] = -s / a[0]
    return out


def cos_quadratic_series(n):
    # cos(pi u^2/2 + 3pi/8) expanded through the addition formula
    c38, s38 = mp.cos(3 * PI / 8), mp.sin(3 * PI / 8)
    out = [mp.mpf(0)] * n
    k = 0
    while 4 * k < n:
        out[4 * k] += c38 * (-1) ** k * (PI / 2) ** (2 * k) / mp.factorial(2 * k)
        k += 1
    k = 0
    while 4 * k + 2 < n:
        out[4 * k + 2] -= s38 * (-1) ** k * (PI / 2) ** (2 * k + 1) / mp.factorial(2 * k + 1)
        k += 1
    return out


def cos_pi_u_series(n):
    out = [mp.mpf(0)] * n
    k = 0
    while 2 * k < n:
        out[2 * k] = (-1) ** k * PI ** (2 * k) / mp.factorial(2 * k)
        k += 1
    return out


def deriv(c, j):
    return [c[k + j] * mp.factorial(k + j) / mp.factorial(k) for k in range(len(c) - j)]


def chebyshev(c):
    """The coefficients of T_0(u), T_1(u), ... for the power series c in u,
    from u^d = 2^(1-d) sum_{2i<d} binom(d, i) T_(d-2i)(u) (+ binom(d, d/2)
    2^(-d) T_0(u) for even d)."""
    out = [mp.mpf(0)] * len(c)
    for d, v in enumerate(c):
        weight = v / mp.mpf(2) ** d      # binom(d, i) 2^(-d), from i = 0 up
        for i in range(d // 2 + 1):
            out[d - 2 * i] += weight if 2 * i == d else 2 * weight
            weight = weight * (d - i) / (i + 1)
    return out


def project(j, series):
    """C_j's Chebyshev coefficients in x (every other one in u, by parity),
    those below DROP * max|C_j| dropped, and the sum of the dropped ones."""
    coeffs = chebyshev(series)[j % 2::2]
    top = max(abs(mp.polyval(series[::-1], mp.mpf(i) / 64)) for i in range(-64, 65))
    kept = [v for v in coeffs if abs(v) >= DROP * top]
    return kept, sum(abs(v) for v in coeffs if abs(v) < DROP * top)


def upper(x):
    """x > 0 rounded up to two significant digits."""
    e = int(mp.floor(mp.log10(x))) - 1
    digits = int(mp.ceil(x / mp.mpf(10) ** e))
    return f"{digits / 10:.1f}e{e + 1}"


F = series_mul(cos_quadratic_series(NF), series_recip(cos_pi_u_series(NF), NF), NF)

C0 = F
C1 = [-x / (12 * PI**2) for x in deriv(F, 3)]
C2 = [a / (16 * PI**2) + b / (288 * PI**4) for a, b in zip(deriv(F, 2), deriv(F, 6))]
C3 = [
    -a / (32 * PI**2) - b / (120 * PI**4) - c / (10368 * PI**6)
    for a, b, c in zip(deriv(F, 1), deriv(F, 5), deriv(F, 9))
]
C4 = [
    a / (128 * PI**2) + 19 * b / (1536 * PI**4) + 11 * c / (23040 * PI**6) + d / (497664 * PI**8)
    for a, b, c, d in zip(F, deriv(F, 4), deriv(F, 8), deriv(F, 12))
]

data = [project(j, c) for j, c in enumerate((C0, C1, C2, C3, C4))]

print('"""Chebyshev data for the Riemann-Siegel correction terms (generated file).')
print()
print("Generated by scripts/gen_rs_coeffs.py; do not edit by hand.")
print("With u = 2*frac(sqrt(t/2pi)) - 1 and x = 2u^2 - 1, Cj holds the c_k of")
print("C_j(u) = sum_k c_k T_k(x) (even j) or u sum_k c_k V_k(x) (odd j), with")
print("V_k(x) = T_2k+1(u)/u.  Coefficients below 1e-18 max|C_j| are dropped; the")
print("sums of their absolute values bound the truncation error on [-1, 1]:")
print(", ".join(f"C{j} {upper(dropped)}" for j, (_, dropped) in enumerate(data)) + ".")
print('"""')
print()
for j, (kept, _) in enumerate(data):
    print(f"C{j} = [")
    for v in kept:
        print(f"    {mp.nstr(v, 19)},")
    print("]")
    print()
print("SERIES = (C0, C1, C2, C3, C4)")
