"""Frozen reference values for the test suite.

Everything here was computed independently of the package (mpmath at 30-50
decimal digits; see the inline notes) before the corresponding modules were
written, and is used as the oracle side of the dual-route checks.
"""

# classical closed forms
ZETA_2 = 1.6449340668482264365        # pi^2/6
ZETA_3 = 1.2020569031595942854
ZETA_HALF = -1.4603545088095868129

# constant c in sum_{n<=xi} mu(n)^2/n = (6/pi^2)(log xi + c) + O(xi^(-1/2)):
# c = euler - 2 zeta'(2)/zeta(2) (mpmath, dps=30: 1.71713765109059847340...)
SQUAREFREE_HARMONIC_C = 1.7171376510905985

# zeta at assorted complex points (mpmath, dps=30)
ZETA_AT = {
    (0.5, 14.1): (0.0046984001834891872, -0.027058282374251048),
    (0.75, 100.0): (2.0029919952553958, -0.054392071190092587),
}

# Riemann-Siegel theta (mpmath siegeltheta, dps=30)
THETA_100 = 87.972165231787219625
THETA_10 = -3.0670743962898952917

# Gram points (mpmath grampoint, dps=30)
GRAM = {
    -1: 9.6669080561301921413,
    0: 17.845599540410860817,
    1: 23.170282701246309279,
    10: 54.675237446853256266,
    1000: 1421.2563890327501587,
}

# first ten zero ordinates (mpmath zetazero, dps=30)
ZERO_ORDINATES = [
    14.134725141734693790,
    21.022039638771554993,
    25.010857580145688763,
    30.424876125859513210,
    32.935061587739189691,
    37.586178158825671257,
    40.918719012147495187,
    43.327073280914999519,
    48.005150881167159728,
    49.773832477672302182,
]

# Z'(gamma_k) at those zeros (mpmath siegelz derivative=1)
Z_PRIME = [
    0.79316043335650612,
    -1.1368391068279748,
    1.3717212872161299,
    -1.3039409504035772,
    1.3821195368556259,
    -1.9365079652925943,
    1.4906107614888205,
    -1.8335111262454592,
    1.5680314756251591,
    -1.418932250429311,
]

# zeta'(rho_k) as (re, im) (mpmath zeta derivative=1 at 1/2 + i gamma_k)
ZETA_PRIME = [
    (0.78329651186703093, 0.12469982974817109),
    (1.1092955634626716, -0.24872978851649746),
    (1.2957956050088352, 0.45003670943786714),
    (1.1201308452444934, -0.66750946934949228),
    (1.1605700674935626, 0.75055415034226382),
    (1.8534662499829554, -0.56100442049576069),
    (1.4595173346719908, -0.30286893544609256),
    (1.4640875741457994, 1.1037257926214104),
    (1.0339297984719465, -1.1788604159878192),
    (1.2608936467842434, 0.65078102523623134),
]

N_ZEROS_BELOW_100 = 29

# exact hand sums over small ranges (rationals evaluated exactly)
SQUAREFREE_HARMONIC_10 = 513.0 / 210.0     # n in {1,2,3,5,6,7,10}
ENVELOPE_INV_N_5 = 137.0 / 60.0            # sum_{n<=5} 1/n

# Lehmer's close pair of zeros near t = 7005 (zeros 6709 and 6710), mpmath
# zetazero at 20 digits
LEHMER_PAIR = (7005.0628661749205814, 7005.1005646726467216)

# Regression pin, not an independent oracle: max and mean of
# cli.mv_campaign(seed=42, trials=1000) as the pairwise-kernel pair integral
# (one T e^(ix/2) sinc(x/2) per coefficient pair) computed them
MV_CAMPAIGN_42_1000 = (1.7752939804375987, 0.163495699432795)
