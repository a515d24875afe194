"""Finite Dirichlet polynomials: the Mobius mollifier, tapered variants,
pointwise evaluation, batch evaluation of every truncation at the zeros,
and the exact pairwise mean-value integral.

The closed form

    int_0^T (sum_n a_n n^-it)(sum_m b_m m^it) dt
        = T sum_n a_n b_n + sum_{n != m} a_n b_m (e^(iT lam) - 1)/(i lam),

lam = log m - log n, is exact up to rounding, so it serves as the oracle
side of every mean-value statement; the Montgomery-Vaughan
main-term-plus-envelope decomposition is reported against it, never used
in its place.  The off-diagonal part is the bilinear form with kernel
1/(log m - log n) of Montgomery and Vaughan's Hilbert-type inequality, and
it splits: with u_n = a_n n^(-iT), v_m = b_m m^(iT) and R the real matrix
1/(log m - log n), zero on the diagonal,

    int_0^T = -i (u^T R v - a^T R b) + T sum_{n <= min} a_n b_n,

one exponential per coefficient instead of one kernel per pair.  Against
30-digit evaluations (the pairwise sum, or its power series in T at small
T) the relative error measured at most 2.3e-12 over 40 campaign-sized
pairs (lengths <= 200, T in [10, 1e4]), 1e-12 at T = 0.01 with 500 x 500
coefficients, where the two bilinear terms cancel most, and 2e-13 at T = 1
with 2000 x 2000; the tests hold it to 1e-10.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BudgetError, InputError, ParseError
from .sieve import SieveTable

PAIR_BUDGET = 10**8
TAPER_DEGREE_CAP = 8
# Largest (ordinates x terms) block of exponentials held at once.
CHUNK_ELEMS = 4_000_000


@dataclass(frozen=True, eq=False)
class DirichletPoly:
    """Coefficients (a_n) for 1 <= n <= length of sum a_n n^(-s).

    coeffs[i] is a_{i+1}; real or complex dtype.  Instances are immutable;
    log n is computed once and shared.
    """
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs)
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("coeffs must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise InputError("coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)

    @property
    def length(self) -> int:
        return self.coeffs.size

    @cached_property
    def logs(self) -> np.ndarray:
        return np.log(np.arange(1, self.length + 1, dtype=float))

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.coeffs)


@dataclass(frozen=True)
class TaperSpec:
    """Polynomial taper P on [0, 1], low-degree-first coefficients."""
    poly_coeffs: tuple = (1.0,)

    def __post_init__(self):
        if len(self.poly_coeffs) == 0:
            raise InputError("taper needs at least one coefficient")
        if len(self.poly_coeffs) - 1 > TAPER_DEGREE_CAP:
            raise InputError(f"taper degree capped at {TAPER_DEGREE_CAP}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(x, dtype=float))
        for c in reversed(self.poly_coeffs):
            out = out * x + c
        return out


def mollifier(table: SieveTable, xi: int) -> DirichletPoly:
    """The truncated 1/zeta mimic: coefficients mu(n) for n <= xi."""
    table._check_range(xi, "xi")
    return DirichletPoly(coeffs=table.mobius[1: xi + 1].astype(np.float64))


def tapered_mollifier(table: SieveTable, xi: int, taper: TaperSpec) -> DirichletPoly:
    """Coefficients mu(n) P(log(xi/n)/log xi); P = 1 reproduces mollifier."""
    if xi < 2:
        raise InputError("xi >= 2 required for a tapered mollifier")
    table._check_range(xi, "xi")
    ns = np.arange(1, xi + 1, dtype=float)
    x = np.log(xi / ns) / math.log(xi)
    return DirichletPoly(coeffs=table.mobius[1: xi + 1] * taper(x))


def eval_poly(poly: DirichletPoly, s: complex) -> complex:
    """sum a_n n^(-s) via exp(-s log n); exactly-rounded accumulation."""
    s = complex(s)
    terms = poly.coeffs * np.exp(-s * poly.logs)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def eval_truncations_at_zeros(poly: DirichletPoly, xis, gammas: np.ndarray) -> np.ndarray:
    """Truncations sum_{n<=xi} a_n n^(-1/2-i*gamma) for every xi in xis and
    every ordinate; shape (len(gammas), len(xis)), xis in [1, poly.length].

    exp(-i gamma log n) is computed once per (gamma, n), and only where
    a_n != 0.  Each segment between consecutive sorted truncation points is
    one matrix-vector product, and a cumulative sum over the segments gives
    every truncation.  The ordinates go in chunks of at most CHUNK_ELEMS
    exponentials, each chunk's matrix freed before the next is built.
    """
    xis = np.asarray(xis, dtype=np.int64)
    if xis.ndim != 1 or xis.size == 0:
        raise InputError("xis must be a non-empty 1-d sequence")
    if xis.min() < 1 or xis.max() > poly.length:
        raise InputError(f"truncation points must lie in [1, {poly.length}]")
    gammas = np.asarray(gammas, dtype=float)
    points, inverse = np.unique(xis, return_inverse=True)
    # coefficient index i holds a_{i+1}, so n <= xi means i < xi
    support = np.flatnonzero(poly.coeffs[: points[-1]])
    ends = np.searchsorted(support, points)
    logs = poly.logs[support]
    minus_i_logs = -1j * logs
    w = poly.coeffs[support] * np.exp(-0.5 * logs)
    out = np.empty((gammas.size, xis.size), dtype=complex)
    chunk = max(1, CHUNK_ELEMS // max(1, support.size))
    for lo in range(0, gammas.size, chunk):
        block = gammas[lo: lo + chunk]
        exps = np.multiply.outer(block, minus_i_logs)
        np.exp(exps, out=exps)
        seg = np.empty((block.size, points.size), dtype=complex)
        start = 0
        for b, end in enumerate(ends):
            seg[:, b] = exps[:, start:end] @ w[start:end]
            start = end
        del exps
        out[lo: lo + chunk] = np.cumsum(seg, axis=1)[:, inverse]
    return out


def eval_poly_at_zeros(poly: DirichletPoly, gammas: np.ndarray) -> np.ndarray:
    """Batch evaluation at s = 1/2 + i*gamma for an ordinate array."""
    return eval_truncations_at_zeros(poly, [poly.length], gammas)[:, 0]


# ---------------------------------------------------------------------------
# mean values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanValueReport:
    """Exact pair integral next to its main term and error envelope.

    ratio = |exact - main| / envelope is the empirical constant for the
    mean-value error term (the inequality itself carries no explicit one).
    """
    T: float
    exact: complex
    main: complex
    envelope: float
    ratio: float


def _diagonal(A: DirichletPoly, B: DirichletPoly) -> complex:
    """sum_{n <= min(len A, len B)} a_n b_n, exactly rounded."""
    n_diag = min(A.length, B.length)
    prod = A.coeffs[:n_diag] * B.coeffs[:n_diag]
    return complex(math.fsum(np.real(prod)), math.fsum(np.imag(prod)))


def pair_integral_exact(A: DirichletPoly, B: DirichletPoly, T: float) -> complex:
    """int_0^T A(it)~B(it) dt in closed form (the module's oracle).

    A enters as sum a_n n^(-it), B as sum b_m m^(+it).  The off-diagonal
    part is -i (u^T R v - a^T R b) (see the module docstring): len A +
    len B exponentials, then one real product of R with the columns
    Re v, Im v, Re b, Im b per block of at most CHUNK_ELEMS entries of R.
    Capped at PAIR_BUDGET coefficient pairs.
    """
    n_pairs = A.length * B.length
    if n_pairs > PAIR_BUDGET:
        raise BudgetError(f"{n_pairs} coefficient pairs exceed budget {PAIR_BUDGET}")
    u = A.coeffs * np.exp(-1j * T * A.logs)
    v = B.coeffs * np.exp(1j * T * B.logs)
    cols = np.column_stack([v.real, v.imag, np.real(B.coeffs), np.imag(B.coeffs)])
    diag = T * _diagonal(A, B)
    re_acc, im_acc = [diag.real], [diag.imag]
    chunk = max(1, CHUNK_ELEMS // B.length)
    for lo in range(0, A.length, chunk):
        hi = min(A.length, lo + chunk)
        lam = B.logs[None, :] - A.logs[lo:hi, None]
        on_diag = np.arange(lo, min(hi, B.length))
        lam[on_diag - lo, on_diag] = np.inf      # R = 1/lam is 0 there
        rc = np.reciprocal(lam, out=lam) @ cols
        rv, rb = rc[:, 0] + 1j * rc[:, 1], rc[:, 2] + 1j * rc[:, 3]
        off = u[lo:hi] @ rv - A.coeffs[lo:hi] @ rb
        re_acc.append(off.imag)         # -i * off
        im_acc.append(-off.real)
    return complex(math.fsum(re_acc), math.fsum(im_acc))


def mv_report(A: DirichletPoly, B: DirichletPoly, T: float) -> MeanValueReport:
    """Main term T sum a_n b_n and envelope sqrt(sum n|a_n|^2 sum n|b_n|^2)
    against the exact integral."""
    main = T * _diagonal(A, B)
    ns_a = np.arange(1, A.length + 1, dtype=float)
    ns_b = np.arange(1, B.length + 1, dtype=float)
    env = math.sqrt(math.fsum(ns_a * np.abs(A.coeffs) ** 2)) * math.sqrt(
        math.fsum(ns_b * np.abs(B.coeffs) ** 2)
    )
    exact = pair_integral_exact(A, B, T)
    gap = abs(exact - main)
    if env > 0.0:
        ratio = gap / env
    else:
        ratio = 0.0 if gap == 0.0 else math.inf
    return MeanValueReport(T=T, exact=exact, main=main, envelope=env, ratio=ratio)


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

def dump_coeffs(poly: DirichletPoly, path) -> None:
    """Write "n,coeff_re,coeff_im" rows; zero rows are omitted except the
    last (n = length), which pins the polynomial length on reload."""
    coeffs = np.asarray(poly.coeffs, dtype=complex)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,coeff_re,coeff_im\n")
        for i, c in enumerate(coeffs):
            n = i + 1
            if c != 0 or n == poly.length:
                fh.write(f"{n},{float(c.real)!r},{float(c.imag)!r}\n")


def load_coeffs(path) -> DirichletPoly:
    """Read the dump_coeffs format; omitted rows are zero coefficients."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "n,coeff_re,coeff_im":
            raise ParseError(f"{path}:1: bad header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 fields")
            try:
                rows.append((int(parts[0]), float(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-numeric field") from exc
    if not rows:
        raise ParseError(f"{path}: no coefficient rows")
    if any(b[0] <= a[0] for a, b in zip(rows, rows[1:])):
        raise ParseError(f"{path}: n column must ascend")
    length = rows[-1][0]
    coeffs = np.zeros(length, dtype=complex)
    for n, re, im in rows:
        coeffs[n - 1] = complex(re, im)
    if np.all(coeffs.imag == 0.0):
        coeffs = coeffs.real.copy()
    return DirichletPoly(coeffs=coeffs)
