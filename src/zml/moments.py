"""Discrete sums over zeros: the inverse-derivative moments J_{-k}(T), the
mollified sums M1 and M2, their predicted main terms, the Cauchy-Schwarz
lower-bound chain, and the Landau-type prime-power sum.

Predicted main terms (natural logs throughout):

    J_{-1}(T) ~ (3/pi^3) T                (conjectured rate)
    lower bound (3/(2 pi^3) - eps) T      (proven rate, half the conjecture)
    M1 ~ (3 theta / pi^3) T log T
    M1 finite-xi diagonal (T/2pi) sum_{n<=xi} mu(n)^2/n
    M2 ~ (3/pi^3) (theta + theta^2) T log^2 T
    sweep bound (3/pi^3) T / (1 + 1/theta)

Every sum over zeros is the correctly rounded sum of its per-zero terms
(math.fsum, or exact parts fed to one math.fsum), so results are
deterministic and independent of the order the zeros are fed in.

moment_grid computes a whole (theta, T) grid in one pass: the mollifier is
evaluated once per zero up to the largest T, block by block and truncated
at every xi of the grid (dirichlet.truncation_blocks), and each T takes a
prefix of the ascending zeros; M1 and M2 share those values, and no zeros
x xi matrix is held; moment_report and the theta-sweep rows use it.  The
mollifier values are within 5e-15 of sum |a_n| n^(-1/2) of 30-digit sums
at sampled zeros up to 1e5 (see dirichlet); at t_max 1e4, M1, M2 and the
Cauchy bound differ by <= 5.4e-14 relative from the direct exponential
evaluation, and Im M1, a cancelling sum of about 2e-4 of |M1|, by 1.7e-8
of itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# eval_poly_at_zeros is unused here; perfbench's tracer patches this binding
from .dirichlet import eval_poly_at_zeros, truncation_blocks  # noqa: F401
from .errors import InputError, SimplicityError
from .sieve import SieveTable, _exact_parts, mangoldt, squarefree_harmonic
from .zeros import SIMPLICITY_GUARD, ZeroList

GONEK_CONSTANT = 3.0 / math.pi**3


@dataclass(frozen=True)
class MollifierParams:
    """Mollifier shape (theta_exp, T) with xi = floor(T^theta_exp)."""
    theta_exp: float
    T: float
    xi: int

    @classmethod
    def from_theta(cls, theta_exp: float, T: float) -> "MollifierParams":
        if not 0.0 < theta_exp < 1.0:
            raise InputError("theta_exp must lie in (0, 1)")
        if T <= 1.0:
            raise InputError("T > 1 required")
        xi = int(math.floor(T**theta_exp))
        if xi < 1:
            raise InputError("xi = floor(T^theta) must be >= 1")
        return cls(theta_exp=theta_exp, T=T, xi=xi)


@dataclass(frozen=True)
class MomentReport:
    """Computed discrete sums next to all the predicted main terms."""
    params: MollifierParams
    j_minus_1: float
    m1: complex
    m2: float
    m1_pred: float
    m2_pred: float
    cauchy_lb: float
    gonek_pred: float
    halfbound_pred: float
    sweep_pred: float

    def to_json_dict(self) -> dict:
        return {
            "theta_exp": self.params.theta_exp,
            "t": self.params.T,
            "xi": self.params.xi,
            "j_minus_1": self.j_minus_1,
            "m1_re": self.m1.real,
            "m1_im": self.m1.imag,
            "m2": self.m2,
            "m1_pred": self.m1_pred,
            "m2_pred": self.m2_pred,
            "cauchy_lb": self.cauchy_lb,
            "gonek_pred": self.gonek_pred,
            "halfbound_pred": self.halfbound_pred,
            "sweep_pred": self.sweep_pred,
        }


@dataclass(frozen=True)
class LandauReport:
    """sum_{0<gamma<=T} x^rho against its main term -(T/2pi) Lambda(x)."""
    x: float
    T: float
    zero_sum: complex
    main_term: float
    deviation: float

    def to_json_dict(self) -> dict:
        return {
            "x": self.x,
            "t": self.T,
            "zero_sum_re": self.zero_sum.real,
            "zero_sum_im": self.zero_sum.imag,
            "main_term": self.main_term,
            "deviation": self.deviation,
        }


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def _require_certified(zlist: ZeroList) -> None:
    if not zlist.certified:
        raise InputError("zero list is not completeness-certified; rescan first")


def _check_window(zlist: ZeroList, T: float) -> int:
    """The number of zeros up to T, the window's prefix length."""
    if T > zlist.t_max:
        raise InputError(f"T = {T} beyond list t_max = {zlist.t_max}")
    return zlist.count_below(T)


def _guard_simplicity(zlist: ZeroList, n: int) -> None:
    if n == 0:
        return
    mods = zlist.zeta_prime_mods[:n]
    j = int(np.argmin(mods))
    if mods[j] < SIMPLICITY_GUARD:
        raise SimplicityError(
            f"|zeta'(rho)| = {mods[j]:.3e} below guard {SIMPLICITY_GUARD:g} at "
            f"gamma = {zlist.ordinates[j]:.9f}; re-verify at higher resolution "
            "before trusting reciprocal-derivative sums"
        )


# ---------------------------------------------------------------------------
# discrete moments
# ---------------------------------------------------------------------------

def j_moment(zlist: ZeroList, k: float, T: float) -> float:
    """J_{-k}(T) = sum_{0<gamma<=T} |zeta'(rho)|^(-2k)."""
    if k <= 0:
        raise InputError("k must be positive")
    _require_certified(zlist)
    n = _check_window(zlist, T)
    if n == 0:
        return 0.0
    return math.fsum(zlist.zeta_prime_mods[:n] ** (-2.0 * k))


def gonek_prediction(T: float) -> float:
    """Conjectured rate (3/pi^3) T for J_{-1}."""
    return GONEK_CONSTANT * T


def halfbound_prediction(T: float) -> float:
    """Proven lower-bound rate (3/(2 pi^3)) T, half the conjectured one."""
    return 0.5 * GONEK_CONSTANT * T


def predict_m1(params: MollifierParams) -> float:
    """Main term (3 theta / pi^3) T log T."""
    return GONEK_CONSTANT * params.theta_exp * params.T * math.log(params.T)


def predict_m1_finite(params: MollifierParams, table: SieveTable) -> float:
    """Diagonal of the residue sum for M1: (T/2pi) sum_{n<=xi} mu(n)^2/n.

    Since sum_{n<=xi} mu(n)^2/n = (6/pi^2)(log xi + c) + O(xi^(-1/2)) with
    c = gamma - 2 zeta'(2)/zeta(2) = 1.71713765..., this term is
    (3/pi^3) T (log xi + c) up to (T/2pi) O(xi^(-1/2)). With log xi ~ theta
    log T its first part is predict_m1; the O(T) part (3/pi^3) c T is what
    predict_m1 leaves out, a relative excess c / (theta log T).

    Raises InputError (from the sieve range check) when xi > table.limit.
    """
    return params.T / (2.0 * math.pi) * squarefree_harmonic(table, params.xi)


def predict_m2(params: MollifierParams) -> float:
    """Main term (3/pi^3)(theta + theta^2) T log^2 T."""
    th = params.theta_exp
    return GONEK_CONSTANT * (th + th * th) * params.T * math.log(params.T) ** 2


def cauchy_chain(report: MomentReport) -> bool:
    """Exact Cauchy-Schwarz inequality J_{-1} >= |M1|^2 / M2 (rounding slack
    1e-12 relative only)."""
    return report.j_minus_1 >= report.cauchy_lb - 1e-12 * abs(report.cauchy_lb)


def _check_point(
    zlist: ZeroList, table: SieveTable, theta_exp: float, T: float
) -> tuple[MollifierParams, int]:
    """(params, number of zeros up to T) of one gridpoint, after every check
    a moment report needs; InputError or SimplicityError otherwise."""
    params = MollifierParams.from_theta(theta_exp, T)
    if params.xi > table.limit:
        raise InputError(f"xi = {params.xi} exceeds sieve limit {table.limit}")
    _require_certified(zlist)
    n = _check_window(zlist, T)
    _guard_simplicity(zlist, n)
    return params, n


def moment_grid(zlist: ZeroList, table: SieveTable, points) -> list:
    """One MomentReport per (theta, T) point, from a single pass over the zeros.

    The mollifier of the largest xi is evaluated at the zeros up to the
    largest T block by block, truncated at the xi of every point
    (dirichlet.truncation_blocks); the window of each T is a prefix of the
    ascending zeros, and M1 and M2 come from the same values.  Each block
    leaves exact parts (_exact_parts) of the sums of the points whose
    window reaches it, and one math.fsum over a point's parts gives the
    same bits as one math.fsum over its window, while no zeros x xi matrix
    is held.  Every point is checked (theta range, sieve limit,
    certificate, t_max, the simplicity guard over its window), in order,
    before any evaluation.  Each T must already be snapped mid-gap (see
    zeros.snap_to_midgap).
    """
    from .dirichlet import mollifier

    checked = [_check_point(zlist, table, th, T) for th, T in points]
    if not checked:
        return []
    xis = [params.xi for params, _ in checked]
    ns = np.array([n for _, n in checked])
    re, im, sq = ([np.zeros((0, ns.size))] for _ in range(3))
    blocks = truncation_blocks(mollifier(table, max(xis)), xis, zlist.ordinates[: ns.max()])
    for lo, vals in blocks:
        live = np.flatnonzero(ns > lo)        # the points whose window reaches the block
        rows = np.arange(lo, lo + len(vals))
        v = np.where(rows[:, None] < ns[live], vals[:, live], 0.0)
        terms = np.conj(v) / zlist.zeta_primes[rows, None]
        for sums, x in ((re, terms.real), (im, terms.imag), (sq, np.abs(v) ** 2)):
            parts = np.reshape(_exact_parts(x), (-1, live.size))
            sums.append(np.zeros((len(parts), ns.size)))
            sums[-1][:, live] = parts
    re, im, sq = (np.concatenate(s).T.copy() for s in (re, im, sq))
    j_minus_1 = {T: j_moment(zlist, 1.0, T) for T in {params.T for params, _ in checked}}
    reports = []
    for k, (params, n) in enumerate(checked):
        m1 = complex(math.fsum(re[k].tolist()), math.fsum(im[k].tolist()))
        m2 = math.fsum(sq[k].tolist())
        T = params.T
        reports.append(MomentReport(
            params=params,
            j_minus_1=j_minus_1[T],
            m1=m1,
            m2=m2,
            m1_pred=predict_m1(params),
            m2_pred=predict_m2(params),
            cauchy_lb=(abs(m1) ** 2 / m2) if m2 > 0.0 else 0.0,
            gonek_pred=gonek_prediction(T),
            halfbound_pred=halfbound_prediction(T),
            sweep_pred=sweep_prediction(params.theta_exp, T),
        ))
    return reports


def moment_report(
    zlist: ZeroList, table: SieveTable, theta_exp: float, T: float
) -> MomentReport:
    """Assemble every moment and prediction for one (theta, T) gridpoint.

    T must already be snapped mid-gap (see zeros.snap_to_midgap).
    """
    return moment_grid(zlist, table, [(theta_exp, T)])[0]


# ---------------------------------------------------------------------------
# theta sweep
# ---------------------------------------------------------------------------

def sweep_prediction(theta_exp: float, T: float) -> float:
    """Lower-bound main term (3/pi^3) T / (1 + 1/theta)."""
    return GONEK_CONSTANT * T / (1.0 + 1.0 / theta_exp)


def theta_sweep(T: float, thetas, reports) -> list:
    """Per-theta rows of (cauchy_lb, sweep_pred, ratio) at T, each from
    reports[(theta, T)]."""
    rows = []
    for th in thetas:
        rep = reports[(th, T)]
        rows.append({
            "theta_exp": th,
            "t": T,
            "xi": rep.params.xi,
            "cauchy_lb": rep.cauchy_lb,
            "sweep_pred": rep.sweep_pred,
            "ratio": rep.cauchy_lb / rep.sweep_pred if rep.sweep_pred else math.inf,
            "j_minus_1": rep.j_minus_1,
            "cauchy_ok": cauchy_chain(rep),
        })
    return rows


# ---------------------------------------------------------------------------
# Landau-type sum
# ---------------------------------------------------------------------------

def landau_sums(zlist: ZeroList, table: SieveTable, x: float, Ts) -> list:
    """landau_gonek at every T of Ts, from one pass over the zeros.

    The phases gamma log x and their cos and sin are computed once up to
    the largest T.  The windows are prefixes: exact parts (_exact_parts)
    of each stretch between consecutive window ends are carried, so every
    report is bit-identical to one math.fsum over its own window.
    """
    if x <= 1.0:
        raise InputError("x > 1 required")
    _require_certified(zlist)
    ns = [_check_window(zlist, T) for T in Ts]
    lx = math.log(x)
    sx = math.sqrt(x)
    phases = zlist.ordinates[: max(ns, default=0)] * lx
    cis = np.column_stack([np.cos(phases), np.sin(phases)])
    lam = mangoldt(table, x)
    reports = [None] * len(ns)
    parts, lo = [], 0
    for k in sorted(range(len(ns)), key=ns.__getitem__):
        parts += _exact_parts(cis[lo: ns[k]])
        lo = ns[k]
        zero_sum = complex(sx * math.fsum(p[0] for p in parts),
                           sx * math.fsum(p[1] for p in parts))
        main = -(Ts[k] / (2.0 * math.pi)) * lam
        reports[k] = LandauReport(
            x=x, T=Ts[k], zero_sum=zero_sum, main_term=main,
            deviation=abs(zero_sum - main),
        )
    return reports


def landau_gonek(zlist: ZeroList, table: SieveTable, x: float, T: float) -> LandauReport:
    """sum_{0<gamma<=T} x^rho = sqrt(x) sum e^(i gamma log x), with the
    explicit-formula main term -(T/2pi) Lambda(x)."""
    return landau_sums(zlist, table, x, [T])[0]


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def reports_csv_text(reports) -> str:
    """One CSV row per report, columns from to_json_dict (sorted keys),
    floats in repr form."""
    if not reports:
        raise InputError("no reports to write")
    keys = sorted(reports[0].to_json_dict())
    lines = [",".join(keys)]
    for rep in reports:
        d = rep.to_json_dict()
        lines.append(",".join(repr(d[k]) for k in keys))
    return "\n".join(lines) + "\n"

