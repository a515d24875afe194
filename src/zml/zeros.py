"""Locating critical-line zeros with a completeness certificate.

The scan walks Gram points, groups consecutive Gram intervals into blocks
bounded by "good" Gram points (where (-1)^k Z(g_k) > 0), finds the expected
number of sign changes per block by adaptive subdivision, refines every
bracket by vectorised bisection, and computes Z'(gamma) at every zero;
zeta'(rho) follows from the rotation identity
zeta'(rho) = -i exp(-i theta(gamma)) Z'(gamma).

Refinement runs in two phases.  A few Illinois (regula falsi) steps and two
probes per bracket find evaluated points L < gamma < R with
|Z| >= SIGN_MARGIN, a margin about 5x the largest measured error of Z (not
a proven bound), so the computed sign there is taken as the true one.  The bisection then runs from the original
bracket and evaluates only the midpoints strictly between L and R; any
other midpoint lies where Z keeps the sign of L or R (a bracket holds one
zero, as the count certificate checks), so it takes the side an
evaluation would give it.  Every bracket visits the same midpoints and
makes the same decisions as a bisection that evaluates them all, and the
ordinates are the same bits.  Brackets that start below RS_CROSSOVER are
bisected with every midpoint evaluated: the Euler-Maclaurin route sizes
its main sum from the largest t in its batch, so leaving points out of a
call would change the values of the rest.

Completeness is certified by reconciling the count against
N(T) = theta(T)/pi + 1 + S(T) anchored at good Gram points, where the count
is exact when S vanishes; Rosser's rule holds throughout t <= 1e5 (its first
failure is far above), so a mismatch means a scanning defect, not new
mathematics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import lambertw

from . import zeta
from .errors import InputError, NumericsError, ParseError, ValidationError
from .zeta import EvalConfig, DEFAULT_CONFIG

ZEROS_MAGIC = "# zml-zeros v1"
ORDINATE_ERR_BOUND = 1e-9     # certified enclosure half-width on export
REFINE_WIDTH = 1e-10          # bisection stops below this bracket width
SIMPLICITY_GUARD = 1e-4       # |Z'(gamma)| below this trips re-verification
MAX_SUBDIV_DEPTH = 12
# |Z| at or above this fixes the sign of Z at a point: about 5x the largest
# measured Z error on the Riemann-Siegel route (a measured margin, not a bound)
SIGN_MARGIN = 1e-8
ILLINOIS_STEPS = 8            # most regula falsi steps per bracket
NARROW_CHUNK = 4096           # brackets narrowed at once, to bound the working set
# A scan may end this far above T_MAX, so that every T <= T_MAX lies
# strictly inside its ordinate range (the zero above 1e5 closes the gap).
SCAN_MARGIN = 5.0


@dataclass(frozen=True, eq=False)
class ZeroList:
    """Ascending zero ordinates up to t_max with a completeness flag.

    ordinates, ordinate_errs and z_primes are equal-length 1-D float arrays,
    stored as read-only copies.  The ordinates, their enclosure half-widths
    and t_max are finite; z_primes is finite, or NaN after an ordinate-only
    import until refresh_derivatives runs.  zeta'(rho) is not stored: the
    rotation identity derives it from Z'(gamma) and theta(gamma).
    """
    ordinates: np.ndarray
    ordinate_errs: np.ndarray
    z_primes: np.ndarray
    t_max: float
    certified: bool

    def __post_init__(self):
        for name in ("ordinates", "ordinate_errs", "z_primes"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        ords, errs = self.ordinates, self.ordinate_errs
        if ords.ndim != 1 or ords.shape != errs.shape or ords.shape != self.z_primes.shape:
            raise ValidationError(
                "ordinates, ordinate_errs and z_primes must be 1-D and of equal length")
        if not (np.isfinite(ords).all() and np.isfinite(errs).all()
                and math.isfinite(self.t_max)):
            raise ValidationError("ordinates, enclosure widths and t_max must be finite")
        if np.isinf(self.z_primes).any():
            raise ValidationError("Z'(gamma) must be finite, or NaN before refresh_derivatives")
        gaps = np.diff(ords)
        if np.any(gaps <= 0.0):
            raise ValidationError("ordinates must be strictly ascending")
        if len(ords) and ords[-1] > self.t_max:
            raise ValidationError("ordinate beyond t_max")
        if len(gaps) and gaps.min() <= 2.0 * errs.max():
            raise ValidationError("a zero gap is smaller than twice the enclosure width")

    def __len__(self):
        return len(self.ordinates)

    @property
    def populated(self) -> bool:
        """True when every zero carries its derivative data."""
        return not np.isnan(self.z_primes).any()

    @cached_property
    def zeta_primes(self) -> np.ndarray:
        """zeta'(1/2 + i*gamma) = -i exp(-i theta(gamma)) Z'(gamma)."""
        return -1j * np.exp(-1j * zeta.rs_theta_many(self.ordinates)) * self.z_primes

    @cached_property
    def zeta_prime_mods(self) -> np.ndarray:
        """|zeta'(rho)|, which equals |Z'(gamma)| by the rotation identity."""
        return np.abs(self.z_primes)

    def count_below(self, T: float) -> int:
        return int(np.searchsorted(self.ordinates, T, side="right"))


# ---------------------------------------------------------------------------
# Gram points
# ---------------------------------------------------------------------------

def gram_points_many(ks: np.ndarray) -> np.ndarray:
    """Solve theta(g_k) = k*pi by Newton iteration for an array of k >= -1.

    Stops when every residual is <= 1e-10 or, after 50 steps, when the last
    step moved no point by more than 4 ulp (the double-precision floor of
    theta near t = 1e5 lies above 1e-10).
    """
    ks = np.asarray(ks, dtype=float)
    target = ks * math.pi
    g = 2.0 * math.pi * np.exp(1.0 + lambertw((8.0 * ks + 1.0) / (8.0 * math.e)).real)
    for _ in range(50):
        resid = zeta.rs_theta_many(g) - target
        if np.all(np.abs(resid) <= 1e-10):
            return g
        slope = 0.5 * np.log(g / (2.0 * math.pi))
        step = resid / slope
        g = g - step
    if np.all(np.abs(step) <= 4.0 * np.spacing(g)):
        return g
    raise NumericsError("Gram-point Newton iteration failed to converge")


def gram_point(k: int) -> float:
    """Gram point g_k (theta(g_k) = k*pi), k >= -1, residual <= 1e-9."""
    if k < -1:
        raise InputError("k >= -1 required")
    return float(gram_points_many(np.array([float(k)]))[0])


# ---------------------------------------------------------------------------
# scanning
# ---------------------------------------------------------------------------

def _good_mask(ks: np.ndarray, zs: np.ndarray) -> np.ndarray:
    sign = np.where(ks.astype(np.int64) % 2 == 0, 1.0, -1.0)
    return sign * zs > 0.0


def _block_brackets(good_idx, gs, zs, cfg):
    """Sign-change brackets (lows, highs, Z at lows, Z at highs) for every
    Gram block.

    Block i runs from Gram point good_idx[i] to good_idx[i + 1] and must
    hold m = good_idx[i + 1] - good_idx[i] sign changes.  At depth d every
    Gram interval of each pending block is cut into 2^d slices at the
    linspace points; blocks that show m sign changes are done, the rest
    go one depth deeper.  Depth 0 needs no evaluation; each deeper level
    makes one hardy_z_many call for all pending blocks, up to
    MAX_SUBDIV_DEPTH.  Brackets come back in ascending order.
    """
    m = np.diff(good_idx)
    owner = np.repeat(np.arange(len(m)), m)       # the block of each Gram interval
    intervals = np.arange(good_idx[0], good_idx[-1])
    pending = np.ones(len(m), dtype=bool)
    found = []
    for depth in range(MAX_SUBDIV_DEPTH + 1):
        n_sub = 2 ** depth
        live = pending[owner]
        iv, block = intervals[live], owner[live]
        pts = np.linspace(gs[iv], gs[iv + 1], n_sub + 1, axis=1)[:, :-1]
        vals = np.empty(pts.shape)
        vals[:, 0] = zs[iv]
        if n_sub > 1:
            vals[:, 1:] = zeta.hardy_z_many(pts[:, 1:].ravel(), cfg).reshape(-1, n_sub - 1)
        nxt_pts = np.column_stack([pts[:, 1:], gs[iv + 1]])
        nxt_vals = np.column_stack([vals[:, 1:], zs[iv + 1]])
        flips = vals * nxt_vals < 0.0
        done = pending & (np.bincount(block, flips.sum(axis=1), minlength=len(m)) >= m)
        take = flips & done[block][:, None]
        found.append((pts[take], nxt_pts[take], vals[take], nxt_vals[take]))
        pending &= ~done
        if not pending.any():
            order = np.argsort(np.concatenate([piece[0] for piece in found]))
            return tuple(np.concatenate(c)[order] for c in zip(*found))
    first = np.argmax(pending)
    lo, hi = good_idx[first], good_idx[first + 1]
    raise NumericsError(
        f"block [{gs[lo]:.6f}, {gs[hi]:.6f}] still holds "
        f"{hi - lo} expected zeros after depth {MAX_SUBDIV_DEPTH}; "
        "possible close pair - rerun with a tighter EvalConfig"
    )


def _sign_bounds(lows, highs, f_lows, f_highs, cfg):
    """The narrowing phase of _refine_brackets: points L, R with
    lows <= L < gamma < R <= highs at which Z was evaluated with
    |Z| >= SIGN_MARGIN, so that its computed sign there is trusted.

    Up to ILLINOIS_STEPS vectorised Illinois steps (regula falsi that halves
    the weight of an end kept twice in a row) estimate gamma; a bracket
    stops once its step is below the probe gap 4*SIGN_MARGIN/slope.  One
    probe on each side of the estimate, max(last step, that gap) away, then
    lands just clear of the zero.  Every evaluated point with
    |Z| >= SIGN_MARGIN moves the bound of the side its sign names.  Brackets
    below RS_CROSSOVER, or without a strict sign change, keep their ends.
    """
    left = np.array(lows, dtype=float)
    right = np.array(highs, dtype=float)
    idx = np.flatnonzero((left >= zeta.RS_CROSSOVER) & (f_lows * f_highs < 0.0))
    if len(idx) == 0:
        return left, right
    neg = f_lows[idx] < 0.0

    def bound(where, t, z):
        """Move L or R of brackets idx[where] to the sure points t; True
        where Z(t) has the sign of the low end."""
        low = (z < 0.0) == neg[where]
        sure = np.abs(z) >= SIGN_MARGIN
        left[idx[where[low & sure]]] = t[low & sure]
        right[idx[where[~low & sure]]] = t[~low & sure]
        return low

    x0, x1 = left[idx], right[idx]              # the Illinois bracket
    f0, f1 = f_lows[idx], f_highs[idx]
    w0, w1 = f0.copy(), f1.copy()               # its weighted end values
    kept = np.zeros(len(idx), dtype=np.int8)    # +1/-1: the last step kept x1/x0
    est = np.full(len(idx), np.inf)             # the last iterate (none yet)
    step = np.empty(len(idx))                   # its distance from the one before
    live = np.arange(len(idx))
    for _ in range(ILLINOIS_STEPS):
        c = x1[live] - w1[live] * (x1[live] - x0[live]) / (w1[live] - w0[live])
        np.clip(c, x0[live], x1[live], out=c)   # rounding must not leave the bracket
        fc = zeta.hardy_z_many(c, cfg)
        step[live] = np.abs(c - est[live])
        est[live] = c
        low = bound(live, c, fc)
        lo, hi = live[low], live[~low]
        w1[lo[kept[lo] == 1]] *= 0.5
        w0[hi[kept[hi] == -1]] *= 0.5
        x0[lo], f0[lo], w0[lo], kept[lo] = c[low], fc[low], fc[low], 1
        x1[hi], f1[hi], w1[hi], kept[hi] = c[~low], fc[~low], fc[~low], -1
        gap = 4.0 * SIGN_MARGIN * (x1[live] - x0[live]) / np.abs(f1[live] - f0[live])
        live = live[(step[live] > gap) & (fc != 0.0)]
        if len(live) == 0:
            break
    gap = np.maximum(step, 4.0 * SIGN_MARGIN * (x1 - x0) / np.abs(f1 - f0))
    for probe in (est - gap, est + gap):
        # a probe off its intended side still tightens the other bound
        ask = np.flatnonzero((probe > left[idx]) & (probe < right[idx]))
        if len(ask):
            bound(ask, probe[ask], zeta.hardy_z_many(probe[ask], cfg))
    return left, right


def _refine_brackets(lows, highs, f_lows, f_highs, cfg):
    """Vectorised bisection of sign-change brackets down to REFINE_WIDTH.

    Z(lows) and Z(highs) are the values already computed at the bracket
    ends.  Every bracket is halved in every pass until all are narrower than
    REFINE_WIDTH, and each midpoint takes the side whose end shares its sign
    of Z.  The narrowing phase (_sign_bounds) first finds, per bracket,
    evaluated points L < gamma < R where |Z| >= SIGN_MARGIN.  A midpoint at
    or below L (at or above R) then takes its side without a Z evaluation;
    only midpoints strictly between L and R are evaluated.  So the passes
    visit the same midpoints and make the same decisions as plain bisection
    evaluating every midpoint: a skipped midpoint lies on the side of the
    bracket's single zero where Z keeps the sign of L (R), and there Z is
    larger in size than its evaluation error.  Brackets starting below
    RS_CROSSOVER have L and R at their ends, so every one of their
    midpoints is evaluated in every pass, in the same batch as before.
    """
    a = np.asarray(lows, dtype=float)
    b = np.asarray(highs, dtype=float)
    f_lows = np.asarray(f_lows, dtype=float)
    fa_neg = f_lows < 0.0
    f_highs = np.asarray(f_highs, dtype=float)
    sure_lo, sure_hi = np.empty_like(a), np.empty_like(b)
    for lo in range(0, a.size, NARROW_CHUNK):
        part = slice(lo, lo + NARROW_CHUNK)
        sure_lo[part], sure_hi[part] = _sign_bounds(a[part], b[part], f_lows[part],
                                                    f_highs[part], cfg)
    for _ in range(64):
        if np.all(b - a <= REFINE_WIDTH):
            break
        mid = 0.5 * (a + b)
        goes_low = mid <= sure_lo
        ask = ~goes_low & (mid < sure_hi)
        if ask.any():
            goes_low[ask] = (zeta.hardy_z_many(mid[ask], cfg) < 0.0) == fa_neg[ask]
        a = np.where(goes_low, mid, a)
        b = np.where(goes_low, b, mid)
    return 0.5 * (a + b), 0.5 * (b - a)


def _build_records(gammas, errs, t_max, certified, cfg) -> ZeroList:
    """The ZeroList of refined zeros, with Z'(gamma) at each one."""
    return ZeroList(ordinates=gammas, ordinate_errs=errs,
                    z_primes=zeta.hardy_z_prime_many(gammas, cfg),
                    t_max=t_max, certified=certified)


def _anchored_gram_range(t_lo: float, t_hi: float, cfg: EvalConfig):
    """Good Gram anchors (k_a below t_lo, k_b at/above t_hi) plus the grid.

    Anchors are evaluated through hardy_z_many, which has no T_MAX check,
    so the anchor above t_hi may lie past T_MAX + SCAN_MARGIN.
    """
    k_a = int(math.floor(zeta.rs_theta(t_lo) / math.pi))
    while k_a >= -1:
        g = gram_point(k_a)
        if g < t_lo and _good_mask(np.array([k_a]), zeta.hardy_z_many(np.array([g]), cfg))[0]:
            break
        k_a -= 1
    else:
        raise NumericsError(f"no good Gram anchor below t_lo = {t_lo}")
    k_b = int(math.ceil(zeta.rs_theta(t_hi) / math.pi))
    while True:
        g = gram_point(k_b)
        if g >= t_hi and _good_mask(np.array([k_b]), zeta.hardy_z_many(np.array([g]), cfg))[0]:
            break
        k_b += 1
        if k_b - k_a > 200000:
            raise NumericsError("no good Gram anchor above t_hi")
    ks = np.arange(k_a, k_b + 1)
    gs = gram_points_many(ks.astype(float))
    return ks, gs


def scan_and_refine(t_lo: float, t_hi: float, cfg: EvalConfig = DEFAULT_CONFIG) -> ZeroList:
    """All zeros with t_lo < gamma <= t_hi, refined and derivative-populated.

    certified is True only when the zero count over the anchored Gram range
    reconciles exactly with the Gram indices (Rosser-block bookkeeping).
    """
    if not 10.0 <= t_lo < t_hi <= zeta.T_MAX + SCAN_MARGIN:
        raise InputError(f"need 10 <= t_lo < t_hi <= {zeta.T_MAX + SCAN_MARGIN:g}")
    ks, gs = _anchored_gram_range(t_lo, t_hi, cfg)
    zs = zeta.hardy_z_many(gs, cfg)
    good = _good_mask(ks, zs)
    good_idx = np.nonzero(good)[0]

    lows, highs, f_lows, f_highs = _block_brackets(good_idx, gs, zs, cfg)

    expected = int(ks[good_idx[-1]] - ks[good_idx[0]])
    certified = len(lows) == expected
    if len(lows) == 0:
        empty = np.empty(0)
        return ZeroList(empty, empty, empty, t_max=t_hi, certified=certified)

    gammas, errs = _refine_brackets(lows, highs, f_lows, f_highs, cfg)
    keep = (gammas > t_lo) & (gammas <= t_hi)
    return _build_records(gammas[keep], errs[keep], t_hi, certified, cfg)


# ---------------------------------------------------------------------------
# completeness certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountCheck:
    """Boolean-like certificate result with its diagnostics."""
    passed: bool
    count: int
    expected: float
    anchor_k: int
    anchor_gram: float
    count_at_anchor: int

    def __bool__(self) -> bool:
        return self.passed


def zero_count_check(zlist: ZeroList, T: float, cfg: EvalConfig = DEFAULT_CONFIG) -> CountCheck:
    """Certify that a (0, T]-covering list is complete up to T.

    Checks |count - (theta(T)/pi + 1)| <= 2 (the |S(T)| slack) and, exactly,
    that the count at the nearest good Gram point g_k <= T equals k + 1.
    Below g_{-1} = 9.67 no Gram point lies at or below T and no zero either,
    so there the check passes exactly when the count is 0.
    """
    if T > zlist.t_max:
        raise InputError(f"T = {T} beyond list t_max = {zlist.t_max}")
    count = zlist.count_below(T)
    expected = zeta.rs_theta(T) / math.pi + 1.0 if T >= 10.0 else 0.0
    slack_ok = abs(count - expected) <= 2.0

    k = int(math.floor(zeta.rs_theta(max(T, 10.0)) / math.pi))
    anchor_k, anchor_g, exact_ok, count_at = k, math.nan, False, -1
    while k >= -1:
        g = gram_point(k)
        if g <= T and _good_mask(np.array([k]), np.array([zeta.hardy_z(g, cfg)]))[0]:
            anchor_k, anchor_g = k, g
            count_at = zlist.count_below(g)
            exact_ok = count_at == k + 1
            break
        k -= 1
    else:
        exact_ok = count == 0
    return CountCheck(
        passed=bool(slack_ok and exact_ok),
        count=count,
        expected=expected,
        anchor_k=anchor_k,
        anchor_gram=anchor_g,
        count_at_anchor=count_at,
    )


# ---------------------------------------------------------------------------
# derivative helpers
# ---------------------------------------------------------------------------

def snap_to_midgap(zlist: ZeroList, T: float) -> float:
    """Snap T to the midpoint of the enclosing zero gap.

    Mirrors the admissibility condition that summation endpoints stay well
    clear of every ordinate; requires gamma_1 < T < last ordinate.
    """
    o = zlist.ordinates
    idx = int(np.searchsorted(o, T, side="right"))
    if idx == 0 or idx >= len(o):
        raise InputError(f"T = {T} not strictly inside the ordinate range")
    return float(0.5 * (o[idx - 1] + o[idx]))


def refresh_derivatives(zlist: ZeroList, cfg: EvalConfig = DEFAULT_CONFIG) -> ZeroList:
    """Re-refine every ordinate and repopulate the derivative fields.

    Used after an ordinate-only import; each stored ordinate seeds a small
    sign-change bracket that is then bisected as in the scanner.
    """
    if len(zlist) == 0:
        return zlist
    gammas = zlist.ordinates
    w = np.full(gammas.shape, 1e-6)
    a, b = gammas - w, gammas + w
    fa = zeta.hardy_z_many(a, cfg)
    fb = zeta.hardy_z_many(b, cfg)
    bad = fa * fb > 0.0
    grow = 0
    while bad.any():
        grow += 1
        if grow > 20:
            raise NumericsError("could not bracket an imported ordinate; value too coarse")
        w[bad] *= 4.0
        a, b = gammas - w, gammas + w
        fa[bad] = zeta.hardy_z_many(a[bad], cfg)
        fb[bad] = zeta.hardy_z_many(b[bad], cfg)
        bad = fa * fb > 0.0
    refined, errs = _refine_brackets(a, b, fa, fb, cfg)
    t_max = max(zlist.t_max, float(refined[-1]))
    return _build_records(refined, errs, t_max, zlist.certified, cfg)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def export_zeros(zlist: ZeroList, path) -> None:
    """Write the v1 text format: magic + t_max comments, then per zero
    "ordinate z_prime zeta_prime_re zeta_prime_im" at 17 significant digits."""
    rows = zip(zlist.ordinates.tolist(), zlist.z_primes.tolist(), zlist.zeta_primes.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{ZEROS_MAGIC}\n")
        fh.write(f"# t_max {zlist.t_max!r}\n")
        fh.write(f"# certified {'true' if zlist.certified else 'false'}\n")
        for g, zp, c in rows:
            fh.write(f"{g!r} {zp!r} {c.real!r} {c.imag!r}\n")


def import_zeros(path) -> ZeroList:
    """Read either the v1 format or a bare one-ordinate-per-line table.

    Bare tables yield NaN z_primes; run refresh_derivatives to populate
    them.  The zeta' columns of a v1 file are parsed but not kept, since
    zeta' is derived from the ordinate and Z'.  Non-ascending or duplicated
    ordinates fail validation; malformed lines report their line number.
    """
    ordinates, z_primes = [], []
    t_max = None
    certified = False
    bare = True
    # undecodable bytes become U+FFFD, which no float() accepts, so a
    # damaged data line fails as a ParseError with its line number
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if parts[:2] == ["zml-zeros", "v1"]:
                    bare = False
                elif parts[0] == "t_max" and len(parts) == 2:
                    try:
                        t_max = float(parts[1])
                    except ValueError as exc:
                        raise ParseError(f"{path}:{lineno}: bad t_max") from exc
                elif parts[0] == "certified" and len(parts) == 2:
                    certified = parts[1] == "true"
                continue
            fields = line.split()
            if len(fields) not in ((1, 4) if bare else (4,)):
                want = "1 or 4" if bare else "4"
                raise ParseError(f"{path}:{lineno}: expected {want} columns, got {len(fields)}")
            try:
                vals = [float(f) for f in fields]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-numeric field") from exc
            ordinates.append(vals[0])
            z_primes.append(vals[1] if len(vals) == 4 else math.nan)
    if bare and t_max is None:
        t_max = ordinates[-1] if ordinates else 0.0
        certified = False
    if t_max is None:
        raise ParseError(f"{path}: missing '# t_max' header")
    try:
        return ZeroList(ordinates=ordinates,
                        ordinate_errs=np.full(len(ordinates), ORDINATE_ERR_BOUND),
                        z_primes=z_primes, t_max=t_max, certified=certified)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
