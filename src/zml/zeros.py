"""Locating critical-line zeros with a completeness certificate.

The scan walks Gram points, groups consecutive Gram intervals into blocks
bounded by "good" Gram points (where (-1)^k Z(g_k) > 0), finds the expected
number of sign changes per block by adaptive subdivision, refines every
bracket by vectorised bisection, and computes Z'(gamma) at every zero;
zeta'(rho) follows from the rotation identity
zeta'(rho) = -i exp(-i theta(gamma)) Z'(gamma).

Refinement runs in two phases, in place on the scan's bracket arrays,
whose end values of Z have strictly opposite signs.  A few Illinois
(regula falsi) steps and two probes per bracket find evaluated points
L < gamma < R with |Z| >= SIGN_MARGIN, a margin about 5x the largest
measured error of Z (not a proven bound), so the computed sign there is
taken as the true one; L and R overwrite the end values.  The bisection
then runs from the original bracket and evaluates only the midpoints
strictly between L and R; any other midpoint lies where Z keeps the sign
of L or R (a bracket holds one zero, as the count certificate checks), so
it takes the side an evaluation would give it.  Every bracket visits the
same midpoints and makes the same decisions as a bisection that
evaluates them all, and the ordinates are the same bits, because Z(t)
does not depend on the other points of its batch.

A zero list has one state: every zero carries a finite Z'(gamma) (the
sums over 1/zeta'(rho) assume simple zeros).  Its file stores the
ordinates and Z'(gamma); zeta'(rho) is derived again on import.

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

from . import _special, store, zeta
from .errors import InputError, NumericsError, ParseError, ValidationError

ZEROS_MAGIC = "# zml-zeros v2"
REFINE_WIDTH = 1e-10          # bisection stops below this bracket width
# bounds every refined enclosure's half-width, REFINE_WIDTH / 2 by construction
ORDINATE_ERR_BOUND = 1e-9
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
EXPORT_CHUNK = 4096           # zeros formatted and written at a time
FIRST_ORDINATE = 14.134725141734695   # gamma_1 = 14.13472514173469379...
_NON_SEPARATORS = bytes(range(33, 256))


@dataclass(frozen=True, eq=False)
class ZeroList:
    """Ascending zero ordinates up to t_max, each within ORDINATE_ERR_BOUND
    of its zero, with a completeness flag.

    ordinates and z_primes are equal-length 1-D float arrays of finite
    values, stored as read-only copies, and t_max is a finite float: every
    zero carries its derivative.  zeta'(rho) is not stored: the rotation
    identity derives it from Z'(gamma) and theta(gamma).
    """
    ordinates: np.ndarray
    z_primes: np.ndarray
    t_max: float
    certified: bool

    def __post_init__(self):
        for name in ("ordinates", "z_primes"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "t_max", float(self.t_max))
        object.__setattr__(self, "certified", bool(self.certified))
        ords = self.ordinates
        if ords.ndim != 1 or ords.shape != self.z_primes.shape:
            raise ValidationError("ordinates and z_primes must be 1-D and of equal length")
        if not (np.isfinite(ords).all() and np.isfinite(self.z_primes).all()
                and math.isfinite(self.t_max)):
            raise ValidationError("ordinates, Z'(gamma) and t_max must be finite")
        gaps = np.diff(ords)
        if np.any(gaps <= 0.0):
            raise ValidationError("ordinates must be strictly ascending")
        if len(ords) and ords[-1] > self.t_max:
            raise ValidationError("ordinate beyond t_max")
        if len(gaps) and gaps.min() <= 2.0 * ORDINATE_ERR_BOUND:
            raise ValidationError("a zero gap is smaller than twice the enclosure width")

    def __len__(self):
        return len(self.ordinates)

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


def _slices(n: int, size: int) -> list:
    """The slices that cut range(n) into pieces of `size` items (the last may be shorter)."""
    return [slice(lo, lo + size) for lo in range(0, n, size)]


# ---------------------------------------------------------------------------
# Gram points
# ---------------------------------------------------------------------------

def gram_points_many(ks: np.ndarray) -> np.ndarray:
    """Solve theta(g_k) = k*pi by Newton iteration for an array of k >= -1,
    from the seed 2 pi exp(1 + W((8k+1)/(8e))), W as scipy.special.lambertw
    gives it bit for bit (_special.lambertw0).

    Stops when every residual is <= 1e-10 or, after 50 steps, when the last
    step moved no point by more than 4 ulp (the double-precision floor of
    theta near t = 1e5 lies above 1e-10).  The seeds, residuals and steps
    are computed zeta.Z_BLOCK points at a time, into g and one step array:
    each is elementwise, so the blocks give the bits of whole-batch
    arithmetic, and no other working array grows with the batch.
    """
    ks = np.asarray(ks, dtype=float).ravel()
    blocks = _slices(ks.size, zeta.Z_BLOCK)
    g = np.empty(ks.size)
    for part in blocks:
        g[part] = _special.lambertw0((8.0 * ks[part] + 1.0) / (8.0 * math.e))
    g += 1.0
    np.exp(g, out=g)
    g *= 2.0 * math.pi
    step = np.empty(ks.size)
    for _ in range(50):
        converged = True
        for part in blocks:         # the residuals first: the stop rule is batch-wide
            step[part] = zeta.rs_theta_many(g[part]) - ks[part] * math.pi
            converged &= bool(np.all(np.abs(step[part]) <= 1e-10))
        if converged:
            return g
        for part in blocks:         # residual / slope, slope = theta'(g)
            step[part] /= 0.5 * np.log(g[part] / (2.0 * math.pi))
        g -= step
    if all(np.all(np.abs(step[part]) <= 4.0 * np.spacing(g[part])) for part in blocks):
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


def _block_brackets(good_idx, gs, zs):
    """Sign-change brackets (lows, highs, Z at lows, Z at highs) for every
    Gram block.

    Block i runs from Gram point good_idx[i] to good_idx[i + 1] and must
    hold m = good_idx[i + 1] - good_idx[i] sign changes.  At depth d every
    Gram interval of each pending block is cut into 2^d slices at the
    linspace points; blocks that show m sign changes are done, the rest
    go one depth deeper.  Depth 0 takes the Gram intervals themselves, with
    the values at their ends, and makes no evaluation; each deeper level
    makes one hardy_z_many call for the blocks still pending (_subdivide),
    up to MAX_SUBDIV_DEPTH.  Brackets come back in ascending order: the
    deeper ones, sorted, are inserted among those of depth 0, and the four
    columns are read from gs and zs once each.
    """
    first, last = good_idx[0], good_idx[-1]
    flips = zs[first:last] * zs[first + 1:last + 1] < 0.0
    m = np.diff(good_idx)
    pending = np.add.reduceat(flips, good_idx[:-1] - first, dtype=np.int64) < m
    deeper = np.repeat(pending, m)          # the Gram intervals of pending blocks
    flips &= ~deeper                        # those taken at depth 0
    deep_iv, *deep = _subdivide(np.flatnonzero(deeper) + first, m[pending], gs, zs)
    del m, pending, deeper
    src = np.flatnonzero(flips) + first     # the Gram interval of each bracket
    del flips
    at = np.searchsorted(src, deep_iv)
    src = np.insert(src, at, 0)
    at += np.arange(len(at))                # the deeper brackets' places
    brackets = tuple(col[src] for col in (gs, gs[1:], zs, zs[1:]))
    for col, piece in zip(brackets, deep):
        col[at] = piece
    return brackets


def _subdivide(intervals, m, gs, zs):
    """(Gram interval, low, high, Z at low, Z at high) of the brackets of the
    blocks that depth 0 left pending, in ascending order: the blocks of m
    sign changes each whose Gram intervals are listed in `intervals`."""
    owner = np.repeat(np.arange(len(m)), m)
    pending = np.ones(len(m), dtype=bool)
    found = [(np.empty(0, dtype=intervals.dtype), *[np.empty(0)] * 4)]
    for depth in range(1, MAX_SUBDIV_DEPTH + 1):
        if not pending.any():
            break
        n_sub = 2 ** depth
        live = pending[owner]
        iv, block = intervals[live], owner[live]
        pts = np.linspace(gs[iv], gs[iv + 1], n_sub + 1, axis=1)[:, :-1]
        vals = np.empty(pts.shape)
        vals[:, 0] = zs[iv]
        vals[:, 1:] = zeta.hardy_z_many(pts[:, 1:].ravel()).reshape(-1, n_sub - 1)
        nxt_pts = np.column_stack([pts[:, 1:], gs[iv + 1]])
        nxt_vals = np.column_stack([vals[:, 1:], zs[iv + 1]])
        flips = vals * nxt_vals < 0.0
        done = pending & (np.bincount(block, flips.sum(axis=1), minlength=len(m)) >= m)
        take = flips & done[block][:, None]
        found.append((np.broadcast_to(iv[:, None], take.shape)[take],
                      pts[take], nxt_pts[take], vals[take], nxt_vals[take]))
        pending &= ~done
    if pending.any():
        stuck = np.argmax(pending)
        lo = intervals[np.searchsorted(owner, stuck)]
        hi = lo + m[stuck]
        raise NumericsError(
            f"Gram block [{gs[lo]:.6f}, {gs[hi]:.6f}] still holds "
            f"{hi - lo} expected zeros after depth {MAX_SUBDIV_DEPTH}; possible close pair"
        )
    iv, *cols = (np.concatenate(c) for c in zip(*found))
    del found
    order = np.argsort(cols[0])
    return tuple(c[order] for c in (iv, *cols))


def _sign_bounds(lows, highs, left, right, neg):
    """The narrowing phase of _refine_brackets, in place: points L, R with
    lows <= L < gamma < R <= highs at which Z was evaluated with
    |Z| >= SIGN_MARGIN, so that its computed sign there is trusted, written
    over left and right, which hold Z at lows and highs (neg: Z(lows) < 0).

    Up to ILLINOIS_STEPS vectorised Illinois steps (regula falsi that halves
    the weight of an end kept twice in a row) estimate gamma; a bracket
    stops once its step is below the probe gap 4*SIGN_MARGIN/slope.  One
    probe on each side of the estimate, max(last step, that gap) away, then
    lands just clear of the zero.  Every evaluated point with
    |Z| >= SIGN_MARGIN moves the bound of the side its sign names.  Every
    bracket changes sign strictly, Z(lows) Z(highs) < 0, as the scan's do.
    """
    x0, x1 = lows.copy(), highs.copy()          # the Illinois bracket
    f0, f1 = left.copy(), right.copy()
    w0, w1 = f0.copy(), f1.copy()               # its weighted end values
    left[:], right[:] = lows, highs

    def bound(where, t, z):
        """Move L or R of brackets `where` to the sure points t; True where
        Z(t) has the sign of the low end."""
        low = (z < 0.0) == neg[where]
        sure = np.abs(z) >= SIGN_MARGIN
        left[where[low & sure]] = t[low & sure]
        right[where[~low & sure]] = t[~low & sure]
        return low

    kept = np.zeros(len(lows), dtype=np.int8)   # +1/-1: the last step kept x1/x0
    est = np.full(len(lows), np.inf)            # the last iterate (none yet)
    step = np.empty(len(lows))                  # its distance from the one before
    live = np.arange(len(lows))
    for _ in range(ILLINOIS_STEPS):
        c = x1[live] - w1[live] * (x1[live] - x0[live]) / (w1[live] - w0[live])
        np.clip(c, x0[live], x1[live], out=c)   # rounding must not leave the bracket
        fc = zeta.hardy_z_many(c)
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
        ask = np.flatnonzero((probe > left) & (probe < right))
        if len(ask):
            bound(ask, probe[ask], zeta.hardy_z_many(probe[ask]))


def _refine_brackets(lows, highs, f_lows, f_highs):
    """Vectorised bisection of sign-change brackets down to REFINE_WIDTH:
    the midpoints of the final brackets.

    Z(lows) and Z(highs) are the values already computed at the bracket
    ends, of strictly opposite signs as _block_brackets makes them.  Every
    bracket is halved in every pass until all are narrower than
    REFINE_WIDTH, and each midpoint takes the side whose end shares its
    sign of Z.  The narrowing phase (_sign_bounds) first finds, per bracket,
    evaluated points L < gamma < R where |Z| >= SIGN_MARGIN.  A midpoint at
    or below L (at or above R) then takes its side without a Z evaluation;
    only midpoints strictly between L and R are evaluated.  So the passes
    visit the same midpoints and make the same decisions as plain bisection
    evaluating every midpoint: a skipped midpoint lies on the side of the
    bracket's single zero where Z keeps the sign of L (R), and there Z is
    larger in size than its evaluation error.

    The four float arrays are taken over, not copied: L and R overwrite
    f_lows and f_highs, NARROW_CHUNK brackets at a time, and the passes
    halve the brackets in lows and highs, each zeta.Z_BLOCK brackets at a
    time (_halve), so that only those four arrays grow with the batch.
    """
    fa_neg = f_lows < 0.0
    for p in _slices(lows.size, NARROW_CHUNK):
        _sign_bounds(lows[p], highs[p], f_lows[p], f_highs[p], fa_neg[p])
    parts = _slices(lows.size, zeta.Z_BLOCK)
    for _ in range(64):
        if all(np.all(highs[p] - lows[p] <= REFINE_WIDTH) for p in parts):
            break
        for p in parts:
            _halve(lows[p], highs[p], f_lows[p], f_highs[p], fa_neg[p])
    lows += highs
    lows *= 0.5
    return lows


def _halve(a, b, sure_lo, sure_hi, fa_neg):
    """One bisection pass over the brackets [a, b], in place: the midpoint
    goes low at or below sure_lo, high at or above sure_hi, and by the sign
    of Z there in between."""
    mid = 0.5 * (a + b)
    goes_low = mid <= sure_lo
    ask = ~goes_low & (mid < sure_hi)
    if ask.any():
        goes_low[ask] = (zeta.hardy_z_many(mid[ask]) < 0.0) == fa_neg[ask]
    np.copyto(a, mid, where=goes_low)
    np.copyto(b, mid, where=~goes_low)


def _build_records(gammas, t_max, certified) -> ZeroList:
    """The ZeroList of refined zeros, with Z'(gamma) at each one."""
    return ZeroList(ordinates=gammas, z_primes=zeta.hardy_z_prime_many(gammas),
                    t_max=t_max, certified=certified)


def _walk_to_good_gram(k: int, step: int, side, last: int):
    """(k, g_k) for the first k from `k` in steps of `step` (+1 or -1), up
    to and including `last`, whose Gram point satisfies side(g_k) and is
    good; None if there is none.  side is tested before Z(g_k) is
    evaluated, through hardy_z_many, which has no T_MAX check."""
    while (last - k) * step >= 0:
        g = gram_point(k)
        if side(g) and _good_mask(np.array([k]), zeta.hardy_z_many(np.array([g])))[0]:
            return k, g
        k += step
    return None


def _anchored_gram_range(t_lo: float, t_hi: float):
    """Good Gram anchors (k_a below t_lo, k_b at/above t_hi) plus the grid.

    The anchor above t_hi may lie past T_MAX + SCAN_MARGIN.
    """
    k0 = int(math.floor(zeta.rs_theta(t_lo) / math.pi))
    if (hit := _walk_to_good_gram(k0, -1, lambda g: g < t_lo, -1)) is None:
        raise NumericsError(f"no good Gram anchor below t_lo = {t_lo}")
    k_a = hit[0]
    k0 = int(math.ceil(zeta.rs_theta(t_hi) / math.pi))
    if (hit := _walk_to_good_gram(k0, 1, lambda g: g >= t_hi, k_a + 200000)) is None:
        raise NumericsError("no good Gram anchor above t_hi")
    ks = np.arange(k_a, hit[0] + 1)
    gs = gram_points_many(ks.astype(float))
    return ks, gs


def scan_and_refine(t_lo: float, t_hi: float) -> ZeroList:
    """All zeros with t_lo < gamma <= t_hi, refined and derivative-populated.

    certified is True only when the zero count over the anchored Gram range
    reconciles exactly with the Gram indices (Rosser-block bookkeeping).
    """
    if not 10.0 <= t_lo < t_hi <= zeta.T_MAX + SCAN_MARGIN:
        raise InputError(f"need 10 <= t_lo < t_hi <= {zeta.T_MAX + SCAN_MARGIN:g}")
    ks, gs = _anchored_gram_range(t_lo, t_hi)
    zs = zeta.hardy_z_many(gs)
    good_idx = np.nonzero(_good_mask(ks, zs))[0]
    expected = int(ks[good_idx[-1]] - ks[good_idx[0]])
    del ks                          # each stage holds only what later ones read
    brackets = _block_brackets(good_idx, gs, zs)
    del gs, zs, good_idx

    certified = len(brackets[0]) == expected
    gammas = _refine_brackets(*brackets)
    del brackets
    return _build_records(gammas[(gammas > t_lo) & (gammas <= t_hi)], t_hi, certified)


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


def zero_count_check(zlist: ZeroList, T: float) -> CountCheck:
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
    anchor_k, anchor_g, exact_ok, count_at = k, math.nan, count == 0, -1
    if (hit := _walk_to_good_gram(k, -1, lambda g: g <= T, -1)) is not None:
        anchor_k, anchor_g = hit
        count_at = zlist.count_below(anchor_g)
        exact_ok = count_at == anchor_k + 1
    return CountCheck(
        passed=bool(slack_ok and exact_ok),
        count=count,
        expected=expected,
        anchor_k=anchor_k,
        anchor_gram=anchor_g,
        count_at_anchor=count_at,
    )


# ---------------------------------------------------------------------------
# summation endpoints
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


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def export_zeros(zlist: ZeroList, path) -> None:
    """Write the list atomically as a store container, kind ZEROS_MAGIC with
    keys t_max and certified, whose payload is "<ordinate> <Z'(gamma)>\n"
    per zero, each float as its repr, which reads back to the same bits.
    Lines are formatted EXPORT_CHUNK at a time."""
    def chunks():
        for lo in range(0, len(zlist), EXPORT_CHUNK):
            rows = zip(zlist.ordinates[lo: lo + EXPORT_CHUNK].tolist(),
                       zlist.z_primes[lo: lo + EXPORT_CHUNK].tolist())
            yield "".join([f"{g!r} {zp!r}\n" for g, zp in rows]).encode()

    store.write(path, ZEROS_MAGIC, {"t_max": zlist.t_max, "certified": zlist.certified},
                chunks())


def _data_rows(body: bytes):
    """The (n, 2) array of the data lines in body, or None unless every
    line is two fields, each one number, separated by one space and ended
    by a newline.  Every byte <= 0x20 separates fields, so the separators
    must read " \n" once per line, with none first, none after the last
    newline and no two side by side; np.fromstring then reads all 2n
    numbers in one call."""
    seps = body.translate(None, _NON_SEPARATORS)
    n = len(seps) // 2
    if (seps != b" \n" * n or body[-1:] not in (b"", b"\n") or body[:1] == b" "
            or b" \n" in body or b"\n " in body):
        return None
    try:
        values = np.fromstring(body, sep=" ")
    except ValueError:
        return None
    return values.reshape(n, 2) if values.size == 2 * n else None


def import_zeros(path) -> ZeroList:
    """Read a list written by export_zeros.  After store.read's header and
    CRC checks all data lines are parsed by one numpy call (_data_rows; a
    bad layout raises one ParseError naming the file), and the values go
    through ZeroList's checks."""
    fields, body = store.read(path, ZEROS_MAGIC, {"t_max": float, "certified": bool})
    rows = _data_rows(body)
    if rows is None:
        raise ParseError(f"{path}: data lines must be two numbers separated by one space, "
                         "each ended by a newline")
    try:
        return ZeroList(ordinates=rows[:, 0], z_primes=rows[:, 1], **fields)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
