import cmath
import dataclasses
import hashlib
import math
import re
import tracemalloc
import zlib

import numpy as np
import pytest

from zml import _special, zeta, zeros
from zml.errors import InputError, ParseError, ValidationError

import oracle_values as ov

GRAM_SHA256 = "51c030e1811ddcbda47a9f3b54c5745f6f0aa17271a20aec53a00d00668a50c6"
# sha256 of the ordinates and of the Z'(gamma) of scan_and_refine(10, 10005)
ORDINATES_SHA256 = "d7fc23adb771a58c696de9226b3fb51f7fa12adc0076d4403bb1870d24b282a0"
Z_PRIMES_SHA256 = "bcf588b5dc54aff872603dfbcd5c66899346031685f8e170e20100d2363f5f87"


class TestGramPoints:
    def test_frozen_values(self):
        for k, g in ov.GRAM.items():
            assert zeros.gram_point(k) == pytest.approx(g, abs=1e-8)

    def test_defining_residual(self):
        for k in (0, 10, 1000):
            g = zeros.gram_point(k)
            assert abs(zeta.rs_theta(g) - k * math.pi) <= 1e-9

    def test_strictly_increasing(self):
        gs = zeros.gram_points_many(np.arange(-1, 200, dtype=float))
        assert np.all(np.diff(gs) > 0)

    def test_domain(self):
        with pytest.raises(InputError):
            zeros.gram_point(-2)

    def test_rounding_floor_near_t_max(self):
        # theta(g) near g = 1e5 cannot reach a 1e-10 residual in doubles;
        # the stalled Newton iterate is accepted
        ks = np.arange(138000, 138100, dtype=float)
        gs = zeros.gram_points_many(ks)
        assert np.all(np.diff(gs) > 0)
        resid = np.abs(zeta.rs_theta_many(gs) - ks * math.pi)
        assert np.all(resid <= 4.0 * np.spacing(ks * math.pi))

    def test_seed_is_scipy_lambertw_bit_for_bit(self):
        # scipy.special is the oracle of the port, at every Gram index the
        # scans reach and beyond
        from scipy.special import lambertw

        x = (8.0 * np.arange(-1, 200_001) + 1.0) / (8.0 * math.e)
        got = _special.lambertw0(x)
        assert np.array_equal(got.view(np.int64), lambertw(x).real.view(np.int64))

    def test_gram_points_pinned(self):
        # the bits of g_k for k < 140,000 (past t = 1e5), as SciPy's seed gave them
        gs = zeros.gram_points_many(np.arange(-1, 140_000))
        assert hashlib.sha256(gs.tobytes()).hexdigest() == GRAM_SHA256

    def test_gram_points_working_set(self):
        # tracemalloc peak over k = -1 ... 140,000: 20.7 MB with the seeds
        # and Newton steps batch-wide, 3.9 MB in Z_BLOCK blocks (the float
        # ks, g and the step array, 1.1 MB each)
        ks = np.arange(-1, 140_000)
        tracemalloc.start()
        try:
            zeros.gram_points_many(ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.3e6


class TestScan:
    def test_first_ten_ordinates(self, zeros_110):
        got = zeros_110.ordinates[:10]
        for g, want in zip(got, ov.ZERO_ORDINATES):
            assert g == pytest.approx(want, abs=1e-8)

    def test_z_prime_against_oracle(self, zeros_110):
        for z_prime, want in zip(zeros_110.z_primes, ov.Z_PRIME):
            assert z_prime == pytest.approx(want, abs=1e-7)

    def test_complex_zeta_prime_against_oracle(self, zeros_110):
        zl = zeros_110
        for g, z_prime, zeta_prime, (re, im) in zip(
                zl.ordinates, zl.z_primes, zl.zeta_primes, ov.ZETA_PRIME):
            assert zeta_prime == pytest.approx(complex(re, im), abs=1e-8)
            # the scalar rotation identity agrees with the batch derivation
            scalar = -1j * cmath.exp(-1j * zeta.rs_theta(g)) * z_prime
            assert scalar == pytest.approx(zeta_prime, abs=1e-12)

    def test_rotation_identity(self, zeros_1010):
        z_mods = np.abs(zeros_1010.z_primes)
        assert np.all(np.abs(zeros_1010.zeta_prime_mods - z_mods) <= 1e-9)
        assert np.all(np.abs(np.abs(zeros_1010.zeta_primes) - z_mods) <= 1e-9)
        assert np.all(zeros_1010.zeta_prime_mods > 0)

    def test_count_below_100(self, zeros_110):
        assert zeros_110.count_below(100.0) == ov.N_ZEROS_BELOW_100

    def test_empty_interval_between_zeros(self):
        zl = zeros.scan_and_refine(15.0, 20.0)
        assert len(zl) == 0
        assert zl.certified

    def test_refinement_quality(self, zeros_1010):
        resid = np.abs(zeta.hardy_z_many(zeros_1010.ordinates))
        assert resid.max() <= 1e-8

    def test_zero_list_pinned(self, zeros_10k_timed):
        """The ordinates and Z'(gamma) to 10005 keep the bits of
        ORDINATES_SHA256 and Z_PRIMES_SHA256 across commits.  They may be
        re-pinned only by a change that states which bits it moves and why
        (ROADMAP item 2c)."""
        zl, _ = zeros_10k_timed
        assert hashlib.sha256(zl.ordinates.tobytes()).hexdigest() == ORDINATES_SHA256
        assert hashlib.sha256(zl.z_primes.tobytes()).hexdigest() == Z_PRIMES_SHA256

    def test_simplicity_margin(self, zeros_1010):
        assert zeros_1010.zeta_prime_mods.min() > zeros.SIMPLICITY_GUARD

    def test_domain_errors(self):
        with pytest.raises(InputError):
            zeros.scan_and_refine(5.0, 50.0)
        with pytest.raises(InputError):
            zeros.scan_and_refine(100.0, 50.0)


def _per_block_brackets(gs, zs, good_idx):
    """The subdivision as one loop per Gram block, in block order (the code
    that batched subdivision replaced)."""
    lows, highs, f_lows, f_highs = [], [], [], []
    for lo, hi in zip(good_idx[:-1], good_idx[1:]):
        m = int(hi - lo)
        if m == 1 and zs[lo] * zs[hi] < 0.0:
            lows.append(gs[lo])
            highs.append(gs[hi])
            f_lows.append(zs[lo])
            f_highs.append(zs[hi])
            continue
        for depth in range(1, zeros.MAX_SUBDIV_DEPTH + 1):
            n_sub = 2 ** depth
            pts = np.concatenate(
                [np.linspace(a, b, n_sub + 1)[:-1] for a, b in zip(gs[lo:hi], gs[lo + 1:hi + 1])]
                + [gs[hi:hi + 1]])
            vals = np.empty(pts.shape)
            vals[::n_sub] = zs[lo:hi + 1]
            inner = np.ones(pts.shape, dtype=bool)
            inner[::n_sub] = False
            vals[inner] = zeta.hardy_z_many(pts[inner])
            flips = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
            if len(flips) >= m:
                lows.extend(pts[flips])
                highs.extend(pts[flips + 1])
                f_lows.extend(vals[flips])
                f_highs.extend(vals[flips + 1])
                break
    return np.array(lows), np.array(highs), np.array(f_lows), np.array(f_highs)


class TestSubdivision:
    def _gram_blocks(self, t_lo, t_hi):
        ks, gs = zeros._anchored_gram_range(t_lo, t_hi)
        zs = zeta.hardy_z_many(gs)
        return gs, zs, np.nonzero(zeros._good_mask(ks, zs))[0]

    def test_batched_matches_per_block_loop(self):
        gs, zs, good_idx = self._gram_blocks(10.0, 3000.0)
        assert np.diff(good_idx).max() >= 3
        got = zeros._block_brackets(good_idx, gs, zs)
        want = _per_block_brackets(gs, zs, good_idx)
        for got_c, want_c in zip(got, want):
            assert np.array_equal(got_c, want_c)

    def test_one_evaluation_call_per_depth(self, monkeypatch):
        gs, zs, good_idx = self._gram_blocks(10.0, 3000.0)
        calls = []
        real = zeta.hardy_z_many

        def counted(ts):
            calls.append(len(ts))
            return real(ts)

        monkeypatch.setattr(zeta, "hardy_z_many", counted)
        lows = zeros._block_brackets(good_idx, gs, zs)[0]
        assert len(lows) == good_idx[-1] - good_idx[0]
        assert 1 <= len(calls) <= zeros.MAX_SUBDIV_DEPTH

    def test_lehmer_pair(self):
        zl = zeros.scan_and_refine(7000.0, 7010.0)
        assert zl.certified
        pair = zl.ordinates[np.abs(zl.ordinates - 7005.08) < 0.05]
        assert pair == pytest.approx(ov.LEHMER_PAIR, abs=1e-8)

    @pytest.mark.parametrize("t_lo, t_hi, count", [
        (58400.0, 58500.0, 146), (99900.0, 100000.0, 154)])
    def test_domain_edge_windows_certify(self, t_lo, t_hi, count):
        zl = zeros.scan_and_refine(t_lo, t_hi)
        assert zl.certified
        assert len(zl) == count
        assert np.abs(zeta.hardy_z_many(zl.ordinates)).max() <= 1e-8


def _plain_bisection(lows, highs, f_lows):
    """Bisection that evaluates every midpoint (the refinement before the
    narrowing phase); _refine_brackets must match it bit for bit."""
    a = np.asarray(lows, dtype=float)
    b = np.asarray(highs, dtype=float)
    fa_neg = np.asarray(f_lows) < 0.0
    for _ in range(64):
        if np.all(b - a <= zeros.REFINE_WIDTH):
            break
        mid = 0.5 * (a + b)
        fm = zeta.hardy_z_many(mid)
        goes_low = (fm < 0.0) == fa_neg
        a = np.where(goes_low, mid, a)
        b = np.where(goes_low, b, mid)
    return 0.5 * (a + b), 0.5 * (b - a)


def _scan_brackets(t_lo, t_hi):
    ks, gs = zeros._anchored_gram_range(t_lo, t_hi)
    zs = zeta.hardy_z_many(gs)
    return zeros._block_brackets(np.nonzero(zeros._good_mask(ks, zs))[0], gs, zs)


def _assert_same_refinement(lows, highs, f_lows, f_highs):
    # _refine_brackets takes its arrays over, so it is handed copies
    got = zeros._refine_brackets(lows.copy(), highs.copy(), f_lows.copy(), f_highs.copy())
    mids, half_widths = _plain_bisection(lows, highs, f_lows)
    assert np.array_equal(got, mids)
    # the bound ZeroList's gap check uses holds for every enclosure
    assert half_widths.max() <= zeros.REFINE_WIDTH / 2 <= zeros.ORDINATE_ERR_BOUND


class TestRefinement:
    @pytest.mark.parametrize("t_lo, t_hi", [(10.0, 1010.0), (30000.0, 30100.0)])
    def test_matches_plain_bisection(self, t_lo, t_hi):
        brackets = _scan_brackets(t_lo, t_hi)
        assert len(brackets[0]) > 100
        _assert_same_refinement(*brackets)

    @pytest.mark.parametrize("shape", ["near-tangent", "zero at a midpoint"])
    def test_stalled_narrowing_matches_plain_bisection(self, monkeypatch, shape):
        # 20 brackets 0.75 wide, one zero in each; fake_z picks the piece of
        # t by floor(t - 1000), so both ends of a bracket read its own piece
        lows = 1000.0 + np.arange(20.0)
        highs = lows + 0.75
        if shape == "near-tangent":
            # a cubic zero: |Z| < SIGN_MARGIN for |t - root| < 2e-3, where
            # noise of half the margin flips the sign as rounding would
            roots = lows + np.linspace(0.1, 0.675, 20)

            def fake_z(ts):
                x = ts - roots[np.clip(np.floor(ts - 1000.0).astype(int), 0, 19)]
                return x ** 3 + 0.5 * zeros.SIGN_MARGIN * np.cos(1e9 * ts)
        else:
            # linear, with each zero exactly at a midpoint of the bisection
            roots = lows + 0.375

            def fake_z(ts):
                return ts - roots[np.clip(np.floor(ts - 1000.0).astype(int), 0, 19)]

        monkeypatch.setattr(zeta, "hardy_z_many", lambda ts: fake_z(np.asarray(ts, dtype=float)))
        if shape == "zero at a midpoint":
            assert fake_z(np.array([lows[0] + 0.375]))[0] == 0.0
        f_lows, f_highs = fake_z(lows), fake_z(highs)
        assert np.all(f_lows * f_highs < 0.0)       # the narrowing's precondition
        _assert_same_refinement(lows, highs, f_lows, f_highs)

    @pytest.mark.parametrize("t_lo, t_hi", [(10.0, 1010.0), (7000.0, 7010.0),
                                            (30000.0, 30100.0)])
    def test_scan_brackets_change_sign_strictly(self, t_lo, t_hi):
        # _sign_bounds relies on this, for the Gram intervals taken at depth
        # 0 and for the subdivided ones, such as the Lehmer pair's near 7005
        ks, gs = zeros._anchored_gram_range(t_lo, t_hi)
        zs = zeta.hardy_z_many(gs)
        lows, highs, f_lows, f_highs = zeros._block_brackets(
            np.nonzero(zeros._good_mask(ks, zs))[0], gs, zs)
        subdivided = ~(np.isin(lows, gs) & np.isin(highs, gs))
        assert 0 < subdivided.sum() < len(lows)
        assert np.all(lows < highs) and np.all(f_lows * f_highs < 0.0)

    def test_scan_evaluation_count(self):
        # plain bisection made 630 Z evaluations here
        zeta.reset_counters()
        zl = zeros.scan_and_refine(7000.0, 7010.0)
        assert len(zl) == 11
        assert zeta.counters["z_evals"] <= 470


class TestCountCheck:
    def test_passes_at_100(self, zeros_110):
        chk = zeros.zero_count_check(zeros_110, 100.0)
        assert bool(chk)
        assert chk.count == ov.N_ZEROS_BELOW_100
        assert abs(chk.expected - chk.count) <= 2.0

    def test_below_first_zero(self):
        empty = zeros.ZeroList([], [], t_max=12.0, certified=True)
        assert bool(zeros.zero_count_check(empty, 12.0))

    def test_detects_deleted_record(self, zeros_110):
        broken = dataclasses.replace(zeros_110, **{
            f: np.delete(getattr(zeros_110, f), 5)
            for f in ("ordinates", "z_primes")})
        assert not zeros.zero_count_check(broken, 100.0)

    def test_t_beyond_list(self, zeros_110):
        with pytest.raises(InputError):
            zeros.zero_count_check(zeros_110, 1000.0)

    @pytest.mark.parametrize("T, anchor_k, count_at, z_evals", [
        (9.0, -1, -1, 0), (12.0, -1, 0, 1), (100.0, 28, 29, 1), (296.0, 133, 134, 2),
        (1000.0, 647, 648, 1)])
    def test_anchor_walk_pinned(self, zeros_1010, T, anchor_k, count_at, z_evals):
        # Z is evaluated only at Gram points at or below T; g_134 is bad
        zeta.reset_counters()
        chk = zeros.zero_count_check(zeros_1010, T)
        assert (chk.anchor_k, chk.count_at_anchor, zeta.counters["z_evals"]) == (
            anchor_k, count_at, z_evals)
        assert bool(chk)
        if count_at >= 0:
            assert chk.anchor_gram == zeros.gram_point(anchor_k)


@pytest.mark.parametrize("t_lo, t_hi, k_a, k_b, z_evals", [
    (10.0, 110.0, -1, 33, 2), (396.0, 446.0, 197, 233, 3), (914.0, 964.0, 577, 619, 3),
    (99990.0, 100005.0, 138052, 138076, 2)])
def test_scan_anchors_pinned(t_lo, t_hi, k_a, k_b, z_evals):
    # one Z evaluation per Gram point on the outer side of the window
    # until a good one: the walks above 446 and below 914 pass a bad one
    zeta.reset_counters()
    ks, gs = zeros._anchored_gram_range(t_lo, t_hi)
    assert (ks[0], ks[-1], zeta.counters["z_evals"]) == (k_a, k_b, z_evals)
    assert gs[0] < t_lo <= gs[-1]


class TestMidgap:
    def test_snap_lands_between_neighbors(self, zeros_110):
        T = zeros.snap_to_midgap(zeros_110, 50.0)
        o = zeros_110.ordinates
        i = np.searchsorted(o, T)
        assert o[i - 1] < T < o[i]
        assert T == pytest.approx(0.5 * (o[i - 1] + o[i]), rel=1e-15)

    def test_snap_out_of_range(self, zeros_110):
        with pytest.raises(InputError):
            zeros.snap_to_midgap(zeros_110, 5.0)
        with pytest.raises(InputError):
            zeros.snap_to_midgap(zeros_110, 1e4)


_LAYOUT = "data lines must be two numbers separated by one space, each ended by a newline"


def _v2(body, t_max="50.0", certified="false"):
    """A v2 zero file: the header lines, with the CRC of body, then body."""
    data = body.encode() if isinstance(body, str) else body
    head = (f"# zml-zeros v2\n# t_max {t_max}\n# certified {certified}\n"
            f"# crc32 {zlib.crc32(data):08x}\n")
    return head.encode() + data


class TestPersistence:
    def test_roundtrip(self, tmp_path, zeros_110):
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        zeros.export_zeros(zeros_110, p1)
        loaded = zeros.import_zeros(p1)
        assert loaded.t_max == zeros_110.t_max
        assert loaded.certified == zeros_110.certified
        assert len(loaded) == len(zeros_110)
        assert np.array_equal(loaded.ordinates, zeros_110.ordinates)
        assert np.array_equal(loaded.z_primes, zeros_110.z_primes)
        assert np.array_equal(loaded.zeta_primes, zeros_110.zeta_primes)
        # a second export of the imported list is byte-identical
        zeros.export_zeros(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_export_layout(self, tmp_path, zeros_110, monkeypatch):
        # chunked writing gives the same bytes as one pass over all zeros
        monkeypatch.setattr(zeros, "EXPORT_CHUNK", 7)
        path = tmp_path / "z.txt"
        zeros.export_zeros(zeros_110, path)
        body = "".join(f"{g!r} {zp!r}\n" for g, zp in
                       zip(zeros_110.ordinates.tolist(), zeros_110.z_primes.tolist()))
        assert len(zeros_110) > 7
        assert path.read_bytes() == _v2(body, t_max="110.0", certified="true")

    def test_empty_list_roundtrip(self, tmp_path):
        path = tmp_path / "empty.txt"
        zeros.export_zeros(zeros.ZeroList([], [], t_max=12.0, certified=True), path)
        assert path.read_bytes() == _v2("", t_max="12.0", certified="true")
        loaded = zeros.import_zeros(path)
        assert len(loaded) == 0 and loaded.t_max == 12.0 and loaded.certified

    def test_int_t_max_roundtrip(self, tmp_path):
        # an int t_max is stored as the float it stands for, which reads
        # back; so is a numpy flag as true or false
        zlist = zeros.scan_and_refine(10, 100)
        assert type(zlist.t_max) is float and zlist.t_max == 100.0
        path = tmp_path / "z.txt"
        zeros.export_zeros(zlist, path)
        assert path.read_bytes().split(b"\n")[1] == b"# t_max 100.0"
        loaded = zeros.import_zeros(path)
        assert loaded.t_max == 100.0 and len(loaded) == len(zlist)
        assert np.array_equal(loaded.ordinates, zlist.ordinates)
        flagged = zeros.ZeroList(zlist.ordinates, zlist.z_primes, t_max=100, certified=np.True_)
        zeros.export_zeros(flagged, path)
        assert zeros.import_zeros(path).certified is True

    def test_duplicate_ordinate_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_bytes(_v2("14.134725141734694 0.79\n" * 2))
        with pytest.raises(ValidationError, match="ascending"):
            zeros.import_zeros(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "cols.txt"
        path.write_bytes(_v2("1.0 2.0 3.0\n"))
        with pytest.raises(ParseError, match=_LAYOUT):
            zeros.import_zeros(path)

    def test_one_column_line_in_v1_file(self, tmp_path):
        path = tmp_path / "cut.txt"
        path.write_bytes(_v2("14.1 0.79\n21.0\n"))
        with pytest.raises(ParseError, match=_LAYOUT):
            zeros.import_zeros(path)

    @pytest.mark.parametrize("body", [
        "14.1 0.79\n\n21.0 -1.1\n", "14.1  0.79\n", "14.1\t0.79\n", "14.1 0.79\r\n",
        " 14.1 0.79\n", "14.1 0.79\x00\n", "14.1 1_0\n", "14.1 0.7-9\n",
        "14.1 0.79\n21.0 -1.1", "14.1 not-a-float\n", b"14.1 \xff\xfe0.79\n",
    ], ids=["blank line", "two spaces", "tab", "CRLF", "leading space", "NUL byte",
            "underscore", "two numbers in a field", "no final newline", "not a float",
            "undecodable bytes"])
    def test_data_line_layout_enforced(self, tmp_path, body):
        # each body carries its own CRC, so the layout check sees it; the
        # one ParseError names the file
        path = tmp_path / "layout.txt"
        path.write_bytes(_v2(body))
        with pytest.raises(ParseError, match=re.escape(f"{path}: ") + _LAYOUT):
            zeros.import_zeros(path)

    def test_nan_line_in_bare_table(self, tmp_path):
        # every comparison with NaN is False, so the ordering checks alone
        # would pass this as a 3-zero list
        path = tmp_path / "nan.txt"
        path.write_bytes(_v2("14.134725141734694 0.79\nnan 1.0\n21.022039638771555 -1.1\n"))
        with pytest.raises(ValidationError, match=re.escape(f"{path}: ") + ".*must be finite"):
            zeros.import_zeros(path)

    def test_stored_zeta_prime_columns_reexport(self):
        # v1 lines written by the scanner, from 14 up to 1e4: ordinate, Z',
        # and the real and imaginary parts of zeta'(rho).  Deriving zeta'
        # from the first two columns gives back the other two bit for bit
        text = (
            "14.134725141762164 0.7931604333879384 0.7832965118994606 0.12469982974439238\n"
            "21.02203963878989 -1.136839106836845 1.1092955634685726 -0.2487297885307216\n"
            "25.010857580131216 1.3717212872242763 1.295795605012032 0.4500367094534925\n"
            "5444.966959569916 7.46067773172751 7.185440868663367 2.007772830685032\n"
            "5445.925027099689 -7.220104247366495 7.111623480894211 1.2468828368510851\n"
            "10002.980327512229 6.515986943094418 6.470647242447366 0.7673396290986435\n"
            "10004.047053828166 -4.767640191900661 3.728798494463243 -2.9709350021693886\n"
            "10004.679404166069 3.4230389141077717 3.390634546121941 0.4698859246035908\n"
        )
        cols = [[float(f) for f in line.split()] for line in text.splitlines()]
        ords, z_primes, re_parts, im_parts = (np.array(c) for c in zip(*cols))
        zl = zeros.ZeroList(ords, z_primes, t_max=10005.0, certified=True)
        assert np.array_equal(zl.zeta_primes.real, re_parts)
        assert np.array_equal(zl.zeta_primes.imag, im_parts)

    def test_missing_t_max(self, tmp_path):
        path = tmp_path / "nometa.txt"
        path.write_bytes(b"# zml-zeros v2\n# certified true\n# crc32 00000000\n14.1 0.79\n")
        with pytest.raises(ParseError, match="t_max"):
            zeros.import_zeros(path)

    def test_comment_lines_skipped(self, tmp_path):
        # a comment among the data lines is not skipped: it fails the layout
        path = tmp_path / "notes.txt"
        path.write_bytes(_v2("#\n# a note\n14.1 0.79\n"))
        with pytest.raises(ParseError, match=_LAYOUT):
            zeros.import_zeros(path)

    def test_changed_digit_fails_the_crc(self, tmp_path, zeros_110):
        # one ordinate digit changed, still ascending: only the CRC sees it
        path = tmp_path / "z.txt"
        zeros.export_zeros(zeros_110, path)
        good = path.read_bytes()
        lines = good.split(b"\n")
        row = lines[9]
        assert row[5:6] != b"9"
        lines[9] = row[:5] + b"9" + row[6:]
        bad = b"\n".join(lines)
        path.write_bytes(bad)
        with pytest.raises(ValidationError, match=re.escape(f"{path}: crc32 mismatch")):
            zeros.import_zeros(path)
        # the edit leaves a valid list: with its CRC restored it loads
        head, body = bad.split(b"# crc32 ")[0], bad.split(b"\n", 4)[4]
        path.write_bytes(head + f"# crc32 {zlib.crc32(body):08x}\n".encode() + body)
        loaded = zeros.import_zeros(path)
        changed = loaded.ordinates != zeros_110.ordinates
        assert changed.sum() == 1 and changed[5]

    @pytest.mark.parametrize("damage, error, match", [
        ("truncated", ValidationError, ": crc32 mismatch"),
        ("extra bytes", ValidationError, ": crc32 mismatch"),
        ("cut in the header", ParseError, ":2: missing '# t_max' header"),
        ("binary file", ParseError, ":1: expected '# zml-zeros v2'"),
    ])
    def test_cut_or_extended_file_rejected(self, tmp_path, zeros_110, damage, error, match):
        # a payload cut short or extended fails the CRC, a file cut inside
        # its header names the line left unfinished, and a file with no
        # newline fails the magic
        path = tmp_path / "z.txt"
        zeros.export_zeros(zeros_110, path)
        good = path.read_bytes()
        path.write_bytes({"truncated": good[: len(good) // 2], "extra bytes": good + bytes(1),
                          "cut in the header": good[: len(zeros.ZEROS_MAGIC) + 5],
                          "binary file": b"ZML-ZEROS1" + bytes(64)}[damage])
        with pytest.raises(error, match=re.escape(f"{path}{match}")):
            zeros.import_zeros(path)

    @pytest.mark.parametrize("header, match", [
        ("# t_max 50.0\n# certified true\n", ":1: expected '# zml-zeros v2'"),
        ("# t_max 50.0\n# zml-zeros v2\n# certified true\n", ":1: expected"),
        ("# zml-zeros v2\n# certified true\n", "missing '# t_max' header"),
        ("# zml-zeros v2\n# t_max 50.0\n", "missing '# certified' header"),
        ("# zml-zeros v2\n# t_max 50.0\n# certified yes\n", ":3: '# certified' must be"),
        ("# zml-zeros v2\n# t_max fifty\n# certified true\n", ":2: bad t_max"),
        ("# zml-zeros v2\n# t_max 50.0\n# certified true\n", ":4: missing '# crc32' header"),
        ("# zml-zeros v2\n# t_max 50.0\n# certified true\n# crc32 0000000g\n",
         ":4: '# crc32' must be 8 lowercase hex digits"),
        ("# zml-zeros v2\n# t_max 50.0\n# certified true\n# crc32 00000000\n",
         "crc32 mismatch"),
        ("# zml-zeros v1\n# t_max 50.0\n# certified true\n", ":1: expected '# zml-zeros v2'"),
    ], ids=["no magic", "magic not first", "no t_max", "no certified", "certified yes",
            "bad t_max", "no crc32", "crc32 not hex", "wrong crc32", "v1 file"])
    def test_required_headers(self, tmp_path, header, match):
        path = tmp_path / "headers.txt"
        path.write_text(header + "14.1 0.79\n")
        error = ValidationError if "mismatch" in match else ParseError
        with pytest.raises(error, match=re.escape(match)):
            zeros.import_zeros(path)


def _zero_list(ordinates, t_max=30.0):
    return zeros.ZeroList(ordinates, np.ones(len(ordinates)), t_max=t_max, certified=False)


class TestZeroListValidation:
    def test_nonascending_rejected(self):
        with pytest.raises(ValidationError, match="ascending"):
            _zero_list([20.0, 15.0])

    def test_ordinate_beyond_t_max_rejected(self):
        with pytest.raises(ValidationError, match="beyond t_max"):
            _zero_list([20.0], t_max=15.0)


    @pytest.mark.parametrize("field, value", [
        ("ordinates", math.nan), ("ordinates", math.inf), ("t_max", math.nan), ("t_max", math.inf),
        ("z_primes", math.nan), ("z_primes", math.inf), ("z_primes", -math.inf)])
    def test_non_finite_rejected(self, field, value):
        data = {"ordinates": np.array([14.0, 21.0]), "z_primes": np.ones(2), "t_max": 30.0}
        if field == "t_max":
            data[field] = value
        else:
            data[field][1] = value
        with pytest.raises(ValidationError, match="finite"):
            zeros.ZeroList(**data, certified=False)

    def test_close_pair_rejected(self):
        # every enclosure is within ORDINATE_ERR_BOUND = 1e-9 of its zero
        with pytest.raises(ValidationError, match="twice the enclosure"):
            _zero_list([20.0, 20.0 + 1e-9])
        assert len(_zero_list([20.0, 20.0 + 3e-9])) == 2

    @pytest.mark.parametrize("ordinates, z_primes", [
        ([14.0, 21.0, 25.0], np.ones(2)),
        ([14.0, 21.0], np.ones(3)),
    ])
    def test_unequal_lengths_rejected(self, ordinates, z_primes):
        with pytest.raises(ValidationError, match="equal length"):
            zeros.ZeroList(ordinates, z_primes, t_max=30.0, certified=False)

    def test_two_dimensional_rejected(self):
        grid = np.array([[14.0, 21.0], [25.0, 30.0]])
        with pytest.raises(ValidationError, match="1-D"):
            zeros.ZeroList(grid, np.ones((2, 2)), t_max=30.0, certified=False)

    def test_arrays_are_read_only_copies(self):
        ords = np.array([14.0, 21.0])
        zl = zeros.ZeroList(ords, np.ones(2), t_max=30.0, certified=False)
        ords[0] = 10.0
        assert zl.ordinates[0] == 14.0
        for name in ("ordinates", "z_primes"):
            with pytest.raises(ValueError):
                getattr(zl, name)[0] = 0.0
