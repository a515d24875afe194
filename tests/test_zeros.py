import cmath
import dataclasses
import math

import numpy as np
import pytest

from zml import zeta, zeros
from zml.errors import InputError, ParseError, ValidationError

import oracle_values as ov

CFG = zeta.EvalConfig()


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
        assert zeros_1010.ordinate_errs.max() <= 1e-9
        resid = np.abs(zeta.hardy_z_many(zeros_1010.ordinates, CFG))
        assert resid.max() <= 1e-8

    def test_simplicity_margin(self, zeros_1010):
        assert zeros_1010.zeta_prime_mods.min() > zeros.SIMPLICITY_GUARD

    def test_domain_errors(self):
        with pytest.raises(InputError):
            zeros.scan_and_refine(5.0, 50.0)
        with pytest.raises(InputError):
            zeros.scan_and_refine(100.0, 50.0)


def _per_block_brackets(gs, zs, good_idx, cfg):
    """The subdivision as one loop per Gram block, in block order (the code
    that batched subdivision replaced)."""
    lows, highs, f_lows = [], [], []
    for lo, hi in zip(good_idx[:-1], good_idx[1:]):
        m = int(hi - lo)
        if m == 1 and zs[lo] * zs[hi] < 0.0:
            lows.append(gs[lo])
            highs.append(gs[hi])
            f_lows.append(zs[lo])
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
            vals[inner] = zeta.hardy_z_many(pts[inner], cfg)
            flips = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
            if len(flips) >= m:
                lows.extend(pts[flips])
                highs.extend(pts[flips + 1])
                f_lows.extend(vals[flips])
                break
    return np.array(lows), np.array(highs), np.array(f_lows)


class TestSubdivision:
    def _gram_blocks(self, t_lo, t_hi):
        ks, gs = zeros._anchored_gram_range(t_lo, t_hi, CFG)
        zs = zeta.hardy_z_many(gs, CFG)
        return gs, zs, np.nonzero(zeros._good_mask(ks, zs))[0]

    def test_batched_matches_per_block_loop(self):
        gs, zs, good_idx = self._gram_blocks(10.0, 3000.0)
        assert np.diff(good_idx).max() >= 3
        lows, highs, f_lows = zeros._block_brackets(good_idx, gs, zs, CFG)
        want_lows, want_highs, want_f = _per_block_brackets(gs, zs, good_idx, CFG)
        assert np.array_equal(lows, want_lows)
        assert np.array_equal(highs, want_highs)
        assert np.array_equal(np.sign(f_lows), np.sign(want_f))
        # the Euler-Maclaurin route below RS_CROSSOVER sizes its sum by the
        # batch, so only Riemann-Siegel values are batch-independent
        rs = lows >= zeta.RS_CROSSOVER
        assert np.array_equal(f_lows[rs], want_f[rs])
        assert np.abs(f_lows - want_f).max() <= 1e-10

    def test_one_evaluation_call_per_depth(self, monkeypatch):
        gs, zs, good_idx = self._gram_blocks(10.0, 3000.0)
        calls = []
        real = zeta.hardy_z_many

        def counted(ts, cfg):
            calls.append(len(ts))
            return real(ts, cfg)

        monkeypatch.setattr(zeta, "hardy_z_many", counted)
        lows, _, _ = zeros._block_brackets(good_idx, gs, zs, CFG)
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
        assert np.abs(zeta.hardy_z_many(zl.ordinates, CFG)).max() <= 1e-8


class TestCountCheck:
    def test_passes_at_100(self, zeros_110):
        chk = zeros.zero_count_check(zeros_110, 100.0)
        assert bool(chk)
        assert chk.count == ov.N_ZEROS_BELOW_100
        assert abs(chk.expected - chk.count) <= 2.0

    def test_below_first_zero(self):
        empty = zeros.ZeroList([], [], [], t_max=12.0, certified=True)
        assert bool(zeros.zero_count_check(empty, 12.0))

    def test_detects_deleted_record(self, zeros_110):
        broken = dataclasses.replace(zeros_110, **{
            f: np.delete(getattr(zeros_110, f), 5)
            for f in ("ordinates", "ordinate_errs", "z_primes")})
        assert not zeros.zero_count_check(broken, 100.0)

    def test_t_beyond_list(self, zeros_110):
        with pytest.raises(InputError):
            zeros.zero_count_check(zeros_110, 1000.0)


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

    def test_ordinate_only_import_and_refresh(self, tmp_path, zeros_110):
        path = tmp_path / "bare.txt"
        path.write_text("".join(f"{g!r}\n" for g in ov.ZERO_ORDINATES))
        bare = zeros.import_zeros(path)
        assert len(bare) == 10
        assert not bare.populated
        refreshed = zeros.refresh_derivatives(bare, CFG)
        assert refreshed.populated
        for mod, want in zip(refreshed.zeta_prime_mods, ov.Z_PRIME):
            assert mod == pytest.approx(abs(want), abs=1e-6)

    def test_duplicate_ordinate_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("14.134725141734694\n14.134725141734694\n")
        with pytest.raises(ValidationError, match="ascending"):
            zeros.import_zeros(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# zml-zeros v1\n# t_max 50.0\n14.1 not-a-float 0 0\n")
        with pytest.raises(ParseError, match=":3:"):
            zeros.import_zeros(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "cols.txt"
        path.write_text("# zml-zeros v1\n# t_max 50.0\n1.0 2.0\n")
        with pytest.raises(ParseError, match="columns"):
            zeros.import_zeros(path)

    def test_one_column_line_in_v1_file(self, tmp_path):
        # only a bare table may give the ordinate alone
        path = tmp_path / "cut.txt"
        path.write_text("# zml-zeros v1\n# t_max 50.0\n14.1 0.79 0.78 0.12\n21.0\n")
        with pytest.raises(ParseError, match=":4: expected 4 columns, got 1"):
            zeros.import_zeros(path)

    def test_undecodable_bytes_report_line(self, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"# zml-zeros v1\n# t_max 50.0\n14.1 0.79 \xff\xfe 0.12\n")
        with pytest.raises(ParseError, match=":3: non-numeric"):
            zeros.import_zeros(path)

    def test_stored_zeta_prime_columns_reexport(self, tmp_path):
        # v1 lines written by the scanner, from 14 up to 1e4: deriving zeta'
        # from the ordinate and Z' gives back the stored columns bit for bit
        text = (
            "# zml-zeros v1\n# t_max 10005.0\n# certified true\n"
            "14.134725141762164 0.7931604333879384 0.7832965118994606 0.12469982974439238\n"
            "21.02203963878989 -1.136839106836845 1.1092955634685726 -0.2487297885307216\n"
            "25.010857580131216 1.3717212872242763 1.295795605012032 0.4500367094534925\n"
            "5444.966959569916 7.46067773172751 7.185440868663367 2.007772830685032\n"
            "5445.925027099689 -7.220104247366495 7.111623480894211 1.2468828368510851\n"
            "10002.980327512229 6.515986943094418 6.470647242447366 0.7673396290986435\n"
            "10004.047053828166 -4.767640191900661 3.728798494463243 -2.9709350021693886\n"
            "10004.679404166069 3.4230389141077717 3.390634546121941 0.4698859246035908\n"
        )
        src, dst = tmp_path / "src.txt", tmp_path / "dst.txt"
        src.write_text(text)
        zeros.export_zeros(zeros.import_zeros(src), dst)
        assert dst.read_text() == text

    def test_missing_t_max(self, tmp_path):
        path = tmp_path / "nometa.txt"
        path.write_text("# zml-zeros v1\n14.1 0.79 0.78 0.12\n")
        with pytest.raises(ParseError, match="t_max"):
            zeros.import_zeros(path)


def _zero_list(ordinates, errs=1e-10, t_max=30.0):
    n = len(ordinates)
    return zeros.ZeroList(ordinates, np.full(n, errs), np.ones(n),
                          t_max=t_max, certified=False)


class TestZeroListValidation:
    def test_nonascending_rejected(self):
        with pytest.raises(ValidationError, match="ascending"):
            _zero_list([20.0, 15.0])

    def test_ordinate_beyond_t_max_rejected(self):
        with pytest.raises(ValidationError, match="beyond t_max"):
            _zero_list([20.0], t_max=15.0)


    def test_close_pair_rejected(self):
        with pytest.raises(ValidationError, match="twice the enclosure"):
            _zero_list([20.0, 20.0 + 1e-10], errs=1e-10)
        assert len(_zero_list([20.0, 20.0 + 3e-10], errs=1e-10)) == 2

    @pytest.mark.parametrize("errs, z_primes", [
        (np.full(3, 1e-10), np.ones(2)),
        (np.full(2, 1e-10), np.ones(3)),
    ])
    def test_unequal_lengths_rejected(self, errs, z_primes):
        with pytest.raises(ValidationError, match="equal length"):
            zeros.ZeroList([14.0, 21.0, 25.0], errs, z_primes, t_max=30.0, certified=False)

    def test_two_dimensional_rejected(self):
        grid = np.array([[14.0, 21.0], [25.0, 30.0]])
        with pytest.raises(ValidationError, match="1-D"):
            zeros.ZeroList(grid, np.full((2, 2), 1e-10), np.ones((2, 2)),
                           t_max=30.0, certified=False)

    def test_arrays_are_read_only_copies(self):
        ords = np.array([14.0, 21.0])
        zl = zeros.ZeroList(ords, np.full(2, 1e-10), np.ones(2), t_max=30.0, certified=False)
        ords[0] = 10.0
        assert zl.ordinates[0] == 14.0
        for name in ("ordinates", "ordinate_errs", "z_primes"):
            with pytest.raises(ValueError):
                getattr(zl, name)[0] = 0.0
