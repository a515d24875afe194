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
        for rec, want in zip(zeros_110.records, ov.Z_PRIME):
            assert rec.z_prime == pytest.approx(want, abs=1e-7)

    def test_complex_zeta_prime_against_oracle(self, zeros_110):
        for rec, (re, im) in zip(zeros_110.records, ov.ZETA_PRIME):
            assert rec.zeta_prime == pytest.approx(complex(re, im), abs=1e-8)
            assert zeros.complex_zeta_prime(rec) == pytest.approx(rec.zeta_prime, abs=1e-12)

    def test_rotation_identity(self, zeros_1010):
        for rec in zeros_1010:
            assert abs(rec.zeta_prime_mod - abs(rec.z_prime)) <= 1e-9
            assert abs(abs(rec.zeta_prime) - abs(rec.z_prime)) <= 1e-9
            assert rec.zeta_prime_mod > 0

    def test_count_below_100(self, zeros_110):
        assert zeros_110.count_below(100.0) == ov.N_ZEROS_BELOW_100

    def test_empty_interval_between_zeros(self):
        zl = zeros.scan_and_refine(15.0, 20.0)
        assert len(zl) == 0
        assert zl.certified

    def test_refinement_quality(self, zeros_1010):
        assert max(r.ordinate_err for r in zeros_1010) <= 1e-9
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
        empty = zeros.ZeroList(records=(), t_max=12.0, certified=True)
        assert bool(zeros.zero_count_check(empty, 12.0))

    def test_detects_deleted_record(self, zeros_110):
        broken = dataclasses.replace(
            zeros_110, records=zeros_110.records[:5] + zeros_110.records[6:]
        )
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
        for a, b in zip(loaded, zeros_110):
            assert a.ordinate == b.ordinate
            assert a.z_prime == b.z_prime
            assert a.zeta_prime == b.zeta_prime
        # a second export of the imported list is byte-identical
        zeros.export_zeros(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_ordinate_only_import_and_refresh(self, tmp_path, zeros_110):
        path = tmp_path / "bare.txt"
        path.write_text("".join(f"{g!r}\n" for g in ov.ZERO_ORDINATES))
        bare = zeros.import_zeros(path)
        assert len(bare) == 10
        assert not bare.records[0].populated
        refreshed = zeros.refresh_derivatives(bare, CFG)
        for rec, want in zip(refreshed, ov.Z_PRIME):
            assert rec.zeta_prime_mod == pytest.approx(abs(want), abs=1e-6)

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

    def test_missing_t_max(self, tmp_path):
        path = tmp_path / "nometa.txt"
        path.write_text("# zml-zeros v1\n14.1 0.79 0.78 0.12\n")
        with pytest.raises(ParseError, match="t_max"):
            zeros.import_zeros(path)


class TestZeroListValidation:
    def test_nonascending_rejected(self):
        rec = lambda g: zeros.ZeroRecord(g, 1e-10, 1.0, 1.0 + 0j, 1.0)
        with pytest.raises(ValidationError):
            zeros.ZeroList(records=(rec(20.0), rec(15.0)), t_max=30.0, certified=False)

    def test_ordinate_beyond_t_max_rejected(self):
        rec = zeros.ZeroRecord(20.0, 1e-10, 1.0, 1.0 + 0j, 1.0)
        with pytest.raises(ValidationError):
            zeros.ZeroList(records=(rec,), t_max=15.0, certified=False)
