import hashlib
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from zml import cli, moments, sieve, store, zeros
from zml.errors import InputError, ValidationError

import oracle_values as ov


def with_crc(data: bytes, head_lines: int) -> bytes:
    """A cache container's bytes with the crc32 line recomputed for the
    payload that follows the `head_lines` header lines."""
    *head, payload = data.split(b"\n", head_lines)
    head[-1] = f"# crc32 {zlib.crc32(payload):08x}".encode()
    return b"\n".join([*head, payload])


def run_cli(tmp_path, *args):
    """Invoke the CLI in-process with cache/out dirs under tmp_path."""
    argv = list(args) + [
        "--cache-dir", str(tmp_path / "cache"),
        "--out-dir", str(tmp_path / "out"),
    ]
    return cli.main(argv)


class TestZerosCommand:
    def test_scan_and_cache(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "zeros", "--t-max", "120")
        out = capsys.readouterr().out
        assert rc == 0
        assert "certified=True" in out
        caches = list((tmp_path / "cache").glob("zeros_t120_*.txt"))
        assert len(caches) == 1
        assert caches[0].read_text().startswith("# zml-zeros v2\n")

    def test_warm_cache_reuses_file(self, tmp_path, capsys):
        assert run_cli(tmp_path, "zeros", "--t-max", "120") == 0
        cache = next((tmp_path / "cache").glob("zeros_t120_*.txt"))
        before = cache.read_bytes()
        mtime = cache.stat().st_mtime_ns
        assert run_cli(tmp_path, "zeros", "--t-max", "120") == 0
        assert cache.read_bytes() == before
        assert cache.stat().st_mtime_ns == mtime

    @pytest.mark.parametrize("damage", [
        "truncated line", "truncated to one column", "non-numeric field",
        "non-ascending ordinates", "undecodable bytes", "cut at a line boundary",
        "one ordinate digit changed"])
    def test_damaged_zero_cache_rescanned(self, tmp_path, capsys, damage):
        assert run_cli(tmp_path, "zeros", "--t-max", "120") == 0
        path = next((tmp_path / "cache").glob("zeros_t120_*.txt"))
        good = path.read_bytes()
        lines = good.split(b"\n")
        row = lines[10]
        second = row.index(b" ") + 1                       # start of column 2
        lines[10] = {
            "truncated line": row[:second + 3],
            "truncated to one column": row[:5],
            "non-numeric field": row[:second] + b"x" + row[second + 1:],
            "non-ascending ordinates": lines[9],
            "undecodable bytes": row[:second] + b"\xff\xfe" + row[second + 2:],
            "cut at a line boundary": row,
            # still ascending: the neighbours differ in the integer part
            "one ordinate digit changed": row[:4] + (b"1" if row[4:5] != b"1" else b"2")
            + row[5:],
        }[damage]
        if damage == "cut at a line boundary":
            bad = b"\n".join(lines[:11]) + b"\n"
        else:
            cut = damage.startswith("truncated")
            bad = b"\n".join(lines[:11] if cut else lines)
        path.write_bytes(bad)
        # the CRC, checked before the data lines are parsed, rejects each
        with pytest.raises(ValidationError, match="crc32 mismatch"):
            zeros.import_zeros(path)
        capsys.readouterr()
        # report does not scan: it names the damaged file and leaves it
        assert run_cli(tmp_path, "report", "--t-max", "120") == 1
        assert f"error: {path}:" in capsys.readouterr().err
        assert path.read_bytes() == bad
        # a step that may scan rescans and rewrites the fresh bytes
        assert run_cli(tmp_path, "zeros", "--t-max", "120") == 0
        assert path.read_bytes() == good

    @pytest.mark.parametrize("damage", [
        "nan ordinate", "inf ordinate", "nan t_max", "nan z_prime", "inf z_prime"])
    def test_non_finite_zero_cache_rescanned(self, tmp_path, capsys, damage):
        assert run_cli(tmp_path, "zeros", "--t-max", "120") == 0
        path = next((tmp_path / "cache").glob("zeros_t120_*.txt"))
        good = path.read_bytes()
        lines = good.split(b"\n")
        ordinate, z_prime = lines[10].split(b" ")
        if damage == "nan t_max":
            lines[1] = b"# t_max nan"
        else:
            lines[10] = {
                "nan ordinate": b" ".join([b"nan", z_prime]),
                "inf ordinate": b" ".join([b"inf", z_prime]),
                "nan z_prime": b" ".join([ordinate, b"nan"]),
                "inf z_prime": b" ".join([ordinate, b"-inf"]),
            }[damage]
        # with a CRC that matches the edit, the finite check sees it
        bad = with_crc(b"\n".join(lines), 4)
        path.write_bytes(bad)
        capsys.readouterr()
        assert run_cli(tmp_path, "report", "--t-max", "120") == 1
        err = capsys.readouterr().err
        assert f"error: {path}:" in err and "must be finite" in err
        assert path.read_bytes() == bad
        for step in ("moments", "zeros"):
            assert run_cli(tmp_path, step, "--t-max", "120") == 0
            assert path.read_bytes() == good
            path.write_bytes(bad)

    @pytest.mark.parametrize("header,edit", [
        (b"# certified true", b""), (b"# t_max 125.0", b""), (b"# zml-zeros v2", b""),
        (b"# certified true", b"# certified false\n"), (b"# crc32 ", b"")],
        ids=["# certified true", "# t_max 125.0", "# zml-zeros v2",
             "# certified true -> false", "# crc32"])
    def test_missing_header_rescanned(self, tmp_path, capsys, header, edit):
        # a stored list without its certified flag, or flagged uncertified,
        # is damaged: loaded as it is, report would ask for a rescan that
        # no step makes.  `header` starts the header line that `edit` replaces.
        assert run_cli(tmp_path, "zeros", "--t-max", "120") == 0
        path = next((tmp_path / "cache").glob("zeros_t120_*.txt"))
        good = path.read_bytes()
        start = good.index(header)
        end = good.index(b"\n", start) + 1
        assert good[:start].count(b"\n") < 4          # one of the header lines
        bad = good[:start] + edit + good[end:]
        path.write_bytes(bad)
        capsys.readouterr()
        assert run_cli(tmp_path, "report", "--t-max", "120") == 1
        assert f"error: {path}:" in capsys.readouterr().err
        assert path.read_bytes() == bad
        for step in ("moments", "zeros"):
            assert run_cli(tmp_path, step, "--t-max", "120") == 0
            assert path.read_bytes() == good
            path.write_bytes(bad)

    def test_unversioned_cache_not_read(self, tmp_path):
        # a list cached under the key without a version is never imported
        cfg = cli.RunConfig(t_max=120.0, cache_dir=tmp_path / "cache")
        old_key = "120.0|48|4|0.0001|1e-10"
        old = cfg.cache_dir / f"zeros_t120_{hashlib.sha256(old_key.encode()).hexdigest()[:10]}.txt"
        old.parent.mkdir()
        old.write_text("not a zero list\n")
        assert run_cli(tmp_path, "zeros", "--t-max", "120") == 0
        assert old.read_text() == "not a zero list\n"
        assert sorted((tmp_path / "cache").glob("zeros_t120_*.txt")) == sorted(
            [old, cli._zero_cache_path(cfg)])

    def test_cache_key_carries_the_version(self, monkeypatch):
        cfg = cli.RunConfig(t_max=120.0)
        path = cli._zero_cache_path(cfg)
        monkeypatch.setattr(cli, "ZERO_CACHE_VERSION", cli.ZERO_CACHE_VERSION + 1)
        bumped = cli._zero_cache_path(cfg)
        assert bumped != path and bumped.name.startswith("zeros_t120_")

    def test_trivial_window(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "zeros", "--t-max", "12")
        assert rc == 0
        assert "0 ordinates" in capsys.readouterr().out

    @pytest.mark.parametrize("t_max", ["1", "8", "15", "25.2"])
    def test_small_t_max(self, tmp_path, capsys, t_max):
        # below 9.67 no Gram point anchors the count; at 15 and 25.2 the zero
        # gap above t_max is wider than SCAN_MARGIN
        assert run_cli(tmp_path, "zeros", "--t-max", t_max) == 0
        assert "certified=True" in capsys.readouterr().out
        cache = next((tmp_path / "cache").glob("zeros_t*.txt"))
        stamp = cache.stat().st_ino, cache.stat().st_mtime_ns
        assert run_cli(tmp_path, "zeros", "--t-max", t_max) == 0
        assert (cache.stat().st_ino, cache.stat().st_mtime_ns) == stamp
        inside = float(t_max) > ov.ZERO_ORDINATES[0]
        for command in ("landau", "report"):
            capsys.readouterr()
            rc = run_cli(tmp_path, command, "--t-max", t_max, "--sieve-limit", "5000",
                         "--trials", "10")
            err = capsys.readouterr().err
            assert rc == (0 if inside else 1), err
            assert inside or (err.startswith("error: ") and "Traceback" not in err)


class TestMomentsCommand:
    def test_reports_written(self, tmp_path, capsys):
        rc = run_cli(
            tmp_path, "moments", "--t-max", "200", "--theta", "0.5",
            "--sieve-limit", "5000",
        )
        assert rc == 0
        report = json.loads((tmp_path / "out" / "moments_T200_theta0.5.json").read_text())
        assert report["xi"] == int(math.floor(report["t"] ** 0.5))
        assert report["j_minus_1"] > 0
        csv_lines = (tmp_path / "out" / "moments_summary.csv").read_text().splitlines()
        assert len(csv_lines) == 2
        assert "cauchy_ok=True" in capsys.readouterr().out

    def test_summary_cells_are_numbers(self, tmp_path):
        # a numpy scalar would print as np.float64(...) through repr
        rc = run_cli(tmp_path, "moments", "--t-max", "2500", "--theta-sweep", "0.3:0.7:0.2",
                     "--sieve-limit", "5000")
        assert rc == 0
        header, *rows = (tmp_path / "out" / "moments_summary.csv").read_text().splitlines()
        assert len(rows) == 6 and "t" in header.split(",")
        for row in rows:
            cells = row.split(",")
            assert len(cells) == len(header.split(","))
            for cell in cells:
                float(cell)

    def test_theta_sweep_table(self, tmp_path):
        rc = run_cli(
            tmp_path, "moments", "--t-max", "200", "--theta-sweep", "0.3:0.7:0.2",
            "--sieve-limit", "5000",
        )
        assert rc == 0
        rows = json.loads((tmp_path / "out" / "theta_sweep.json").read_text())
        assert [r["theta_exp"] for r in rows] == [0.3, 0.5, 0.7]
        preds = [r["sweep_pred"] for r in rows]
        assert preds == sorted(preds)

    def test_sweep_off_the_grid(self, tmp_path):
        # the sweep's T (2500) is no gridpoint, so the one pass must cover it too
        rc = run_cli(
            tmp_path, "moments", "--t-max", "2500", "--theta-sweep", "0.3:0.7:0.2",
            "--sieve-limit", "5000",
        )
        assert rc == 0
        rows = json.loads((tmp_path / "out" / "theta_sweep.json").read_text())
        cache = next((tmp_path / "cache").glob("zeros_t2500_*.txt"))
        zlist = zeros.import_zeros(cache)
        table = sieve.build_sieve(5000)
        T = zeros.snap_to_midgap(zlist, 2500.0)
        summary = (tmp_path / "out" / "moments_summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 2 * 3     # T = 1000, 2000 by three thetas
        for row in rows:
            rep = moments.moment_report(zlist, table, row["theta_exp"], T)
            assert row["t"] == T and row["xi"] == rep.params.xi
            assert row["j_minus_1"] == rep.j_minus_1
            assert row["cauchy_lb"] == rep.cauchy_lb
            assert row["cauchy_ok"]

    def test_sweep_row_beyond_sieve_limit(self, tmp_path, capsys):
        # xi(0.9, 2500) = 1143 > 1000, while every gridpoint fits the sieve:
        # refused before the sieve is built or any output is written
        assert run_cli(tmp_path, "zeros", "--t-max", "2500") == 0
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        capsys.readouterr()
        rc = run_cli(
            tmp_path, "moments", "--t-max", "2500", "--theta-sweep", "0.3:0.9:0.6",
            "--sieve-limit", "1000",
        )
        assert rc == 1
        assert re.fullmatch(r"error: xi = 1143 at T = [0-9.]+, theta = 0.9 exceeds "
                            r"sieve limit 1000\n", capsys.readouterr().err)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert not (tmp_path / "out").exists()


class TestMvCheckCommand:
    def test_deterministic_stats(self, tmp_path):
        assert run_cli(tmp_path, "mv-check", "--trials", "40", "--seed", "7") == 0
        first = (tmp_path / "out" / "mv_stats.json").read_bytes()
        assert run_cli(tmp_path, "mv-check", "--trials", "40", "--seed", "7") == 0
        assert (tmp_path / "out" / "mv_stats.json").read_bytes() == first
        stats = json.loads(first)
        assert stats["passed"] and stats["max_ratio"] <= 10.0
        assert len(stats["ratios"]) == 40

    def test_bound_violation_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MV_BOUND", 1e-9)
        rc = run_cli(tmp_path, "mv-check", "--trials", "10")
        assert rc == 2
        stats = json.loads((tmp_path / "out" / "mv_stats.json").read_text())
        assert stats["bound"] == 1e-9 and not stats["passed"]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_rejected(self, tmp_path, capsys, trials):
        assert run_cli(tmp_path, "mv-check", "--trials", trials) == 1
        assert "error: trials must be >= 1" in capsys.readouterr().err

    def test_trials_capped(self, tmp_path, capsys, monkeypatch):
        # the cap bounds the campaign's run time and the ratios it keeps
        monkeypatch.setattr(cli, "campaign_trials", lambda *a: pytest.fail("a trial was drawn"))
        assert run_cli(tmp_path, "mv-check", "--trials", "50001") == 1
        assert capsys.readouterr().err == "error: trials must be <= 50000\n"
        assert cli.RunConfig(trials=cli.MAX_TRIALS).trials == 50_000


class TestLandauCommand:
    def test_reports_and_plot_data(self, tmp_path):
        rc = run_cli(tmp_path, "landau", "--t-max", "200", "--x", "2,2.5,4",
                     "--sieve-limit", "5000")
        assert rc == 0
        rep = json.loads((tmp_path / "out" / "landau_x2.5.json").read_text())
        assert rep["main_term"] == 0.0
        rep4 = json.loads((tmp_path / "out" / "landau_x4.json").read_text())
        assert rep4["main_term"] < 0.0
        plot = (tmp_path / "out" / "landau_dev_x2.txt").read_text().splitlines()
        assert all(len(line.split()) == 2 for line in plot)

    @pytest.mark.parametrize("xs", ["abc", "2,,3", "2,inf", "nan"])
    def test_bad_x_rejected(self, tmp_path, capsys, xs):
        assert run_cli(tmp_path, "landau", "--t-max", "100", "--x", xs) == 1
        assert capsys.readouterr().err.startswith("error: --x")

    @pytest.mark.parametrize("damage", [
        "truncated", "extra bytes", "wrong magic", "v1 file", "count header",
        "composite prime", "composite prime, mu -1", "swapped primes", "v2 file",
        "v3 file", "mu(6) -1", "97 deleted, count lowered"])
    def test_damaged_sieve_cache_rebuilt(self, tmp_path, damaged_sieve, damage):
        args = ("landau", "--t-max", "200", "--x", "2,4,6", "--sieve-limit", "5000")
        fresh = tmp_path / "fresh"
        assert cli.main([*args, "--cache-dir", str(fresh / "cache"),
                         "--out-dir", str(fresh / "out")]) == 0
        good = (fresh / "cache" / "sieve_5000.bin").read_bytes()
        shutil.copytree(fresh / "cache", tmp_path / "cache")
        path = tmp_path / "cache" / "sieve_5000.bin"
        path.write_bytes(damaged_sieve(good, damage))
        assert run_cli(tmp_path, *args) == 0
        assert path.read_bytes() == good
        names = sorted(f.name for f in (fresh / "out").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "out").iterdir())
        for name in names:
            assert (tmp_path / "out" / name).read_bytes() == (fresh / "out" / name).read_bytes()


class TestReportCommand:
    def test_missing_cache_names_zeros(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "report", "--t-max", "300")
        assert rc == 1
        assert "zeros" in capsys.readouterr().err

    def test_full_report(self, tmp_path, capsys):
        run_cli(tmp_path, "zeros", "--t-max", "300")
        rc = run_cli(
            tmp_path, "report", "--t-max", "300", "--sieve-limit", "5000",
            "--trials", "25",
        )
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for tag in cli.EQ_TAGS:
            assert tag in report
        assert report["hard_invariants_passed"]
        assert report["config"]["rs_order"] == 4
        plots = tmp_path / "out" / "plots"
        for name in ("eq1_j_vs_t.txt", "eq1_ratio_vs_t.txt", "neg4_drift_vs_xi.txt",
                     "mv_ratio_vs_trial.txt"):
            lines = (plots / name).read_text().splitlines()
            assert lines and all(len(ln.split()) == 2 for ln in lines)

    def test_reuses_the_mv_check_campaign(self, tmp_path, monkeypatch):
        args = ("--t-max", "300", "--sieve-limit", "5000", "--trials", "25", "--seed", "9")
        run_cli(tmp_path, "zeros", "--t-max", "300")
        # a report with no campaign file computes the campaign itself
        fresh = tmp_path / "fresh"
        assert cli.main(["report", *args, "--cache-dir", str(tmp_path / "cache"),
                         "--out-dir", str(fresh)]) == 0
        cache_file = cli._campaign_cache_path(
            cli.RunConfig(t_max=300.0, trials=25, seed=9, cache_dir=tmp_path / "cache"))
        assert cache_file.read_bytes().startswith(
            b"# zml-mv-campaign v1\n# seed 9\n# trials 25\n# version %d\n# crc32 "
            % cli.MV_CACHE_VERSION)
        cache_file.unlink()
        assert run_cli(tmp_path, "mv-check", *args) == 0
        assert cache_file.exists()
        calls = []
        monkeypatch.setattr(cli, "mv_campaign", lambda *a: calls.append(a))
        assert run_cli(tmp_path, "report", *args) == 0
        assert calls == []
        assert (tmp_path / "out" / "report.json").read_bytes() == (
            fresh / "report.json").read_bytes()

    @pytest.mark.parametrize("damage", [
        "truncated", "one ratio edited", "short", "nan", "other seed", "old version",
        "not a list"])
    def test_damaged_campaign_recomputed(self, tmp_path, monkeypatch, damage):
        # the cut and the edited ratio fail the CRC; the payload damage
        # carries a forged CRC, so the content checks see it; the key
        # lines lie outside the CRC and must equal the run's own
        args = ("--t-max", "300", "--sieve-limit", "5000", "--trials", "25", "--seed", "9")
        run_cli(tmp_path, "zeros", "--t-max", "300")
        assert run_cli(tmp_path, "mv-check", *args) == 0
        assert run_cli(tmp_path, "report", *args) == 0
        good = (tmp_path / "out" / "report.json").read_bytes()
        path = next((tmp_path / "cache").glob("mv_campaign_*.txt"))
        cached = path.read_bytes()
        lines = cached.split(b"\n")
        ratio = lines[5 + 3]
        if damage == "truncated":
            bad = cached[:-40]
        elif damage == "one ratio edited":
            bad = cached.replace(b"\n" + ratio + b"\n", b"\n9.5\n")
        elif damage == "short":
            bad = with_crc(b"\n".join(lines[:-2] + [b""]), 5)
        elif damage == "nan":
            bad = with_crc(cached.replace(b"\n" + ratio + b"\n", b"\nnan\n"), 5)
        elif damage == "other seed":
            bad = cached.replace(b"# seed 9\n", b"# seed 10\n")
        elif damage == "old version":
            bad = cached.replace(b"# version %d\n" % cli.MV_CACHE_VERSION,
                                 b"# version %d\n" % (cli.MV_CACHE_VERSION - 1))
        else:
            bad = with_crc(b"\n".join(lines[:5] + [b"{'0': 1.0}", b""]), 5)
        assert bad != cached
        path.write_bytes(bad)
        real = cli.mv_campaign
        calls = []
        monkeypatch.setattr(cli, "mv_campaign", lambda *a: calls.append(a) or real(*a))
        assert run_cli(tmp_path, "report", *args) == 0
        assert calls == [(9, 25)]
        assert (tmp_path / "out" / "report.json").read_bytes() == good
        assert path.read_bytes() == cached

    def test_sieve_limit_below_the_drift_grid(self, tmp_path):
        # the neg4 grid starts at xi = 1000; a smaller sieve keeps only its limit
        run_cli(tmp_path, "zeros", "--t-max", "200")
        rc = run_cli(tmp_path, "report", "--t-max", "200", "--sieve-limit", "500",
                     "--trials", "25")
        assert rc == 0
        neg4 = json.loads((tmp_path / "out" / "report.json").read_text())["neg4"]
        assert neg4["xi_min"] == neg4["xi_max"] == 500

    def test_byte_identical_rerun(self, tmp_path):
        run_cli(tmp_path, "zeros", "--t-max", "300")
        run_cli(tmp_path, "report", "--t-max", "300", "--sieve-limit", "5000",
                "--trials", "25", "--seed", "9")
        first = (tmp_path / "out" / "report.json").read_bytes()
        run_cli(tmp_path, "report", "--t-max", "300", "--sieve-limit", "5000",
                "--trials", "25", "--seed", "9")
        assert (tmp_path / "out" / "report.json").read_bytes() == first


def run_reproduce_all(tmp_path, *args):
    script = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_all.py"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, str(script), "--t-max", "300", "--sieve-limit", "5000",
         "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path / "out"), *args],
        capture_output=True, text=True, env=env, timeout=300)


class TestReproduceAll:
    def test_step_timings_go_to_stderr(self, tmp_path):
        proc = run_reproduce_all(tmp_path, "--stats", str(tmp_path / "stats.json"))
        assert proc.returncode == 0, proc.stderr
        lines = [ln for ln in proc.stderr.splitlines() if ln.startswith("reproduce_all:")]
        steps = ["zeros", "moments", "mv-check", "landau", "report"]
        assert [ln.split()[1] for ln in lines] == steps
        assert all(ln.endswith(" MB") and "peak RSS" in ln for ln in lines)
        assert "reproduce_all" not in proc.stdout
        for path in (tmp_path / "out").rglob("*"):
            assert path.is_dir() or b"peak RSS" not in path.read_bytes()
        # the stats file: one entry per step; only the cold zeros step scans
        # (its Z evaluations include the completeness check's) and report
        # re-checks completeness
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert [e["step"] for e in stats] == steps
        for e in stats:
            assert set(e) == {"step", "wall_s", "peak_rss_mb", "z_evals", "z_threads"}
            assert e["z_threads"] >= 1
            assert e["wall_s"] > 0.0 and e["peak_rss_mb"] > 0.0
        z = {e["step"]: e["z_evals"] for e in stats}
        assert z["zeros"] > 1000 and z["moments"] == z["mv-check"] == z["landau"] == 0
        assert 0 < z["report"] < 1000

    def test_failing_step_ends_the_run_and_keeps_the_stats(self, tmp_path):
        # a directory at report.json fails the last step; the stats say so
        (tmp_path / "out" / "report.json").mkdir(parents=True)
        proc = run_reproduce_all(tmp_path, "--stats", str(tmp_path / "stats.json"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error: ")]
        assert len(errors) == 1 and "report.json" in errors[0]
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert [e["step"] for e in stats] == ["zeros", "moments", "mv-check", "landau", "report"]

    @pytest.mark.parametrize("where", ["out", "out/sub/stats.json", "out/stats.json"])
    def test_stats_inside_out_dir_rejected(self, tmp_path, where):
        proc = run_reproduce_all(tmp_path, "--stats", str(tmp_path / where))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: --stats") and "--out-dir" in proc.stderr
        assert not (tmp_path / "out").exists() and not (tmp_path / "cache").exists()


class TestConfig:
    @pytest.mark.parametrize("command", ["mv-check", "report"])
    def test_negative_seed_rejected(self, tmp_path, command):
        proc = subprocess.run(
            [sys.executable, "-m", "zml.cli", command, "--seed", "-1", "--trials", "3",
             "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 1
        assert "error: seed must be >= 0" in proc.stderr.splitlines()
        assert "Traceback" not in proc.stderr

    def test_env_var_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ZML_CACHE_DIR", str(tmp_path / "envcache"))
        rc = cli.main(["zeros", "--t-max", "50", "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert list((tmp_path / "envcache").glob("zeros_*.txt"))

    def test_bad_theta_rejected(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "moments", "--t-max", "100", "--theta", "1.5")
        assert rc == 1
        assert "theta" in capsys.readouterr().err

    def test_bad_sweep_rejected(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "moments", "--t-max", "100", "--theta-sweep", "bogus")
        assert rc == 1

    def test_t_max_ceiling(self, tmp_path):
        rc = run_cli(tmp_path, "zeros", "--t-max", "2e5")
        assert rc == 1

    def test_scan_top_passes_t_max_ceiling(self, tmp_path, monkeypatch):
        # t_max stays capped at T_MAX, the scan runs SCAN_MARGIN past it
        tops = []

        def scan(t_lo, t_hi):
            tops.append(t_hi)
            return zeros.ZeroList([], [], t_max=t_hi, certified=False)

        monkeypatch.setattr(cli.zeros, "scan_and_refine", scan)
        run_cli(tmp_path, "zeros", "--t-max", "99999")
        run_cli(tmp_path, "zeros", "--t-max", "100000")
        assert tops == [99999 + zeros.SCAN_MARGIN, 1e5 + zeros.SCAN_MARGIN]
        assert run_cli(tmp_path, "zeros", "--t-max", "100000.5") == 1

    def test_top_of_range_snaps(self, tmp_path, monkeypatch):
        # the last zero below 1e5 is 99999.7009; the scan closes the gap above
        # it, through the cache file, so T = 1e5 snaps strictly inside
        real_scan = zeros.scan_and_refine

        def window_scan(t_lo, t_hi):
            return real_scan(99_990.0, t_hi)

        monkeypatch.setattr(cli.zeros, "scan_and_refine", window_scan)
        cfg = cli.RunConfig(t_max=1e5, cache_dir=tmp_path / "cache")
        scanned = cli._load_or_scan_zeros(cfg)
        assert scanned.t_max == 1e5 + zeros.SCAN_MARGIN
        # the window list is short of the zeros below 1e5, so the loader
        # rejects it; read the file itself
        with pytest.raises(ValidationError, match="ordinates up to t_max"):
            cli._load_or_scan_zeros(cfg, build=False)
        zlist = zeros.import_zeros(cli._zero_cache_path(cfg))
        assert zlist.ordinates.tolist() == scanned.ordinates.tolist()
        o = zlist.ordinates
        assert o[-1] > 1e5
        T = zeros.snap_to_midgap(zlist, 1e5)
        below = o[o <= 1e5][-1]
        assert below == pytest.approx(99999.7009, abs=1e-4)
        above = o[o > 1e5][0]
        assert below < 1e5 < above and T == 0.5 * (below + above)

    @pytest.mark.parametrize("sweep", ["0.3:0.9:1e-15", "0.3:0.9:0.0006", "0.1:0.9:1e-300"])
    def test_oversized_sweep_rejected(self, tmp_path, capsys, sweep):
        rc = run_cli(tmp_path, "moments", "--t-max", "100", "--theta-sweep", sweep)
        assert rc == 1
        assert "error: --theta-sweep gives more than 1000" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("landau", "--x", "2,0.5"), ("landau", "--x", "1"), ("report", "--x", "3,-2"),
        ("moments", "--sieve-limit", "1"), ("landau", "--sieve-limit", "-5"),
        ("moments", "--sieve-limit", str(sieve.MEMORY_CAP + 1)),
        ("landau", "--x", "2000000"), ("landau", "--x", "1e300")])
    def test_bad_x_or_sieve_limit_rejected_before_any_work(self, tmp_path, capsys,
                                                            command, flag, value):
        assert run_cli(tmp_path, command, "--t-max", "3000", flag, value) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("command, t_max, limit, sweep, xi, theta", [
        ("report", "1000", "20", None, 31, "0.5"),
        ("moments", "1000", "20", None, 31, "0.5"),
        ("moments", "3000", "1000", "0.3:0.9:0.6", 1347, "0.9"),
        # 195.3^0.5 = 13.97, but T snaps to 196.07 and xi to 14
        ("report", "195.3", "13", None, 14, "0.5"),
        ("moments", "195.3", "13", None, 14, "0.5")],
        ids=["report", "moments", "moments sweep", "report at mid-gap", "moments at mid-gap"])
    def test_sieve_limit_below_xi_rejected_before_any_work(self, tmp_path, capsys, command,
                                                           t_max, limit, sweep, xi, theta):
        # refused before the sieve is built or any output is written
        assert run_cli(tmp_path, "zeros", "--t-max", t_max) == 0
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        capsys.readouterr()
        argv = ["--t-max", t_max, "--sieve-limit", limit, "--x", "2"]
        assert run_cli(tmp_path, command, *argv, *(["--theta-sweep", sweep] if sweep else [])) == 1
        assert re.fullmatch(rf"error: xi = {xi} at T = [0-9.]+, theta = {theta} exceeds "
                            rf"sieve limit {limit}\n", capsys.readouterr().err)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("landau", "--x", "2,2.0000001", "x = 2.0 and x = 2.0000001 would write the same "
         "files (x2)"),
        ("report", "--x", "3,2,3", "x = 3.0 and x = 3.0 would write the same files (x3)"),
        ("moments", "--theta-sweep", "0.3:0.3000001:0.0000001", "theta = 0.3 and "
         "theta = 0.3000001 would write the same files (theta0.3)"),
        ("moments", "--theta-sweep", "0.3:0.3:1e-14", "theta = 0.3 and theta = 0.3 would "
         "write the same files (theta0.3)")],
        ids=["landau x", "report x repeated", "moments theta", "moments theta repeated"])
    def test_values_that_print_alike_rejected_before_any_work(self, tmp_path, capsys, command,
                                                              flag, value, message):
        # file names carry x and theta as {:g}, so such values would overwrite
        # each other's files
        assert run_cli(tmp_path, "zeros", "--t-max", "100") == 0
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert run_cli(tmp_path, command, "--t-max", "100", flag, value) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("x, message", [
        ("2000000", "x = 2e+06 lies above sieve_limit = 100000"),
        ("1e300", "x = 1e+300 lies above sieve_limit = 100000"),
        ("100001.0000000001", "x = 100001 lies above sieve_limit = 100000")])
    def test_x_above_sieve_limit_named(self, tmp_path, capsys, x, message):
        # rejected as sieve.mangoldt would reject it, before the zero scan
        args = ("landau", "--t-max", "3000", "--sieve-limit", "100000", "--x", x)
        assert run_cli(tmp_path, *args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("command, flag, value, name", [
        ("zeros", "--cache-dir", "F", "cache dir F"),
        ("zeros", "--cache-dir", "F/c", "cache dir F/c"),
        ("landau", "--out-dir", "F/o", "--out-dir F/o"),
        ("report", "--out-dir", "F/o/p", "--out-dir F/o/p")])
    def test_file_in_a_dir_path_rejected_before_any_work(self, tmp_path, command, flag,
                                                         value, name):
        # F is a file: the directory cannot be made, so nothing is scanned
        (tmp_path / "F").write_text("")
        dirs = {"--cache-dir": "c", "--out-dir": "o", flag: value}
        proc = subprocess.run(
            [sys.executable, "-m", "zml.cli", command, "--t-max", "3000",
             *itertools.chain(*dirs.items())],
            capture_output=True, text=True, timeout=120, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {name}: F is not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["F"]

    @pytest.mark.parametrize("command, where", [
        ("landau", "c/sieve_1000.bin"), ("zeros", "zero cache"),
        ("landau", "o/landau_x2.json")])
    def test_directory_at_a_file_path_is_an_error(self, tmp_path, command, where):
        # read or replace raises IsADirectoryError: one error line, exit 1
        if where == "zero cache":
            where = cli._zero_cache_path(cli.RunConfig(t_max=100.0, cache_dir=Path("c")))
        (tmp_path / where).mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-m", "zml.cli", command, "--t-max", "100", "--x", "2",
             "--sieve-limit", "1000", "--cache-dir", "c", "--out-dir", "o"],
            capture_output=True, text=True, timeout=120, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and "Is a directory" in line

    def test_env_cache_dir_checked(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "F"
        bad.write_text("")
        monkeypatch.setenv("ZML_CACHE_DIR", str(bad))
        assert cli.main(["zeros", "--t-max", "50", "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: cache dir {bad}: {bad} is not a directory\n"

    def test_x_off_the_integers_accepted(self):
        # mangoldt gives 0 away from the integers, at any height
        assert cli.RunConfig(x_values=(2000000.5,)).x_values == (2000000.5,)
        assert cli.RunConfig(sieve_limit=100, x_values=(100.0,)).sieve_limit == 100
        with pytest.raises(InputError, match="x = 3 lies above sieve_limit = 2"):
            cli.RunConfig(sieve_limit=2)

    def test_sieve_limit_range_ends_accepted(self):
        # the default x values reach 6, so limit 2 needs x = 2 alone
        assert cli.RunConfig(sieve_limit=2, x_values=(2.0,)).sieve_limit == 2
        assert cli.RunConfig(sieve_limit=sieve.MEMORY_CAP).sieve_limit == sieve.MEMORY_CAP

    def test_rs_order_flag_removed(self, capsys):
        # Riemann-Siegel orders below 4 and Z' steps other than
        # zeta.DERIV_STEP can only loosen the accuracy the scan certifies
        # against, a mean-value bound other than cli.MV_BOUND only moves
        # the pass threshold, and --format only chose which files a run
        # wrote, so no subcommand takes any of these flags
        parser = cli.build_parser()
        for flag, command in itertools.product(
                ("--rs-order", "--deriv-step", "--mv-bound", "--format"),
                ("zeros", "moments", "mv-check", "landau", "report")):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, flag, "4"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            assert flag not in capsys.readouterr().out

    def test_largest_sweep_accepted(self):
        assert len(cli._parse_sweep("0.3:0.9:0.0007")) == 858


class TestAtomicWrite:
    def test_failing_writer_leaves_nothing(self, tmp_path):
        target = tmp_path / "cache" / "sieve_10.bin"

        def write(fh):
            fh.write(b"partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            store.replace(target, write)
        assert list(target.parent.iterdir()) == []

    def test_failure_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "report.json"
        cli._atomic_write(target, "old\n")

        def write(fh):
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            store.replace(target, write)
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert target.read_text() == "old\n"

    def test_caches_written_through_unique_temp_files(self, tmp_path, monkeypatch):
        names = []
        real = store.replace

        def spy(path, write):
            names.append(path.name)
            real(path, write)

        # every cache and --out-dir file goes through store.replace
        monkeypatch.setattr(store, "replace", spy)
        assert run_cli(tmp_path, "landau", "--t-max", "50", "--sieve-limit", "100") == 0
        assert "sieve_100.bin" in names and any(n.startswith("zeros_t50_") for n in names)
        assert "landau_x2.json" in names
        assert sorted(p.suffix for p in (tmp_path / "cache").iterdir()) == [".bin", ".txt"]


def test_import_loads_no_scipy():
    # numpy is the one run-time dependency; SciPy is a test oracle only
    code = "import sys, zml.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
