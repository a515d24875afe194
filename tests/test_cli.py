import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from zml import cli, moments, sieve, zeros
from zml.errors import ValidationError

import oracle_values as ov


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
        assert caches[0].read_text().startswith("# zml-zeros v1")

    def test_warm_cache_reuses_file(self, tmp_path, capsys):
        assert run_cli(tmp_path, "zeros", "--t-max", "120") == 0
        cache = next((tmp_path / "cache").glob("zeros_t120_*.txt"))
        before = cache.read_bytes()
        mtime = cache.stat().st_mtime_ns
        assert run_cli(tmp_path, "zeros", "--t-max", "120") == 0
        assert cache.read_bytes() == before
        assert cache.stat().st_mtime_ns == mtime

    def test_precision_knobs_key_the_cache(self, tmp_path):
        run_cli(tmp_path, "zeros", "--t-max", "120")
        run_cli(tmp_path, "zeros", "--t-max", "120", "--deriv-step", "2e-4")
        assert len(list((tmp_path / "cache").glob("zeros_t120_*.txt"))) == 2

    @pytest.mark.parametrize("damage", [
        "truncated line", "truncated to one column", "non-numeric field",
        "non-ascending ordinates", "undecodable bytes", "cut at a line boundary"])
    def test_damaged_zero_cache_rescanned(self, tmp_path, capsys, damage):
        assert run_cli(tmp_path, "zeros", "--t-max", "120") == 0
        path = next((tmp_path / "cache").glob("zeros_t120_*.txt"))
        good = path.read_bytes()
        lines = good.split(b"\n")
        row = lines[10]
        third = row.index(b" ", row.index(b" ") + 1) + 1   # start of column 3
        lines[10] = {
            "truncated line": row[:third + 3],
            "truncated to one column": row[:5],
            "non-numeric field": row[:third] + b"x" + row[third + 1:],
            "non-ascending ordinates": lines[9],
            "undecodable bytes": row[:third] + b"\xff\xfe" + row[third + 2:],
            "cut at a line boundary": row,
        }[damage]
        if damage == "cut at a line boundary":
            bad = b"\n".join(lines[:11]) + b"\n"
        else:
            cut = damage.startswith("truncated")
            bad = b"\n".join(lines[:11] if cut else lines)
        path.write_bytes(bad)
        if damage == "cut at a line boundary":
            # it parses as a shorter v1 list, headers intact
            assert len(zeros.import_zeros(path)) == 8
        capsys.readouterr()
        # report does not scan: it names the damaged file and leaves it
        assert run_cli(tmp_path, "report", "--t-max", "120") == 1
        assert f"error: {path}:" in capsys.readouterr().err
        assert path.read_bytes() == bad
        # a step that may scan rescans and rewrites the fresh bytes
        assert run_cli(tmp_path, "zeros", "--t-max", "120") == 0
        assert path.read_bytes() == good

    @pytest.mark.parametrize("damage", [
        "nan ordinate", "inf ordinate", "nan t_max", "inf z_prime"])
    def test_non_finite_zero_cache_rescanned(self, tmp_path, capsys, damage):
        assert run_cli(tmp_path, "zeros", "--t-max", "120") == 0
        path = next((tmp_path / "cache").glob("zeros_t120_*.txt"))
        good = path.read_bytes()
        lines = good.split(b"\n")
        ordinate, z_prime, rest = lines[10].split(b" ", 2)
        if damage == "nan t_max":
            lines[1] = b"# t_max nan"
        else:
            lines[10] = {
                "nan ordinate": b" ".join([b"nan", z_prime, rest]),
                "inf ordinate": b" ".join([b"inf", z_prime, rest]),
                "inf z_prime": b" ".join([ordinate, b"-inf", rest]),
            }[damage]
        bad = b"\n".join(lines)
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

    def test_unversioned_cache_not_read(self, tmp_path):
        # a list cached under the key without a version is never imported
        cfg = cli.RunConfig(t_max=120.0, cache_dir=tmp_path / "cache")
        ec = cfg.eval_config
        old_key = (f"{cfg.t_max!r}|{ec.em_terms}|{ec.rs_correction_order}|"
                   f"{ec.deriv_step!r}|{ec.target_abs_err!r}")
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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_summary_cells_are_numbers(self, tmp_path, fmt):
        # a numpy scalar would print as np.float64(...) through repr
        rc = run_cli(tmp_path, "moments", "--t-max", "2500", "--theta-sweep", "0.3:0.7:0.2",
                     "--sieve-limit", "5000", "--format", fmt)
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
            assert row["cauchy_lb"] == pytest.approx(rep.cauchy_lb, rel=1e-12)
            assert row["cauchy_ok"]

    def test_sweep_row_beyond_sieve_limit(self, tmp_path, capsys):
        # xi(0.9, 2500) = 1143 > 1000, while every gridpoint fits the sieve
        rc = run_cli(
            tmp_path, "moments", "--t-max", "2500", "--theta-sweep", "0.3:0.9:0.6",
            "--sieve-limit", "1000",
        )
        assert rc == 0
        rows = json.loads((tmp_path / "out" / "theta_sweep.json").read_text())
        assert "cauchy_lb" in rows[0]
        assert rows[1]["error"] == "xi = 1143 exceeds sieve limit 1000"
        assert "sweep theta=0.9: xi = 1143" in capsys.readouterr().out


class TestMvCheckCommand:
    def test_deterministic_stats(self, tmp_path):
        assert run_cli(tmp_path, "mv-check", "--trials", "40", "--seed", "7") == 0
        first = (tmp_path / "out" / "mv_stats.json").read_bytes()
        assert run_cli(tmp_path, "mv-check", "--trials", "40", "--seed", "7") == 0
        assert (tmp_path / "out" / "mv_stats.json").read_bytes() == first
        stats = json.loads(first)
        assert stats["passed"] and stats["max_ratio"] <= 10.0
        assert len(stats["ratios"]) == 40

    def test_csv_format(self, tmp_path):
        assert run_cli(tmp_path, "mv-check", "--trials", "10", "--format", "csv") == 0
        lines = (tmp_path / "out" / "mv_stats.csv").read_text().splitlines()
        assert lines[0] == "trial,ratio"
        assert len(lines) == 11

    def test_bound_violation_exit_code(self, tmp_path):
        rc = run_cli(tmp_path, "mv-check", "--trials", "10", "--mv-bound", "1e-9")
        assert rc == 2

    @pytest.mark.parametrize("bound", ["nan", "inf", "0", "-1"])
    def test_bad_bound_rejected(self, tmp_path, capsys, bound):
        assert run_cli(tmp_path, "mv-check", "--trials", "3", "--mv-bound", bound) == 1
        assert "error: mv_bound must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_rejected(self, tmp_path, capsys, trials):
        assert run_cli(tmp_path, "mv-check", "--trials", trials) == 1
        assert "error: trials must be >= 1" in capsys.readouterr().err


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

    @pytest.mark.parametrize("damage", ["truncated", "extra bytes", "wrong magic"])
    def test_damaged_sieve_cache_rebuilt(self, tmp_path, damage):
        args = ("landau", "--t-max", "200", "--x", "2,4,6", "--sieve-limit", "5000")
        fresh = tmp_path / "fresh"
        assert cli.main([*args, "--cache-dir", str(fresh / "cache"),
                         "--out-dir", str(fresh / "out")]) == 0
        good = (fresh / "cache" / "sieve_5000.bin").read_bytes()
        shutil.copytree(fresh / "cache", tmp_path / "cache")
        path = tmp_path / "cache" / "sieve_5000.bin"
        path.write_bytes({"truncated": good[:20_000], "extra bytes": good + bytes(8),
                          "wrong magic": b"ZML-SIEVE0" + good[10:]}[damage])
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
        "truncated", "short", "nan", "other seed", "old version", "not a list"])
    def test_damaged_campaign_recomputed(self, tmp_path, monkeypatch, damage):
        args = ("--t-max", "300", "--sieve-limit", "5000", "--trials", "25", "--seed", "9")
        run_cli(tmp_path, "zeros", "--t-max", "300")
        assert run_cli(tmp_path, "mv-check", *args) == 0
        assert run_cli(tmp_path, "report", *args) == 0
        good = (tmp_path / "out" / "report.json").read_bytes()
        path = next((tmp_path / "cache").glob("mv_campaign_*.json"))
        data = json.loads(path.read_text())
        if damage == "truncated":
            text = path.read_text()[:-40]
        else:
            if damage == "short":
                data["ratios"] = data["ratios"][:-1]
            elif damage == "nan":
                data["ratios"][3] = math.nan
            elif damage == "other seed":
                data["seed"] = 10
            elif damage == "old version":
                data["version"] = cli.MV_CACHE_VERSION - 1
            else:
                data["ratios"] = {"0": 1.0}
            text = json.dumps(data)
        path.write_text(text)
        real = cli.mv_campaign
        calls = []
        monkeypatch.setattr(cli, "mv_campaign", lambda *a: calls.append(a) or real(*a))
        assert run_cli(tmp_path, "report", *args) == 0
        assert calls == [(9, 25)]
        assert (tmp_path / "out" / "report.json").read_bytes() == good

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

        def scan(t_lo, t_hi, cfg):
            tops.append(t_hi)
            return zeros.ZeroList([], [], [], t_max=t_hi, certified=False)

        monkeypatch.setattr(cli.zeros, "scan_and_refine", scan)
        run_cli(tmp_path, "zeros", "--t-max", "99999")
        run_cli(tmp_path, "zeros", "--t-max", "100000")
        assert tops == [99999 + zeros.SCAN_MARGIN, 1e5 + zeros.SCAN_MARGIN]
        assert run_cli(tmp_path, "zeros", "--t-max", "100000.5") == 1

    def test_top_of_range_snaps(self, tmp_path, monkeypatch):
        # the last zero below 1e5 is 99999.7009; the scan closes the gap above
        # it, through the cache file, so T = 1e5 snaps strictly inside
        real_scan = zeros.scan_and_refine

        def window_scan(t_lo, t_hi, cfg):
            return real_scan(99_990.0, t_hi, cfg)

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

    @pytest.mark.parametrize("step", ["1e-12", "50", "2.9e-5", "3.1e-3", "nan"])
    def test_bad_deriv_step_rejected(self, tmp_path, capsys, step):
        rc = run_cli(tmp_path, "zeros", "--t-max", "50", "--deriv-step", step)
        assert rc == 1
        assert "error: deriv_step must lie in [3e-05, 0.003]" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["3e-5", "3e-3"])
    def test_deriv_step_range_ends(self, tmp_path, step):
        # both ends keep Z'(gamma) within 1e-6 of mpmath at the first zeros
        assert run_cli(tmp_path, "zeros", "--t-max", "50", "--deriv-step", step) == 0
        zlist = zeros.import_zeros(next((tmp_path / "cache").glob("zeros_t50_*.txt")))
        assert len(zlist) >= len(ov.Z_PRIME)
        for got, ref in zip(zlist.z_primes, ov.Z_PRIME):
            assert abs(got - ref) <= 1e-6

    def test_rs_order_flag_removed(self, capsys):
        # Riemann-Siegel orders below 4 broke the Z error bound the scan
        # certifies against, so no subcommand takes the flag
        parser = cli.build_parser()
        for command in ("zeros", "moments", "mv-check", "landau", "report"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, "--rs-order", "4"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --rs-order" in capsys.readouterr().err
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            assert "--rs-order" not in capsys.readouterr().out

    def test_largest_sweep_accepted(self):
        assert len(cli._parse_sweep("0.3:0.9:0.0007")) == 858


class TestAtomicWrite:
    def test_failing_writer_leaves_nothing(self, tmp_path):
        target = tmp_path / "cache" / "sieve_10.bin"

        def write(tmp):
            with open(tmp, "wb") as fh:
                fh.write(b"partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._atomic_replace(target, write)
        assert list(target.parent.iterdir()) == []

    def test_failure_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "report.json"
        cli._atomic_write(target, "old\n")

        def write(tmp):
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            cli._atomic_replace(target, write)
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert target.read_text() == "old\n"

    def test_caches_written_through_unique_temp_files(self, tmp_path, monkeypatch):
        names = []
        real = cli._atomic_replace

        def spy(path, write):
            names.append(path.name)
            real(path, write)

        monkeypatch.setattr(cli, "_atomic_replace", spy)
        assert run_cli(tmp_path, "landau", "--t-max", "50", "--sieve-limit", "100") == 0
        assert "sieve_100.bin" in names and any(n.startswith("zeros_t50_") for n in names)
        assert sorted(p.suffix for p in (tmp_path / "cache").iterdir()) == [".bin", ".txt"]
