from __future__ import annotations

import signal
import subprocess
import sys

import pytest

from fiberlink.cli import CSV_HEADER, main

from conftest import subprocess_env

SMALL_CFG = "\n".join(
    [
        "sim.n_bits = 64",
        "sim.samples_per_bit = 16",
        "sim.step_km = 1.0",
        "smf.length_km = 12",
        "dcf.length_km = 2.4",
    ]
)


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "link.cfg"
    path.write_text(SMALL_CFG + "\n", encoding="utf-8")
    return str(path)


class Expired(BaseException):
    """Raised by ``deadline``; a BaseException, so ``main`` cannot turn it into exit 1."""


@pytest.fixture
def deadline():
    """Fail a test still running after 2 s instead of letting it hang."""

    def expire(signum, frame):
        raise Expired("still running after 2 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


class TestRun:
    def test_writes_outputs_and_reports(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--config", cfg_file, "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "q_db = " in captured.out
        assert "ber = " in captured.out
        assert "jitter_ns = " in captured.out
        assert "residual_ps_nm = 0.0" in captured.out

        rows = read_rows(out / "result.csv")
        assert len(rows) == 1
        row = rows[0]
        assert len(row) == 7
        assert row[0] == "2.4" and row[1] == "2.4"
        assert row[2] == "0.0"
        assert row[6] == "42"
        assert f"q_db = {row[3]}" in captured.out

        eye_lines = (out / "eye.txt").read_text(encoding="utf-8").splitlines()
        assert eye_lines[0] == "# trace sample time_ui amplitude"
        assert len(eye_lines) == 1 + 56 * 16

    def test_byte_identical_outputs(self, cfg_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg_file, "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg_file, "--out", str(out_b)]) == 0
        assert (out_a / "result.csv").read_bytes() == (out_b / "result.csv").read_bytes()
        assert (out_a / "eye.txt").read_bytes() == (out_b / "eye.txt").read_bytes()

    def test_seed_override(self, cfg_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg_file, "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg_file, "--out", str(out_b), "--seed", "7"]) == 0
        row_a = read_rows(out_a / "result.csv")[0]
        row_b = read_rows(out_b / "result.csv")[0]
        assert row_a[6] == "42" and row_b[6] == "7"
        assert row_a[3] != row_b[3]

    def test_negative_seed_exits_2(self, cfg_file, tmp_path, capsys):
        rc = main(["run", "--config", cfg_file, "--out", str(tmp_path), "--seed", "-1"])
        assert rc == 2
        assert "error: --seed: seed must be non-negative" in capsys.readouterr().err

    def test_config_too_short_for_q_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text("sim.n_bits = 16\n", encoding="utf-8")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "too few bits for estimate_q" in capsys.readouterr().err
        assert not (tmp_path / "result.csv").exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# 1550 nm \u00b1 1 nm\nsim.seed = 1\n".encode("latin-1"))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("text", "key"),
        [
            ("smf.dispersion_ps_nm_km = nan", "dispersion"),
            ("amp.ase = true\namp.noise_figure_db = nan", "noise_figure_db"),
        ],
        ids=["dispersion", "noise_figure"],
    )
    def test_non_finite_fiber_or_amp_value_exits_2(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(text + "\n", encoding="utf-8")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "result.csv").exists()

    def test_removed_nonlinear_phase_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "nl.cfg"
        cfg.write_text("sim.max_nl_phase_rad = 0.05\n", encoding="utf-8")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "line 1: unknown key 'sim.max_nl_phase_rad'" in capsys.readouterr().err
        assert not (tmp_path / "result.csv").exists()

    @pytest.mark.parametrize(
        ("text", "code", "message"),
        [
            ("sim.step_km = 1e-9", 2, "more than the 100000 allowed per span"),
            ("sim.local_error = 1e-300", 2, "local_error must lie in [1e-08, 0.001]"),
            ("smf.gamma_per_w_km = 1e300", 1,
             "element 2 (SMF): adaptive steps stall at z = 0.000 km in SMF"),
        ],
        ids=["fixed_tiny_step", "adaptive_tiny_tolerance", "adaptive_huge_gamma"],
    )
    def test_step_count_runaway_fails_fast(self, tmp_path, capsys, deadline, text, code, message):
        cfg = tmp_path / "steps.cfg"
        cfg.write_text(f"sim.n_bits = 64\nsim.samples_per_bit = 8\n{text}\n", encoding="utf-8")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "result.csv").exists()


class TestSweep:
    def test_zip_sweep_csv(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "sweep", "--config", cfg_file,
            "--pre", "2.4,3.0", "--post", "2.4,2.4",
            "--out", str(out),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert f"wrote {out / 'sweep.csv'} (2/2 rows ok)" in captured.out
        assert captured.err == ""

        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 2
        assert [r[0] for r in rows] == ["2.4", "3.0"]
        assert [r[1] for r in rows] == ["2.4", "2.4"]
        assert rows[0][2] == "0.0"
        assert float(rows[1][2]) == pytest.approx(-48.0)
        for r in rows:
            assert float(r[3]) != 0.0
            assert 0.0 < float(r[4]) <= 0.5
            assert r[6] == "42"

    def test_cross_pairing(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "sweep", "--config", cfg_file,
            "--pre", "2.4,3.0", "--post", "2.4",
            "--pairing", "cross", "--out", str(out),
        ])
        assert rc == 0
        rows = read_rows(out / "sweep.csv")
        assert [(r[0], r[1]) for r in rows] == [("2.4", "2.4"), ("3.0", "2.4")]

    def test_zip_length_mismatch_is_config_error(self, cfg_file, tmp_path, capsys):
        rc = main([
            "sweep", "--config", cfg_file,
            "--pre", "2.4,3.0", "--post", "2.4",
            "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "zip pairing requires equally long lists" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("flag", "lengths"), [("--pre", "2.4,-1"), ("--post", "nan"), ("--pre", "inf")]
    )
    def test_bad_length_exits_2(self, cfg_file, tmp_path, capsys, flag, lengths):
        args = {"--pre": "2.4", "--post": "2.4", flag: lengths}
        rc = main([
            "sweep", "--config", cfg_file,
            "--pre", args["--pre"], "--post", args["--post"],
            "--out", str(tmp_path),
        ])
        assert rc == 2
        assert f"{flag} lengths must be finite and >= 0 km" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_failed_row_reported_and_marked(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "sweep", "--config", cfg_file,
            "--pre", "0,2.4", "--post", "2.4,2.4",
            "--out", str(out),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert "row (pre=0.0, post=2.4) failed:" in captured.err
        assert "(1/2 rows ok)" in captured.out

        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 2
        bad, good = rows
        assert bad[0] == "0.0"
        assert bad[2] == bad[3] == bad[4] == bad[5] == ""
        assert good[3] != ""

    def test_per_row_seeds_flag(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "sweep", "--config", cfg_file,
            "--pre", "2.4,2.4", "--post", "2.4,2.4",
            "--per-row-seeds", "--out", str(out),
        ])
        assert rc == 0
        rows = read_rows(out / "sweep.csv")
        assert rows[0][6] != rows[1][6]

    def test_negative_seed_exits_2(self, cfg_file, tmp_path, capsys):
        rc = main([
            "sweep", "--config", cfg_file,
            "--pre", "2.4", "--post", "2.4",
            "--seed", "-1", "--out", str(tmp_path),
        ])
        assert rc == 2
        assert "error: --seed: seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_missing_pre_flag_is_usage_error(self, cfg_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--config", cfg_file, "--post", "2.4"])
        assert excinfo.value.code == 2


class TestProfile:
    def test_profile_prints_breakpoints(self, cfg_file, capsys):
        rc = main(["profile", "--config", cfg_file])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "position_km,accumulated_ps_nm"
        points = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        assert len(points) == 5
        assert points[0] == (0.0, 0.0)
        assert points[1] == (2.4, -192.0)
        assert points[-1][0] == pytest.approx(28.8)
        assert points[-1][1] == pytest.approx(0.0, abs=1e-9)

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus.key = 1\n", encoding="utf-8")
        rc = main(["profile", "--config", str(bad)])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fiberlink.cli", "profile"],
            capture_output=True,
            text=True,
            timeout=120,
            env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("position_km,accumulated_ps_nm")
        lines = proc.stdout.strip().splitlines()
        assert lines[1] == "0.0,0.0"

    def test_package_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fiberlink", "profile"],
            capture_output=True,
            text=True,
            timeout=120,
            env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("position_km,accumulated_ps_nm\n0.0,0.0\n")
