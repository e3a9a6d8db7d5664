from __future__ import annotations

import re
import textwrap
from pathlib import Path

import pytest

import fiberlink as fl
from fiberlink.config import KNOWN_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config_rows() -> list[tuple[list[str], str | None]]:
    """(keys, literal default or None) for each row of README's configuration table."""
    rows = []
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and re.fullmatch(r"(`[a-z_]+\.[a-z_]+`( / )?)+", cells[0]):
            default = re.fullmatch(r"`([^`]+)`", cells[1])
            rows.append((re.findall(r"`([^`]+)`", cells[0]), default and default.group(1)))
    return rows


class TestDefaults:
    def test_empty_text_yields_full_defaults(self):
        cfg = fl.parse_config("")
        assert cfg.scheme == "symmetric"
        assert cfg.n_smf_spans == 2
        assert (cfg.smf.length_km, cfg.smf.dispersion_ps_nm_km) == (120.0, 16.0)
        assert (cfg.smf.loss_db_km, cfg.smf.gamma_per_w_km) == (0.2, 1.26677)
        assert (cfg.dcf.length_km, cfg.dcf.dispersion_ps_nm_km) == (24.0, -80.0)
        assert (cfg.dcf.loss_db_km, cfg.dcf.gamma_per_w_km) == (0.6, 1.8)
        assert cfg.pre_length_km == 24.0 and cfg.post_length_km == 24.0
        assert cfg.tx.bit_rate == 10e9
        assert cfg.tx.wavelength == pytest.approx(1550e-9)
        assert cfg.tx.launch_power_dbm == 0.0
        assert cfg.tx.linewidth_hz == pytest.approx(10e6)
        assert cfg.tx.prbs_order == 7
        assert cfg.tx.rise_time == 0.25
        assert cfg.tx.extinction_db == 30.0
        assert cfg.rx.responsivity == 1.0
        assert cfg.rx.thermal_noise_psd == 1e-11
        assert cfg.rx.shot_noise is True
        assert cfg.rx.bessel_order == 4
        assert cfg.rx.bessel_bandwidth == pytest.approx(8e9)
        assert cfg.amp.mode == "restore"
        assert cfg.amp.target_dbm is None
        assert cfg.amp.ase_enabled is False
        assert cfg.amp.noise_figure_db == 5.0
        assert (cfg.sim.n_bits, cfg.sim.samples_per_bit) == (1024, 32)
        assert (cfg.sim.seed, cfg.sim.skip_bits) == (42, 8)
        assert cfg.sim.ssfm.mode == "adaptive"
        assert cfg.sim.ssfm.step_km is None
        assert cfg.sim.ssfm.local_error == 1e-4

    def test_comments_and_blank_lines_ignored(self):
        cfg = fl.parse_config(
            textwrap.dedent(
                """
                # leading comment

                sim.seed = 7   # trailing comment
                   sim.n_bits  =  64
                """
            )
        )
        assert cfg.sim.seed == 7
        assert cfg.sim.n_bits == 64

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "link.cfg"
        path.write_text("sim.seed = 9\n", encoding="utf-8")
        assert fl.parse_config_file(str(path)).sim.seed == 9


class TestUnitConversion:
    def test_engineering_units_scale_to_si(self):
        cfg = fl.parse_config(
            "\n".join(
                [
                    "tx.bit_rate_gbps = 40",
                    "tx.wavelength_nm = 1310",
                    "tx.linewidth_mhz = 2.5",
                    "rx.bessel_bw_ghz = 12",
                ]
            )
        )
        assert cfg.tx.bit_rate == pytest.approx(40e9)
        assert cfg.tx.wavelength == pytest.approx(1310e-9)
        assert cfg.tx.linewidth_hz == pytest.approx(2.5e6)
        assert cfg.rx.bessel_bandwidth == pytest.approx(12e9)

    def test_fiber_keys_pass_through_unscaled(self):
        cfg = fl.parse_config(
            "\n".join(
                [
                    "smf.length_km = 80",
                    "smf.dispersion_ps_nm_km = 17",
                    "dcf.loss_db_km = 0.5",
                    "dcf.gamma_per_w_km = 2.2",
                ]
            )
        )
        assert cfg.smf.length_km == 80.0
        assert cfg.smf.dispersion_ps_nm_km == 17.0
        assert cfg.dcf.loss_db_km == 0.5
        assert cfg.dcf.gamma_per_w_km == 2.2


class TestSchemeDefaults:
    def test_pre_scheme_zeroes_post_side(self):
        cfg = fl.parse_config("link.scheme = pre")
        assert cfg.pre_length_km == 24.0
        assert cfg.post_length_km == 0.0
        assert [el.label for el in cfg.resolve_topology().elements][:2] == ["DCF-pre", "AMP"]

    def test_post_scheme_zeroes_pre_side(self):
        cfg = fl.parse_config("link.scheme = post")
        assert cfg.pre_length_km == 0.0
        assert cfg.post_length_km == 24.0

    def test_explicit_lengths_override_scheme_default(self):
        cfg = fl.parse_config(
            "link.scheme = symmetric\ndcf.pre_length_km = 30\ndcf.post_length_km = 24"
        )
        assert cfg.pre_length_km == 30.0
        assert cfg.post_length_km == 24.0

    def test_dcf_length_sets_both_symmetric_sides(self):
        cfg = fl.parse_config("dcf.length_km = 20")
        assert cfg.pre_length_km == 20.0
        assert cfg.post_length_km == 20.0


class TestAmpMode:
    def test_fixed_gain_parse(self):
        cfg = fl.parse_config("amp.mode = fixed:17.5")
        assert cfg.amp.mode == "fixed"
        assert cfg.amp.gain_db == 17.5

    def test_restore_parse(self):
        cfg = fl.parse_config("amp.mode = restore")
        assert cfg.amp.mode == "restore"
        assert cfg.amp.gain_db is None

    def test_bad_mode_rejected(self):
        with pytest.raises(fl.ConfigError, match="restore"):
            fl.parse_config("amp.mode = linear")

    def test_ase_requires_sane_noise_figure(self):
        with pytest.raises(fl.ConfigError, match="noise_figure_db"):
            fl.parse_config("amp.ase = true\namp.noise_figure_db = 1.0")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_figure_rejected(self, value):
        with pytest.raises(fl.ConfigError, match="noise_figure_db"):
            fl.parse_config(f"amp.ase = true\namp.noise_figure_db = {value}")


class TestParseErrors:
    def test_unknown_key_with_line_number(self):
        text = "# comment\nsim.seed = 1\nsmurf.length_km = 3\n"
        with pytest.raises(fl.ConfigError, match=r"line 3: unknown key 'smurf.length_km'"):
            fl.parse_config(text)

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(fl.ConfigError, match=r"line 2: duplicate key 'sim.seed' \(first set on line 1\)"):
            fl.parse_config("sim.seed = 1\nsim.seed = 2")

    def test_missing_value(self):
        with pytest.raises(fl.ConfigError, match=r"line 1: key 'sim.seed' has no value"):
            fl.parse_config("sim.seed =")

    def test_malformed_line(self):
        with pytest.raises(fl.ConfigError, match=r"line 2: expected 'key = value'"):
            fl.parse_config("sim.seed = 1\njust some words")

    def test_non_numeric_value_names_key_and_line(self):
        with pytest.raises(fl.ConfigError, match=r"line 1: key 'sim.n_bits': expected an integer, got 'twelve'"):
            fl.parse_config("sim.n_bits = twelve")

    def test_negative_loss_names_key(self):
        with pytest.raises(fl.ConfigError, match=r"key 'smf.loss_db_km': must be >= 0"):
            fl.parse_config("smf.loss_db_km = -1")

    def test_zero_step_rejected(self):
        with pytest.raises(fl.ConfigError, match=r"key 'sim.step_km': must be > 0"):
            fl.parse_config("sim.step_km = 0")

    def test_bad_boolean(self):
        with pytest.raises(fl.ConfigError, match="expected a boolean, got 'maybe'"):
            fl.parse_config("rx.shot_noise = maybe")

    def test_bad_scheme_choice(self):
        with pytest.raises(fl.ConfigError, match="expected one of"):
            fl.parse_config("link.scheme = inline")

    def test_prbs_order_not_in_table(self):
        with pytest.raises(fl.ConfigError, match=r"must be one of \(7, 9, 11, 15, 23, 31\), got 8"):
            fl.parse_config("tx.prbs_order = 8")

    def test_samples_per_bit_not_allowed(self):
        with pytest.raises(fl.ConfigError, match=r"must be one of \(8, 16, 32, 64, 128\), got 12"):
            fl.parse_config("sim.samples_per_bit = 12")

    def test_step_and_adaptive_mutually_exclusive(self):
        text = "sim.step_km = 0.5\nsim.seed = 1\nsim.local_error = 1e-5"
        with pytest.raises(fl.ConfigError, match="line 3: sim.step_km and sim.local_error are mutually exclusive"):
            fl.parse_config(text)

    @pytest.mark.parametrize(
        ("key", "value"),
        [("tx.bit_rate_gbps", "1e300"), ("tx.linewidth_mhz", "1e305"), ("rx.bessel_bw_ghz", "1e300")],
    )
    def test_unit_scaling_overflow_names_key_and_line(self, key, value):
        with pytest.raises(fl.ConfigError, match=rf"line 2: key '{key}': {value} overflows in SI units"):
            fl.parse_config(f"sim.seed = 1\n{key} = {value}")

    def test_adaptive_alone_is_fine(self):
        cfg = fl.parse_config("sim.local_error = 1e-5")
        assert cfg.sim.ssfm.mode == "adaptive"
        assert cfg.sim.ssfm.local_error == 1e-5


class TestValidationErrors:
    def test_non_power_of_two_bits(self):
        with pytest.raises(fl.ConfigError, match="power of two"):
            fl.parse_config("sim.n_bits = 100")

    def test_bits_below_minimum(self):
        with pytest.raises(fl.ConfigError, match="at least 16"):
            fl.parse_config("sim.n_bits = 8\nsim.skip_bits = 0")

    def test_bessel_bandwidth_above_nyquist(self):
        text = "sim.samples_per_bit = 8\nrx.bessel_bw_ghz = 100"
        with pytest.raises(fl.ConfigError, match="[Nn]yquist"):
            fl.parse_config(text)

    def test_too_few_bits_for_q_rejected(self):
        # 16 bits minus the 8 warm-up bits cannot hold 8 ones and 8 zeros
        with pytest.raises(fl.ConfigError, match="too few bits for estimate_q"):
            fl.parse_config("sim.n_bits = 16")

    def test_skip_bits_must_leave_room(self):
        with pytest.raises(fl.ConfigError, match="skip_bits"):
            fl.parse_config("sim.n_bits = 16\nsim.skip_bits = 16")

    def test_dispersion_magnitude_cap(self):
        with pytest.raises(fl.ConfigError, match="dispersion"):
            fl.parse_config("dcf.dispersion_ps_nm_km = -500")

    def test_non_finite_dispersion_rejected(self):
        with pytest.raises(fl.ConfigError, match="dispersion"):
            fl.parse_config("smf.dispersion_ps_nm_km = nan")

    def test_fixed_step_count_capped(self):
        with pytest.raises(fl.ConfigError, match="more than the 100000 allowed per span"):
            fl.parse_config("sim.step_km = 1e-9")
        # the 0.025 km reference run stays admitted
        assert fl.parse_config("sim.step_km = 0.025").sim.ssfm.fixed_steps(fl.LinkConfig().smf) == 4800

    @pytest.mark.parametrize("value", ["1e-300", "9e-9", "0.002", "nan", "-1e-4"])
    def test_local_error_out_of_range_rejected(self, value):
        with pytest.raises(fl.ConfigError, match=r"local_error must lie in \[1e-08, 0\.001\]"):
            fl.parse_config(f"sim.local_error = {value}")

    def test_config_error_is_value_error(self):
        assert issubclass(fl.ConfigError, ValueError)

    def test_known_keys_inventory(self):
        assert len(KNOWN_KEYS) == 33
        assert "link.scheme" in KNOWN_KEYS
        assert all("." in key for key in KNOWN_KEYS)


class TestReadmeTable:
    def test_keys_are_the_schema(self):
        keys = [key for row_keys, _ in readme_config_rows() for key in row_keys]
        assert sorted(keys) == sorted(KNOWN_KEYS)

    @pytest.mark.parametrize(
        "key,default",
        [(key, default) for keys, default in readme_config_rows() if default for key in keys],
    )
    def test_documented_default_is_the_dataclass_default(self, key, default):
        assert fl.parse_config(f"{key} = {default}") == fl.LinkConfig()

    def test_empty_config_is_the_dataclass_default(self):
        assert fl.parse_config("") == fl.LinkConfig()
