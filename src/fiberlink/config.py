"""Flat key=value config files -> a validated LinkConfig.

Format: one ``section.key = value`` per line, ``#`` comments, blank lines
ignored. Unknown keys, malformed values and duplicates are rejected with the
offending line number and key. Ranges are checked once, by the dataclasses
that own the values: a value that breaks a rule on its own is reported with
its line and key, a rule that only a combination breaks (the receive filter
against the grid's Nyquist frequency, say) with the dataclass's message alone.
An empty file yields the full default configuration.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable

from .link import LinkConfig

__all__ = ["ConfigError", "parse_config", "read_config_text"]


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None


def _parse_amp_mode(text: str) -> float | None:
    """The gain of ``fixed:<dB>``, or None for ``restore``."""
    if text == "restore":
        return None
    if text.startswith("fixed:"):
        return _parse_float(text[len("fixed:") :])
    raise ValueError(f"expected 'restore' or 'fixed:<dB>', got {text!r}")


# key -> (value parser, LinkConfig field path, power of ten from the key's unit
# to the field's SI unit). The parsers check syntax only: defaults and ranges
# live in the dataclasses. Negative powers divide: 1550 / 1e9 is the double
# nearest 1550e-9, 1550 * 1e-9 is not.
_SCHEMA: dict[str, tuple[Callable[[str], Any], str, int]] = {
    "link.n_smf_spans": (_parse_int, "n_smf_spans", 0),
    "smf.length_km": (_parse_float, "smf.length_km", 0),
    "smf.dispersion_ps_nm_km": (_parse_float, "smf.dispersion_ps_nm_km", 0),
    "smf.loss_db_km": (_parse_float, "smf.loss_db_km", 0),
    "smf.gamma_per_w_km": (_parse_float, "smf.gamma_per_w_km", 0),
    "dcf.pre_length_km": (_parse_float, "pre_length_km", 0),
    "dcf.post_length_km": (_parse_float, "post_length_km", 0),
    "dcf.dispersion_ps_nm_km": (_parse_float, "dcf.dispersion_ps_nm_km", 0),
    "dcf.loss_db_km": (_parse_float, "dcf.loss_db_km", 0),
    "dcf.gamma_per_w_km": (_parse_float, "dcf.gamma_per_w_km", 0),
    "tx.bit_rate_gbps": (_parse_float, "tx.bit_rate", 9),
    "tx.wavelength_nm": (_parse_float, "tx.wavelength", -9),
    "tx.power_dbm": (_parse_float, "tx.launch_power_dbm", 0),
    "tx.linewidth_mhz": (_parse_float, "tx.linewidth_hz", 6),
    "tx.prbs_order": (_parse_int, "tx.prbs_order", 0),
    "tx.rise_time_ui": (_parse_float, "tx.rise_time", 0),
    "tx.extinction_db": (_parse_float, "tx.extinction_db", 0),
    "rx.responsivity_a_w": (_parse_float, "rx.responsivity", 0),
    "rx.thermal_psd": (_parse_float, "rx.thermal_noise_psd", 0),
    "rx.shot_noise": (_parse_bool, "rx.shot_noise", 0),
    "rx.bessel_order": (_parse_int, "rx.bessel_order", 0),
    "rx.bessel_bw_ghz": (_parse_float, "rx.bessel_bandwidth", 9),
    "amp.mode": (_parse_amp_mode, "amp.gain_db", 0),
    "amp.ase": (_parse_bool, "amp.ase_enabled", 0),
    "amp.noise_figure_db": (_parse_float, "amp.noise_figure_db", 0),
    "sim.n_bits": (_parse_int, "sim.n_bits", 0),
    "sim.samples_per_bit": (_parse_int, "sim.samples_per_bit", 0),
    "sim.step_km": (_parse_float, "sim.ssfm.step_km", 0),
    "sim.local_error": (_parse_float, "sim.ssfm.local_error", 0),
    "sim.seed": (_parse_int, "sim.seed", 0),
    "sim.skip_bits": (_parse_int, "sim.skip_bits", 0),
}


def _replace(obj: Any, updates: dict[str, Any]) -> Any:
    """Set dotted field paths, with one ``dataclasses.replace`` per nested dataclass."""
    fields: dict[str, Any] = {}
    nested: dict[str, dict[str, Any]] = {}
    for path, value in updates.items():
        name, dot, rest = path.partition(".")
        if dot:
            nested.setdefault(name, {})[rest] = value
        else:
            fields[name] = value
    for name, sub in nested.items():
        fields[name] = _replace(getattr(obj, name), sub)
    return dataclasses.replace(obj, **fields)


def parse_config(text: str) -> LinkConfig:
    """Parse config text into a fully defaulted, validated LinkConfig."""
    settings: dict[str, tuple[int, str, Any]] = {}  # key -> (line, field path, value)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in settings:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {settings[key][0]})"
            )
        if not value_text:
            raise ConfigError(f"line {lineno}: key {key!r} has no value")
        parse, path, power = _SCHEMA[key]
        try:
            value = parse(value_text)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from None
        if power:
            value = value * 10.0**power if power > 0 else value / 10.0**-power
            if not math.isfinite(value):
                raise ConfigError(f"line {lineno}: key {key!r}: {value_text} overflows in SI units")
        settings[key] = (lineno, path, value)

    if "sim.local_error" in settings and "sim.step_km" in settings:
        lineno = max(settings["sim.step_km"][0], settings["sim.local_error"][0])
        raise ConfigError(f"line {lineno}: sim.step_km and sim.local_error are mutually exclusive")

    try:
        return _replace(LinkConfig(), {path: value for _, path, value in settings.values()})
    except ValueError as exc:
        message = str(exc)
    # Blame the first key whose value alone, on the defaults, breaks the same rule.
    for key, (lineno, path, value) in settings.items():
        try:
            _replace(LinkConfig(), {path: value})
        except ValueError as exc:
            if str(exc) == message:
                raise ConfigError(f"line {lineno}: key {key!r}: {message}") from None
    raise ConfigError(message)


def read_config_text(path: str) -> str:
    """Read a config file, which must be UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8 ({exc})") from None
