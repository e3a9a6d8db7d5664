"""Sampling grid and waveform containers shared by every stage of the link.

All waveforms live on one uniform time lattice: ``n_bits`` bit slots at
``samples_per_bit`` samples each, wrapped circularly (the FFT convention).
Optical envelopes are complex baseband fields with ``|a|**2`` in watts;
electrical waveforms are real-valued (amps after photodetection).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SamplingGrid",
    "OpticalField",
    "ElectricalWaveform",
    "dbm_to_watts",
]

ALLOWED_SAMPLES_PER_BIT = (8, 16, 32, 64, 128)
MAX_FFT_SAMPLES = 1 << 24


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power level in dBm to watts."""
    return 1e-3 * 10.0 ** (p_dbm / 10.0)


def as_integer(name: str, value: int) -> int:
    """``value`` as an int; a bool, a float or any other non-integer raises TypeError."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    return int(value)


def finite_db(value: float) -> bool:
    """True when the dB value and its linear ratio ``10**(value/10)`` are finite floats."""
    try:
        return np.isfinite(value) and np.isfinite(10.0 ** (value / 10.0))
    except OverflowError:
        return False


@dataclass(frozen=True, slots=True)
class SamplingGrid:
    """Uniform time/frequency lattice for one simulation run.

    The constructor is the single gatekeeper for grid validity: power-of-two
    sizes, the allowed oversampling factors, and the FFT size bound are all
    checked here so downstream modules can assume a well-formed grid.
    """

    bit_rate: float  # bits per second
    n_bits: int
    samples_per_bit: int
    center_wavelength: float  # meters

    def __post_init__(self) -> None:
        for name in ("n_bits", "samples_per_bit"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        for name in ("bit_rate", "center_wavelength"):
            value = getattr(self, name)
            if not (value > 0.0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
            object.__setattr__(self, name, float(value))
        spb = self.samples_per_bit
        if spb not in ALLOWED_SAMPLES_PER_BIT:
            raise ValueError(f"samples_per_bit must be one of {ALLOWED_SAMPLES_PER_BIT}, got {spb}")
        if self.n_bits < 16:
            raise ValueError(f"n_bits must be at least 16, got {self.n_bits}")
        if not _is_pow2(self.n_bits):
            raise ValueError(f"n_bits must be a power of two, got {self.n_bits}")
        if self.n_samples > MAX_FFT_SAMPLES:
            raise ValueError(
                f"grid of {self.n_samples} samples exceeds the FFT bound of {MAX_FFT_SAMPLES}"
            )

    @property
    def dt(self) -> float:
        """Sample spacing, seconds."""
        return 1.0 / (self.bit_rate * self.samples_per_bit)

    @property
    def n_samples(self) -> int:
        return self.n_bits * self.samples_per_bit

    @property
    def bit_period(self) -> float:
        return 1.0 / self.bit_rate

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.dt

    def omega(self) -> np.ndarray:
        """Angular baseband frequencies in rad/s, FFT bin order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_samples, self.dt)


def _validate_samples(samples: np.ndarray, grid: SamplingGrid, kind: str) -> None:
    if samples.ndim != 1:
        raise ValueError(f"{kind} samples must be one-dimensional, got shape {samples.shape}")
    if samples.shape[0] != grid.n_samples:
        raise ValueError(
            f"{kind} has {samples.shape[0]} samples but the grid expects {grid.n_samples}"
        )
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"{kind} contains non-finite samples")


@dataclass(frozen=True, slots=True)
class OpticalField:
    """Complex optical envelope on a sampling grid (|samples|^2 in watts)."""

    samples: np.ndarray
    grid: SamplingGrid

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.complex128)
        _validate_samples(arr, self.grid, "optical field")
        object.__setattr__(self, "samples", arr)


@dataclass(frozen=True, slots=True)
class ElectricalWaveform:
    """Real electrical waveform on a sampling grid."""

    samples: np.ndarray
    grid: SamplingGrid

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        _validate_samples(arr, self.grid, "electrical waveform")
        object.__setattr__(self, "samples", arr)

