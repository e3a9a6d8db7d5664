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
    "mean_power",
    "peak_power",
    "energy",
    "spectrum",
    "inverse_spectrum",
    "dbm_to_watts",
    "watts_to_dbm",
]

ALLOWED_SAMPLES_PER_BIT = (8, 16, 32, 64, 128)
MAX_FFT_SAMPLES = 1 << 24


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power level in dBm to watts."""
    return 1e-3 * 10.0 ** (p_dbm / 10.0)


def watts_to_dbm(p_watts: float) -> float:
    """Convert a power in watts to dBm. Requires ``p_watts > 0``."""
    if p_watts <= 0.0:
        raise ValueError(f"power must be positive to express in dBm, got {p_watts}")
    return 10.0 * np.log10(p_watts / 1e-3)


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
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
            object.__setattr__(self, name, int(value))
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

    @property
    def df(self) -> float:
        """Frequency-bin spacing of the FFT lattice, Hz."""
        return 1.0 / (self.n_samples * self.dt)

    @property
    def duration(self) -> float:
        return self.n_samples * self.dt

    def time(self) -> np.ndarray:
        """Sample times in seconds, starting at zero."""
        return np.arange(self.n_samples) * self.dt

    def frequencies(self) -> np.ndarray:
        """Baseband frequencies in Hz, FFT bin order."""
        return np.fft.fftfreq(self.n_samples, self.dt)

    def omega(self) -> np.ndarray:
        """Angular baseband frequencies in rad/s, FFT bin order."""
        return 2.0 * np.pi * self.frequencies()


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

    def power(self) -> np.ndarray:
        """Instantaneous power |a|^2 in watts."""
        return np.abs(self.samples) ** 2


@dataclass(frozen=True, slots=True)
class ElectricalWaveform:
    """Real electrical waveform on a sampling grid."""

    samples: np.ndarray
    grid: SamplingGrid

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        _validate_samples(arr, self.grid, "electrical waveform")
        object.__setattr__(self, "samples", arr)


def mean_power(field: OpticalField) -> float:
    """Time-averaged optical power in watts."""
    return float(np.mean(np.abs(field.samples) ** 2))


def peak_power(field: OpticalField) -> float:
    """Maximum instantaneous optical power in watts."""
    return float(np.max(np.abs(field.samples) ** 2))


def energy(field: OpticalField) -> float:
    """Total energy of the frame in joules: sum |a|^2 * dt."""
    return float(np.sum(np.abs(field.samples) ** 2) * field.grid.dt)


def spectrum(field: OpticalField) -> np.ndarray:
    """Unitary (norm-preserving) FFT of the field, FFT bin order."""
    return np.fft.fft(field.samples, norm="ortho")


def inverse_spectrum(spec: np.ndarray, grid: SamplingGrid) -> OpticalField:
    """Inverse of :func:`spectrum`; returns a field on ``grid``."""
    spec = np.asarray(spec, dtype=np.complex128)
    if spec.shape != (grid.n_samples,):
        raise ValueError(
            f"spectrum has shape {spec.shape} but the grid expects ({grid.n_samples},)"
        )
    return OpticalField(np.fft.ifft(spec, norm="ortho"), grid)
