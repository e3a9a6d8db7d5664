"""Direct-detection receiver: photodiode with noise, then a Bessel lowpass.

The photocurrent is R|E|^2 plus additive thermal noise and signal-dependent
shot noise, both white over the simulation bandwidth. Electrical filtering
uses an analog Bessel prototype evaluated on the FFT frequency lattice, so
the filter is applied circularly with zero phase distortion of the envelope
beyond the Bessel group delay.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import bessel

from .signals import ElectricalWaveform, OpticalField

__all__ = ["RxConfig", "photodetect", "bessel_lowpass", "receive"]

ELECTRON_CHARGE = 1.602176634e-19  # C


@dataclass(frozen=True, slots=True)
class RxConfig:
    """Receiver settings (defaults: ideal 1 A/W diode, 4th-order 8 GHz Bessel)."""

    responsivity: float = 1.0  # A/W
    thermal_noise_psd: float = 1e-11  # A/sqrt(Hz)
    shot_noise: bool = True
    bessel_order: int = 4
    bessel_bandwidth: float = 8e9  # -3 dB electrical bandwidth, Hz

    def __post_init__(self) -> None:
        if not (self.responsivity > 0 and np.isfinite(self.responsivity)):
            raise ValueError(f"responsivity must be positive, got {self.responsivity}")
        if self.thermal_noise_psd < 0 or not np.isfinite(self.thermal_noise_psd):
            raise ValueError(f"thermal_noise_psd must be >= 0, got {self.thermal_noise_psd}")
        if not (1 <= self.bessel_order <= 10):
            raise ValueError(f"bessel_order must be in 1..10, got {self.bessel_order}")
        if not (self.bessel_bandwidth > 0 and np.isfinite(self.bessel_bandwidth)):
            raise ValueError(f"bessel_bandwidth must be positive, got {self.bessel_bandwidth}")


def photodetect(
    field: OpticalField,
    config: RxConfig,
    rng: np.random.Generator | None = None,
) -> ElectricalWaveform:
    """Square-law detection with thermal and (optional) shot noise.

    Thermal noise is white with one-sided current PSD ``thermal_noise_psd``
    over the simulation bandwidth ``1/dt``; shot noise per sample has variance
    ``2 q R |E|^2 / dt``. ``rng`` is required when either noise term is on.
    """
    grid = field.grid
    p_opt = np.abs(field.samples) ** 2
    current = config.responsivity * p_opt
    b_sim = grid.sample_rate
    noisy = config.thermal_noise_psd > 0 or config.shot_noise
    if noisy:
        if rng is None:
            raise ValueError("an rng is required when receiver noise is on")
        if config.thermal_noise_psd > 0:
            current = current + rng.normal(
                0.0, config.thermal_noise_psd * np.sqrt(b_sim), grid.n_samples
            )
        if config.shot_noise:
            var = 2.0 * ELECTRON_CHARGE * config.responsivity * p_opt * b_sim
            current = current + rng.normal(0.0, 1.0, grid.n_samples) * np.sqrt(var)
    return ElectricalWaveform(current, grid)


def _bessel_response(order: int, f_norm: np.ndarray) -> np.ndarray:
    """Complex response of the analog Bessel prototype at f/f_3dB = f_norm."""
    b, a = bessel(order, 1.0, btype="low", analog=True, norm="mag")
    s = 1j * f_norm
    h = np.polyval(b, s) / np.polyval(a, s)
    # Normalize so DC gain is exactly 1 (b/a constant terms already match).
    return h / (b[-1] / a[-1])


def bessel_lowpass(
    wave: ElectricalWaveform, order: int = 4, bandwidth: float = 8e9
) -> ElectricalWaveform:
    """Zero-aliasing circular Bessel lowpass via the real FFT.

    The analog prototype is magnitude-normalized so |H| is exactly 1 at DC
    and 1/sqrt(2) at ``bandwidth``. Requires ``bandwidth`` below the grid
    Nyquist frequency.
    """
    if not (1 <= order <= 10):
        raise ValueError(f"order must be in 1..10, got {order}")
    grid = wave.grid
    nyquist = 0.5 * grid.sample_rate
    if not (0 < bandwidth < nyquist):
        raise ValueError(
            f"bandwidth must lie in (0, {nyquist:.6g}) Hz for this grid, got {bandwidth}"
        )
    f = np.fft.rfftfreq(grid.n_samples, grid.dt)
    h = _bessel_response(order, f / bandwidth)
    filtered = np.fft.irfft(np.fft.rfft(wave.samples) * h, grid.n_samples)
    return ElectricalWaveform(filtered, grid)


def receive(
    field: OpticalField,
    config: RxConfig,
    rng: np.random.Generator | None = None,
) -> ElectricalWaveform:
    """Photodetect then filter; the composition of the two receiver stages."""
    return bessel_lowpass(
        photodetect(field, config, rng), config.bessel_order, config.bessel_bandwidth
    )
