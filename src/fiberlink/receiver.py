"""Direct-detection receiver: photodiode with noise, then a Bessel lowpass.

The photocurrent is R|E|^2 plus additive thermal noise and signal-dependent
shot noise, both white over the simulation bandwidth. Electrical filtering
uses an analog Bessel prototype evaluated on the FFT frequency lattice, so
the filter is applied circularly with zero phase distortion of the envelope
beyond the Bessel group delay.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import ElectricalWaveform, OpticalField, SamplingGrid, as_integer

__all__ = ["RxConfig", "photodetect", "bessel_lowpass", "receive"]

ELECTRON_CHARGE = 1.602176634e-19  # C
MAX_BESSEL_ORDER = 10  # highest Bessel filter order accepted


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
        if not 1 <= as_integer("bessel_order", self.bessel_order) <= MAX_BESSEL_ORDER:
            raise ValueError(
                f"bessel_order must be in 1..{MAX_BESSEL_ORDER}, got {self.bessel_order}"
            )
        if not (self.bessel_bandwidth > 0 and np.isfinite(self.bessel_bandwidth)):
            raise ValueError(f"bessel_bandwidth must be positive, got {self.bessel_bandwidth}")

    def check_grid(self, grid: SamplingGrid) -> None:
        """Require the filter bandwidth from the grid's frequency step to below its Nyquist."""
        nyquist, step = 0.5 * grid.sample_rate, grid.sample_rate / grid.n_samples
        if not step <= self.bessel_bandwidth < nyquist:
            raise ValueError(
                f"rx bessel_bandwidth {self.bessel_bandwidth:.6g} Hz must be below the grid "
                f"Nyquist frequency {nyquist:.6g} Hz and at least its frequency step {step:.6g} Hz"
            )


def photodetect(
    field: OpticalField, config: RxConfig, rng: np.random.Generator
) -> ElectricalWaveform:
    """Square-law detection with thermal and (optional) shot noise.

    Thermal noise is white with one-sided current PSD ``thermal_noise_psd``
    over the simulation bandwidth ``1/dt``; shot noise per sample has variance
    ``2 q R |E|^2 / dt``. ``rng`` draws both noise terms.
    """
    grid = field.grid
    p_opt = np.abs(field.samples) ** 2
    current = config.responsivity * p_opt
    b_sim = grid.sample_rate
    if config.thermal_noise_psd > 0:
        sigma = config.thermal_noise_psd * np.sqrt(b_sim)
        current = current + rng.normal(0.0, sigma, grid.n_samples)
    if config.shot_noise:
        var = 2.0 * ELECTRON_CHARGE * config.responsivity * p_opt * b_sim
        current = current + rng.normal(0.0, 1.0, grid.n_samples) * np.sqrt(var)
    return ElectricalWaveform(current, grid)


def _bessel_response(order: int, f_norm: np.ndarray) -> np.ndarray:
    """Complex response of the analog Bessel prototype at f/f_3dB = f_norm.

    H(s) = a_0 / sum_k a_k (w_c s)^k, with the reverse Bessel polynomial
    a_k = (2n-k)! / (2^(n-k) k! (n-k)!) and w_c the corner where
    |H(j w_c)|^2 = 1/2, found by bisection (|H| falls monotonically).
    """
    n = order
    a = [
        math.factorial(2 * n - k) // (2 ** (n - k) * math.factorial(k) * math.factorial(n - k))
        for k in range(n + 1)
    ]

    def below_corner(w: float) -> bool:
        return abs(sum(c * (1j * w) ** k for k, c in enumerate(a))) ** 2 < 2 * a[0] ** 2

    lo, hi = 0.0, 1.0
    while below_corner(hi):
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if below_corner(mid) else (lo, mid)
    return a[0] / np.polyval([c * hi**k for k, c in enumerate(a)][::-1], 1j * f_norm)


def bessel_lowpass(wave: ElectricalWaveform, rx: RxConfig) -> ElectricalWaveform:
    """Zero-aliasing circular Bessel lowpass via the real FFT.

    The analog prototype of order ``rx.bessel_order`` is magnitude-normalized
    so |H| is exactly 1 at DC and 1/sqrt(2) at ``rx.bessel_bandwidth``, which
    must pass :meth:`RxConfig.check_grid`.
    """
    grid = wave.grid
    rx.check_grid(grid)
    f = np.fft.rfftfreq(grid.n_samples, grid.dt)
    h = _bessel_response(rx.bessel_order, f / rx.bessel_bandwidth)
    filtered = np.fft.irfft(np.fft.rfft(wave.samples) * h, grid.n_samples)
    return ElectricalWaveform(filtered, grid)


def receive(field: OpticalField, config: RxConfig, rng: np.random.Generator) -> ElectricalWaveform:
    """Photodetect then filter; the composition of the two receiver stages."""
    return bessel_lowpass(photodetect(field, config, rng), config)
