"""Scalar NLSE fiber propagation (split-step Fourier) and lumped amplification.

Model: A_z = -(alpha/2) A + j (beta2/2) A_tt + j gamma |A|^2 A for the complex
envelope A(z, t) under the e^{+j omega t} analytic-signal convention, i.e. the
linear step multiplies the spectrum by exp(+j (beta2/2) omega^2 dz) and the
nonlinear step rotates the phase by +gamma |A|^2 dz. With beta2 < 0 (anomalous
dispersion, D > 0) this supports the fundamental bright soliton
P0 = |beta2| / (gamma T0^2).

Unit conventions at the API surface follow datasheet practice — km, ps/nm/km,
dB/km, 1/(W km) — and are converted to SI internally.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .signals import OpticalField, dbm_to_watts

__all__ = [
    "FiberParams",
    "AmplifierParams",
    "SsfmOptions",
    "PropagationError",
    "d_to_beta2",
    "loss_db_to_alpha",
    "propagate_fiber",
    "amplify",
]

C_LIGHT = 2.99792458e8  # m/s
PLANCK = 6.62607015e-34  # J s
# Most split steps one span may take: 20x the 4,800 of the finest reference
# (0.025 km steps over 120 km), so a too-fine step fails instead of hanging.
MAX_STEPS_PER_SPAN = 100_000


class PropagationError(RuntimeError):
    """The split-step integration produced a non-finite field or stalled."""


def d_to_beta2(d_ps_nm_km: float, wavelength_m: float) -> float:
    """Convert dispersion D [ps/(nm km)] to beta2 [ps^2/km].

    beta2 = -D lambda^2 / (2 pi c); positive D (anomalous at 1550 nm) maps to
    negative beta2.
    """
    if not (wavelength_m > 0 and np.isfinite(wavelength_m)):
        raise ValueError(f"wavelength must be positive, got {wavelength_m}")
    d_si = d_ps_nm_km * 1e-6  # s/m^2
    beta2_si = -d_si * wavelength_m**2 / (2.0 * np.pi * C_LIGHT)  # s^2/m
    return beta2_si * 1e27  # ps^2/km


def loss_db_to_alpha(loss_db_km: float) -> float:
    """Convert fiber loss [dB/km] to the power attenuation coefficient [1/km]."""
    if loss_db_km < 0:
        raise ValueError(f"loss must be >= 0 dB/km, got {loss_db_km}")
    return loss_db_km * np.log(10.0) / 10.0


@dataclass(frozen=True, slots=True)
class FiberParams:
    """One span of fiber in engineering units."""

    length_km: float
    dispersion_ps_nm_km: float
    loss_db_km: float
    gamma_per_w_km: float
    label: str = "SMF"

    def __post_init__(self) -> None:
        if self.length_km < 0 or not np.isfinite(self.length_km):
            raise ValueError(f"length_km must be >= 0, got {self.length_km}")
        if not abs(self.dispersion_ps_nm_km) <= 200.0:
            raise ValueError(
                f"|dispersion| must be <= 200 ps/nm/km, got {self.dispersion_ps_nm_km}"
            )
        if self.loss_db_km < 0 or not np.isfinite(self.loss_db_km):
            raise ValueError(f"loss_db_km must be >= 0, got {self.loss_db_km}")
        if self.gamma_per_w_km < 0 or not np.isfinite(self.gamma_per_w_km):
            raise ValueError(f"gamma_per_w_km must be >= 0, got {self.gamma_per_w_km}")
        if not self.label:
            raise ValueError("label must be non-empty")


@dataclass(frozen=True, slots=True)
class AmplifierParams:
    """Lumped optical amplifier: fixed gain or restore-to-target.

    In ``restore`` mode the gain is chosen so the estimated mark level of the
    incoming signal is brought to ``target_dbm``. ``target_dbm = None`` is a
    placeholder meaning "resolve against the transmitter launch power"; it
    must be resolved before :func:`amplify` is called.
    """

    mode: str = "restore"
    target_dbm: float | None = None
    gain_db: float | None = None
    ase_enabled: bool = False
    noise_figure_db: float = 5.0
    label: str = "AMP"

    def __post_init__(self) -> None:
        if self.mode not in ("restore", "fixed"):
            raise ValueError(f"mode must be 'restore' or 'fixed', got {self.mode!r}")
        if self.mode == "fixed":
            if self.gain_db is None:
                raise ValueError("fixed mode requires gain_db")
            if self.gain_db < 0 or not np.isfinite(self.gain_db):
                raise ValueError(f"gain_db must be >= 0, got {self.gain_db}")
        if self.target_dbm is not None and not np.isfinite(self.target_dbm):
            raise ValueError(f"target_dbm must be finite, got {self.target_dbm}")
        if not np.isfinite(self.noise_figure_db):
            raise ValueError(f"noise_figure_db must be finite, got {self.noise_figure_db}")
        if self.ase_enabled and self.noise_figure_db < 3.0:
            raise ValueError(
                f"noise_figure_db must be >= 3 dB when ASE is on, got {self.noise_figure_db}"
            )


@dataclass(frozen=True, slots=True)
class SsfmOptions:
    """Step-size policy for the split-step integrator.

    ``max_nl_phase_rad = None`` (fixed mode) cuts the span into equal steps no
    longer than ``step_km``. Otherwise (adaptive mode; ``step_km`` is unused)
    each step keeps ``gamma * P_peak * dz <= max_nl_phase_rad``, where
    ``P_peak`` is the peak power of the previous Kerr step (first: the input's).
    """

    step_km: float = 0.1
    max_nl_phase_rad: float | None = None

    def __post_init__(self) -> None:
        if not (self.step_km > 0 and np.isfinite(self.step_km)):
            raise ValueError(f"step_km must be positive, got {self.step_km}")
        if not (self.max_nl_phase_rad is None or 0 < self.max_nl_phase_rad < np.inf):
            raise ValueError(f"max_nl_phase_rad must be positive, got {self.max_nl_phase_rad}")

    @property
    def mode(self) -> str:
        """``"fixed"`` or ``"adaptive"``, as set by ``max_nl_phase_rad``."""
        return "fixed" if self.max_nl_phase_rad is None else "adaptive"

    def fixed_steps(self, fiber: FiberParams) -> int:
        """Number of equal fixed-mode steps for ``fiber``, at most ``MAX_STEPS_PER_SPAN``."""
        n = max(1.0, np.ceil(fiber.length_km / self.step_km - 1e-12))
        if not n <= MAX_STEPS_PER_SPAN:
            raise ValueError(
                f"{fiber.label} of {fiber.length_km} km at step_km = {self.step_km} needs "
                f"{n:.3g} steps, more than the {MAX_STEPS_PER_SPAN} allowed per span"
            )
        return int(n)


def propagate_fiber(
    field: OpticalField,
    fiber: FiberParams,
    options: SsfmOptions | None = None,
) -> OpticalField:
    """Propagate a field through one fiber span by symmetric split-step Fourier.

    Each step applies a half linear step (dispersion + loss, in the frequency
    domain), a full Kerr phase rotation, and another half linear step; the
    trailing and leading half steps of consecutive steps are merged into one
    operator, rebuilt only when the step size (see :class:`SsfmOptions`)
    changes. The total distance integrated is ``fiber.length_km``. The input
    field is left untouched; the steps work in place on a copy of it.
    """
    if options is None:
        options = SsfmOptions()
    grid = field.grid
    length_m = fiber.length_km * 1e3
    if length_m == 0.0:
        return OpticalField(field.samples.copy(), grid)

    beta2_si = d_to_beta2(fiber.dispersion_ps_nm_km, grid.center_wavelength) * 1e-27  # s^2/m
    alpha_si = loss_db_to_alpha(fiber.loss_db_km) * 1e-3  # 1/m
    gamma_si = fiber.gamma_per_w_km * 1e-3  # 1/(W m)
    omega = grid.omega()
    # Per-meter exponent of the linear (frequency-domain) operator.
    lin_rate = 0.5j * beta2_si * omega**2 - 0.5 * alpha_si
    max_phase = options.max_nl_phase_rad
    if max_phase is None:
        fixed_dz = length_m / options.fixed_steps(fiber)

    e = field.samples.copy()
    # numpy's FFT allocates an n-sample scratch array on every transform, and
    # glibc serves blocks above its mmap threshold (128 KiB at start-up) from
    # fresh mmaps that page-fault in full, step after step. Freeing a larger
    # mmapped block raises the threshold to its size (glibc ignores blocks over
    # 32 MiB), so the scratch and this call's own buffers, about eight field
    # sizes, are reused from the heap instead. The block is never touched.
    np.empty(min(8 * e.nbytes, 16 << 20), np.uint8)
    power = np.abs(e) ** 2
    phase = np.empty_like(power)
    rotation = np.empty_like(e)
    remaining, dz, half, full, steps = length_m, 0.0, None, None, 0
    while True:
        if max_phase is None:
            next_dz = fixed_dz
        else:
            kerr_rate = gamma_si * float(np.max(power))
            next_dz = min(remaining, max_phase / kerr_rate) if kerr_rate else remaining
        # Fixed mode stops after n steps despite rounding; adaptive at 0 left.
        if remaining <= next_dz / 2.0:
            break
        if remaining - next_dz == remaining or steps == MAX_STEPS_PER_SPAN:
            raise PropagationError(
                f"adaptive steps stall at z = {(length_m - remaining) / 1e3:.3f} km in "
                f"{fiber.label}: step {next_dz:.3g} m after {steps} of at most "
                f"{MAX_STEPS_PER_SPAN}; max_nl_phase_rad is too small for gamma * power"
            )
        if next_dz != dz:
            next_half = np.exp(lin_rate * (next_dz / 2.0))
            op, full = next_half if half is None else half * next_half, None
            dz, half = next_dz, next_half
        elif full is None:
            op = full = half * half
        np.fft.fft(e, out=e)
        e *= op
        np.fft.ifft(e, out=e)
        np.abs(e, out=power)
        np.square(power, out=power)
        np.multiply(gamma_si * dz, power, out=phase)
        remaining -= dz
        steps += 1
        # phase >= 0 is non-finite exactly where the rotated field would be.
        if not np.isfinite(np.max(phase)):
            raise PropagationError(
                f"non-finite field at z = {(length_m - remaining) / 1e3:.3f} km in "
                f"{fiber.label}; the step size is too large for this launch power"
            )
        np.cos(phase, out=rotation.real)
        np.sin(phase, out=rotation.imag)
        e *= rotation
    # The last Kerr step left |e|^2 finite and already applied this half (inside
    # op), and |half| <= 1, so the closing half step cannot make e non-finite.
    np.fft.fft(e, out=e)
    e *= half
    np.fft.ifft(e, out=e)
    return OpticalField(e, grid)


def _mark_level_estimate(power: np.ndarray) -> float:
    """Estimate the mark (one-level) power as the mean of the top quartile.

    Exact for clean NRZ frames (where at least a quarter of the samples sit on
    the flat mark level) and for constant fields.
    """
    n = power.size
    k = max(1, n // 4)
    top = np.partition(power, n - k)[n - k :]
    return float(np.mean(top))


def amplify(
    field: OpticalField,
    amp: AmplifierParams,
    rng: np.random.Generator | None = None,
) -> OpticalField:
    """Apply a lumped amplifier, optionally adding ASE noise.

    ASE is injected as circular complex Gaussian noise with per-sample power
    ``(G - 1) * n_sp * h * nu * B_sim`` where ``n_sp = 10**(NF/10) / 2`` and
    ``B_sim`` is the simulation bandwidth ``1/dt``.
    """
    p = np.abs(field.samples) ** 2
    if amp.mode == "fixed":
        g_lin = 10.0 ** (amp.gain_db / 10.0)
    else:
        if amp.target_dbm is None:
            raise ValueError("restore-mode amplifier has no resolved target_dbm")
        est = _mark_level_estimate(p)
        if est <= 0.0:
            g_lin = 1.0  # dark input: nothing to restore
        else:
            g_lin = dbm_to_watts(amp.target_dbm) / est
    out = field.samples * np.sqrt(g_lin)
    if amp.ase_enabled:
        if rng is None:
            raise ValueError("an rng is required when ASE is enabled")
        if g_lin > 1.0:
            nsp = 10.0 ** (amp.noise_figure_db / 10.0) / 2.0
            nu = C_LIGHT / field.grid.center_wavelength
            b_sim = field.grid.sample_rate
            p_ase = (g_lin - 1.0) * nsp * PLANCK * nu * b_sim
            sigma = np.sqrt(p_ase / 2.0)
            noise = rng.normal(0.0, sigma, field.grid.n_samples) + 1j * rng.normal(
                0.0, sigma, field.grid.n_samples
            )
            out = out + noise
    return OpticalField(out, field.grid)
