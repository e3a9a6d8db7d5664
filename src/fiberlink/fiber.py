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
import math
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
# Relative local errors an adaptive step may be held to. On the default run,
# 1e-8 takes ~1,000 trials per span, 1% of the cap and ~60x the 1e-4 default;
# at 1e-3, Q is already off by ~0.06 dB, and above it a few trials span a fiber.
LOCAL_ERROR_RANGE = (1e-8, 1e-3)
# How far an accepted trial changes h: the local error of a step scales as h^3.
STEP_FACTOR = 2.0 ** (1.0 / 3.0)


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

    ``step_km = None`` (adaptive mode, the default) sizes the steps by the
    local-error method of Sinkin, Holzloehner, Zweck & Menyuk (JLT 21(1):61-68,
    2003), holding the relative error of each step near ``local_error``. A
    ``step_km`` selects fixed mode instead: equal steps no longer than
    ``step_km``, with ``local_error`` unused. Fixed 0.1 km steps are the
    reference oracle.
    """

    step_km: float | None = None
    local_error: float = 1e-4

    def __post_init__(self) -> None:
        if not (self.step_km is None or 0 < self.step_km < np.inf):
            raise ValueError(f"step_km must be positive, got {self.step_km}")
        lo, hi = LOCAL_ERROR_RANGE
        if not lo <= self.local_error <= hi:
            raise ValueError(f"local_error must lie in [{lo:g}, {hi:g}], got {self.local_error}")

    @property
    def mode(self) -> str:
        """``"fixed"`` or ``"adaptive"``, as set by ``step_km``."""
        return "adaptive" if self.step_km is None else "fixed"

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

    A symmetric step of size dz is a half linear step (dispersion + loss, in
    the frequency domain), a Kerr phase rotation over dz, and another half
    linear step. Fixed mode merges the trailing and leading half steps of
    consecutive steps into one operator. Adaptive mode advances by trials of
    2h from a start field: one coarse step of 2h and two fine steps of h give
    u_c and u_f, and the trial is accepted when the relative local error
    ``delta = |u_f - u_c| / |u_f|`` is at most ``2 * local_error``, as
    ``(4 u_f - u_c) / 3``; otherwise h is halved and the trial retried. After
    an accepted trial h shrinks by 2^(1/3) when ``delta > local_error`` and
    grows by 2^(1/3) when ``delta < local_error / 2``. The first trial spans
    the whole fiber. The total distance integrated is ``fiber.length_km``. The
    input field is left untouched; the steps work in place on a copy of it.
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
    if options.step_km is not None:
        n_steps = options.fixed_steps(fiber)

    e = field.samples.copy()
    # numpy's FFT allocates an n-sample scratch array on every transform, and
    # glibc serves blocks above its mmap threshold (128 KiB at start-up) from
    # fresh mmaps that page-fault in full, step after step. Freeing a larger
    # mmapped block raises the threshold to its size (glibc ignores blocks over
    # 32 MiB), so the scratch and this call's own buffers, each one field size
    # or less, are reused from the heap instead. The block is never touched.
    np.empty(min(8 * e.nbytes, 16 << 20), np.uint8)
    power = np.empty(e.shape)
    phase = np.empty_like(power)
    rotation = np.empty_like(e)
    half = np.empty_like(e)
    full = np.empty_like(e)

    def split_step(src: np.ndarray, dst: np.ndarray, op: np.ndarray, dz: float) -> bool:
        """``dst`` = the linear operator ``op``, then the Kerr rotation over ``dz``, on ``src``.

        Returns False, with the rotation left out, when the field turns non-finite.
        """
        np.fft.fft(src, out=dst)
        dst *= op
        np.fft.ifft(dst, out=dst)
        np.abs(dst, out=power)
        np.square(power, out=power)
        np.multiply(gamma_si * dz, power, out=phase)
        # phase >= 0 is non-finite exactly where the rotated field would be.
        if not np.isfinite(np.max(phase)):
            return False
        np.cos(phase, out=rotation.real)
        np.sin(phase, out=rotation.imag)
        dst *= rotation
        return True

    def linear(u: np.ndarray, op: np.ndarray) -> None:
        np.fft.fft(u, out=u)
        u *= op
        np.fft.ifft(u, out=u)

    def norm2(u: np.ndarray) -> float:
        """The sum of |u|^2, by numpy's own sum: a BLAS dot product of this size
        starts threads, which spin on the other cores between calls."""
        np.abs(u, out=power)
        np.square(power, out=power)
        return float(power.sum())

    def set_ops(dz: float) -> None:
        """``half`` = the linear operator over dz / 2, ``full`` = over dz."""
        np.multiply(lin_rate, dz / 2.0, out=half)
        np.exp(half, out=half)
        np.multiply(half, half, out=full)

    if options.step_km is not None:
        dz = length_m / n_steps
        set_ops(dz)
        for k in range(n_steps):
            if not split_step(e, e, full if k else half, dz):
                raise PropagationError(
                    f"non-finite field at z = {(k + 1) * dz / 1e3:.3f} km in "
                    f"{fiber.label}; the step size is too large for this launch power"
                )
        # The last Kerr step left |e|^2 finite and already applied this half
        # (inside full), and |half| <= 1, so the closing half step cannot make e
        # non-finite.
        linear(e, half)
        return OpticalField(e, grid)

    tol = options.local_error
    coarse = np.empty_like(e)
    fine = np.empty_like(e)
    remaining, h, trials = length_m, length_m / 2.0, 0
    while remaining > 0.0:
        h = min(h, remaining / 2.0)
        if remaining - 2.0 * h == remaining or trials == MAX_STEPS_PER_SPAN:
            raise PropagationError(
                f"adaptive steps stall at z = {(length_m - remaining) / 1e3:.3f} km in "
                f"{fiber.label}: step {2.0 * h:.3g} m after {trials} trials of at most "
                f"{MAX_STEPS_PER_SPAN}; no step meets local_error = {tol:g}"
            )
        trials += 1
        set_ops(h)
        delta = math.nan
        if (
            split_step(e, coarse, full, 2.0 * h)
            and split_step(e, fine, half, h)
            and split_step(fine, fine, full, h)
        ):
            linear(coarse, full)
            linear(fine, half)
            np.subtract(fine, coarse, out=coarse)
            err, ref = norm2(coarse), norm2(fine)
            delta = math.sqrt(err / ref if ref > 0.0 else err)
        # Written so that a NaN estimate rejects the trial.
        if not delta <= 2.0 * tol:
            h /= 2.0
            continue
        coarse /= 3.0
        fine += coarse
        e, fine = fine, e
        remaining -= 2.0 * h
        if delta > tol:
            h /= STEP_FACTOR
        elif delta < tol / 2.0:
            h *= STEP_FACTOR
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
