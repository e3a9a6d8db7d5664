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

import bisect
import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .signals import OpticalField, dbm_to_watts, finite_db

__all__ = [
    "FiberParams",
    "AmplifierParams",
    "SsfmOptions",
    "PropagationError",
    "d_to_beta2",
    "loss_db_to_alpha",
    "propagate_fiber",
    "propagate_span",
    "amplify",
]

C_LIGHT = 2.99792458e8  # m/s
PLANCK = 6.62607015e-34  # J s
# Most split steps one span may take: 20x the 4,800 of the finest reference
# (0.025 km steps over 120 km), so a too-fine step fails instead of hanging.
MAX_STEPS_PER_SPAN = 100_000
# Largest Kerr phase gamma*|A|^2*dz one split step may apply, in rad; over pi a
# step does not resolve the SPM. Runs peak at 0.0106 rad (default), 0.0021
# (sweep_cross, seed 7), 0.0377 (8 dBm pairs, 2 km steps), 0.000337 (0.1 km).
MAX_STEP_PHASE = math.pi
# Taylor coefficients of cos(phi) and sin(phi) / phi in t = phi^2, and the peak
# phases under which the first term left out by 2, 3, ..., 15 terms is < 2^-54.
_TAYLOR_COS = tuple((-1) ** j / math.factorial(2 * j) for j in range(15))
_TAYLOR_SIN = tuple((-1) ** j / math.factorial(2 * j + 1) for j in range(15))
_TAYLOR_PHASE = tuple((math.factorial(2 * k) * 2.0**-54) ** (0.5 / k) for k in range(2, 16))
# Length of an adaptive fiber's first trial, in m, whatever the fiber's length:
# on the default run a 2 km start takes 37 trials, 3 km 35, 5 km 36, 10 km 38
# and 20 km 42; 2 and 3 km err more over seeds 0-31 (4.6e-3 and 6.1e-3 dB of Q).
FIRST_TRIAL_M = 5e3
# Relative local errors an adaptive step may be held to. On the default run,
# 1e-8 takes 277-911 trials per span (the second SMF and DCF-post restart on the
# full grid), under 1% of the cap. Over seeds 0-31 the worst |Q - Q(0.1 km
# fixed)| is 1.4e-3 dB at 1e-4, 3.0e-3 at the 2e-4 default (mean 1.4e-3), 1.9e-2
# at 2.5e-4, 1.6e-2 at 3e-4 and 2.3e-2 at 1e-3, against the oracle tests' 0.01 dB.
LOCAL_ERROR_RANGE = (1e-8, 1e-3)


class PropagationError(RuntimeError):
    """A span's step was too long for its Kerr phase or stalled, or an amplifier input was dark."""


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
    """Lumped optical amplifier: restore-to-target when ``gain_db`` is None, else a fixed gain.

    A restoring amplifier brings the estimated mark level of the incoming
    signal to ``target_dbm``. ``target_dbm = None`` is a placeholder meaning
    "resolve against the transmitter launch power"; it must be resolved before
    :func:`amplify` is called. A fixed gain has no target.
    """

    label: ClassVar[str] = "AMP"
    gain_db: float | None = None
    target_dbm: float | None = None
    ase_enabled: bool = False
    noise_figure_db: float = 5.0

    def __post_init__(self) -> None:
        if self.gain_db is not None:
            if not (self.gain_db >= 0 and finite_db(self.gain_db)):
                raise ValueError(f"gain_db must be >= 0 and a finite ratio, got {self.gain_db}")
            if self.target_dbm is not None:
                raise ValueError(f"a fixed gain_db has no target_dbm, got {self.target_dbm}")
        if self.target_dbm is not None and not finite_db(self.target_dbm):
            raise ValueError(f"target_dbm must be finite in W, got {self.target_dbm}")
        if not finite_db(self.noise_figure_db):
            raise ValueError(f"noise_figure_db must be a finite ratio, got {self.noise_figure_db}")
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
    local_error: float = 2e-4

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

    def fixed_step_m(self, fiber: FiberParams) -> float:
        """The fixed-mode step dz of ``fiber``, in meters."""
        return fiber.length_km * 1e3 / self.fixed_steps(fiber)

    def span_group(self, fiber: FiberParams) -> FiberParams | tuple[FiberParams, float]:
        """The key that ``fiber`` shares with the spans it may resume or be resumed by.

        At fixed steps the first n steps of a span are those of any longer span
        of the same fiber apart from its length with the same dz, so the key is
        the fiber at length 0 and its dz. Adaptive steps depend on the length,
        so an adaptive span's key is the fiber itself.
        """
        if self.step_km is None:
            return fiber
        return replace(fiber, length_km=0.0), self.fixed_step_m(fiber)


def propagate_fiber(
    field: OpticalField,
    fiber: FiberParams,
    options: SsfmOptions | None = None,
) -> OpticalField:
    """Propagate a field through one fiber span by symmetric split-step Fourier.

    A symmetric step of size dz is a half linear step (dispersion + loss, in
    the frequency domain), a Kerr phase rotation over dz, and another half
    linear step. The rotation is a Taylor series sized from the step's peak
    phase, exact to round-off. The field is held as its spectrum between steps,
    so a step is one FFT pair, and the trailing and leading half steps of
    consecutive steps merge into one operator. Fixed mode takes equal steps.
    Adaptive mode advances by trials of 2h from a start spectrum: one coarse
    step of 2h and two fine steps of h, each closed by its half linear step,
    give U_c and U_f. The trial is accepted when the relative local error
    ``delta = |U_f - U_c| / |U_f|`` (that of the fields, by Parseval) is at
    most ``2 * local_error``, as ``(4 U_f - U_c) / 3``; otherwise h is halved
    and the trial retried. The local error scales as h^3, so an accepted trial
    scales h by ``(local_error / delta)^(1/3)``, at most doubling it (at
    ``delta <= local_error / 8``). The first trial is ``FIRST_TRIAL_M`` long,
    or the whole fiber if that is shorter. A step whose Kerr phase is over
    ``MAX_STEP_PHASE`` fails a fixed-step span and rejects an adaptive trial.
    Above 12 samples per bit, adaptive trials run over the bins |f| < 6x the
    bit rate only, as a spectrum of ``n_bits * 12`` bins with the same |A|^2;
    the bins outside take the exact linear operator of the whole fiber in one
    multiply, and the two are spliced before the closing inverse FFT. A field
    whose share of energy at |f| >= 3x the bit rate grows by more than
    ``local_error`` past its value at the first accepted trial restarts the
    fiber from its input over all samples; energy that starts outside the
    band, such as white noise, stays linear there. The total distance
    integrated is ``fiber.length_km``. The input field is left untouched.

    This is :func:`propagate_span` from step 0.
    """
    return propagate_span(field, fiber, options)[0]


def propagate_span(
    field: OpticalField,
    fiber: FiberParams,
    options: SsfmOptions | None = None,
    start: tuple[np.ndarray, int] | None = None,
    keep: bool = False,
) -> tuple[OpticalField, tuple[np.ndarray, int] | None]:
    """:func:`propagate_fiber`, resuming a fixed-step span mid-way or keeping its end.

    Returns the output field and ``end``: with ``keep`` set, the unclosed
    spectrum after the last step and the step count, else None. ``start =
    (spectrum, k)`` is the ``end`` of a span of k <= n steps in the same
    :meth:`SsfmOptions.span_group` from the same input: the loop resumes at
    step k and reads only the grid of ``field``. Only fixed-step spans resume
    or are kept.
    """
    if options is None:
        options = SsfmOptions()
    if options.step_km is None and (start or keep):
        raise ValueError("only a fixed-step span can resume or be kept")
    grid = field.grid
    length_m = fiber.length_km * 1e3
    if length_m == 0.0:
        return OpticalField(field.samples.copy(), grid), None

    beta2_si = d_to_beta2(fiber.dispersion_ps_nm_km, grid.center_wavelength) * 1e-27  # s^2/m
    alpha_si = loss_db_to_alpha(fiber.loss_db_km) * 1e-3  # 1/m
    gamma_si = fiber.gamma_per_w_km * 1e-3  # 1/(W m)
    # Per-meter exponent of the linear operator over bins 0..n/2. fftfreq makes
    # omega[n - k] exactly -omega[k], so set_ops mirrors it into the upper bins.
    n = grid.n_samples
    lin_rate = 0.5j * beta2_si * grid.omega()[: n // 2 + 1] ** 2 - 0.5 * alpha_si
    if options.step_km is not None:
        n_steps = options.fixed_steps(fiber)

    # numpy's FFT allocates an n-sample scratch array on every transform, and
    # glibc serves blocks above its mmap threshold (128 KiB at start-up) from
    # fresh mmaps that page-fault in full, step after step. Freeing a larger
    # mmapped block raises the threshold to its size (glibc ignores blocks over
    # 32 MiB), so the scratch and this call's own buffers, each one field size
    # or less, are reused from the heap instead. The block is never touched.
    np.empty(min(8 * field.samples.nbytes, 16 << 20), np.uint8)
    spec = np.fft.fft(field.samples) if start is None else start[0].copy()
    phase = 0.0  # the largest Kerr phase of the last split step

    def split_step(src: np.ndarray, dst: np.ndarray, op: np.ndarray, dz: float) -> bool:
        """Spectrum ``dst`` = linear operator ``op``, then Kerr rotation over ``dz``, on ``src``.

        Returns False, rotation and forward FFT left out, when ``phase`` is over
        ``MAX_STEP_PHASE`` or not finite.
        """
        nonlocal phase
        np.multiply(src, op, out=dst)
        np.fft.ifft(dst, out=dst)
        np.multiply(gamma_si * dz, abs2(dst), out=power)
        # The phase >= 0 is non-finite exactly where the rotated field would be.
        phase = np.max(power)
        if not phase <= MAX_STEP_PHASE:  # NaN included
            return False
        _kerr_rotation(power, phase, square, rotation)
        dst *= rotation
        np.fft.fft(dst, out=dst)
        return True

    def abs2(u: np.ndarray) -> np.ndarray:
        """``power`` = |u|^2 as re^2 + im^2, squared from u's float view into ``rotation``."""
        squares = np.square(u.view(np.float64), out=rotation.view(np.float64))
        return np.add(squares[0::2], squares[1::2], out=power)

    def norm2(u: np.ndarray) -> float:
        """The sum of |u|^2, left in ``power``, by numpy's own sum: a BLAS dot product
        of this size starts threads, which spin on the other cores between calls."""
        return float(abs2(u).sum())

    def set_ops(dz: float) -> None:
        """``half`` = the linear operator over dz / 2, ``full`` = over dz, on half's bins."""
        m = half.size // 2 + 1
        np.multiply(lin_rate[:m], dz / 2.0, out=half[:m])
        np.exp(half[:m], out=half[:m])
        half[m:] = half[1 : half.size - m + 1][::-1]
        np.multiply(half, half, out=full)

    if options.step_km is not None:
        power, square = np.empty(n), np.empty(n)
        rotation, half, full = (np.empty_like(spec) for _ in range(3))
        dz = options.fixed_step_m(fiber)
        set_ops(dz)
        for k in range(start[1] if start else 0, n_steps):
            if not split_step(spec, spec, full if k else half, dz):
                what = f"Kerr phase {phase:.3g} rad" if np.isfinite(phase) else "non-finite field"
                raise PropagationError(
                    f"{what} at z = {(k + 1) * dz / 1e3:.3f} km in {fiber.label}; "
                    "the step size is too large for this launch power"
                )
        # The last Kerr step left the field finite and already applied this half
        # (inside full), and |half| <= 1, so the closing half step cannot make
        # it non-finite. A kept spectrum stays unclosed.
        end = (spec, n_steps) if keep else None
        spec = np.multiply(spec, half, out=None if keep else spec)
        return OpticalField(np.fft.ifft(spec, out=spec), grid), end

    tol = options.local_error
    whole = spec  # the input spectrum, left as it is until the splice
    # The band's bins / (n / band) hold the band-limited field's |A|^2 at band
    # samples spread evenly over the frame, whether or not n / band is whole.
    for band in (grid.n_bits * 12, n) if grid.samples_per_bit > 12 else (n,):
        if band < n:
            spec = np.concatenate((whole[: band // 2], whole[n - band // 2 :]))
            spec /= n / band
        power, square = np.empty(band), np.empty(band)
        rotation, half, full, coarse, fine = (np.empty_like(spec) for _ in range(5))
        remaining, h, trials, edge = length_m, FIRST_TRIAL_M / 2.0, 0, None
        while remaining > 0.0:
            h = min(h, remaining / 2.0)
            if remaining - 2.0 * h == remaining or trials == MAX_STEPS_PER_SPAN:
                why = f"no step meets local_error = {tol:g}"
                if not phase <= MAX_STEP_PHASE:
                    why = f"the last trial's Kerr phase {phase:.3g} rad is over {MAX_STEP_PHASE:.3g}"
                raise PropagationError(
                    f"adaptive steps stall at z = {(length_m - remaining) / 1e3:.3f} km in "
                    f"{fiber.label}: step {2.0 * h:.3g} m after {trials} trials of at most "
                    f"{MAX_STEPS_PER_SPAN}; {why}"
                )
            trials += 1
            set_ops(h)
            delta = math.nan
            if (
                split_step(spec, coarse, full, 2.0 * h)
                and split_step(spec, fine, half, h)
                and split_step(fine, fine, full, h)
            ):
                coarse *= full
                fine *= half
                np.subtract(fine, coarse, out=coarse)
                err, ref = norm2(coarse), norm2(fine)
                delta = math.sqrt(err / ref if ref > 0.0 else err)
            # Written so that a NaN estimate rejects the trial.
            if not delta <= 2.0 * tol:
                h /= 2.0
                continue
            if band < n:  # norm2(fine) left its |U_f|^2 in power
                share = float(power[band // 4 : band - band // 4].sum()) / (ref or 1.0)
                edge = share if edge is None else edge
                if share - edge > tol:
                    break
            coarse /= 3.0
            fine += coarse
            spec, fine = fine, spec
            remaining -= 2.0 * h
            h *= (tol / max(delta, tol / 8.0)) ** (1.0 / 3.0)
        if remaining <= 0.0:
            break
        spec = whole
    # Free the step buffers so the splice and the closing FFT reuse their memory.
    del power, square, rotation, half, full, coarse, fine
    if band < n:
        outer = np.exp(lin_rate[band // 2 :] * length_m)
        whole[band // 2 : n // 2 + 1] *= outer
        whole[n // 2 + 1 : n - band // 2] *= outer[-2:0:-1]
        spec *= n / band
        whole[: band // 2], whole[n - band // 2 :] = spec[: band // 2], spec[band // 2 :]
        spec = whole
    return OpticalField(np.fft.ifft(spec, out=spec), grid), None


def _kerr_rotation(phi: np.ndarray, peak: float, scratch: np.ndarray, rotation: np.ndarray) -> None:
    """``rotation`` = e^{j phi} for 0 <= phi <= peak. t = phi^2 goes in rotation's first
    half, then sin(phi) in ``scratch`` and cos(phi) in ``phi``, so rotation is written last."""
    terms = bisect.bisect_right(_TAYLOR_PHASE, peak) + 2
    t = np.square(phi, out=rotation.view(np.float64)[: phi.size])
    np.multiply(_horner(_TAYLOR_SIN[:terms], t, scratch), phi, out=scratch)
    rotation.real, rotation.imag = _horner(_TAYLOR_COS[:terms], t, phi), scratch


def _horner(coeffs: tuple[float, ...], t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` = the sum of ``coeffs[j] * t**j`` over 2 or more terms, by Horner's rule."""
    np.multiply(t, coeffs[-1], out=out)
    for c in coeffs[-2:0:-1]:
        out += c
        out *= t
    return np.add(out, coeffs[0], out=out)


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
    ``B_sim`` is the simulation bandwidth ``1/dt``. A restoring amplifier
    raises :class:`PropagationError` on a dark input: it has no level to restore.
    """
    if amp.gain_db is not None:
        g_lin = 10.0 ** (amp.gain_db / 10.0)
    else:
        if amp.target_dbm is None:
            raise ValueError("restoring amplifier has no resolved target_dbm")
        est = _mark_level_estimate(np.abs(field.samples) ** 2)
        if est <= 0.0:
            raise PropagationError(f"dark input: mark-level power {est:.6g} W, nothing to restore")
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
