from __future__ import annotations

import collections
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fiberlink as fl
from conftest import centred_time

# frozen conversion oracles, computed from beta2 = -D lambda^2 / (2 pi c)
# with c = 299792458 m/s and lambda = 1550 nm
BETA2_D16 = -20.4071711919199  # ps^2/km
BETA2_DM80 = 102.0358559595995  # ps^2/km
ALPHA_02 = 0.046051701859880924  # 1/km for 0.2 dB/km

GRID64 = fl.SamplingGrid(10e9, 64, 32, 1550e-9)
# An adaptive fiber on GRID64 runs its split steps over 64 * 12 samples (|f| < 60 GHz)
BAND64 = GRID64.n_bits * 12


def gaussian(grid, t0=25e-12, peak_w=1.0):
    t = centred_time(grid)
    return fl.OpticalField((np.sqrt(peak_w) * np.exp(-(t**2) / (2 * t0**2))).astype(complex), grid)


def rms_width(field):
    t = centred_time(field.grid)
    p = np.abs(field.samples) ** 2
    w = p / p.sum()
    mu = float((t * w).sum())
    return float(np.sqrt(((t - mu) ** 2 * w).sum()))


def allocating_ssfm(field, fiber, options, band=None):
    """The split-step loops written with a fresh array for every operation. Adaptive
    steps run over ``band`` bins (by default, as many as propagate_span uses)."""
    grid = field.grid
    n = grid.n_samples
    if band is None:
        band = grid.n_bits * 12 if options.step_km is None and grid.samples_per_bit > 12 else n
    length_m = fiber.length_km * 1e3
    beta2_si = fl.d_to_beta2(fiber.dispersion_ps_nm_km, grid.center_wavelength) * 1e-27
    alpha_si = fl.loss_db_to_alpha(fiber.loss_db_km) * 1e-3
    gamma_si = fiber.gamma_per_w_km * 1e-3
    lin_rate = 0.5j * beta2_si * grid.omega() ** 2 - 0.5 * alpha_si

    def linear(e, op):
        return np.fft.ifft(np.fft.fft(e) * op)

    def kerr(e, dz):
        # e^{j phi} as Taylor polynomials in phi^2, with the fewest terms (at
        # least 2) whose first left out is under 2^-54 at the largest phase
        phi = gamma_si * dz * (e.real**2 + e.imag**2)
        terms = 2
        while phi.max() ** (2 * terms) / math.factorial(2 * terms) >= 2.0**-54:
            terms += 1
        cos = np.polyval(fl.fiber._TAYLOR_COS[terms - 1 :: -1], phi**2)
        sin = phi * np.polyval(fl.fiber._TAYLOR_SIN[terms - 1 :: -1], phi**2)
        return e * (cos + 1j * sin)

    e = field.samples
    if options.step_km is not None:
        steps = max(1, int(np.ceil(fiber.length_km / options.step_km - 1e-12)))
        dz = length_m / steps
        half = np.exp(lin_rate * (dz / 2.0))
        for k in range(steps):
            e = kerr(linear(e, half * half if k else half), dz)
        return linear(e, half)

    # adaptive mode holds the spectrum between trials, the bins |f| < band / 2
    # as a band-bin spectrum at the same |A|^2, and the bins outside apart
    def spectral_step(s, op, dz):
        return np.fft.fft(kerr(np.fft.ifft(s * op), dz))

    def inner(x):
        return np.concatenate((x[: band // 2], x[n - band // 2 :]))

    def abs2(x):
        return x.real**2 + x.imag**2

    out = np.fft.fft(e)
    s, rate, edge = inner(out) / (n / band), inner(lin_rate), None
    tol, remaining, h = options.local_error, length_m, fl.fiber.FIRST_TRIAL_M / 2.0
    while remaining > 0.0:
        h = min(h, remaining / 2.0)
        half = np.exp(rate * (h / 2.0))
        full = half * half
        coarse = spectral_step(s, full, 2.0 * h) * full
        fine = spectral_step(spectral_step(s, half, h), full, h) * half
        diff = fine - coarse
        delta = np.sqrt(np.sum(abs2(diff)) / np.sum(abs2(fine)))
        if not delta <= 2.0 * tol:
            h /= 2.0
            continue
        if band < n:
            # the share of energy at |f| >= band / 4 may not grow by more than
            # tol, else the fiber is rerun over all n bins
            share = np.sum(abs2(fine)[band // 4 : band - band // 4]) / np.sum(abs2(fine))
            edge = share if edge is None else edge
            if share - edge > tol:
                return allocating_ssfm(field, fiber, options, band=n)
        s = fine + diff / 3.0
        remaining -= 2.0 * h
        h *= (tol / max(delta, tol / 8.0)) ** (1.0 / 3.0)
    out *= np.exp(lin_rate * length_m)
    s *= n / band
    out[: band // 2], out[n - band // 2 :] = s[: band // 2], s[band // 2 :]
    return np.fft.ifft(out)


def cw_field(p0=0.05):
    return fl.OpticalField(np.full(GRID64.n_samples, np.sqrt(p0), dtype=complex), GRID64)


def count_calls(monkeypatch, namespace, names):
    """Record the calls made from here on to the functions ``names`` of ``namespace``,
    as (name, size of the first argument)."""
    calls = []
    for name in names:
        function = getattr(namespace, name)

        def counting(*args, _name=name, _function=function, **kwargs):
            calls.append((_name, np.size(args[0])))
            return _function(*args, **kwargs)

        monkeypatch.setattr(namespace, name, counting)
    return calls


def count_ffts(monkeypatch):
    """Record the FFTs made from here on, as (``"fft"`` or ``"ifft"``, size)."""
    return count_calls(monkeypatch, np.fft, ("fft", "ifft"))


def kerr_rotation(phi):
    """The split step's rotation e^{j phi} of the phases ``phi``, and the
    number of Taylor terms in each of its two series."""
    rotation, terms, horner = np.empty(phi.size, complex), [], fl.fiber._horner

    def counting(coeffs, *args):
        terms.append(len(coeffs))
        return horner(coeffs, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fl.fiber, "_horner", counting)
        fl.fiber._kerr_rotation(phi.copy(), float(phi.max()), np.empty(phi.size), rotation)
    return rotation, terms


def held_as_spectrum(steps, n, band=None):
    """The FFTs of a propagation that holds the field as its spectrum: one
    forward FFT of ``n`` samples in, one inverse + forward pair per split step
    over ``band`` samples (by default n), one inverse of n out."""
    return [("fft", n)] + [("ifft", band or n), ("fft", band or n)] * steps + [("ifft", n)]


def trial_parts(ffts):
    """The sizes of the runs of split steps between an adaptive propagation's first
    and last FFT, and the trials in each run, parsed from its FFTs.

    Three split steps (an inverse + forward pair each) make a trial. A split
    step over MAX_STEP_PHASE rejects its trial after its inverse FFT, so an
    inverse FFT with no forward one after it ends that trial. The last trial
    of each run is accepted, so it is whole.
    """
    parts = []
    for size, calls in itertools.groupby(ffts[1:-1], key=lambda call: call[1]):
        calls = "".join(f"{name} " for name, _ in calls)
        trials = re.findall(r"(?:ifft fft ){0,2}ifft (?!fft)|(?:ifft fft ){3}", calls)
        assert "".join(trials) == calls and trials[-1] == "ifft fft " * 3
        parts.append((size, trials))
    return parts


def n2_gaussian(power_scale):
    """The pulse and lossless 30 km fiber of test_adaptive_tracks_fixed, a Gaussian of
    soliton order N = 2 at power_scale = 1, and the fixed 1/64 km steps' output."""
    t0, gamma = 25e-12, 1.26677
    p0 = 4 * abs(fl.d_to_beta2(16.0, 1550e-9) * 1e-27) / (gamma * 1e-3 * t0**2)
    pulse = gaussian(GRID64, t0, power_scale * p0)
    fiber = fl.FiberParams(30.0, 16.0, 0.0, gamma)
    return pulse, fiber, fl.propagate_fiber(pulse, fiber, fl.SsfmOptions(step_km=1.0 / 64.0))


# CW on a lossless, dispersionless span: fixed mode takes ceil(10 / 0.3) = 34
# steps. The local-error estimate is round-off there, so adaptive mode accepts
# every trial: the first over FIRST_TRIAL_M = 5 km, the second over the 5 km
# left, each a coarse step and two fine ones. Per mode: options, steps or
# trials counted against MAX_STEPS_PER_SPAN, split steps.
CW_SPAN = fl.FiberParams(10.0, 0.0, 0.0, 2.0)
CW_CASES = [(fl.SsfmOptions(step_km=0.3), 34, 34), (fl.SsfmOptions(), 2, 6)]


class TestConversions:
    def test_beta2_frozen_values(self):
        assert fl.d_to_beta2(16.0, 1550e-9) == pytest.approx(BETA2_D16, rel=1e-12)
        assert fl.d_to_beta2(-80.0, 1550e-9) == pytest.approx(BETA2_DM80, rel=1e-12)
        assert fl.d_to_beta2(0.0, 1550e-9) == 0.0

    def test_beta2_sign_convention(self):
        # anomalous dispersion (D > 0) means beta2 < 0
        assert fl.d_to_beta2(17.0, 1550e-9) < 0.0
        assert fl.d_to_beta2(-100.0, 1550e-9) > 0.0

    def test_beta2_scales_with_wavelength_squared(self):
        r = fl.d_to_beta2(16.0, 1600e-9) / fl.d_to_beta2(16.0, 800e-9)
        assert r == pytest.approx(4.0, rel=1e-12)

    def test_loss_frozen_value(self):
        assert fl.loss_db_to_alpha(0.2) == pytest.approx(ALPHA_02, rel=1e-12)
        assert fl.loss_db_to_alpha(0.0) == 0.0

    def test_loss_24db_over_120km(self):
        alpha = fl.loss_db_to_alpha(0.2)
        assert np.exp(-alpha * 120.0) == pytest.approx(10 ** (-24.0 / 10.0), rel=1e-12)

    def test_loss_rejects_negative(self):
        with pytest.raises(ValueError):
            fl.loss_db_to_alpha(-0.1)


class TestParamValidation:
    def test_fiber_params(self):
        with pytest.raises(ValueError):
            fl.FiberParams(-1.0, 16.0, 0.2, 1.3)
        with pytest.raises(ValueError):
            fl.FiberParams(10.0, 250.0, 0.2, 1.3)
        with pytest.raises(ValueError):
            fl.FiberParams(10.0, 16.0, -0.2, 1.3)
        with pytest.raises(ValueError):
            fl.FiberParams(10.0, 16.0, 0.2, -1.3)
        with pytest.raises(ValueError):
            fl.FiberParams(10.0, 16.0, 0.2, 1.3, label="")

    def test_amplifier_params(self):
        with pytest.raises(ValueError, match="gain_db"):
            fl.AmplifierParams(gain_db=-3.0)
        with pytest.raises(ValueError, match="gain_db"):
            fl.AmplifierParams(gain_db=float("nan"))
        with pytest.raises(ValueError, match="target_dbm"):
            fl.AmplifierParams(gain_db=10.0, target_dbm=3.0)
        with pytest.raises(ValueError, match="noise_figure"):
            fl.AmplifierParams(gain_db=10.0, ase_enabled=True, noise_figure_db=2.0)

    def test_ssfm_options(self):
        with pytest.raises(ValueError):
            fl.SsfmOptions(step_km=0.0)
        for tol in (-0.1, 0.0, 1e-300, 9.9e-9, 1.01e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=r"local_error must lie in \[1e-08, 0\.001\]"):
                fl.SsfmOptions(local_error=tol)
        assert fl.SsfmOptions(local_error=1e-8).local_error == 1e-8
        assert fl.SsfmOptions(local_error=1e-3).local_error == 1e-3

    def test_ssfm_mode_is_derived(self):
        assert fl.SsfmOptions().mode == "adaptive"
        assert fl.SsfmOptions(step_km=0.1).mode == "fixed"
        with pytest.raises(TypeError):
            fl.SsfmOptions(mode="adaptive")


class TestLinearPropagation:
    def test_zero_length_identity(self):
        pulse = gaussian(GRID64)
        out = fl.propagate_fiber(pulse, fl.FiberParams(0.0, 16.0, 0.2, 1.3))
        np.testing.assert_array_equal(out.samples, pulse.samples)
        assert out is not pulse

    @pytest.mark.parametrize(
        ("length_km", "step_km"),
        [(10.0, 0.1), (10.0, None), (0.0, 0.1)],
        ids=["fixed", "adaptive", "zero_length"],
    )
    def test_input_field_untouched(self, length_km, step_km):
        # a sweep runs every child of a branch point from the same input field
        pulse = gaussian(GRID64, peak_w=0.1)
        before = pulse.samples.copy()
        fiber = fl.FiberParams(length_km, 16.0, 0.2, 1.3)
        out = fl.propagate_fiber(pulse, fiber, fl.SsfmOptions(step_km=step_km))
        np.testing.assert_array_equal(pulse.samples, before)
        assert not np.shares_memory(out.samples, pulse.samples)

    @pytest.mark.parametrize("z_frac", [0.5, 1.0, 2.0])
    def test_gaussian_broadening_oracle(self, z_frac):
        t0 = 25e-12
        pulse = gaussian(GRID64, t0)
        beta2 = fl.d_to_beta2(16.0, 1550e-9)
        ld_km = (t0 * 1e12) ** 2 / abs(beta2)
        fiber = fl.FiberParams(z_frac * ld_km, 16.0, 0.0, 0.0)
        out = fl.propagate_fiber(pulse, fiber)
        expected_ratio = np.sqrt(1.0 + z_frac**2)
        assert rms_width(out) / rms_width(pulse) == pytest.approx(expected_ratio, rel=5e-3)

    def test_gaussian_peak_at_dispersion_length(self):
        t0 = 25e-12
        pulse = gaussian(GRID64, t0)
        beta2 = fl.d_to_beta2(16.0, 1550e-9)
        ld_km = (t0 * 1e12) ** 2 / abs(beta2)
        out = fl.propagate_fiber(pulse, fl.FiberParams(ld_km, 16.0, 0.0, 0.0))
        # broadening by sqrt(2) with conserved energy scales the peak by 1/sqrt(2)
        assert np.max(np.abs(out.samples) ** 2) == pytest.approx(2.0**-0.5, rel=1e-6)
        energy_in = np.sum(np.abs(pulse.samples) ** 2)
        assert np.sum(np.abs(out.samples) ** 2) == pytest.approx(energy_in, rel=1e-9)

    def test_loss_only_samplewise(self):
        pulse = gaussian(GRID64)
        fiber = fl.FiberParams(37.5, 0.0, 0.3, 0.0)
        out = fl.propagate_fiber(pulse, fiber)
        alpha = fl.loss_db_to_alpha(0.3)
        expected = pulse.samples * np.exp(-alpha * 37.5 / 2.0)
        # atol floor covers FFT round-off on the pulse's underflowed tails
        np.testing.assert_allclose(out.samples, expected, rtol=1e-10, atol=1e-12)

    def test_linear_compensation_roundtrip(self):
        rng = np.random.default_rng(2024)
        samples = rng.normal(size=GRID64.n_samples) + 1j * rng.normal(size=GRID64.n_samples)
        field = fl.OpticalField(samples, GRID64)
        smf = fl.FiberParams(120.0, 16.0, 0.0, 0.0, label="SMF")
        dcf = fl.FiberParams(24.0, -80.0, 0.0, 0.0, label="DCF")
        out = fl.propagate_fiber(fl.propagate_fiber(field, smf), dcf)
        err = np.linalg.norm(out.samples - field.samples) / np.linalg.norm(field.samples)
        assert err < 1e-6

    @pytest.mark.parametrize(
        ("length_km", "trials"), [(80.0, 5), (1.0, 1), (0.001, 1)], ids=["80km", "1km", "1m"]
    )
    def test_adaptive_linear_span_exact(self, monkeypatch, length_km, trials):
        # with gamma = 0 the coarse and fine steps agree to round-off, so every
        # trial is accepted and h doubles after each: 80 km takes
        # 5 + 10 + 20 + 40 = 75 km in 4 trials and the rest in a 5th. A
        # fiber shorter than FIRST_TRIAL_M is one trial. The product of the
        # steps' operators must match the closed-form frequency-domain operator.
        pulse = gaussian(GRID64)
        fiber = fl.FiberParams(length_km, 16.0, 0.25, 0.0)
        ffts = count_ffts(monkeypatch)
        out = fl.propagate_fiber(pulse, fiber)
        assert ffts == held_as_spectrum(3 * trials, GRID64.n_samples, BAND64)
        omega = GRID64.omega()
        beta2 = fl.d_to_beta2(16.0, 1550e-9) * 1e-27
        alpha = fl.loss_db_to_alpha(0.25) * 1e-3
        op = np.exp((0.5j * beta2 * omega**2 - 0.5 * alpha) * length_km * 1e3)
        expected = np.fft.ifft(np.fft.fft(pulse.samples) * op)
        np.testing.assert_allclose(out.samples, expected, rtol=0, atol=1e-12)

    def test_adaptive_band_is_exact_without_kerr(self, monkeypatch):
        # white noise puts half its energy outside the band; with gamma = 0 the
        # bins outside take exp(lin_rate L) exactly and the band's trials
        # multiply up to it, so banded and full-band runs agree to round-off
        rng = np.random.default_rng(3)
        n = GRID64.n_samples
        field = fl.OpticalField(0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n)), GRID64)
        fiber = fl.FiberParams(80.0, 16.0, 0.25, 0.0)
        ffts = count_ffts(monkeypatch)
        out = fl.propagate_fiber(field, fiber).samples
        assert ffts == held_as_spectrum(3 * 5, n, BAND64)
        full_band = allocating_ssfm(field, fiber, fl.SsfmOptions(), band=n)
        assert np.linalg.norm(out - full_band) <= 1e-12 * np.linalg.norm(full_band)


class TestNonlinearPropagation:
    @staticmethod
    def assert_energy_conserved(seed, scale, length_km):
        """Propagate noise of amplitude ``scale`` over a lossless fiber at adaptive
        steps and check its energy; returns the :func:`trial_parts` of its FFTs."""
        rng = np.random.default_rng(seed)
        samples = scale * (rng.normal(size=GRID64.n_samples) + 1j * rng.normal(size=GRID64.n_samples))
        field = fl.OpticalField(samples, GRID64)
        fiber = fl.FiberParams(length_km, 16.0, 0.0, 1.3)
        # adaptive steps (criterion 5 checks fixed steps). Without loss, a trial's
        # u_f and u_c are unitary images of its start field, so |u_f| = |u_c| gives
        # Re<u_f, u_f - u_c> = |u_f - u_c|^2 / 2, and the extrapolation
        # u = u_f + (u_f - u_c) / 3 has |u|^2 = |u_f|^2 (1 + 4 delta^2 / 9). An
        # accepted trial has delta <= 2 tol, so T trials raise the energy by at
        # most (1 + 16 tol^2 / 9)^T - 1: ~3e-5 for the 413-462 trials of 120 km at
        # scale 0.03 that restart, against ~6.8e-6 seen, and 5.6e-6 for the 79 of
        # one that stays on the band, against 5.2e-7; round-off is ~1e-13.
        # The bins outside the band turn by a unit-modulus operator, and a
        # restart's band trials only count in T. The energies are ~1e-11 J, so
        # abs=0 keeps pytest.approx's default abs=1e-12 from hiding the bound.
        tol = fl.SsfmOptions().local_error
        with pytest.MonkeyPatch.context() as mp:
            ffts = count_ffts(mp)
            out = fl.propagate_fiber(field, fiber)
        # Held as its spectrum: one forward FFT in and one inverse out over all
        # n samples, and the trials over the band, then over n if the fiber
        # restarted.
        n = GRID64.n_samples
        assert ffts[0] == ("fft", n) and ffts[-1] == ("ifft", n)
        parts = trial_parts(ffts)
        assert [size for size, _ in parts] in ([BAND64], [BAND64, n])
        trials = sum(len(part) for _, part in parts)
        bound = (1.0 + 16.0 * tol**2 / 9.0) ** trials - 1.0
        energy_in = np.sum(np.abs(field.samples) ** 2) * GRID64.dt
        energy_out = np.sum(np.abs(out.samples) ** 2) * GRID64.dt
        assert energy_out == pytest.approx(energy_in, rel=bound, abs=0)
        return parts

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_energy_conserved_lossless(self, seed):
        self.assert_energy_conserved(seed, 0.03, 120.0)

    @pytest.mark.parametrize("seed", [0, 1, 513])
    def test_lossless_trials_follow_error_estimate(self, seed):
        # h follows delta, so these take 462, 413 and 79 trials, every trial
        # over the band and, after a restart, over the full grid counted. Seeds
        # 0 and 1 spread past the band's middle by 2.2e-4 and 2.0e-4 and restart
        # after 74 and 24 band trials; seed 513 grows by 4.5e-5 and stays on the
        # band. h held on a 2^(1/3) lattice took 601-614 on the full grid, as
        # where the lattice fell decided the count.
        parts = self.assert_energy_conserved(seed, 0.03, 120.0)
        assert [size for size, _ in parts] == [BAND64] + [GRID64.n_samples] * (seed != 513)
        assert sum(len(trials) for _, trials in parts) <= 520

    def test_energy_conserved_through_phase_rejected_trials(self):
        # at 1.7 W of peak power the first 5 km trial's coarse Kerr phase is 11 rad,
        # over MAX_STEP_PHASE, so its split step is cut short. The field also
        # spreads past the band's middle (by 4.3e-4 after 4 accepted trials), so the
        # fiber restarts on all n samples.
        parts = self.assert_energy_conserved(513, 0.3, 10.0)
        assert [size for size, _ in parts] == [BAND64, GRID64.n_samples]
        assert any(trial != "ifft fft " * 3 for _, trials in parts for trial in trials)

    @pytest.mark.parametrize("step_km", [0.1, None], ids=["fixed", "adaptive"])
    def test_spm_only_pure_phase(self, step_km):
        p0 = 0.05
        field = fl.OpticalField(np.full(GRID64.n_samples, np.sqrt(p0), dtype=complex), GRID64)
        fiber = fl.FiberParams(10.0, 0.0, 0.0, 2.0)
        out = fl.propagate_fiber(field, fiber, fl.SsfmOptions(step_km=step_km))
        expected_phase = 2.0e-3 * p0 * 10e3  # gamma[1/(W m)] * P * L[m]
        phases = np.angle(out.samples * np.conj(field.samples))
        np.testing.assert_allclose(phases, expected_phase, atol=1e-4)
        np.testing.assert_allclose(np.abs(out.samples), np.sqrt(p0), rtol=1e-12)

    def test_kerr_rotation_to_round_off(self):
        # Each phase of a dense grid up to MAX_STEP_PHASE as its own peak, so
        # that each term count meets the largest phase it serves, then the
        # phases where the count changes, one ulp below, at and one ulp above.
        limits = fl.fiber._TAYLOR_PHASE
        assert len(fl.fiber._TAYLOR_COS) == len(fl.fiber._TAYLOR_SIN) == len(limits) + 1
        assert limits[-1] > fl.fiber.MAX_STEP_PHASE
        peaks = np.concatenate([
            np.linspace(0.0, fl.fiber.MAX_STEP_PHASE, 4001),
            [p for lim in limits for p in (np.nextafter(lim, 0.0), lim, np.nextafter(lim, 4.0))],
        ])
        for peak in peaks[peaks <= fl.fiber.MAX_STEP_PHASE]:
            rotation, terms = kerr_rotation(np.array([peak]))
            # the fewest terms, at least 2, whose first left out is under 2^-54,
            # to the rounding of the limits
            k = terms[0]
            assert terms == [k, k]
            first_left_out = [peak ** (2 * i) / math.factorial(2 * i) for i in (k - 1, k)]
            assert first_left_out[1] < 2.0**-54 * (1 + 1e-12)
            assert k == 2 or first_left_out[0] >= 2.0**-54 * (1 - 1e-12)
            assert abs(rotation[0] - np.exp(1j * peak)) <= (2.3e-16 if peak <= 1.0 else 2e-15)

    @pytest.mark.parametrize("peak", [*fl.fiber._TAYLOR_PHASE[:-1], fl.fiber.MAX_STEP_PHASE])
    def test_kerr_rotation_of_many_phases(self, peak):
        # the phases below the peak take the peak's terms
        phi = np.linspace(0.0, np.nextafter(peak, 0.0), 4097)
        rotation, _ = kerr_rotation(phi)
        error = np.abs(rotation - np.exp(1j * phi))
        assert error.max() <= (2.3e-16 if peak <= 1.0 else 2e-15)
        assert np.abs(np.abs(rotation) - 1.0).max() <= 9e-16

    @pytest.mark.parametrize("step_km", [0.5, None], ids=["fixed", "adaptive"])
    def test_split_steps_call_no_cos_or_sin(self, monkeypatch, step_km):
        pulse = gaussian(GRID64, peak_w=0.1)
        calls = count_calls(monkeypatch, np, ("cos", "sin"))
        ffts = count_ffts(monkeypatch)
        fiber = fl.FiberParams(10.0, 16.0, 0.2, 1.3)
        fl.propagate_fiber(pulse, fiber, fl.SsfmOptions(step_km=step_km))
        assert len(ffts) > 4 and calls == []

    def test_fundamental_soliton_invariance(self):
        t0 = 25e-12
        gamma = 1.26677
        beta2 = fl.d_to_beta2(16.0, 1550e-9)
        p0 = abs(beta2 * 1e-27) / (gamma * 1e-3 * t0**2)
        ld_km = (t0 * 1e12) ** 2 / abs(beta2)
        t = centred_time(GRID64)
        sol = fl.OpticalField((np.sqrt(p0) / np.cosh(t / t0)).astype(complex), GRID64)
        fiber = fl.FiberParams(2 * ld_km, 16.0, 0.0, gamma)
        out = fl.propagate_fiber(sol, fiber)
        assert np.max(np.abs(out.samples) ** 2) == pytest.approx(p0, rel=0.01)
        assert rms_width(out) == pytest.approx(rms_width(sol), rel=0.01)

    def test_step_halving_second_order(self):
        # strongly nonlinear pulse so the splitting error dominates
        t0 = 25e-12
        gamma = 1.26677
        beta2 = fl.d_to_beta2(16.0, 1550e-9)
        p0 = 4 * abs(beta2 * 1e-27) / (gamma * 1e-3 * t0**2)
        pulse = gaussian(GRID64, t0, p0)
        fiber = fl.FiberParams(30.0, 16.0, 0.0, gamma)

        def run(step_km):
            return fl.propagate_fiber(pulse, fiber, fl.SsfmOptions(step_km=step_km)).samples

        ref = run(1.0 / 64.0)
        norm = np.linalg.norm(ref)
        err_coarse = np.linalg.norm(run(0.5) - ref) / norm
        err_fine = np.linalg.norm(run(0.25) - ref) / norm
        ratio = err_coarse / err_fine
        assert 3.4 <= ratio <= 4.6

    def test_adaptive_tracks_fixed(self):
        t0 = 25e-12
        gamma = 1.26677
        beta2 = fl.d_to_beta2(16.0, 1550e-9)
        p0 = 4 * abs(beta2 * 1e-27) / (gamma * 1e-3 * t0**2)
        pulse = gaussian(GRID64, t0, p0)
        fiber = fl.FiberParams(30.0, 16.0, 0.0, gamma)
        fine = fl.propagate_fiber(pulse, fiber, fl.SsfmOptions(step_km=1.0 / 64.0))
        for tol in (1e-3, 1e-4):
            adaptive = fl.propagate_fiber(pulse, fiber, fl.SsfmOptions(local_error=tol))
            err = np.linalg.norm(adaptive.samples - fine.samples) / np.linalg.norm(fine.samples)
            assert err < tol

    def test_adaptive_tracks_fixed_on_lossy_span(self):
        # loss shrinks the power, so the accepted steps grow along the span
        pulse = gaussian(GRID64, peak_w=0.01)
        fiber = fl.FiberParams(80.0, 16.0, 0.2, 1.3)
        fine = fl.propagate_fiber(pulse, fiber, fl.SsfmOptions(step_km=1.0 / 64.0))
        for tol in (1e-3, 1e-4):
            adaptive = fl.propagate_fiber(pulse, fiber, fl.SsfmOptions(local_error=tol))
            err = np.linalg.norm(adaptive.samples - fine.samples) / np.linalg.norm(fine.samples)
            assert err < tol

    def test_broadening_field_restarts_on_full_grid(self, monkeypatch):
        # An N = 2 Gaussian compresses: run over the band alone its error
        # against fixed 1/64 km steps is 48%, and its energy share at |f| >=
        # 3x the bit rate grows by 0.11. The guard sends it back to all n
        # samples, where it takes the steps of a full-grid run.
        pulse, fiber, _ = n2_gaussian(1.0)
        ffts = count_ffts(monkeypatch)
        out = fl.propagate_fiber(pulse, fiber)
        assert [size for size, _ in trial_parts(ffts)] == [BAND64, GRID64.n_samples]
        full_band = allocating_ssfm(pulse, fiber, fl.SsfmOptions(), band=GRID64.n_samples)
        assert np.array_equal(out.samples, full_band)

    def test_quarter_power_gaussian_stays_in_band(self, monkeypatch):
        # at 1/4 of the power the share grows by ~4e-6 and the band holds
        pulse, fiber, fine = n2_gaussian(0.25)
        for tol in (1e-3, 1e-4):
            with pytest.MonkeyPatch.context() as mp:
                ffts = count_ffts(mp)
                adaptive = fl.propagate_fiber(pulse, fiber, fl.SsfmOptions(local_error=tol))
            assert [size for size, _ in trial_parts(ffts)] == [BAND64]
            err = np.linalg.norm(adaptive.samples - fine.samples) / np.linalg.norm(fine.samples)
            assert err < tol

    def test_six_tenths_power_gaussian_restarts(self, monkeypatch):
        # at 0.6x the power the band alone errs 6.2e-3 and its share grows by
        # 3.5e-3, so the fiber restarts and is held to its tolerance
        pulse, fiber, fine = n2_gaussian(0.6)
        ffts = count_ffts(monkeypatch)
        adaptive = fl.propagate_fiber(pulse, fiber, fl.SsfmOptions(local_error=1e-4))
        assert [size for size, _ in trial_parts(ffts)] == [BAND64, GRID64.n_samples]
        err = np.linalg.norm(adaptive.samples - fine.samples) / np.linalg.norm(fine.samples)
        assert err < 1e-4

    def test_white_noise_restarts_on_full_grid(self, monkeypatch):
        # white noise holds 5/8 of its energy outside the band, where it stays
        # linear: run over the band alone it errs 49% against fine fixed steps.
        # Its share at |f| >= 3x the bit rate grows by 2.2e-4, past local_error.
        rng = np.random.default_rng(0)
        n = GRID64.n_samples
        field = fl.OpticalField(0.03 * (rng.normal(size=n) + 1j * rng.normal(size=n)), GRID64)
        fiber = fl.FiberParams(120.0, 16.0, 0.0, 1.3)
        fine = fl.propagate_fiber(field, fiber, fl.SsfmOptions(step_km=0.05)).samples
        ffts = count_ffts(monkeypatch)
        out = fl.propagate_fiber(field, fiber).samples
        assert [size for size, _ in trial_parts(ffts)] == [BAND64, n]
        assert np.linalg.norm(out - fine) / np.linalg.norm(fine) < 5e-3

    @staticmethod
    def noise_field(samples_per_bit, scale):
        grid = fl.SamplingGrid(10e9, 64, samples_per_bit, 1550e-9)
        rng = np.random.default_rng(samples_per_bit)
        n = grid.n_samples
        return fl.OpticalField(scale * (rng.normal(size=n) + 1j * rng.normal(size=n)), grid)

    def test_no_band_at_8_samples_per_bit(self, monkeypatch):
        # a band of 12 samples per bit would be more than the whole grid
        field = self.noise_field(8, 0.05)
        n = field.grid.n_samples
        fiber = fl.FiberParams(10.0, 16.0, 0.2, 1.3)
        ffts = count_ffts(monkeypatch)
        out = fl.propagate_fiber(field, fiber)
        assert {size for _, size in ffts} == {n}
        assert np.array_equal(out.samples, allocating_ssfm(field, fiber, fl.SsfmOptions(), band=n))

    def test_band_at_16_samples_per_bit(self, monkeypatch):
        # 1,024 samples, of which the split steps run over 768: the band scales
        # by n / band = 4/3 and the field keeps its |A|^2. At this power the
        # share at |f| >= 3x the bit rate grows by 9.2e-5 and the band holds
        # (at 0.05 it grows by 3.0e-4 and the fiber restarts).
        field = self.noise_field(16, 0.02)
        fiber = fl.FiberParams(10.0, 16.0, 0.2, 1.3)
        ffts = count_ffts(monkeypatch)
        out = fl.propagate_fiber(field, fiber)
        assert [size for size, _ in trial_parts(ffts)] == [64 * 12]
        assert np.array_equal(out.samples, allocating_ssfm(field, fiber, fl.SsfmOptions()))

    @pytest.mark.parametrize("step_km", [0.5, None], ids=["fixed", "adaptive"])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_allocating_stepper(self, step_km, seed):
        rng = np.random.default_rng(seed)
        scale = 10 ** rng.uniform(-2.5, -1.0)
        samples = scale * (rng.normal(size=GRID64.n_samples) + 1j * rng.normal(size=GRID64.n_samples))
        field = fl.OpticalField(samples, GRID64)
        fiber = fl.FiberParams(
            rng.uniform(1.0, 20.0), rng.choice([-1, 1]) * rng.uniform(1.0, 100.0),
            rng.uniform(0.1, 0.6), rng.uniform(0.5, 3.0),
        )
        options = fl.SsfmOptions(step_km=step_km)
        out = fl.propagate_fiber(field, fiber, options)
        assert np.array_equal(out.samples, allocating_ssfm(field, fiber, options))

    @pytest.mark.parametrize(("options", "steps", "split_steps"), CW_CASES, ids=["fixed", "adaptive"])
    def test_one_fft_pair_per_step(self, monkeypatch, options, steps, split_steps):
        ffts = count_ffts(monkeypatch)
        fl.propagate_fiber(cw_field(), CW_SPAN, options)
        band = BAND64 if options.mode == "adaptive" else None
        assert ffts == held_as_spectrum(split_steps, GRID64.n_samples, band)

    def test_default_run_trial_count(self, monkeypatch):
        # The default link at seed 42 has 4 fibers (24, 120, 120 and 24 km) at
        # adaptive steps. Each makes one forward FFT in and one inverse out over
        # all 32,768 samples, and each of its trials 3 of each when no split step
        # is cut short by MAX_STEP_PHASE. The trials run over the 12,288 bins of
        # |f| < 6x the bit rate, so their FFTs are counted by size: the band
        # takes 36 trials, and no fiber restarts.
        # Unlike the run time, the trial count does not drift with the host.
        ffts = count_ffts(monkeypatch)
        fl.run_link_full(fl.LinkConfig())
        assert collections.Counter(ffts) == {
            ("fft", 32768): 4, ("ifft", 32768): 4, ("fft", 12288): 3 * 36, ("ifft", 12288): 3 * 36,
        }

    @pytest.mark.parametrize(("case", "bound"), [("default_smf", 3), ("restart", 5)])
    def test_closing_transform_runs_without_step_buffers(self, monkeypatch, case, bound):
        # The memory traced at an adaptive span's closing inverse FFT over all
        # n samples, above that at its start, in field sizes of 16 n bytes. The
        # band loop's seven step buffers (~2.3 field sizes on the band of 3/8 n
        # bins, 6 on the full grid) are freed by then. Left are the input
        # spectrum, half-grid lin_rate and the outer bins' operator: ~2.0 on
        # the default SMF. Seed 1 restarts after 24 band trials and ends on a
        # step buffer besides the input spectrum: ~4.0. Holding the buffers
        # read 4.3 and 9.1.
        n = GRID64.n_samples
        if case == "default_smf":
            field = fl.transmit(fl.TxConfig(), GRID64, np.random.default_rng(42))[1]
            fiber = fl.LinkConfig().smf
        else:
            rng = np.random.default_rng(1)
            field = fl.OpticalField(0.03 * (rng.normal(size=n) + 1j * rng.normal(size=n)), GRID64)
            fiber = fl.FiberParams(120.0, 16.0, 0.0, 1.3)
        ifft, traced = np.fft.ifft, []

        def recording(a, *args, **kwargs):
            if np.size(a) == n:
                traced.append(tracemalloc.get_traced_memory()[0])
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", recording)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fl.propagate_fiber(field, fiber)
        finally:
            tracemalloc.stop()
        assert (traced[-1] - start) / (16 * n) < bound

    def test_span_resumes_from_kept_end(self):
        # 2 km and 4 km of one fiber at 1 km steps share their first 2 steps
        rng = np.random.default_rng(7)
        samples = 0.1 * (rng.normal(size=GRID64.n_samples) + 1j * rng.normal(size=GRID64.n_samples))
        field = fl.OpticalField(samples, GRID64)
        options = fl.SsfmOptions(step_km=1.0)
        short, long_ = (fl.FiberParams(km, 16.0, 0.2, 1.3) for km in (2.0, 4.0))
        assert options.span_group(short) == options.span_group(long_)
        out, end = fl.propagate_span(field, short, options, keep=True)
        assert end[1] == 2
        assert np.array_equal(out.samples, fl.propagate_fiber(field, short, options).samples)
        resumed, not_kept = fl.propagate_span(field, long_, options, start=end)
        assert not_kept is None
        assert np.array_equal(resumed.samples, fl.propagate_fiber(field, long_, options).samples)

    @pytest.mark.parametrize(
        "kwargs", [{"start": (np.zeros(GRID64.n_samples, complex), 1)}, {"keep": True}],
        ids=["start", "keep"],
    )
    def test_adaptive_span_neither_resumes_nor_is_kept(self, kwargs):
        fiber = fl.FiberParams(2.0, 16.0, 0.2, 1.3)
        with pytest.raises(ValueError, match="only a fixed-step span can resume or be kept"):
            fl.propagate_span(cw_field(), fiber, fl.SsfmOptions(), **kwargs)

    @pytest.mark.parametrize(("options", "steps", "split_steps"), CW_CASES, ids=["fixed", "adaptive"])
    def test_step_cap(self, monkeypatch, options, steps, split_steps):
        monkeypatch.setattr(fl.fiber, "MAX_STEPS_PER_SPAN", steps)
        fl.propagate_fiber(cw_field(), CW_SPAN, options)
        monkeypatch.setattr(fl.fiber, "MAX_STEPS_PER_SPAN", steps - 1)
        with pytest.raises(ValueError if options.mode == "fixed" else fl.PropagationError):
            fl.propagate_fiber(cw_field(), CW_SPAN, options)

    def test_fixed_step_cap_checked_before_stepping(self):
        fiber = fl.FiberParams(120.0, 16.0, 0.2, 1.3)
        with pytest.raises(ValueError, match=r"SMF of 120\.0 km at step_km = 1e-09 needs 1\.2e\+11 steps"):
            fl.propagate_fiber(cw_field(), fiber, fl.SsfmOptions(step_km=1e-9))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize(
        ("p0", "gamma"), [(1e308, 1.3), (0.05, 1e300)], ids=["overflow", "huge_gamma"]
    )
    def test_adaptive_step_that_does_not_advance_aborts(self, p0, gamma):
        # every trial is rejected, down to a step that no longer advances z:
        # at 1e308 W the first trials' Kerr phases overflow, and a non-finite
        # estimate must reject them
        fiber = fl.FiberParams(10.0, 16.0, 0.2, gamma)
        with pytest.raises(fl.PropagationError, match="stall at z = 0.000 km in SMF"):
            fl.propagate_fiber(cw_field(p0), fiber)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_aborts_with_position(self):
        # a nonlinear phase that overflows to inf makes the field non-finite
        pulse = gaussian(GRID64, peak_w=100.0)
        fiber = fl.FiberParams(1.0, 0.0, 0.0, 1e308)
        with pytest.raises(fl.PropagationError, match=r"non-finite field at z = 0\.100 km in SMF"):
            fl.propagate_fiber(pulse, fiber, fl.SsfmOptions(step_km=0.1))


class TestAmplify:
    def test_fixed_zero_db_identity(self):
        pulse = gaussian(GRID64)
        out = fl.amplify(pulse, fl.AmplifierParams(gain_db=0.0))
        np.testing.assert_allclose(out.samples, pulse.samples, rtol=1e-14)

    def test_fixed_gain_power(self):
        pulse = gaussian(GRID64)
        out = fl.amplify(pulse, fl.AmplifierParams(gain_db=24.0))
        ratio = np.mean(np.abs(out.samples) ** 2) / np.mean(np.abs(pulse.samples) ** 2)
        assert ratio == pytest.approx(10 ** 2.4, rel=1e-12)

    def test_restore_constant_field_exact(self):
        field = fl.OpticalField(np.full(GRID64.n_samples, np.sqrt(4e-6), dtype=complex), GRID64)
        out = fl.amplify(field, fl.AmplifierParams(target_dbm=0.0))
        np.testing.assert_allclose(np.abs(out.samples) ** 2, 1e-3, rtol=1e-12)

    def test_restore_after_lossy_span(self):
        bits, field = fl.transmit(fl.TxConfig(linewidth_hz=0.0), GRID64)
        lossy = fl.FiberParams(120.0, 0.0, 0.2, 0.0)
        attenuated = fl.propagate_fiber(field, lossy)
        restored = fl.amplify(attenuated, fl.AmplifierParams(target_dbm=0.0))
        spb = GRID64.samples_per_bit
        power = np.abs(restored.samples.reshape(64, spb)) ** 2
        marks = power[bits.bits == 1, spb // 4 : (3 * spb) // 4]
        assert float(np.mean(marks)) == pytest.approx(1e-3, rel=0.01)

    def test_restore_dark_input_raises(self):
        field = fl.OpticalField(np.zeros(GRID64.n_samples, dtype=complex), GRID64)
        with pytest.raises(fl.PropagationError, match="dark input"):
            fl.amplify(field, fl.AmplifierParams(target_dbm=0.0))

    def test_restore_unresolved_target_rejected(self):
        field = gaussian(GRID64)
        with pytest.raises(ValueError, match="target"):
            fl.amplify(field, fl.AmplifierParams(target_dbm=None))

    def test_ase_noise_power(self):
        p_in = 1e-5
        field = fl.OpticalField(np.full(GRID64.n_samples, np.sqrt(p_in), dtype=complex), GRID64)
        amp = fl.AmplifierParams(gain_db=20.0, ase_enabled=True, noise_figure_db=5.0)
        out = fl.amplify(field, amp, np.random.default_rng(11))
        g = 100.0
        nsp = 10 ** 0.5 / 2.0
        nu = 2.99792458e8 / 1550e-9
        expected_ase = (g - 1.0) * nsp * 6.62607015e-34 * nu * GRID64.sample_rate
        noise = out.samples - np.sqrt(g) * field.samples
        measured = float(np.mean(np.abs(noise) ** 2))
        assert measured == pytest.approx(expected_ase, rel=0.05)

    def test_no_ase_below_unity_gain(self):
        field = gaussian(GRID64, peak_w=1e-3)
        amp = fl.AmplifierParams(gain_db=0.0, ase_enabled=True)
        out = fl.amplify(field, amp, np.random.default_rng(3))
        np.testing.assert_allclose(out.samples, field.samples, rtol=1e-14)

    def test_ase_requires_rng(self):
        field = gaussian(GRID64)
        amp = fl.AmplifierParams(gain_db=10.0, ase_enabled=True)
        with pytest.raises(ValueError, match="rng"):
            fl.amplify(field, amp)

    def test_ase_deterministic_for_seed(self):
        field = gaussian(GRID64)
        amp = fl.AmplifierParams(gain_db=10.0, ase_enabled=True)
        a = fl.amplify(field, amp, np.random.default_rng(5))
        b = fl.amplify(field, amp, np.random.default_rng(5))
        np.testing.assert_array_equal(a.samples, b.samples)
