from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fiberlink as fl

# frozen conversion oracles, computed from beta2 = -D lambda^2 / (2 pi c)
# with c = 299792458 m/s and lambda = 1550 nm
BETA2_D16 = -20.4071711919199  # ps^2/km
BETA2_DM80 = 102.0358559595995  # ps^2/km
ALPHA_02 = 0.046051701859880924  # 1/km for 0.2 dB/km

GRID64 = fl.SamplingGrid(10e9, 64, 32, 1550e-9)


def gaussian(grid, t0=25e-12, peak_w=1.0):
    t = grid.time() - grid.duration / 2
    return fl.OpticalField((np.sqrt(peak_w) * np.exp(-(t**2) / (2 * t0**2))).astype(complex), grid)


def rms_width(field):
    t = field.grid.time()
    p = np.abs(field.samples) ** 2
    w = p / p.sum()
    mu = float((t * w).sum())
    return float(np.sqrt(((t - mu) ** 2 * w).sum()))


def allocating_ssfm(field, fiber, options):
    """The split-step loops written with a fresh array for every operation."""
    grid = field.grid
    length_m = fiber.length_km * 1e3
    beta2_si = fl.d_to_beta2(fiber.dispersion_ps_nm_km, grid.center_wavelength) * 1e-27
    alpha_si = fl.loss_db_to_alpha(fiber.loss_db_km) * 1e-3
    gamma_si = fiber.gamma_per_w_km * 1e-3
    lin_rate = 0.5j * beta2_si * grid.omega() ** 2 - 0.5 * alpha_si

    def linear(e, op):
        return np.fft.ifft(np.fft.fft(e) * op)

    def split_step(e, op, dz):
        e = linear(e, op)
        return e * np.exp(1j * gamma_si * dz * np.abs(e) ** 2)

    e = field.samples
    if options.step_km is not None:
        n = max(1, int(np.ceil(fiber.length_km / options.step_km - 1e-12)))
        dz = length_m / n
        half = np.exp(lin_rate * (dz / 2.0))
        for k in range(n):
            e = split_step(e, half * half if k else half, dz)
        return linear(e, half)

    tol, remaining, h = options.local_error, length_m, length_m / 2.0
    while remaining > 0.0:
        h = min(h, remaining / 2.0)
        half = np.exp(lin_rate * (h / 2.0))
        full = half * half
        coarse = linear(split_step(e, full, 2.0 * h), full)
        fine = linear(split_step(split_step(e, half, h), full, h), half)
        diff = fine - coarse
        delta = np.sqrt(np.sum(np.abs(diff) ** 2) / np.sum(np.abs(fine) ** 2))
        if not delta <= 2.0 * tol:
            h /= 2.0
            continue
        e = fine + diff / 3.0
        remaining -= 2.0 * h
        if delta > tol:
            h /= 2.0 ** (1.0 / 3.0)
        elif delta < tol / 2.0:
            h *= 2.0 ** (1.0 / 3.0)
    return e


def cw_field(p0=0.05):
    return fl.OpticalField(np.full(GRID64.n_samples, np.sqrt(p0), dtype=complex), GRID64)


def count_ffts(monkeypatch):
    """Count the forward FFTs made from here on; each pairs with one inverse."""
    calls = []
    fft = np.fft.fft

    def counting_fft(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    return calls


# CW on a lossless, dispersionless span: fixed mode takes ceil(10 / 0.3) = 34
# steps and one closing half step. The local-error estimate is round-off there,
# so adaptive mode accepts its first trial, over the whole span: a coarse step,
# two fine ones and a closing linear step after each. Per mode: options, steps
# or trials counted against MAX_STEPS_PER_SPAN, FFT pairs.
CW_SPAN = fl.FiberParams(10.0, 0.0, 0.0, 2.0)
CW_CASES = [(fl.SsfmOptions(step_km=0.3), 34, 34 + 1), (fl.SsfmOptions(), 1, 3 + 2)]


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
            fl.AmplifierParams(mode="fixed")
        with pytest.raises(ValueError):
            fl.AmplifierParams(mode="fixed", gain_db=-3.0)
        with pytest.raises(ValueError, match="mode"):
            fl.AmplifierParams(mode="agc")
        with pytest.raises(ValueError, match="noise_figure"):
            fl.AmplifierParams(mode="fixed", gain_db=10.0, ase_enabled=True, noise_figure_db=2.0)

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
        # sweep resumes later rows from saved prefix fields, so they must not change
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
        assert fl.peak_power(out) == pytest.approx(2.0**-0.5, rel=1e-6)
        assert fl.energy(out) == pytest.approx(fl.energy(pulse), rel=1e-9)

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

    def test_adaptive_linear_single_step_exact(self, monkeypatch):
        # with gamma = 0 the coarse and fine steps agree to round-off, so the
        # adaptive integrator takes the span in one trial, which must match
        # the closed-form frequency-domain operator
        pulse = gaussian(GRID64)
        fiber = fl.FiberParams(80.0, 16.0, 0.25, 0.0)
        ffts = count_ffts(monkeypatch)
        out = fl.propagate_fiber(pulse, fiber)
        assert len(ffts) == 5
        omega = GRID64.omega()
        beta2 = fl.d_to_beta2(16.0, 1550e-9) * 1e-27
        alpha = fl.loss_db_to_alpha(0.25) * 1e-3
        op = np.exp((0.5j * beta2 * omega**2 - 0.5 * alpha) * 80e3)
        expected = np.fft.ifft(np.fft.fft(pulse.samples) * op)
        np.testing.assert_allclose(out.samples, expected, rtol=0, atol=1e-12)


class TestNonlinearPropagation:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_energy_conserved_lossless(self, seed):
        rng = np.random.default_rng(seed)
        scale = 0.03
        samples = scale * (rng.normal(size=GRID64.n_samples) + 1j * rng.normal(size=GRID64.n_samples))
        field = fl.OpticalField(samples, GRID64)
        fiber = fl.FiberParams(120.0, 16.0, 0.0, 1.3)
        # adaptive steps: the extrapolation (4 u_f - u_c) / 3 is not unitary, but
        # it adds only 4 delta^2 / 9 of energy per trial (criterion 5 checks fixed steps)
        out = fl.propagate_fiber(field, fiber)
        assert fl.energy(out) == pytest.approx(fl.energy(field), rel=1e-6)

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

    def test_fundamental_soliton_invariance(self):
        t0 = 25e-12
        gamma = 1.26677
        beta2 = fl.d_to_beta2(16.0, 1550e-9)
        p0 = abs(beta2 * 1e-27) / (gamma * 1e-3 * t0**2)
        ld_km = (t0 * 1e12) ** 2 / abs(beta2)
        t = GRID64.time() - GRID64.duration / 2
        sol = fl.OpticalField((np.sqrt(p0) / np.cosh(t / t0)).astype(complex), GRID64)
        fiber = fl.FiberParams(2 * ld_km, 16.0, 0.0, gamma)
        out = fl.propagate_fiber(sol, fiber)
        assert fl.peak_power(out) == pytest.approx(p0, rel=0.01)
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

    @pytest.mark.parametrize(("options", "steps", "fft_pairs"), CW_CASES, ids=["fixed", "adaptive"])
    def test_one_fft_pair_per_step(self, monkeypatch, options, steps, fft_pairs):
        # one pair per split step and one per closing linear step
        ffts = count_ffts(monkeypatch)
        fl.propagate_fiber(cw_field(), CW_SPAN, options)
        assert len(ffts) == fft_pairs

    @pytest.mark.parametrize(("options", "steps", "fft_pairs"), CW_CASES, ids=["fixed", "adaptive"])
    def test_step_cap(self, monkeypatch, options, steps, fft_pairs):
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
        out = fl.amplify(pulse, fl.AmplifierParams(mode="fixed", gain_db=0.0))
        np.testing.assert_allclose(out.samples, pulse.samples, rtol=1e-14)

    def test_fixed_gain_power(self):
        pulse = gaussian(GRID64)
        out = fl.amplify(pulse, fl.AmplifierParams(mode="fixed", gain_db=24.0))
        ratio = fl.mean_power(out) / fl.mean_power(pulse)
        assert ratio == pytest.approx(10 ** 2.4, rel=1e-12)

    def test_restore_constant_field_exact(self):
        field = fl.OpticalField(np.full(GRID64.n_samples, np.sqrt(4e-6), dtype=complex), GRID64)
        out = fl.amplify(field, fl.AmplifierParams(mode="restore", target_dbm=0.0))
        np.testing.assert_allclose(np.abs(out.samples) ** 2, 1e-3, rtol=1e-12)

    def test_restore_after_lossy_span(self):
        bits, field = fl.transmit(fl.TxConfig(linewidth_hz=0.0), GRID64)
        lossy = fl.FiberParams(120.0, 0.0, 0.2, 0.0)
        attenuated = fl.propagate_fiber(field, lossy)
        restored = fl.amplify(attenuated, fl.AmplifierParams(mode="restore", target_dbm=0.0))
        spb = GRID64.samples_per_bit
        power = np.abs(restored.samples.reshape(64, spb)) ** 2
        marks = power[bits.bits == 1, spb // 4 : (3 * spb) // 4]
        assert float(np.mean(marks)) == pytest.approx(1e-3, rel=0.01)

    def test_restore_dark_input_is_identity(self):
        field = fl.OpticalField(np.zeros(GRID64.n_samples, dtype=complex), GRID64)
        out = fl.amplify(field, fl.AmplifierParams(mode="restore", target_dbm=0.0))
        np.testing.assert_array_equal(out.samples, 0.0)

    def test_restore_unresolved_target_rejected(self):
        field = gaussian(GRID64)
        with pytest.raises(ValueError, match="target"):
            fl.amplify(field, fl.AmplifierParams(mode="restore", target_dbm=None))

    def test_ase_noise_power(self):
        p_in = 1e-5
        field = fl.OpticalField(np.full(GRID64.n_samples, np.sqrt(p_in), dtype=complex), GRID64)
        amp = fl.AmplifierParams(
            mode="fixed", gain_db=20.0, ase_enabled=True, noise_figure_db=5.0
        )
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
        amp = fl.AmplifierParams(mode="fixed", gain_db=0.0, ase_enabled=True)
        out = fl.amplify(field, amp, np.random.default_rng(3))
        np.testing.assert_allclose(out.samples, field.samples, rtol=1e-14)

    def test_ase_requires_rng(self):
        field = gaussian(GRID64)
        amp = fl.AmplifierParams(mode="fixed", gain_db=10.0, ase_enabled=True)
        with pytest.raises(ValueError, match="rng"):
            fl.amplify(field, amp)

    def test_ase_deterministic_for_seed(self):
        field = gaussian(GRID64)
        amp = fl.AmplifierParams(mode="fixed", gain_db=10.0, ase_enabled=True)
        a = fl.amplify(field, amp, np.random.default_rng(5))
        b = fl.amplify(field, amp, np.random.default_rng(5))
        np.testing.assert_array_equal(a.samples, b.samples)
