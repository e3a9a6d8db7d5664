from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import bessel, lti, step

import fiberlink as fl
from fiberlink.receiver import ELECTRON_CHARGE, MAX_BESSEL_ORDER, _bessel_response

GRID = fl.SamplingGrid(10e9, 64, 32, 1550e-9)
NOISELESS = fl.RxConfig(thermal_noise_psd=0.0, shot_noise=False)
BESSEL_4_8GHZ = fl.RxConfig(bessel_order=4, bessel_bandwidth=8e9)


def constant_field(power_w, grid=GRID):
    return fl.OpticalField(np.full(grid.n_samples, np.sqrt(power_w), dtype=complex), grid)


class TestPhotodetect:
    def test_noiseless_square_law(self):
        field = constant_field(2e-3)
        out = fl.photodetect(field, NOISELESS, np.random.default_rng(0))
        np.testing.assert_allclose(out.samples, 2e-3, rtol=1e-14)

    def test_responsivity_scaling(self):
        field = constant_field(1e-3)
        cfg = fl.RxConfig(responsivity=0.8, thermal_noise_psd=0.0, shot_noise=False)
        out = fl.photodetect(field, cfg, np.random.default_rng(0))
        np.testing.assert_allclose(out.samples, 0.8e-3, rtol=1e-14)

    def test_zero_field_noiseless(self):
        out = fl.photodetect(constant_field(0.0), NOISELESS, np.random.default_rng(0))
        np.testing.assert_array_equal(out.samples, 0.0)

    def test_thermal_noise_std(self):
        grid = fl.SamplingGrid(10e9, 1024, 32, 1550e-9)
        cfg = fl.RxConfig(thermal_noise_psd=1e-11, shot_noise=False)
        out = fl.photodetect(constant_field(0.0, grid), cfg, np.random.default_rng(8))
        expected = 1e-11 * np.sqrt(grid.sample_rate)
        assert float(np.std(out.samples)) == pytest.approx(expected, rel=0.05)
        assert float(np.mean(out.samples)) == pytest.approx(0.0, abs=5 * expected / np.sqrt(grid.n_samples))

    def test_shot_noise_variance(self):
        grid = fl.SamplingGrid(10e9, 1024, 32, 1550e-9)
        p = 1e-3
        cfg = fl.RxConfig(thermal_noise_psd=0.0, shot_noise=True)
        out = fl.photodetect(constant_field(p, grid), cfg, np.random.default_rng(9))
        expected_var = 2.0 * ELECTRON_CHARGE * 1.0 * p * grid.sample_rate
        assert float(np.var(out.samples)) == pytest.approx(expected_var, rel=0.05)

    def test_deterministic_for_seed(self):
        field = constant_field(1e-3)
        cfg = fl.RxConfig()
        a = fl.photodetect(field, cfg, np.random.default_rng(3))
        b = fl.photodetect(field, cfg, np.random.default_rng(3))
        np.testing.assert_array_equal(a.samples, b.samples)


class TestBesselLowpass:
    def test_dc_gain_exact(self):
        for order in range(1, MAX_BESSEL_ORDER + 1):
            h0 = _bessel_response(order, np.array([0.0]))[0]
            assert abs(abs(h0) - 1.0) < 1e-10

    def test_half_power_at_bandwidth(self):
        for order in range(1, MAX_BESSEL_ORDER + 1):
            h1 = _bessel_response(order, np.array([1.0]))[0]
            assert abs(h1) ** 2 == pytest.approx(0.5, rel=0.01)

    def test_matches_scipy_prototype(self):
        # scipy.signal is the independent oracle for the closed-form polynomial
        f = np.linspace(0.0, 20.0, 2001)
        for order in range(1, MAX_BESSEL_ORDER + 1):
            b, a = bessel(order, 1.0, btype="low", analog=True, norm="mag")
            expected = np.polyval(b, 1j * f) / np.polyval(a, 1j * f)
            np.testing.assert_allclose(_bessel_response(order, f), expected, rtol=0, atol=1e-13)

    def test_magnitude_monotone_decreasing(self):
        f = np.linspace(0.0, 6.0, 400)
        for order in (1, 2, 4, 8, 10):
            mags = np.abs(_bessel_response(order, f))
            assert np.all(np.diff(mags) <= 1e-12)

    def test_step_overshoot_below_one_percent(self):
        # route 1: textbook continuous-time step response of the prototype
        b, a = bessel(4, 1.0, btype="low", analog=True, norm="mag")
        t, y = step(lti(b, a), N=20000)
        overshoot_lti = float(y.max()) - 1.0
        assert overshoot_lti < 0.01
        # route 2: the FFT implementation on a long circular square pulse
        grid = fl.SamplingGrid(10e9, 64, 128, 1550e-9)
        sq = np.zeros(grid.n_samples)
        sq[grid.n_samples // 4 : 3 * grid.n_samples // 4] = 1.0
        out = fl.bessel_lowpass(fl.ElectricalWaveform(sq, grid), BESSEL_4_8GHZ)
        overshoot_fft = float(out.samples.max()) - 1.0
        assert overshoot_fft < 0.01
        # the two routes agree on the overshoot
        assert overshoot_fft == pytest.approx(overshoot_lti, abs=2e-3)

    def test_preserves_dc_level(self):
        wave = fl.ElectricalWaveform(np.full(GRID.n_samples, 3.3e-3), GRID)
        out = fl.bessel_lowpass(wave, BESSEL_4_8GHZ)
        np.testing.assert_allclose(out.samples, 3.3e-3, rtol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(-5.0, 5.0, allow_nan=False),
        b=st.floats(-5.0, 5.0, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=GRID.n_samples)
        y = rng.normal(size=GRID.n_samples)
        fx = fl.bessel_lowpass(fl.ElectricalWaveform(x, GRID), BESSEL_4_8GHZ).samples
        fy = fl.bessel_lowpass(fl.ElectricalWaveform(y, GRID), BESSEL_4_8GHZ).samples
        fxy = fl.bessel_lowpass(fl.ElectricalWaveform(a * x + b * y, GRID), BESSEL_4_8GHZ).samples
        np.testing.assert_allclose(fxy, a * fx + b * fy, atol=1e-9)

    def test_rejects_bandwidth_at_or_above_nyquist(self):
        wave = fl.ElectricalWaveform(np.zeros(GRID.n_samples), GRID)
        nyq = 0.5 * GRID.sample_rate
        with pytest.raises(ValueError, match="bandwidth"):
            fl.bessel_lowpass(wave, fl.RxConfig(bessel_bandwidth=nyq))
        with pytest.raises(ValueError, match="bandwidth"):
            fl.bessel_lowpass(wave, fl.RxConfig(bessel_bandwidth=2 * nyq))

    @pytest.mark.parametrize(
        "bandwidth", [1e-300, 0.99 * GRID.bit_rate / GRID.n_bits], ids=["tiny", "below_step"]
    )
    def test_rejects_bandwidth_below_frequency_step(self, bandwidth):
        # the grid's frequency step is 10 GHz / 64 bits = 156.25 MHz
        wave = fl.ElectricalWaveform(np.ones(GRID.n_samples), GRID)
        with pytest.raises(ValueError, match="at least its frequency step 1.5625e[+]08 Hz"):
            fl.bessel_lowpass(wave, fl.RxConfig(bessel_bandwidth=bandwidth))
        out = fl.bessel_lowpass(wave, fl.RxConfig(bessel_bandwidth=GRID.bit_rate / GRID.n_bits))
        np.testing.assert_allclose(out.samples, 1.0, rtol=1e-9)

    def test_rejects_bad_order(self):
        wave = fl.ElectricalWaveform(np.zeros(GRID.n_samples), GRID)
        with pytest.raises(ValueError, match="order"):
            fl.bessel_lowpass(wave, fl.RxConfig(bessel_order=0))
        with pytest.raises(ValueError, match="order"):
            fl.bessel_lowpass(wave, fl.RxConfig(bessel_order=MAX_BESSEL_ORDER + 1))


class TestReceive:
    @pytest.mark.parametrize("order", [4.0, True])
    def test_rejects_non_integer_bessel_order(self, order):
        # math.factorial would raise TypeError at run time instead
        with pytest.raises(TypeError, match="bessel_order must be an integer"):
            fl.LinkConfig(rx=fl.RxConfig(bessel_order=order))

    def test_composition_matches_stages(self):
        _, field = fl.transmit(fl.TxConfig(), GRID, np.random.default_rng(0))
        cfg = fl.RxConfig()
        direct = fl.receive(field, cfg, np.random.default_rng(77))
        staged = fl.bessel_lowpass(fl.photodetect(field, cfg, np.random.default_rng(77)), cfg)
        np.testing.assert_array_equal(direct.samples, staged.samples)

    def test_noiseless_constant_passthrough(self):
        out = fl.receive(constant_field(1e-3), NOISELESS, np.random.default_rng(0))
        np.testing.assert_allclose(out.samples, 1e-3, rtol=1e-9)

    def test_back_to_back_regression(self):
        # frozen full-chain baseline: transmitter straight into the receiver
        grid = fl.SamplingGrid(10e9, 1024, 32, 1550e-9)
        master = np.random.SeedSequence(42)
        tx_ss, _, rx_ss = master.spawn(3)
        bits, field = fl.transmit(fl.TxConfig(), grid, rng=np.random.default_rng(tx_ss))
        wave = fl.receive(field, fl.RxConfig(), np.random.default_rng(rx_ss))
        q = fl.estimate_q(wave, bits, 8)
        assert q.q_db == pytest.approx(47.524275966557, abs=0.5)
        assert q.ber == 1e-40
        assert q.jitter_ns < 0.005
