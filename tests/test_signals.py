from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fiberlink as fl
from fiberlink.signals import ALLOWED_SAMPLES_PER_BIT, MAX_FFT_SAMPLES


class TestMakeGrid:
    def test_default_style_grid(self):
        grid = fl.SamplingGrid(10e9, 1024, 32, 1550e-9)
        assert grid.n_samples == 32768
        assert grid.dt == pytest.approx(1.0 / 320e9, rel=1e-15)
        assert grid.bit_period == pytest.approx(100e-12, rel=1e-15)
        assert grid.sample_rate == pytest.approx(320e9, rel=1e-15)
        assert grid.duration == pytest.approx(1024 * 100e-12, rel=1e-12)
        assert grid.df == pytest.approx(1.0 / grid.duration, rel=1e-12)

    def test_spb_sixteen(self):
        grid = fl.SamplingGrid(10e9, 64, 16, 1550e-9)
        assert grid.dt == pytest.approx(1.0 / 160e9, rel=1e-15)
        assert grid.n_samples == 1024

    def test_time_axis(self, grid_tiny):
        t = grid_tiny.time()
        assert t[0] == 0.0
        assert t[-1] == pytest.approx((grid_tiny.n_samples - 1) * grid_tiny.dt)
        assert np.all(np.diff(t) > 0)

    def test_omega_matches_fftfreq(self, grid_tiny):
        np.testing.assert_allclose(
            grid_tiny.omega(),
            2 * np.pi * np.fft.fftfreq(grid_tiny.n_samples, grid_tiny.dt),
        )

    @pytest.mark.parametrize("spb", [1, 2, 4, 12, 20, 256])
    def test_rejects_bad_samples_per_bit(self, spb):
        with pytest.raises(ValueError, match="samples_per_bit"):
            fl.SamplingGrid(10e9, 64, spb, 1550e-9)

    @pytest.mark.parametrize("n_bits", [8, 15, 100, 1000])
    def test_rejects_bad_n_bits(self, n_bits):
        with pytest.raises(ValueError, match="n_bits"):
            fl.SamplingGrid(10e9, n_bits, 32, 1550e-9)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="bit_rate"):
            fl.SamplingGrid(0.0, 64, 32, 1550e-9)
        with pytest.raises(ValueError, match="bit_rate"):
            fl.SamplingGrid(-1e9, 64, 32, 1550e-9)

    def test_rejects_fft_overflow(self):
        assert 1 << 20 >= 16
        with pytest.raises(ValueError, match="FFT"):
            fl.SamplingGrid(10e9, 1 << 20, 128, 1550e-9)

    def test_rejects_non_integer_sizes(self):
        with pytest.raises(TypeError):
            fl.SamplingGrid(10e9, 64.0, 32, 1550e-9)
        with pytest.raises(TypeError):
            fl.SamplingGrid(10e9, 64, 32.0, 1550e-9)

    def test_grid_is_immutable(self, grid_tiny):
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid_tiny.n_bits = 32


class TestContainers:
    def test_field_rejects_wrong_length(self, grid_tiny):
        with pytest.raises(ValueError, match="samples"):
            fl.OpticalField(np.zeros(grid_tiny.n_samples - 1, dtype=complex), grid_tiny)

    def test_field_rejects_non_finite(self, grid_tiny):
        bad = np.zeros(grid_tiny.n_samples, dtype=complex)
        bad[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fl.OpticalField(bad, grid_tiny)

    def test_field_rejects_2d(self, grid_tiny):
        with pytest.raises(ValueError, match="one-dimensional"):
            fl.OpticalField(np.zeros((2, grid_tiny.n_samples // 2), dtype=complex), grid_tiny)

    def test_waveform_coerces_to_float(self, grid_tiny):
        w = fl.ElectricalWaveform(np.ones(grid_tiny.n_samples, dtype=int), grid_tiny)
        assert w.samples.dtype == np.float64


class TestPowerAndEnergy:
    def test_constant_field(self, grid_tiny):
        p0 = 2.5e-3
        field = fl.OpticalField(np.full(grid_tiny.n_samples, np.sqrt(p0), dtype=complex), grid_tiny)
        assert fl.mean_power(field) == pytest.approx(p0, rel=1e-14)
        assert fl.peak_power(field) == pytest.approx(p0, rel=1e-14)
        assert fl.energy(field) == pytest.approx(p0 * grid_tiny.duration, rel=1e-14)

    def test_zero_field(self, grid_tiny):
        field = fl.OpticalField(np.zeros(grid_tiny.n_samples, dtype=complex), grid_tiny)
        assert fl.mean_power(field) == 0.0
        assert fl.peak_power(field) == 0.0
        assert fl.energy(field) == 0.0

    def test_single_hot_sample(self, grid_tiny):
        samples = np.zeros(grid_tiny.n_samples, dtype=complex)
        samples[5] = 3.0
        field = fl.OpticalField(samples, grid_tiny)
        assert fl.peak_power(field) == pytest.approx(9.0)
        assert fl.mean_power(field) == pytest.approx(9.0 / grid_tiny.n_samples)
        assert fl.energy(field) == pytest.approx(9.0 * grid_tiny.dt)


GRID_TINY = fl.SamplingGrid(10e9, 16, 8, 1550e-9)


class TestSpectrum:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=GRID_TINY.n_samples) + 1j * rng.normal(size=GRID_TINY.n_samples)
        field = fl.OpticalField(samples, GRID_TINY)
        back = fl.inverse_spectrum(fl.spectrum(field), GRID_TINY)
        np.testing.assert_allclose(back.samples, field.samples, rtol=0, atol=1e-12 * np.abs(samples).max())

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_parseval(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=GRID_TINY.n_samples) + 1j * rng.normal(size=GRID_TINY.n_samples)
        field = fl.OpticalField(samples, GRID_TINY)
        spec = fl.spectrum(field)
        e_time = np.sum(np.abs(samples) ** 2)
        e_freq = np.sum(np.abs(spec) ** 2)
        assert e_freq == pytest.approx(e_time, rel=1e-10)

    def test_single_tone_concentrates(self, grid_tiny):
        k = 7
        t = grid_tiny.time()
        tone = np.exp(2j * np.pi * k * grid_tiny.df * t)
        spec = fl.spectrum(fl.OpticalField(tone, grid_tiny))
        mags = np.abs(spec)
        assert np.argmax(mags) == k
        others = np.delete(mags, k)
        assert np.max(others) < 1e-10 * mags[k]

    def test_inverse_rejects_wrong_shape(self, grid_tiny):
        with pytest.raises(ValueError, match="shape"):
            fl.inverse_spectrum(np.zeros(3, dtype=complex), grid_tiny)


class TestUnits:
    def test_dbm_to_watts(self):
        assert fl.dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
        assert fl.dbm_to_watts(10.0) == pytest.approx(1e-2, rel=1e-15)
        assert fl.dbm_to_watts(-30.0) == pytest.approx(1e-6, rel=1e-15)

    def test_watts_to_dbm_roundtrip(self):
        for p in (-17.0, 0.0, 3.0, 12.5):
            assert fl.watts_to_dbm(fl.dbm_to_watts(p)) == pytest.approx(p, abs=1e-12)

    def test_watts_to_dbm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fl.watts_to_dbm(0.0)
        with pytest.raises(ValueError):
            fl.watts_to_dbm(-1e-3)


def test_allowed_spb_constant():
    assert ALLOWED_SAMPLES_PER_BIT == (8, 16, 32, 64, 128)
    assert MAX_FFT_SAMPLES == 2**24
