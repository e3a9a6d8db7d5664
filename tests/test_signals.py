from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import fiberlink as fl
from fiberlink.signals import ALLOWED_SAMPLES_PER_BIT, MAX_FFT_SAMPLES


class TestMakeGrid:
    def test_default_style_grid(self):
        grid = fl.SamplingGrid(10e9, 1024, 32, 1550e-9)
        assert grid.n_samples == 32768
        assert grid.dt == pytest.approx(1.0 / 320e9, rel=1e-15)
        assert grid.bit_period == pytest.approx(100e-12, rel=1e-15)
        assert grid.sample_rate == pytest.approx(320e9, rel=1e-15)

    def test_spb_sixteen(self):
        grid = fl.SamplingGrid(10e9, 64, 16, 1550e-9)
        assert grid.dt == pytest.approx(1.0 / 160e9, rel=1e-15)
        assert grid.n_samples == 1024

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


class TestUnits:
    def test_dbm_to_watts(self):
        assert fl.dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
        assert fl.dbm_to_watts(10.0) == pytest.approx(1e-2, rel=1e-15)
        assert fl.dbm_to_watts(-30.0) == pytest.approx(1e-6, rel=1e-15)


def test_allowed_spb_constant():
    assert ALLOWED_SAMPLES_PER_BIT == (8, 16, 32, 64, 128)
    assert MAX_FFT_SAMPLES == 2**24
