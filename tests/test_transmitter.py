from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fiberlink as fl
from fiberlink.transmitter import DEFAULT_LFSR_SEED, PRBS_TAPS


def lfsr_reference(order: int, taps: tuple[int, int], seed: int, n: int) -> list[int]:
    """Independent straight-line LFSR enumeration used as the test oracle."""
    mask = (1 << order) - 1
    state = seed & mask
    out = []
    for _ in range(n):
        fb = ((state >> (taps[0] - 1)) & 1) ^ ((state >> (taps[1] - 1)) & 1)
        out.append(fb)
        state = ((state << 1) | fb) & mask
    return out


class TestPrbs:
    def test_order7_period_and_balance(self):
        seq = fl.prbs_generate(7, 1, 254)
        first, second = seq.bits[:127], seq.bits[127:]
        np.testing.assert_array_equal(first, second)
        assert int(first.sum()) == 64  # 2**6 ones per period
        # no shorter period divides 127 (prime), so check all rotations differ
        assert any(first[0] != first[k] for k in range(1, 127))

    def test_order7_all_states_distinct(self):
        # walk the register directly and confirm a full 127-state cycle
        mask = (1 << 7) - 1
        state = 1
        seen = set()
        for _ in range(127):
            assert state not in seen and state != 0
            seen.add(state)
            fb = ((state >> 6) & 1) ^ ((state >> 5) & 1)
            state = ((state << 1) | fb) & mask
        assert state == 1
        assert len(seen) == 127

    def test_matches_reference_enumeration(self):
        ref = lfsr_reference(7, PRBS_TAPS[7], 1, 300)
        seq = fl.prbs_generate(7, 1, 300)
        np.testing.assert_array_equal(seq.bits, np.array(ref, dtype=np.uint8))

    @pytest.mark.parametrize("order", [7, 9, 11])
    def test_one_period_balance(self, order):
        period = 2**order - 1
        seq = fl.prbs_generate(order, 1, period)
        assert int(seq.bits.sum()) == 2 ** (order - 1)

    @pytest.mark.parametrize("order", [15, 23, 31])
    def test_wide_orders_produce_bits(self, order):
        seq = fl.prbs_generate(order, 12345, 2048)
        assert len(seq) == 2048
        # ones fraction of a maximal-length slice stays near one half
        assert 0.4 < seq.bits.mean() < 0.6

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            fl.prbs_generate(7, 0, 10)
        with pytest.raises(ValueError, match="seed"):
            fl.prbs_generate(7, 128, 10)  # == 0 modulo 2**7

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            fl.prbs_generate(8, 1, 10)

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ValueError, match="n_bits"):
            fl.prbs_generate(7, 1, 0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(1, 126))
    def test_any_seed_same_cycle(self, seed):
        # every nonzero start state walks the same 127-cycle, so the period
        # and balance are seed-independent
        seq = fl.prbs_generate(7, seed, 127)
        assert int(seq.bits.sum()) == 64


class TestNrzDrive:
    def test_all_ones_is_flat(self, grid64):
        bits = fl.BitSequence(np.ones(64, dtype=np.uint8), "const")
        drive = fl.nrz_drive(bits, grid64, 0.25)
        np.testing.assert_allclose(drive.samples, 1.0)

    def test_all_zeros_is_flat(self, grid64):
        bits = fl.BitSequence(np.zeros(64, dtype=np.uint8), "const")
        drive = fl.nrz_drive(bits, grid64, 0.25)
        np.testing.assert_allclose(drive.samples, 0.0)

    def test_alternating_matches_trapezoid_oracle(self):
        grid = fl.make_grid(10e9, 16, 32, 1550e-9)
        bits = fl.BitSequence(np.tile([0, 1], 8).astype(np.uint8), "alt")
        drive = fl.nrz_drive(bits, grid, 0.25)

        # independent construction: explicit breakpoints + linear interpolation
        t_bit = grid.bit_period
        half = 0.125 * t_bit
        xs, ys = [], []
        for k in range(17):  # boundaries at k * t_bit; level after boundary k is bit k%16
            level_after = float(bits.bits[k % 16])
            level_before = float(bits.bits[(k - 1) % 16])
            xs.extend([k * t_bit - half, k * t_bit + half])
            ys.extend([level_before, level_after])
        t = grid.time()
        expected = np.interp(t, xs, ys)
        # the wrap of the first half-edge comes from the last bit
        lead = t < xs[0] + 2 * half
        np.testing.assert_allclose(drive.samples[~lead], expected[~lead], atol=1e-12)
        # leading edge: bit -1 is bits[15] = 1, bit 0 is 0, ramp centered at t=0
        ramp = (t >= 0) & (t < half)
        np.testing.assert_allclose(
            drive.samples[ramp], 1.0 + (0.0 - 1.0) * (t[ramp] + half) / (0.25 * t_bit), atol=1e-12
        )

    def test_within_unit_range_and_flat_centers(self, grid64):
        bits = fl.prbs_generate(7, 1, 64)
        drive = fl.nrz_drive(bits, grid64, 0.25)
        assert np.all(drive.samples >= 0.0) and np.all(drive.samples <= 1.0)
        spb = grid64.samples_per_bit
        centers = drive.samples.reshape(64, spb)[:, spb // 4 : (3 * spb) // 4]
        expected = np.broadcast_to(bits.bits.astype(float)[:, None], centers.shape)
        np.testing.assert_allclose(centers, expected, atol=1e-12)

    def test_bit_count_mismatch(self, grid64):
        bits = fl.BitSequence(np.ones(32, dtype=np.uint8), "const")
        with pytest.raises(ValueError, match="bits"):
            fl.nrz_drive(bits, grid64)

    @pytest.mark.parametrize("rt", [0.0, 0.5, 0.7, -0.1])
    def test_bad_rise_time(self, grid64, rt):
        bits = fl.BitSequence(np.ones(64, dtype=np.uint8), "const")
        with pytest.raises(ValueError, match="rise_time"):
            fl.nrz_drive(bits, grid64, rt)


class TestCwLaser:
    def test_zero_linewidth_constant(self, grid64):
        field = fl.cw_laser(grid64, 2e-3, 0.0)
        np.testing.assert_allclose(field.samples, np.sqrt(2e-3), rtol=0, atol=1e-15)

    def test_power_exact(self, grid64):
        field = fl.cw_laser(grid64, 1.5e-3, 10e6, np.random.default_rng(0))
        np.testing.assert_allclose(np.abs(field.samples) ** 2, 1.5e-3, rtol=1e-12)

    def test_zero_linewidth_single_bin(self, grid64):
        field = fl.cw_laser(grid64, 1e-3, 0.0)
        spec = np.abs(fl.spectrum(field))
        assert np.argmax(spec) == 0
        assert np.max(spec[1:]) < 1e-12 * spec[0]

    def test_requires_rng_for_noise(self, grid64):
        with pytest.raises(ValueError, match="rng"):
            fl.cw_laser(grid64, 1e-3, 10e6, None)

    def test_rejects_negative_inputs(self, grid64):
        with pytest.raises(ValueError):
            fl.cw_laser(grid64, -1.0, 0.0)
        with pytest.raises(ValueError):
            fl.cw_laser(grid64, 1.0, -5.0)

    def test_lorentzian_linewidth(self):
        # averaged periodogram over 100 independent seeds; interpolated
        # half-max crossings estimate the FWHM
        grid = fl.make_grid(10e9, 4096, 8, 1550e-9)
        target = 100e6
        acc = np.zeros(grid.n_samples)
        for s in range(100):
            field = fl.cw_laser(grid, 1.0, target, np.random.default_rng(1000 + s))
            acc += np.abs(np.fft.fft(field.samples, norm="ortho")) ** 2
        acc = np.fft.fftshift(acc / 100)
        freqs = np.fft.fftshift(np.fft.fftfreq(grid.n_samples, grid.dt))
        half = acc.max() / 2
        above = np.nonzero(acc >= half)[0]
        lo, hi = above[0], above[-1]

        def crossing(i_in, i_out):
            return freqs[i_in] + (half - acc[i_in]) * (freqs[i_out] - freqs[i_in]) / (
                acc[i_out] - acc[i_in]
            )

        fwhm = crossing(hi, hi + 1) - crossing(lo, lo - 1)
        assert fwhm == pytest.approx(target, rel=0.20)


class TestMzModulate:
    def test_full_drive_passes(self, grid64):
        laser = fl.cw_laser(grid64, 1e-3, 0.0)
        drive = fl.ElectricalWaveform(np.ones(grid64.n_samples), grid64)
        out = fl.mz_modulate(laser, drive, 30.0)
        np.testing.assert_allclose(np.abs(out.samples) ** 2, 1e-3, rtol=1e-12)

    def test_zero_drive_extinction(self, grid64):
        laser = fl.cw_laser(grid64, 1e-3, 0.0)
        drive = fl.ElectricalWaveform(np.zeros(grid64.n_samples), grid64)
        out = fl.mz_modulate(laser, drive, 30.0)
        np.testing.assert_allclose(np.abs(out.samples) ** 2, 1e-6, rtol=1e-9)

    def test_half_drive_infinite_extinction(self, grid64):
        laser = fl.cw_laser(grid64, 1.0, 0.0)
        drive = fl.ElectricalWaveform(np.full(grid64.n_samples, 0.5), grid64)
        out = fl.mz_modulate(laser, drive, float("inf"))
        np.testing.assert_allclose(np.abs(out.samples) ** 2, 0.5, rtol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(level=st.floats(0.0, 1.0), er=st.floats(3.0, 60.0))
    def test_never_amplifies(self, level, er):
        grid = fl.make_grid(10e9, 16, 8, 1550e-9)
        laser = fl.cw_laser(grid, 1e-3, 0.0)
        drive = fl.ElectricalWaveform(np.full(grid.n_samples, level), grid)
        out = fl.mz_modulate(laser, drive, er)
        assert np.all(np.abs(out.samples) <= np.abs(laser.samples) + 1e-15)

    def test_chirp_free(self, grid64):
        # a phase-modulated carrier keeps its phase exactly
        phase = 0.7
        field = fl.OpticalField(
            np.full(grid64.n_samples, np.sqrt(1e-3) * np.exp(1j * phase)), grid64
        )
        drive = fl.ElectricalWaveform(np.full(grid64.n_samples, 0.3), grid64)
        out = fl.mz_modulate(field, drive, 30.0)
        np.testing.assert_allclose(np.angle(out.samples), phase, atol=1e-12)

    def test_rejects_out_of_range_drive(self, grid64):
        laser = fl.cw_laser(grid64, 1e-3, 0.0)
        bad = np.zeros(grid64.n_samples)
        bad[0] = 1.2
        with pytest.raises(ValueError, match="0, 1"):
            fl.mz_modulate(laser, fl.ElectricalWaveform(bad, grid64), 30.0)

    def test_rejects_grid_mismatch(self, grid64, grid_tiny):
        laser = fl.cw_laser(grid64, 1e-3, 0.0)
        drive = fl.ElectricalWaveform(np.zeros(grid_tiny.n_samples), grid_tiny)
        with pytest.raises(ValueError, match="grid"):
            fl.mz_modulate(laser, drive, 30.0)


class TestTransmit:
    def test_mark_power_is_launch_power(self, grid64):
        cfg = fl.TxConfig()
        bits, field = fl.transmit(cfg, grid64, np.random.default_rng(0))
        spb = grid64.samples_per_bit
        power = np.abs(field.samples.reshape(64, spb)) ** 2
        centers = power[bits.bits == 1, spb // 4 : (3 * spb) // 4]
        assert float(np.mean(centers)) == pytest.approx(1e-3, rel=1e-12)

    def test_space_power_at_extinction(self, grid64):
        cfg = fl.TxConfig(extinction_db=30.0, linewidth_hz=0.0)
        bits, field = fl.transmit(cfg, grid64)
        spb = grid64.samples_per_bit
        power = np.abs(field.samples.reshape(64, spb)) ** 2
        spaces = power[bits.bits == 0, spb // 4 : (3 * spb) // 4]
        assert float(np.mean(spaces)) == pytest.approx(1e-6, rel=1e-6)

    def test_deterministic_for_seed(self, grid64):
        cfg = fl.TxConfig()
        _, f1 = fl.transmit(cfg, grid64, np.random.default_rng(7))
        _, f2 = fl.transmit(cfg, grid64, np.random.default_rng(7))
        np.testing.assert_array_equal(f1.samples, f2.samples)

    def test_uses_prbs_pattern(self, grid64):
        bits, _ = fl.transmit(fl.TxConfig(), grid64, np.random.default_rng(0))
        expected = fl.prbs_generate(7, DEFAULT_LFSR_SEED, 64)
        np.testing.assert_array_equal(bits.bits, expected.bits)

    def test_grid_config_mismatch(self, grid64):
        cfg = fl.TxConfig(bit_rate=2.5e9)
        with pytest.raises(ValueError, match="bit rate"):
            fl.transmit(cfg, grid64)
        cfg2 = fl.TxConfig(wavelength=1310e-9)
        with pytest.raises(ValueError, match="wavelength"):
            fl.transmit(cfg2, grid64)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            fl.TxConfig(prbs_order=8)
        with pytest.raises(ValueError):
            fl.TxConfig(rise_time=0.5)
        with pytest.raises(ValueError):
            fl.TxConfig(extinction_db=0.0)
        with pytest.raises(ValueError):
            fl.TxConfig(linewidth_hz=-1.0)
