from __future__ import annotations

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfc

import fiberlink as fl
from fiberlink.metrics import BER_FLOOR, Q_CAP

GRID = fl.SamplingGrid(10e9, 64, 32, 1550e-9)


def ideal_nrz(bits, grid):
    return np.repeat(np.asarray(bits, dtype=np.float64), grid.samples_per_bit)


class TestBerFromQ:
    def test_zero_q_is_coin_flip(self):
        assert fl.ber_from_q(0.0) == 0.5

    def test_reference_point(self):
        # high-precision oracle: 0.5*erfc(5/sqrt(2)) evaluated at 30 digits
        assert fl.ber_from_q(5.0) == pytest.approx(2.8665157187919391e-07, rel=1e-12)

    def test_matches_scipy_erfc(self):
        # scipy.special is the independent oracle for the stdlib erfc
        q = np.linspace(0.0, 14.0, 1401)
        expected = 0.5 * erfc(q / np.sqrt(2.0))
        ber = np.array([fl.ber_from_q(x) for x in q])
        above = expected > BER_FLOOR
        np.testing.assert_allclose(ber[above], expected[above], rtol=1e-13, atol=0)
        assert np.all(ber[~above] == BER_FLOOR)

    def test_floor_clamp(self):
        assert fl.ber_from_q(50.0) == BER_FLOOR
        assert fl.ber_from_q(1e6) == BER_FLOOR

    def test_rejects_negative_or_nan(self):
        with pytest.raises(ValueError):
            fl.ber_from_q(-0.1)
        with pytest.raises(ValueError):
            fl.ber_from_q(float("nan"))

    @settings(max_examples=50, deadline=None)
    @given(q1=st.floats(0.0, 20.0), q2=st.floats(0.0, 20.0))
    def test_monotone_decreasing(self, q1, q2):
        lo, hi = sorted((q1, q2))
        assert fl.ber_from_q(hi) <= fl.ber_from_q(lo)


class TestQFromRails:
    def test_synthetic_gaussian_rails(self):
        rng = np.random.default_rng(1)
        ones = rng.normal(1.0, 0.1, 50000)
        zeros = rng.normal(0.0, 0.1, 50000)
        rail = fl.q_from_rails(ones, zeros)
        assert rail.q_linear == pytest.approx(5.0, rel=0.02)
        assert rail.q_db == pytest.approx(20 * np.log10(rail.q_linear), rel=1e-12)
        assert rail.ber == pytest.approx(fl.ber_from_q(rail.q_linear), rel=1e-12)

    def test_zero_sigma_caps(self):
        rail = fl.q_from_rails(np.full(16, 1.0), np.full(16, 0.0))
        assert rail.q_linear == Q_CAP
        assert rail.ber == BER_FLOOR

    def test_inverted_rails_clamp_to_zero(self):
        rng = np.random.default_rng(2)
        rail = fl.q_from_rails(rng.normal(0.0, 0.05, 1000), rng.normal(1.0, 0.05, 1000))
        assert rail.q_linear == 0.0
        assert rail.ber == 0.5
        assert rail.q_db == float("-inf")

    def test_identical_flat_rails(self):
        rail = fl.q_from_rails(np.full(16, 0.5), np.full(16, 0.5))
        assert rail.q_linear == 0.0
        assert rail.ber == 0.5

    def test_empty_rail_rejected(self):
        with pytest.raises(ValueError):
            fl.q_from_rails(np.empty(0), np.ones(4))


class TestFoldEye:
    def test_trace_shape_and_time_axis(self):
        bits = fl.prbs_generate(7, 1, 64)
        wave = fl.ElectricalWaveform(ideal_nrz(bits.bits, GRID), GRID)
        eye = fl.fold_eye(wave, skip_bits=8)
        assert eye.traces.shape == (56, 32)
        out = io.StringIO()
        fl.format_eye(eye, out)
        times = [float(line.split()[2]) for line in out.getvalue().splitlines()[1:33]]
        np.testing.assert_allclose(times, np.arange(32) / 32)
        assert not eye.degenerate

    def test_constant_waveform_degenerate(self):
        wave = fl.ElectricalWaveform(np.full(GRID.n_samples, 0.7), GRID)
        eye = fl.fold_eye(wave, skip_bits=8)
        assert eye.degenerate
        assert eye.crossing_times.size == 0
        assert eye.crossing_offsets.size == 0

    def test_alternating_trapezoid_crossings_near_boundaries(self):
        bits = fl.BitSequence(np.tile([0, 1], 32).astype(np.uint8))
        drive = fl.nrz_drive(bits, GRID, fl.TxConfig(rise_time=0.25))
        eye = fl.fold_eye(drive, skip_bits=8)
        assert 0.4 < eye.threshold < 0.6
        # one transition per internal bit boundary of the kept region
        assert eye.crossing_times.size == 55
        # all crossings hug the bit boundaries (well within 1% of the UI)
        assert np.max(np.abs(eye.crossing_offsets)) < 0.01 * GRID.bit_period

    def test_skip_bits_drops_warmup(self):
        samples = ideal_nrz(np.ones(64, dtype=np.uint8), GRID)
        samples[: 8 * 32] = -99.0  # garbage confined to the warm-up region
        wave = fl.ElectricalWaveform(samples, GRID)
        eye = fl.fold_eye(wave, skip_bits=8)
        assert np.all(eye.traces == 1.0)

    def test_bad_skip_bits(self):
        wave = fl.ElectricalWaveform(np.zeros(GRID.n_samples), GRID)
        with pytest.raises(ValueError, match="skip_bits"):
            fl.fold_eye(wave, skip_bits=64)
        with pytest.raises(ValueError, match="skip_bits"):
            fl.fold_eye(wave, skip_bits=-1)


class TestEstimateQ:
    def test_recovers_circular_shift(self):
        bits = fl.prbs_generate(7, 1, 64)
        base = ideal_nrz(bits.bits, GRID)
        for shift in (0, 1, 17, 1000):
            wave = fl.ElectricalWaveform(np.roll(base, shift), GRID)
            q = fl.estimate_q(wave, bits, 8)
            assert q.delay_samples == shift % GRID.n_samples
            assert q.q_linear == Q_CAP  # clean rails separate perfectly

    def test_clean_waveform_caps_q(self):
        bits = fl.prbs_generate(7, 1, 64)
        drive = fl.nrz_drive(bits, GRID, fl.TxConfig(rise_time=0.25))
        q = fl.estimate_q(drive, bits, 8)
        assert q.q_linear == Q_CAP
        assert q.ber == BER_FLOOR
        assert q.threshold == pytest.approx(0.5, abs=1e-12)
        assert q.n_ones + q.n_zeros == 56

    def test_gaussian_noise_pipeline(self):
        # per-bit noise keeps every sample phase statistically identical, so
        # the pipeline estimate must match the rail formula directly
        rng = np.random.default_rng(10)
        bits = (rng.random(1024) < 0.5).astype(np.uint8)
        bits[:16] = np.tile([0, 1], 8)  # guarantee both rails after warm-up
        grid = fl.SamplingGrid(10e9, 1024, 8, 1550e-9)
        levels = bits.astype(np.float64) + rng.normal(0.0, 0.1, 1024)
        wave = fl.ElectricalWaveform(np.repeat(levels, 8), grid)
        q = fl.estimate_q(wave, fl.BitSequence(bits), 8)
        kept = levels[8:]
        expected = fl.q_from_rails(kept[bits[8:] == 1], kept[bits[8:] == 0])
        assert q.q_linear == pytest.approx(expected.q_linear, rel=1e-9)
        assert q.ber == pytest.approx(expected.ber, rel=1e-6)

    def test_chosen_phase_is_bit_equal_to_rail_formula(self):
        # a shaped, noisy eye whose phases differ: the statistics estimate_q
        # reports must be the very floats q_from_rails gives for the chosen
        # phase's column, so a change of reduction order fails here
        grid = fl.SamplingGrid(10e9, 1024, 8, 1550e-9)
        bits = fl.prbs_generate(9, 1, 1024)
        noise = np.random.default_rng(3).normal(0.0, 0.1, grid.n_samples)
        drive = fl.nrz_drive(bits, grid, fl.TxConfig(rise_time=0.25))
        wave = fl.ElectricalWaveform(drive.samples + noise, grid)
        q = fl.estimate_q(wave, bits, 8)
        column = q.eye.traces[:, q.decision_phase]
        ones = bits.bits[8:] == 1
        rail = fl.q_from_rails(column[ones], column[~ones])
        assert 0.0 < q.q_linear < Q_CAP
        assert q.q_linear == rail.q_linear
        assert q.mu1 == rail.mu1
        assert q.sigma1 == rail.sigma1
        assert q.mu0 == rail.mu0
        assert q.sigma0 == rail.sigma0

    @settings(max_examples=20, deadline=None)
    @given(
        scale=st.floats(0.05, 50.0),
        offset=st.floats(-2.0, 2.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_affine_invariance(self, scale, offset, seed):
        rng = np.random.default_rng(seed)
        bits = fl.prbs_generate(7, 1, 64)
        base = ideal_nrz(bits.bits, GRID) + rng.normal(0.0, 0.05, GRID.n_samples)
        q1 = fl.estimate_q(fl.ElectricalWaveform(base, GRID), bits, 8)
        q2 = fl.estimate_q(fl.ElectricalWaveform(scale * base + offset, GRID), bits, 8)
        assert q2.q_linear == pytest.approx(q1.q_linear, rel=1e-6)

    def test_insufficient_rail_population(self):
        bits = np.zeros(64, dtype=np.uint8)
        bits[:3] = 1
        wave = fl.ElectricalWaveform(ideal_nrz(bits, GRID), GRID)
        with pytest.raises(ValueError, match="8 bits"):
            fl.estimate_q(wave, fl.BitSequence(bits), 8)

    def test_bit_count_mismatch(self):
        wave = fl.ElectricalWaveform(np.zeros(GRID.n_samples), GRID)
        with pytest.raises(ValueError, match="bits"):
            fl.estimate_q(wave, fl.BitSequence(np.ones(32, dtype=np.uint8)), 8)

    def test_jitter_tiny_for_symmetric_pattern(self):
        # identical rise/fall transitions leave only the sub-sample crossing
        # asymmetry from the cluster threshold, orders below one UI
        bits = fl.BitSequence(np.tile([0, 1], 32).astype(np.uint8))
        drive = fl.nrz_drive(bits, GRID, fl.TxConfig(rise_time=0.25))
        q = fl.estimate_q(drive, bits, 8)
        assert q.jitter_ns < 1e-3


class TestFormatEye:
    def test_layout_and_roundtrip(self):
        bits = fl.prbs_generate(7, 1, 64)
        wave = fl.ElectricalWaveform(ideal_nrz(bits.bits, GRID), GRID)
        eye = fl.fold_eye(wave, skip_bits=8)
        out = io.StringIO()
        fl.format_eye(eye, out)
        lines = out.getvalue().strip().split("\n")
        assert lines[0].startswith("#")
        assert len(lines) == 1 + 56 * 32
        first = lines[1].split()
        assert first == ["0", "0", "0.0", repr(float(eye.traces[0, 0]))]
        # numeric parse-back reproduces the trace matrix exactly
        vals = np.array([float(ln.split()[3]) for ln in lines[1:]]).reshape(56, 32)
        np.testing.assert_array_equal(vals, eye.traces)

    @pytest.mark.parametrize(
        ("n_bits", "skip_bits", "constant"),
        [(64, 8, False), (16, 15, False), (64, 8, True)],
        ids=["multi_trace", "one_trace", "degenerate"],
    )
    def test_bytes_match_joined_lines(self, n_bits, skip_bits, constant):
        # the dump as one joined string per point: the streamed text must equal it byte for byte
        grid = fl.SamplingGrid(10e9, n_bits, 32, 1550e-9)
        rng = np.random.default_rng(3)
        samples = np.full(grid.n_samples, 0.7) if constant else rng.standard_normal(grid.n_samples)
        eye = fl.fold_eye(fl.ElectricalWaveform(samples, grid), skip_bits=skip_bits)
        assert eye.degenerate == constant
        spb = grid.samples_per_bit
        expected = "\n".join(
            ["# trace sample time_ui amplitude"]
            + [
                f"{ti} {si} {si / spb!r} {float(eye.traces[ti, si])!r}"
                for ti in range(eye.traces.shape[0])
                for si in range(spb)
            ]
        ) + "\n"
        out = io.StringIO()
        fl.format_eye(eye, out)
        assert out.getvalue() == expected

    def test_streams_without_holding_the_dump(self):
        # 1,016 traces x 32 samples, the default grid: joined whole, the dump's strings
        # hold > 2.9 MiB; streamed, only one trace's text is alive at a time
        class Discard:
            def write(self, text):
                return len(text)

        grid = fl.SamplingGrid(10e9, 1024, 32, 1550e-9)
        samples = np.random.default_rng(4).standard_normal(grid.n_samples)
        eye = fl.fold_eye(fl.ElectricalWaveform(samples, grid), skip_bits=8)
        assert eye.traces.shape == (1016, 32)
        tracemalloc.start()
        try:
            fl.format_eye(eye, Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


class TestQResultInvariants:
    def test_out_of_range_rejected(self):
        kwargs = dict(
            q_linear=5.0, q_db=13.97, ber=1e-7, jitter_ns=0.0, decision_phase=0,
            threshold=0.5, mu1=1.0, sigma1=0.1, mu0=0.0, sigma0=0.1,
            n_ones=10, n_zeros=10, delay_samples=0,
        )
        fl.QResult(**kwargs)  # sanity: valid values construct fine
        with pytest.raises(ValueError):
            fl.QResult(**{**kwargs, "ber": 0.7})
        with pytest.raises(ValueError):
            fl.QResult(**{**kwargs, "q_linear": -1.0})
        with pytest.raises(ValueError):
            fl.QResult(**{**kwargs, "jitter_ns": -0.5})
