from __future__ import annotations

import collections
import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fiberlink as fl
from fiberlink import cli, link, metrics
from fiberlink.fiber import AmplifierParams, FiberParams, PropagationError
from fiberlink.transmitter import DEFAULT_LFSR_SEED

from conftest import small_link_config


def elements(pre, post, **kwargs):
    return fl.LinkConfig(pre_length_km=pre, post_length_km=post, **kwargs).elements()


def labels(chain):
    return [el.label for el in chain]


class TestBuildLink:
    """The element chain ``LinkConfig.elements()`` builds for each dispersion map."""

    def test_symmetric_order(self):
        chain = elements(24.0, 24.0)
        assert labels(chain) == [
            "DCF-pre", "AMP", "SMF", "AMP", "SMF", "AMP", "DCF-post", "AMP",
        ]
        fibers = [el for el in chain if isinstance(el, FiberParams)]
        assert [f.length_km for f in fibers] == [24.0, 120.0, 120.0, 24.0]
        assert [f.dispersion_ps_nm_km for f in fibers] == [-80.0, 16.0, 16.0, -80.0]

    def test_pre_order(self):
        assert labels(elements(48.0, 0.0)) == ["DCF-pre", "AMP", "SMF", "AMP", "SMF", "AMP"]

    def test_post_order(self):
        assert labels(elements(0.0, 48.0)) == ["SMF", "AMP", "SMF", "AMP", "DCF-post", "AMP"]

    def test_uncompensated_order(self):
        chain = elements(0.0, 0.0)
        assert labels(chain) == ["SMF", "AMP", "SMF", "AMP"]
        assert fl.residual_dispersion(chain) == 3840.0

    def test_span_count(self):
        assert labels(elements(0.0, 12.0, n_smf_spans=4)).count("SMF") == 4

    def test_every_fiber_followed_by_amplifier(self):
        chain = elements(30.0, 24.0, n_smf_spans=3)
        for i, el in enumerate(chain):
            if isinstance(el, FiberParams):
                assert isinstance(chain[i + 1], AmplifierParams)

    def test_rejects_negative_lengths_and_spans(self):
        with pytest.raises(ValueError, match="DCF lengths must satisfy 0 <= l < inf"):
            fl.LinkConfig(pre_length_km=-1.0)
        with pytest.raises(ValueError, match="n_smf_spans must be >= 1"):
            fl.LinkConfig(n_smf_spans=0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="DCF lengths must satisfy 0 <= l < inf"):
                fl.LinkConfig(post_length_km=bad)
            with pytest.raises(ValueError, match="DCF lengths must satisfy 0 <= l < inf"):
                fl.LinkConfig(pre_length_km=bad)


class TestDispersionAccounting:
    @pytest.mark.parametrize(
        "pre,post,expected",
        [(24.0, 24.0, 0.0), (30.0, 24.0, -480.0), (30.0, 30.0, -960.0), (35.0, 35.0, -1760.0)],
    )
    def test_residual_reference_points(self, pre, post, expected):
        assert fl.residual_dispersion(elements(pre, post)) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        pre=st.floats(0.5, 60.0),
        post=st.floats(0.5, 60.0),
        n=st.integers(1, 4),
    )
    def test_residual_additivity(self, pre, post, n):
        chain = elements(pre, post, n_smf_spans=n)
        expected = 16.0 * 120.0 * n - 80.0 * (pre + post)
        assert fl.residual_dispersion(chain) == pytest.approx(expected, rel=1e-12)

    def test_zero_residual_only_at_24(self):
        base = fl.residual_dispersion(elements(24.0, 24.0))
        assert base == 0.0
        for l in (23.9, 24.1, 20.0, 30.0):
            assert fl.residual_dispersion(elements(l, l)) != 0.0

    def test_profile_breakpoints_default(self):
        profile = fl.dispersion_profile(elements(24.0, 24.0))
        assert profile == [
            (0.0, 0.0),
            (24.0, -1920.0),
            (144.0, 0.0),
            (264.0, 1920.0),
            (288.0, 0.0),
        ]

    def test_profile_starts_at_origin_and_ends_at_residual(self):
        chain = elements(35.0, 35.0)
        profile = fl.dispersion_profile(chain)
        assert profile[0] == (0.0, 0.0)
        assert profile[-1][0] == pytest.approx(310.0)
        assert profile[-1][1] == pytest.approx(fl.residual_dispersion(chain))

    def test_profile_positions_strictly_increase(self):
        positions = [p for p, _ in fl.dispersion_profile(elements(0.0, 48.0, n_smf_spans=3))]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)


class TestLinkConfig:
    def test_defaults_are_valid(self):
        assert fl.residual_dispersion(fl.LinkConfig().elements()) == 0.0

    def test_restore_target_resolves_to_launch_power(self):
        cfg = dataclasses.replace(fl.LinkConfig(), tx=fl.TxConfig(launch_power_dbm=3.0))
        amp = cfg.elements()[1]
        assert amp.gain_db is None
        assert amp.target_dbm == 3.0

    def test_explicit_amp_target_kept(self):
        cfg = dataclasses.replace(
            fl.LinkConfig(), amp=fl.AmplifierParams(target_dbm=-2.0)
        )
        assert cfg.elements()[1].target_dbm == -2.0

    @pytest.mark.parametrize(
        ("owner", "name", "value"),
        [
            (fl.SimSettings, "seed", 1.5),
            (fl.SimSettings, "seed", True),
            (fl.LinkConfig, "n_smf_spans", 2.0),
            (fl.LinkConfig, "n_smf_spans", True),
            (fl.SimSettings, "skip_bits", True),
            (fl.SimSettings, "skip_bits", 8.0),
            (fl.TxConfig, "prbs_order", 7.0),
            (fl.TxConfig, "prbs_order", True),
        ],
        ids=["1.5", "True", "n_smf_spans-2.0", "n_smf_spans-True", "skip_bits-True",
             "skip_bits-8.0", "prbs_order-7.0", "prbs_order-True"],
    )
    def test_rejects_non_integer_seed(self, owner, name, value):
        # At run time SeedSequence, list repetition, slicing and the LFSR's shifts
        # would raise TypeError instead, or take True as 1
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            owner(**{name: value})

    def test_rejects_dcf_length(self):
        dcf = dataclasses.replace(fl.LinkConfig().dcf, length_km=30.0)
        with pytest.raises(ValueError, match="are pre_length_km and post_length_km"):
            fl.LinkConfig(dcf=dcf)

    def test_validate_rejects_oversized_filter(self):
        with pytest.raises(ValueError, match="[Nn]yquist"):
            dataclasses.replace(fl.LinkConfig(), rx=fl.RxConfig(bessel_bandwidth=200e9))

    def test_rejects_linewidth_over_one_rad2_per_sample(self):
        with pytest.raises(ValueError, match="linewidth_hz 1e\\+18 Hz"):
            dataclasses.replace(fl.LinkConfig(), tx=fl.TxConfig(linewidth_hz=1e18))

    def test_replace_rejects_too_few_rail_bits(self):
        cfg = fl.LinkConfig()
        with pytest.raises(ValueError, match="too few bits for estimate_q"):
            dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, n_bits=16))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_bits=st.sampled_from([16, 32, 64]),
        samples_per_bit=st.sampled_from([8, 16]),
        skip_bits=st.integers(0, 20),
        bandwidth_ghz=st.floats(1.0, 200.0),
        pre=st.sampled_from([0.0, 2.4]),
        post=st.sampled_from([0.0, 2.4]),
    )
    # a positive filter bandwidth below the grid's frequency step filters to non-finite samples
    @example(n_bits=64, samples_per_bit=8, skip_bits=8, bandwidth_ghz=1e-300, pre=0.0, post=0.0)
    def test_every_config_that_constructs_runs(
        self, n_bits, samples_per_bit, skip_bits, bandwidth_ghz, pre, post
    ):
        base = small_link_config()
        try:
            cfg = dataclasses.replace(
                base,
                pre_length_km=pre,
                post_length_km=post,
                rx=dataclasses.replace(base.rx, bessel_bandwidth=bandwidth_ghz * 1e9),
                sim=dataclasses.replace(
                    base.sim,
                    n_bits=n_bits,
                    samples_per_bit=samples_per_bit,
                    skip_bits=skip_bits,
                    ssfm=fl.SsfmOptions(step_km=4.0),
                ),
            )
        except ValueError:
            return
        fl.run_link_full(cfg)


def _grid_of(cfg: fl.LinkConfig, sim: fl.SimSettings) -> fl.SamplingGrid:
    return fl.SamplingGrid(cfg.tx.bit_rate, sim.n_bits, sim.samples_per_bit, cfg.tx.wavelength)


class TestOneMessagePerRule:
    """A rule that LinkConfig shares with a stage fails with one message in both places."""

    @pytest.mark.parametrize("bandwidth", [60e9, 1e-291], ids=["nyquist", "frequency_step"])
    def test_receive_filter(self, bandwidth):
        cfg = fl.LinkConfig()
        sim = dataclasses.replace(cfg.sim, samples_per_bit=8)
        rx = dataclasses.replace(cfg.rx, bessel_bandwidth=bandwidth)
        with pytest.raises(ValueError) as by_config:
            dataclasses.replace(cfg, rx=rx, sim=sim)
        grid = _grid_of(cfg, sim)
        with pytest.raises(ValueError) as by_stage:
            fl.bessel_lowpass(fl.ElectricalWaveform(np.zeros(grid.n_samples), grid), rx)
        assert str(by_config.value) == str(by_stage.value)

    def test_skip_bits(self):
        cfg = fl.LinkConfig()
        sim = dataclasses.replace(cfg.sim, n_bits=16, skip_bits=16)
        with pytest.raises(ValueError) as by_config:
            dataclasses.replace(cfg, sim=sim)
        grid = _grid_of(cfg, sim)
        with pytest.raises(ValueError) as by_stage:
            fl.fold_eye(fl.ElectricalWaveform(np.zeros(grid.n_samples), grid), sim.skip_bits)
        assert str(by_config.value) == str(by_stage.value)

    def test_rail_bits(self):
        cfg = fl.LinkConfig()
        sim = dataclasses.replace(cfg.sim, n_bits=16)
        with pytest.raises(ValueError) as by_config:
            dataclasses.replace(cfg, sim=sim)
        grid = _grid_of(cfg, sim)
        bits = fl.prbs_generate(cfg.tx.prbs_order, DEFAULT_LFSR_SEED, sim.n_bits)
        wave = fl.ElectricalWaveform(np.repeat(bits.bits, grid.samples_per_bit), grid)
        with pytest.raises(ValueError) as by_stage:
            fl.estimate_q(wave, bits, sim.skip_bits)
        assert str(by_config.value) == str(by_stage.value)


class TestRunLink:
    def test_deterministic(self):
        cfg = small_link_config()
        a = fl.run_link_full(cfg)
        b = fl.run_link_full(cfg)
        assert a == b

    def test_seed_changes_outcome(self):
        cfg = small_link_config()
        other = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, seed=7))
        assert fl.run_link_full(cfg) != fl.run_link_full(other)

    def test_full_result_contents(self):
        cfg = small_link_config()
        q = fl.run_link_full(cfg)
        assert isinstance(q, fl.QResult)
        assert q.eye.traces.shape == (56, 16)
        assert q.ber <= 0.5

    def test_eye_folded_once_per_run(self, monkeypatch):
        fold = metrics.fold_eye
        calls = []

        def counting_fold(*args, **kwargs):
            calls.append(args)
            return fold(*args, **kwargs)

        # count calls made through either module's name for fold_eye
        monkeypatch.setattr(metrics, "fold_eye", counting_fold)
        monkeypatch.setattr(link, "fold_eye", counting_fold, raising=False)
        receive, received = link.receive, []

        def recording_receive(*args):
            received.append(receive(*args))
            return received[-1]

        monkeypatch.setattr(link, "receive", recording_receive)
        q = fl.run_link_full(small_link_config())
        assert len(calls) == 1
        [wave] = received
        aligned = fl.ElectricalWaveform(np.roll(wave.samples, -q.delay_samples), wave.grid)
        expected = fold(aligned, 8)
        np.testing.assert_array_equal(q.eye.traces, expected.traces)
        np.testing.assert_array_equal(q.eye.crossing_times, expected.crossing_times)

    def test_holds_one_field_at_a_time(self):
        # 10.55 field sizes. Keeping the transmitted field for the rest of the
        # walk holds one field more (11.54).
        config = fl.parse_config("sim.n_bits = 256\nsim.step_km = 2\n")
        assert peak_fields(lambda: fl.run_link_full(config), config) < 11.0

    def test_compensated_beats_uncompensated(self):
        base = small_link_config()
        # same line, DCF lengths far off the zero-residual point
        worse = dataclasses.replace(base, pre_length_km=7.0, post_length_km=7.0)
        q_good = fl.run_link_full(base)
        q_bad = fl.run_link_full(worse)
        assert q_good.q_db > q_bad.q_db

    def test_noise_free_run_is_clean(self):
        cfg = small_link_config(**{
            "tx.linewidth_mhz": 0,
            "rx.thermal_psd": 0,
            "rx.shot_noise": "false",
        })
        q = fl.run_link_full(cfg)
        assert q.q_db > 20.0
        assert fl.run_link_full(cfg) == q


# (pre, post) DCF length pairs of small sweeps whose rows share work
SHARED_SWEEPS = {
    "cross": list(itertools.product((2.4, 3.0), (2.4, 3.0))),
    "zip_repeat": [(2.4, 2.4), (3.0, 2.4), (2.4, 3.0)],
    "duplicate": [(2.4, 2.4), (2.4, 2.4)],
    "one_state_two_rows": [(2.4, 2.4), (2.4, 3.0), (2.4, 3.6)],
    "placements": [(2.4, 0.0), (0.0, 2.4), (0.0, 0.0)],
    # Whole-km DCF sides at step_km = 1 share dz = 1 km, so their spans resume
    # mid-way; 2.4 km takes 3 steps of 0.8 km and shares no span.
    "ascending_spans": [(2.0, 2.0), (2.0, 3.0), (2.0, 4.0), (3.0, 2.0), (4.0, 4.0)],
    "descending_spans": [(4.0, 4.0), (4.0, 3.0), (4.0, 2.0), (2.0, 2.0)],
    # Out of order: the walk still runs the pre spans 2, 3, 4, 5 km in turn.
    "unordered_spans": [(2.0, 2.0), (4.0, 2.0), (3.0, 2.0), (5.0, 2.0)],
    "mixed_step_spans": list(itertools.product((2.0, 3.0, 4.0), (2.0, 2.4, 3.0))),
}


def ase_config():
    """A small link with the transmitter, amplifier and receiver RNGs all live."""
    return small_link_config(**{"amp.ase": "true"})


def peak_fields(run, config):
    """The tracemalloc peak of ``run()`` in field sizes (16 B per sample) of ``config``.

    A single run goes first, so the one-time allocations of a cold process
    (about 7 field sizes) are not counted.
    """
    fl.run_link_full(config)
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / (config.grid().n_samples * 16)
    finally:
        tracemalloc.stop()


def single_run(config, pre, post):
    cfg = dataclasses.replace(config, pre_length_km=pre, post_length_km=post)
    return fl.run_link_full(cfg)


def assert_row_is_single_run(config, row):
    cfg = dataclasses.replace(config, pre_length_km=row.pre_km, post_length_km=row.post_km)
    q = fl.run_link_full(cfg)
    assert row.error is None
    assert row.residual_ps_nm == fl.residual_dispersion(cfg.elements())
    assert row.q_db == q.q_db
    assert row.ber == q.ber
    assert row.jitter_ns == q.jitter_ns


class TestSweep:
    def test_zip_rows(self):
        rows = fl.sweep(small_link_config(), [(2.4, 2.4), (3.0, 2.4)])
        assert [(r.pre_km, r.post_km) for r in rows] == [(2.4, 2.4), (3.0, 2.4)]
        assert all(r.error is None for r in rows)
        assert rows[0].seed == rows[1].seed == 42
        assert rows[0].residual_ps_nm == pytest.approx(0.0)
        assert rows[1].residual_ps_nm == pytest.approx(-48.0)

    def test_cross_pairs(self):
        # A one-shot iterator, as `fiberlink sweep --pairing cross` passes it.
        pairs = itertools.product((2.4, 3.0), (2.4, 3.0))
        rows = fl.sweep(small_link_config(), pairs)
        assert [(r.pre_km, r.post_km) for r in rows] == [
            (2.4, 2.4), (2.4, 3.0), (3.0, 2.4), (3.0, 3.0),
        ]
        assert all(r.error is None for r in rows)

    def test_zip_length_mismatch(self, monkeypatch, tmp_path):
        def no_rows(*args, **kwargs):
            raise AssertionError("sweep ran despite the length mismatch")

        monkeypatch.setattr(cli, "sweep", no_rows)
        args = cli.build_parser().parse_args([
            "sweep", "--pre", "1.0,2.0", "--post", "1.0", "--out", str(tmp_path),
        ])
        with pytest.raises(ValueError, match="zip"):
            cli.cmd_sweep(args)

    def test_row_failure_is_isolated(self):
        rows = fl.sweep(small_link_config(), [(2.4, 2.4), (-5.0, 2.4), (3.0, 2.4)])
        assert rows[0].error is None and rows[2].error is None
        assert rows[1].error is not None
        assert rows[1].q_db is None and rows[1].ber is None
        assert rows[1].pre_km == -5.0

    def test_per_row_seeds_distinct_and_deterministic(self):
        cfg = small_link_config()
        pairs = [(2.4, 2.4), (2.4, 2.4)]
        rows_a = fl.sweep(cfg, pairs, per_row_seeds=True)
        rows_b = fl.sweep(cfg, pairs, per_row_seeds=True)
        assert rows_a[0].seed != rows_a[1].seed
        assert [r.seed for r in rows_a] == [r.seed for r in rows_b]
        assert [r.q_db for r in rows_a] == [r.q_db for r in rows_b]

    @pytest.mark.parametrize("name", list(SHARED_SWEEPS))
    def test_rows_equal_single_runs(self, name):
        config, pairs = ase_config(), SHARED_SWEEPS[name]
        rows = fl.sweep(config, pairs)
        assert [(r.pre_km, r.post_km) for r in rows] == pairs
        for row in rows:
            assert_row_is_single_run(config, row)

    @pytest.mark.parametrize(
        "per_row_seeds,counts", [(False, (10, 10, 1)), (True, (16, 16, 4))]
    )
    def test_shared_work_counts(self, monkeypatch, per_row_seeds, counts):
        calls = collections.Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        for name in ("propagate_fiber", "amplify", "transmit"):
            monkeypatch.setattr(link, name, counting(name, getattr(link, name)))
        rows = fl.sweep(ase_config(), SHARED_SWEEPS["cross"], per_row_seeds=per_row_seeds)
        assert all(r.error is None for r in rows)
        assert (calls["propagate_fiber"], calls["amplify"], calls["transmit"]) == counts

    @pytest.mark.parametrize("name", ["ascending_spans", "descending_spans", "unordered_spans"])
    def test_spans_run_each_step_once(self, monkeypatch, name):
        # Each distinct span (same prefix, same fiber apart from its length) is
        # integrated once, to its longest length, whatever order the rows come
        # in: one forward FFT in and one per step. Transmit and receive add none
        # (they use rfft).
        config, pairs = ase_config(), SHARED_SWEEPS[name]
        longest = {}
        for pre, post in pairs:
            cfg = dataclasses.replace(config, pre_length_km=pre, post_length_km=post)
            chain = cfg.elements()
            for k, element in enumerate(chain):
                if isinstance(element, FiberParams):
                    span = (chain[:k], dataclasses.replace(element, length_km=0.0))
                    steps = config.sim.ssfm.fixed_steps(element)
                    longest[span] = max(longest.get(span, 0), steps)
        ffts = []
        fft = np.fft.fft

        def counting(*args, **kwargs):
            ffts.append("fft")
            return fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counting)
        rows = fl.sweep(config, pairs)
        assert all(r.error is None for r in rows)
        assert len(ffts) == sum(1 + steps for steps in longest.values())

    def test_holds_fields_only_at_branch_points(self):
        # The 4 x 4 cross holds a field where the tree branches and a kept span
        # per sibling group: 12.72 field sizes. Holding a finished row's QResult
        # (its eye) while the next row runs reads 13.24.
        config = fl.parse_config("sim.n_bits = 256\nsim.step_km = 2\namp.ase = true\n")
        pairs = list(itertools.product((24.0, 27.0, 30.0, 35.0), repeat=2))
        assert peak_fields(lambda: fl.sweep(config, pairs), config) < 13.0

    def test_build_failure_in_shared_group(self):
        # 200,000 steps of 1 km in the post DCF: rejected when the row's LinkConfig is built
        config = ase_config()
        rows = fl.sweep(config, [(2.4, 200_000.0), (2.4, 2.4)])
        assert rows[0].error.startswith("ValueError: DCF-post of 200000.0 km at step_km = 1.0")
        assert rows[0].q_db is None
        assert_row_is_single_run(config, rows[1])

    def test_propagation_error_in_shared_group(self, monkeypatch):
        propagate = link.propagate_fiber

        def failing_smf(field, fiber, options=None):
            if fiber.label == "SMF":
                raise PropagationError("field became non-finite")
            return propagate(field, fiber, options)

        monkeypatch.setattr(link, "propagate_fiber", failing_smf)
        config, pairs = ase_config(), SHARED_SWEEPS["cross"]
        with pytest.raises(PropagationError) as info:
            single_run(config, 2.4, 2.4)
        expected = f"PropagationError: {info.value}"
        assert expected.startswith("PropagationError: element 2 (SMF): ")
        rows = fl.sweep(config, pairs)
        assert [(r.pre_km, r.post_km) for r in rows] == pairs
        assert [r.error for r in rows] == [expected] * len(rows)

    def test_propagation_error_in_resumed_span(self, monkeypatch):
        # The (2, 4) row resumes the post DCF after the 2 steps of the (2, 2) row.
        # Its third step is made non-finite by the Kerr phase it computes, which
        # the single run and the resumed span compute bit for bit alike.
        config = ase_config()
        phases = []

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def max(self, a):
                phase = np.max(a)
                phases.append(phase)
                return np.inf if phase == failing else phase

        failing = None
        monkeypatch.setattr(fl.fiber, "np", Numpy())
        single_run(config, 2.0, 4.0)
        failing = phases[-2]  # the post DCF's 4 steps are the last
        with pytest.raises(PropagationError) as info:
            single_run(config, 2.0, 4.0)
        expected = f"PropagationError: {info.value}"
        assert expected.startswith(
            "PropagationError: element 6 (DCF-post): non-finite field at z = 3.000 km"
        )
        rows = fl.sweep(config, [(2.0, 2.0), (2.0, 4.0)])
        assert_row_is_single_run(config, rows[0])
        assert rows[1].error == expected
