from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fiberlink as fl
from fiberlink import link, metrics
from fiberlink.fiber import AmplifierParams, FiberParams

from conftest import small_link_config


def labels(topology):
    return [el.label for el in topology.elements]


class TestBuildLink:
    def test_symmetric_order(self):
        topo = fl.build_link("symmetric", 24.0, 24.0)
        assert labels(topo) == [
            "DCF-pre", "AMP", "SMF", "AMP", "SMF", "AMP", "DCF-post", "AMP",
        ]
        fibers = topo.fibers()
        assert [f.length_km for f in fibers] == [24.0, 120.0, 120.0, 24.0]
        assert [f.dispersion_ps_nm_km for f in fibers] == [-80.0, 16.0, 16.0, -80.0]

    def test_pre_order(self):
        topo = fl.build_link("pre", 48.0, 0.0)
        assert labels(topo) == ["DCF-pre", "AMP", "SMF", "AMP", "SMF", "AMP"]

    def test_post_order(self):
        topo = fl.build_link("post", 0.0, 48.0)
        assert labels(topo) == ["SMF", "AMP", "SMF", "AMP", "DCF-post", "AMP"]

    def test_span_count(self):
        topo = fl.build_link("post", 0.0, 12.0, n_smf_spans=4)
        assert labels(topo).count("SMF") == 4

    def test_every_fiber_followed_by_amplifier(self):
        topo = fl.build_link("symmetric", 30.0, 24.0, n_smf_spans=3)
        elements = topo.elements
        for i, el in enumerate(elements):
            if isinstance(el, FiberParams):
                assert isinstance(elements[i + 1], AmplifierParams)

    def test_scheme_length_consistency(self):
        with pytest.raises(ValueError, match="pre-compensation"):
            fl.build_link("pre", 24.0, 24.0)
        with pytest.raises(ValueError, match="pre-compensation"):
            fl.build_link("pre", 0.0, 0.0)
        with pytest.raises(ValueError, match="post-compensation"):
            fl.build_link("post", 24.0, 24.0)
        with pytest.raises(ValueError, match="symmetric"):
            fl.build_link("symmetric", 24.0, 0.0)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            fl.build_link("inline", 24.0, 24.0)

    def test_rejects_negative_lengths_and_spans(self):
        with pytest.raises(ValueError):
            fl.build_link("symmetric", -1.0, 24.0)
        with pytest.raises(ValueError):
            fl.build_link("symmetric", 24.0, 24.0, n_smf_spans=0)

    def test_topology_requires_smf(self):
        with pytest.raises(ValueError, match="SMF"):
            fl.LinkTopology(elements=(AmplifierParams(target_dbm=0.0),), scheme="post")


class TestDispersionAccounting:
    @pytest.mark.parametrize(
        "pre,post,expected",
        [(24.0, 24.0, 0.0), (30.0, 24.0, -480.0), (30.0, 30.0, -960.0), (35.0, 35.0, -1760.0)],
    )
    def test_residual_reference_points(self, pre, post, expected):
        topo = fl.build_link("symmetric", pre, post)
        assert fl.residual_dispersion(topo) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        pre=st.floats(0.5, 60.0),
        post=st.floats(0.5, 60.0),
        n=st.integers(1, 4),
    )
    def test_residual_additivity(self, pre, post, n):
        topo = fl.build_link("symmetric", pre, post, n_smf_spans=n)
        expected = 16.0 * 120.0 * n - 80.0 * (pre + post)
        assert fl.residual_dispersion(topo) == pytest.approx(expected, rel=1e-12)

    def test_zero_residual_only_at_24(self):
        base = fl.residual_dispersion(fl.build_link("symmetric", 24.0, 24.0))
        assert base == 0.0
        for l in (23.9, 24.1, 20.0, 30.0):
            topo = fl.build_link("symmetric", l, l)
            assert fl.residual_dispersion(topo) != 0.0

    def test_profile_breakpoints_default(self):
        topo = fl.build_link("symmetric", 24.0, 24.0)
        profile = fl.dispersion_profile(topo)
        assert profile == [
            (0.0, 0.0),
            (24.0, -1920.0),
            (144.0, 0.0),
            (264.0, 1920.0),
            (288.0, 0.0),
        ]

    def test_profile_starts_at_origin_and_ends_at_residual(self):
        topo = fl.build_link("symmetric", 35.0, 35.0)
        profile = fl.dispersion_profile(topo)
        assert profile[0] == (0.0, 0.0)
        assert profile[-1][0] == pytest.approx(310.0)
        assert profile[-1][1] == pytest.approx(fl.residual_dispersion(topo))

    def test_profile_positions_strictly_increase(self):
        topo = fl.build_link("post", 0.0, 48.0, n_smf_spans=3)
        positions = [p for p, _ in fl.dispersion_profile(topo)]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)


class TestLinkConfig:
    def test_defaults_are_valid(self):
        cfg = fl.LinkConfig()
        cfg.validate()
        topo = cfg.resolve_topology()
        assert fl.residual_dispersion(topo) == 0.0

    def test_restore_target_resolves_to_launch_power(self):
        cfg = dataclasses.replace(fl.LinkConfig(), tx=fl.TxConfig(launch_power_dbm=3.0))
        amp = cfg.resolve_amplifier()
        assert amp.mode == "restore"
        assert amp.target_dbm == 3.0

    def test_explicit_amp_target_kept(self):
        cfg = dataclasses.replace(
            fl.LinkConfig(), amp=fl.AmplifierParams(mode="restore", target_dbm=-2.0)
        )
        assert cfg.resolve_amplifier().target_dbm == -2.0

    def test_validate_rejects_oversized_filter(self):
        cfg = dataclasses.replace(
            fl.LinkConfig(), rx=fl.RxConfig(bessel_bandwidth=200e9)
        )
        with pytest.raises(ValueError, match="[Nn]yquist"):
            cfg.validate()

    def test_rejects_bad_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            fl.LinkConfig(scheme="iir")


class TestRunLink:
    def test_deterministic(self):
        cfg = small_link_config()
        a = fl.run_link(cfg)
        b = fl.run_link(cfg)
        assert a == b

    def test_seed_changes_outcome(self):
        cfg = small_link_config()
        other = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, seed=7))
        assert fl.run_link(cfg) != fl.run_link(other)

    def test_full_result_contents(self):
        cfg = small_link_config()
        result = fl.run_link_full(cfg)
        assert result.seed == 42
        assert result.residual_ps_nm == pytest.approx(
            fl.residual_dispersion(result.topology)
        )
        assert result.grid.n_bits == 64
        assert result.eye.traces.shape == (56, 16)
        assert result.q.ber <= 0.5

    def test_eye_folded_once_per_run(self, monkeypatch):
        fold = metrics.fold_eye
        calls = []

        def counting_fold(*args, **kwargs):
            calls.append(args)
            return fold(*args, **kwargs)

        # count calls made through either module's name for fold_eye
        monkeypatch.setattr(metrics, "fold_eye", counting_fold)
        monkeypatch.setattr(link, "fold_eye", counting_fold, raising=False)
        result = fl.run_link_full(small_link_config())
        assert len(calls) == 1
        aligned = fl.ElectricalWaveform(
            np.roll(result.received.samples, -result.q.delay_samples), result.grid
        )
        expected = fold(aligned, result.grid, 8)
        np.testing.assert_array_equal(result.eye.traces, expected.traces)
        np.testing.assert_array_equal(result.eye.crossing_times, expected.crossing_times)

    def test_compensated_beats_uncompensated(self):
        base = small_link_config()
        # same line, DCF lengths far off the zero-residual point
        worse = dataclasses.replace(base, pre_length_km=7.0, post_length_km=7.0)
        q_good = fl.run_link(base)
        q_bad = fl.run_link(worse)
        assert q_good.q_db > q_bad.q_db

    def test_noise_free_run_is_clean(self):
        cfg = small_link_config(**{
            "tx.linewidth_mhz": 0,
            "rx.thermal_psd": 0,
            "rx.shot_noise": "false",
        })
        q = fl.run_link(cfg)
        assert q.q_db > 20.0
        assert fl.run_link(cfg) == q


class TestSweep:
    def test_zip_rows(self):
        cfg = small_link_config()
        spec = fl.SweepSpec(
            pre_lengths_km=(2.4, 3.0),
            post_lengths_km=(2.4, 2.4),
            config=cfg,
            pairing="zip",
        )
        rows = fl.sweep(spec)
        assert [(r.pre_km, r.post_km) for r in rows] == [(2.4, 2.4), (3.0, 2.4)]
        assert all(r.error is None for r in rows)
        assert rows[0].seed == rows[1].seed == 42
        assert rows[0].residual_ps_nm == pytest.approx(0.0)
        assert rows[1].residual_ps_nm == pytest.approx(-48.0)

    def test_cross_pairs(self):
        cfg = small_link_config()
        spec = fl.SweepSpec(
            pre_lengths_km=(2.4, 3.0),
            post_lengths_km=(2.4, 3.0),
            config=cfg,
            pairing="cross",
        )
        assert spec.pairs() == [(2.4, 2.4), (2.4, 3.0), (3.0, 2.4), (3.0, 3.0)]

    def test_zip_length_mismatch(self):
        with pytest.raises(ValueError, match="zip"):
            fl.SweepSpec(
                pre_lengths_km=(1.0, 2.0),
                post_lengths_km=(1.0,),
                config=small_link_config(),
            )

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            fl.SweepSpec(pre_lengths_km=(), post_lengths_km=(), config=small_link_config())

    def test_bad_pairing_rejected(self):
        with pytest.raises(ValueError, match="pairing"):
            fl.SweepSpec(
                pre_lengths_km=(1.0,),
                post_lengths_km=(1.0,),
                config=small_link_config(),
                pairing="diagonal",
            )

    def test_row_failure_is_isolated(self):
        cfg = small_link_config()
        spec = fl.SweepSpec(
            pre_lengths_km=(2.4, -5.0, 3.0),
            post_lengths_km=(2.4, 2.4, 2.4),
            config=cfg,
            pairing="zip",
        )
        rows = fl.sweep(spec)
        assert rows[0].error is None and rows[2].error is None
        assert rows[1].error is not None
        assert rows[1].q_db is None and rows[1].ber is None
        assert rows[1].pre_km == -5.0

    def test_per_row_seeds_distinct_and_deterministic(self):
        cfg = small_link_config()
        spec = fl.SweepSpec(
            pre_lengths_km=(2.4, 2.4),
            post_lengths_km=(2.4, 2.4),
            config=cfg,
            pairing="zip",
            per_row_seeds=True,
        )
        rows_a = fl.sweep(spec)
        rows_b = fl.sweep(spec)
        assert rows_a[0].seed != rows_a[1].seed
        assert [r.seed for r in rows_a] == [r.seed for r in rows_b]
        assert [r.q_db for r in rows_a] == [r.q_db for r in rows_b]
