"""Acceptance checks: the binding, end-to-end contracts of the package.

Each test states one contract with its tolerance. They are intentionally
independent of the unit suite so a green run here certifies the whole
pipeline at once. Run with ``pytest tests/test_acceptance.py -v`` (add ``-s``
to see the PASS banners).
"""
from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import pytest

import fiberlink as fl
from fiberlink.cli import main

from conftest import centred_time, subprocess_env

GRID64 = fl.SamplingGrid(10e9, 64, 32, 1550e-9)

SMALL_CFG = "\n".join(
    [
        "sim.n_bits = 64",
        "sim.samples_per_bit = 16",
        "sim.step_km = 1.0",
        "smf.length_km = 12",
        "dcf.pre_length_km = 2.4",
        "dcf.post_length_km = 2.4",
    ]
)


# q_db of the criterion-3 rows at 0.1 km fixed steps, the reference oracle,
# recorded before adaptive steps became the default. The first row's link is
# the default one, so it is also the q_db of `fiberlink run` with no config.
FIXED_ORACLE_Q_DB = (46.65666737165141, 22.289100358432925, 20.038812099814812, 11.501105090927073)
# q_db of the default link at a higher tx.power_dbm, at 0.1 km fixed steps.
FIXED_ORACLE_Q_DB_BY_POWER = {8: 39.17496732811538, 12: 31.072970682408215}
Q_TOL_DB = 0.01
DESK_PRE_KM = (24.0, 30.0, 30.0, 35.0)
DESK_POST_KM = (24.0, 24.0, 30.0, 35.0)


def announce(tag: str) -> None:
    print(f"ACCEPTANCE {tag}: PASS")


def rms_width(field: fl.OpticalField) -> float:
    t = centred_time(field.grid)
    p = np.abs(field.samples) ** 2
    w = p / p.sum()
    mu = float((t * w).sum())
    return float(np.sqrt(((t - mu) ** 2 * w).sum()))


def gaussian(grid, t0, peak_w=1.0):
    t = centred_time(grid)
    return fl.OpticalField(
        (np.sqrt(peak_w) * np.exp(-(t**2) / (2 * t0**2))).astype(complex), grid
    )


class TestCriterion1BerQConvention:
    """ber_from_q must land in fixed windows at three reference Q points."""

    def test_row2_order_of_magnitude(self):
        ber = fl.ber_from_q(10 ** (20.53 / 20))
        assert 1.80072e-27 <= ber <= 1.80072e-25, f"ber={ber!r}"
        announce("C1 ber_from_q(20.53 dB) within one order of 1.80072e-26")

    def test_row3_window(self):
        ber = fl.ber_from_q(10 ** (15.814 / 20))
        assert 3.35e-10 <= ber <= 3.56e-10, (
            f"ber_from_q(10^(15.814/20)) = {ber!r}, outside [3.35e-10, 3.56e-10]. "
            "The Gaussian-tail convention 0.5*erfc(q/sqrt(2)) puts this point "
            "1.8% below the window's lower edge, and the window for the "
            "7.1682 dB point admits no other standard convention; the two "
            "windows are mutually inconsistent, so this check is expected to "
            "fail while the convention itself is correct."
        )
        announce("C1 ber_from_q(15.814 dB) in [3.35e-10, 3.56e-10]")

    def test_row4_window(self):
        ber = fl.ber_from_q(10 ** (7.1682 / 20))
        assert 1.11e-2 <= ber <= 1.13e-2, f"ber={ber!r}"
        announce("C1 ber_from_q(7.1682 dB) in [1.11e-2, 1.13e-2]")


def test_criterion_2_residual_dispersion_arithmetic():
    expected = {
        (24.0, 24.0): 0.0,
        (30.0, 24.0): -480.0,
        (30.0, 30.0): -960.0,
        (35.0, 35.0): -1760.0,
    }
    for (pre, post), residual in expected.items():
        got = fl.residual_dispersion(
            fl.LinkConfig(pre_length_km=pre, post_length_km=post).elements()
        )
        assert got == residual, f"(pre={pre}, post={post}): {got} != {residual}"
    announce("C2 residuals exactly 0 / -480 / -960 / -1760 ps/nm")


def test_criterion_3_sweep_ordering_at_desk_scale():
    start = time.perf_counter()
    rows = fl.sweep(fl.LinkConfig(), zip(DESK_PRE_KM, DESK_POST_KM))
    elapsed = time.perf_counter() - start

    assert [r.error for r in rows] == [None] * 4
    q_db = [r.q_db for r in rows]
    assert q_db[0] > q_db[1] > q_db[2] > q_db[3], (
        f"q_db not strictly decreasing across the sweep: {q_db}"
    )
    gap = q_db[0] - q_db[1]
    assert gap >= 5.0, f"best-vs-next q_db gap {gap:.2f} dB < 5 dB"
    assert elapsed < 300.0, f"sweep took {elapsed:.1f} s (budget 300 s)"
    announce(
        "C3 q_db strictly decreasing "
        f"({', '.join(f'{q:.2f}' for q in q_db)}), gap {gap:.2f} dB, {elapsed:.0f} s"
    )


def test_default_stepping_matches_fixed_oracle():
    rows = fl.sweep(fl.LinkConfig(), zip(DESK_PRE_KM, DESK_POST_KM))
    errors = [abs(row.q_db - q_ref) for row, q_ref in zip(rows, FIXED_ORACLE_Q_DB, strict=True)]
    assert max(errors) < Q_TOL_DB, f"|q_db - q_db(0.1 km fixed)| = {errors} dB"
    assert fl.run_link_full(fl.LinkConfig()).q_db == rows[0].q_db
    announce(f"default stepping within {max(errors):.1e} dB of 0.1 km fixed steps")


@pytest.mark.parametrize("power_dbm", sorted(FIXED_ORACLE_Q_DB_BY_POWER))
def test_default_stepping_matches_fixed_oracle_at_high_power(power_dbm):
    # The band's weakest point: its trials leave the Kerr term out above 6x
    # the bit rate, which costs the most at high power. At 12 dBm the worst
    # |q_db - q_db(0.1 km fixed)| over seeds 0-3 is 6.1e-3 dB.
    q_db = fl.run_link_full(fl.parse_config(f"tx.power_dbm = {power_dbm}")).q_db
    error = abs(q_db - FIXED_ORACLE_Q_DB_BY_POWER[power_dbm])
    assert error < Q_TOL_DB, f"|q_db - q_db(0.1 km fixed)| = {error} dB at {power_dbm} dBm"
    announce(f"default stepping within {error:.1e} dB of 0.1 km fixed steps at {power_dbm} dBm")


def test_criterion_4_dispersion_oracle():
    t0 = 25e-12
    pulse = gaussian(GRID64, t0)
    beta2 = fl.d_to_beta2(16.0, 1550e-9)
    ld_km = (t0 * 1e12) ** 2 / abs(beta2)
    out = fl.propagate_fiber(pulse, fl.FiberParams(ld_km, 16.0, 0.0, 0.0))
    ratio = rms_width(out) / rms_width(pulse)
    assert ratio == pytest.approx(np.sqrt(2.0), rel=5e-3), (
        f"width ratio {ratio} vs sqrt(2) at z = L_D = {ld_km:.3f} km"
    )

    rng = np.random.default_rng(7)
    samples = rng.normal(size=GRID64.n_samples) + 1j * rng.normal(size=GRID64.n_samples)
    field = fl.OpticalField(samples, GRID64)
    smf = fl.FiberParams(120.0, 16.0, 0.2, 0.0, label="SMF")
    dcf = fl.FiberParams(24.0, -80.0, 0.6, 0.0, label="DCF")
    out = fl.propagate_fiber(
        fl.propagate_fiber(field, smf, fl.SsfmOptions(step_km=1.0)),
        dcf,
        fl.SsfmOptions(step_km=1.0),
    )
    scale = np.linalg.norm(field.samples) / np.linalg.norm(out.samples)
    err = np.linalg.norm(scale * out.samples - field.samples) / np.linalg.norm(field.samples)
    assert err < 1e-6, f"round-trip relative error {err}"
    announce(f"C4 width ratio {ratio:.5f} ~ sqrt(2); round-trip error {err:.2e}")


def test_criterion_5_nlse_invariants():
    # energy conservation, lossless nonlinear span
    rng = np.random.default_rng(2025)
    samples = 0.03 * (rng.normal(size=GRID64.n_samples) + 1j * rng.normal(size=GRID64.n_samples))
    field = fl.OpticalField(samples, GRID64)
    out = fl.propagate_fiber(field, fl.FiberParams(120.0, 16.0, 0.0, 1.3), fl.SsfmOptions(step_km=1.0))
    energy_in = np.sum(np.abs(field.samples) ** 2)
    energy_err = abs(np.sum(np.abs(out.samples) ** 2) / energy_in - 1.0)
    assert energy_err < 1e-6, f"energy drift {energy_err}"

    # pure SPM phase
    p0 = 0.05
    flat = fl.OpticalField(np.full(GRID64.n_samples, np.sqrt(p0), dtype=complex), GRID64)
    out = fl.propagate_fiber(flat, fl.FiberParams(10.0, 0.0, 0.0, 2.0))
    expected_phase = 2.0e-3 * p0 * 10e3
    phase_err = float(np.max(np.abs(np.angle(out.samples * np.conj(flat.samples)) - expected_phase)))
    assert phase_err < 1e-4, f"SPM phase error {phase_err} rad"

    # fundamental soliton invariance over pi/2 dispersion lengths
    t0 = 25e-12
    gamma = 1.26677
    beta2 = fl.d_to_beta2(16.0, 1550e-9)
    p_sol = abs(beta2 * 1e-27) / (gamma * 1e-3 * t0**2)
    ld_km = (t0 * 1e12) ** 2 / abs(beta2)
    t = centred_time(GRID64)
    sol = fl.OpticalField((np.sqrt(p_sol) / np.cosh(t / t0)).astype(complex), GRID64)
    out = fl.propagate_fiber(sol, fl.FiberParams(np.pi / 2 * ld_km, 16.0, 0.0, gamma))
    peak_err = abs(np.max(np.abs(out.samples) ** 2) / p_sol - 1.0)
    assert peak_err < 0.01, f"soliton peak drift {peak_err}"

    # second-order convergence under step halving
    p_hi = 4 * abs(beta2 * 1e-27) / (gamma * 1e-3 * t0**2)
    pulse = gaussian(GRID64, t0, p_hi)
    fiber = fl.FiberParams(30.0, 16.0, 0.0, gamma)

    def run(step_km):
        return fl.propagate_fiber(pulse, fiber, fl.SsfmOptions(step_km=step_km)).samples

    ref = run(1.0 / 64.0)
    norm = np.linalg.norm(ref)
    err_coarse = np.linalg.norm(run(0.5) - ref) / norm
    err_fine = np.linalg.norm(run(0.25) - ref) / norm
    ratio = err_coarse / err_fine
    assert 3.4 <= ratio <= 4.6, f"step-halving error ratio {ratio}"
    announce(
        f"C5 energy {energy_err:.1e}, SPM {phase_err:.1e} rad, "
        f"soliton {peak_err:.1e}, convergence ratio {ratio:.2f}"
    )


def test_criterion_6_receiver_checks():
    # DC gain of the Bessel stage
    flat = fl.ElectricalWaveform(np.ones(GRID64.n_samples), GRID64)
    out = fl.bessel_lowpass(flat, fl.RxConfig(bessel_order=4, bessel_bandwidth=8e9))
    dc_err = float(np.max(np.abs(out.samples - 1.0)))
    assert dc_err < 1e-10, f"DC gain error {dc_err}"

    # half-power point at the configured bandwidth (tone on an exact bin)
    k = 50
    f3db = k / (GRID64.n_samples * GRID64.dt)
    t = np.arange(GRID64.n_samples) * GRID64.dt
    tone = fl.ElectricalWaveform(np.cos(2 * np.pi * f3db * t), GRID64)
    filtered = fl.bessel_lowpass(tone, fl.RxConfig(bessel_order=4, bessel_bandwidth=f3db))
    power_ratio = float(np.mean(filtered.samples**2) / np.mean(tone.samples**2))
    assert power_ratio == pytest.approx(0.5, rel=0.01), (
        f"|H|^2 at the bandwidth is {power_ratio}, not 0.5 within 1%"
    )

    # Q estimator on synthetic two-Gaussian rails
    worst = 0.0
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        ones = 10.0 + rng.standard_normal(100_000)
        zeros = rng.standard_normal(100_000)
        rail = fl.q_from_rails(ones, zeros)
        worst = max(worst, abs(rail.q_linear / 5.0 - 1.0))
    assert worst < 0.02, f"synthetic-rail Q off by {worst:.3%}"
    announce(
        f"C6 DC {dc_err:.1e}, |H|^2 {power_ratio:.4f}, rail-Q error {worst:.3%}"
    )


def test_criterion_7_reproducibility(tmp_path):
    cfg = tmp_path / "link.cfg"
    cfg.write_text(SMALL_CFG + "\n", encoding="utf-8")
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "fiberlink.cli", "sweep",
                "--config", str(cfg),
                "--pre", "2.4,3.0", "--post", "2.4,2.4",
                "--out", str(out_dir),
            ],
            capture_output=True,
            timeout=300,
            env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append((out_dir / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1], "sweep.csv differs between identical invocations"
    assert b"q_db" in outputs[0].splitlines()[0]
    announce("C7 byte-identical sweep.csv across two invocations")


def test_in_process_sweep_matches_subprocess(tmp_path):
    cfg = tmp_path / "link.cfg"
    cfg.write_text(SMALL_CFG + "\n", encoding="utf-8")
    out_dir = tmp_path / "inproc"
    rc = main([
        "sweep", "--config", str(cfg),
        "--pre", "2.4,3.0", "--post", "2.4,2.4",
        "--out", str(out_dir),
    ])
    assert rc == 0
    proc = subprocess.run(
        [
            sys.executable, "-m", "fiberlink.cli", "sweep",
            "--config", str(cfg),
            "--pre", "2.4,3.0", "--post", "2.4,2.4",
            "--out", str(tmp_path / "subproc"),
        ],
        capture_output=True,
        timeout=300,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert (out_dir / "sweep.csv").read_bytes() == (tmp_path / "subproc" / "sweep.csv").read_bytes()
