"""Eye folding, Q-factor / BER estimation, and timing jitter.

Q is the Gaussian-rail statistic q = (mu1 - mu0) / (sigma1 + sigma0) at the
best decision phase within the unit interval, with BER = erfc(q / sqrt(2)) / 2.
Timing jitter is the peak-to-peak spread of threshold-crossing times relative
to the nearest bit boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .signals import ElectricalWaveform, SamplingGrid
from .transmitter import BitSequence

__all__ = [
    "BER_FLOOR",
    "Q_CAP",
    "MIN_RAIL_BITS",
    "EyeDiagram",
    "RailQ",
    "QResult",
    "ber_from_q",
    "q_from_rails",
    "fold_eye",
    "estimate_q",
    "format_eye",
]

BER_FLOOR = 1e-40
Q_CAP = 1e6
MIN_RAIL_BITS = 8  # fewest bits of each value estimate_q takes rail statistics over


def ber_from_q(q_linear: float) -> float:
    """Gaussian-tail bit error rate for a linear Q, clamped to [1e-40, 0.5]."""
    q = float(q_linear)
    if not math.isfinite(q) or q < 0.0:
        raise ValueError(f"q_linear must be finite and >= 0, got {q_linear}")
    return min(0.5, max(BER_FLOOR, 0.5 * math.erfc(q / math.sqrt(2.0))))


def _q_db(q_linear: float) -> float:
    return float(20.0 * np.log10(q_linear)) if q_linear > 0.0 else float("-inf")


@dataclass(frozen=True, slots=True)
class RailQ:
    """Q statistic of a single pair of sample rails."""

    q_linear: float
    q_db: float
    ber: float
    mu1: float
    sigma1: float
    mu0: float
    sigma0: float


def _rail_stats(ones: np.ndarray, zeros: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rail means, sigmas and q, reduced along the last axis.

    A vanishing sigma sum with separated means caps q at ``Q_CAP``; an
    inverted or closed eye clamps q at zero (BER 0.5).
    """
    mu1, s1 = ones.mean(axis=-1), ones.std(axis=-1)
    mu0, s0 = zeros.mean(axis=-1), zeros.std(axis=-1)
    denom = s1 + s0
    q = np.divide(mu1 - mu0, denom, out=np.where(mu1 > mu0, Q_CAP, 0.0), where=denom != 0.0)
    return mu1, s1, mu0, s0, np.clip(q, 0.0, Q_CAP)


def q_from_rails(one_samples: np.ndarray, zero_samples: np.ndarray) -> RailQ:
    """Estimate Q from raw decision samples of the two rails (see ``_rail_stats``)."""
    ones = np.asarray(one_samples, dtype=np.float64).ravel()
    zeros = np.asarray(zero_samples, dtype=np.float64).ravel()
    if ones.size == 0 or zeros.size == 0:
        raise ValueError("both rails must contain at least one sample")
    mu1, s1, mu0, s0, q = map(float, _rail_stats(ones, zeros))
    return RailQ(
        q_linear=q, q_db=_q_db(q), ber=ber_from_q(q), mu1=mu1, sigma1=s1, mu0=mu0, sigma0=s0
    )


@dataclass(frozen=True, slots=True)
class EyeDiagram:
    """Bit-folded waveform traces plus threshold-crossing samples."""

    traces: np.ndarray  # (n_kept_bits, samples_per_bit)
    grid: SamplingGrid
    threshold: float
    crossing_times: np.ndarray  # seconds from frame start
    crossing_offsets: np.ndarray  # seconds from the nearest bit boundary
    degenerate: bool


@dataclass(frozen=True, slots=True)
class QResult:
    """Link quality summary at the optimal decision phase."""

    q_linear: float
    q_db: float
    ber: float
    jitter_ns: float
    decision_phase: int  # sample index within the unit interval
    threshold: float
    mu1: float
    sigma1: float
    mu0: float
    sigma0: float
    n_ones: int
    n_zeros: int
    delay_samples: int
    # The eye folded at the recovered delay; a by-product, not part of the result's value.
    eye: EyeDiagram | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.q_linear <= Q_CAP):
            raise ValueError(f"q_linear out of range: {self.q_linear}")
        if not (BER_FLOOR <= self.ber <= 0.5):
            raise ValueError(f"ber out of range: {self.ber}")
        if self.jitter_ns < 0.0:
            raise ValueError(f"jitter_ns must be >= 0, got {self.jitter_ns}")


def _check_skip(skip_bits: int, n_bits: int) -> None:
    """Require the warm-up bits to leave at least one of the frame's ``n_bits``."""
    if not 0 <= skip_bits < n_bits:
        raise ValueError(f"skip_bits must lie in [0, n_bits), got {skip_bits} for {n_bits} bits")


def _rail_mask(bits: np.ndarray, skip_bits: int) -> tuple[np.ndarray, int, int]:
    """The ones mask of the bits after warm-up and its counts, each ``MIN_RAIL_BITS`` or more."""
    mask = bits[skip_bits:] == 1
    n_ones = int(np.count_nonzero(mask))
    n_zeros = mask.size - n_ones
    if min(n_ones, n_zeros) < MIN_RAIL_BITS:
        raise ValueError(
            f"n_bits = {bits.size} with skip_bits = {skip_bits} leaves too few bits for "
            f"estimate_q: {n_ones} ones, {n_zeros} zeros, {MIN_RAIL_BITS} bits of each needed"
        )
    return mask, n_ones, n_zeros


def fold_eye(wave: ElectricalWaveform, skip_bits: int) -> EyeDiagram:
    """Fold a waveform into per-bit traces and locate threshold crossings.

    The first ``skip_bits`` bits are discarded as filter warm-up. The decision
    threshold is the midpoint of the upper and lower sample clusters (split at
    the mean). A flat waveform has no crossings and is flagged degenerate.
    """
    grid = wave.grid
    _check_skip(skip_bits, grid.n_bits)
    spb = grid.samples_per_bit
    kept = wave.samples[skip_bits * spb :]
    traces = kept.reshape(grid.n_bits - skip_bits, spb)

    mean = float(np.mean(kept))
    upper = kept[kept > mean]
    lower = kept[kept <= mean]
    degenerate = upper.size == 0 or lower.size == 0
    if degenerate:
        threshold = mean
        crossing_times = np.empty(0)
        offsets = np.empty(0)
    else:
        threshold = 0.5 * (float(np.mean(upper)) + float(np.mean(lower)))
        d = kept - threshold
        sign_change = d[:-1] * d[1:] < 0.0
        idx = np.nonzero(sign_change)[0]
        frac = d[idx] / (d[idx] - d[idx + 1])  # linear interpolation between samples
        crossing_times = (skip_bits * spb + idx + frac) * grid.dt
        t_bit = grid.bit_period
        offsets = ((crossing_times / t_bit + 0.5) % 1.0 - 0.5) * t_bit
    return EyeDiagram(
        traces=traces,
        grid=grid,
        threshold=threshold,
        crossing_times=crossing_times,
        crossing_offsets=offsets,
        degenerate=degenerate,
    )


def _recover_delay(wave: np.ndarray, bits: np.ndarray, spb: int) -> int:
    """Integer-sample delay of the waveform against the ideal NRZ pattern."""
    ref = np.repeat(bits.astype(np.float64), spb)
    x = wave - np.mean(wave)
    r = ref - np.mean(ref)
    corr = np.fft.irfft(np.fft.rfft(x) * np.conj(np.fft.rfft(r)), x.size)
    return int(np.argmax(corr))


def estimate_q(wave: ElectricalWaveform, bits: BitSequence, skip_bits: int) -> QResult:
    """Estimate Q, BER, and jitter from a received waveform and known data.

    The waveform is aligned to the transmitted pattern by circular
    cross-correlation, folded per bit, and the rail statistics are evaluated
    at every sample phase; the phase maximizing q decides the result.
    """
    grid = wave.grid
    b = bits.bits
    if b.size != grid.n_bits:
        raise ValueError(f"got {b.size} bits for a grid of {grid.n_bits} bit slots")

    delay = _recover_delay(wave.samples, b, grid.samples_per_bit)
    eye = fold_eye(ElectricalWaveform(np.roll(wave.samples, -delay), grid), skip_bits)
    mask, n_ones, n_zeros = _rail_mask(b, skip_bits)
    # One contiguous row per phase, so each row reduces exactly as a 1-D rail does.
    stats = _rail_stats(
        np.ascontiguousarray(eye.traces[mask].T), np.ascontiguousarray(eye.traces[~mask].T)
    )
    phase = int(np.argmax(stats[-1]))
    mu1, s1, mu0, s0, q = (float(values[phase]) for values in stats)
    if eye.crossing_offsets.size >= 2:
        jitter_ns = float(
            (np.max(eye.crossing_offsets) - np.min(eye.crossing_offsets)) * 1e9
        )
    else:
        jitter_ns = 0.0
    return QResult(
        q_linear=q,
        q_db=_q_db(q),
        ber=ber_from_q(q),
        jitter_ns=jitter_ns,
        decision_phase=phase,
        threshold=0.5 * (mu1 + mu0),
        mu1=mu1,
        sigma1=s1,
        mu0=mu0,
        sigma0=s0,
        n_ones=n_ones,
        n_zeros=n_zeros,
        delay_samples=delay,
        eye=eye,
    )


def format_eye(eye: EyeDiagram, out: TextIO) -> None:
    """Write the plain-text eye dump to ``out``: one row per (trace, sample) point.

    Columns: trace_index, sample_index, time within the UI, amplitude. Each
    trace is one ``out.write``, so the dump is never held whole in memory.
    """
    spb = eye.grid.samples_per_bit
    heads = [f" {si} {si / spb!r} " for si in range(spb)]
    out.write("# trace sample time_ui amplitude\n")
    for ti in range(eye.traces.shape[0]):
        row = eye.traces[ti].tolist()
        out.write("".join([f"{ti}{head}{value!r}\n" for head, value in zip(heads, row)]))
