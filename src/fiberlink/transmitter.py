"""NRZ transmitter chain: PRBS data, trapezoidal drive, CW laser, MZ modulator.

The chain is ``prbs_generate -> nrz_drive -> mz_modulate(cw_laser)`` with a
final scaling so the launched mark level hits the configured power. All
stages operate on the shared circular sampling grid, so the first bit's
leading edge wraps from the last bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import (
    ElectricalWaveform,
    OpticalField,
    SamplingGrid,
    dbm_to_watts,
)

__all__ = [
    "BitSequence",
    "TxConfig",
    "PRBS_TAPS",
    "prbs_generate",
    "nrz_drive",
    "cw_laser",
    "mz_modulate",
    "transmit",
]

# Maximal-length Fibonacci LFSR feedback taps (ITU-T O.150 family).
PRBS_TAPS: dict[int, tuple[int, int]] = {
    7: (7, 6),
    9: (9, 5),
    11: (11, 9),
    15: (15, 14),
    23: (23, 18),
    31: (31, 28),
}

# Canonical LFSR start state used by `transmit`; any nonzero state yields the
# same maximal-length cycle, just rotated.
DEFAULT_LFSR_SEED = 1


@dataclass(frozen=True, slots=True)
class BitSequence:
    """A binary data pattern plus a tag describing how it was generated."""

    bits: np.ndarray
    generator: str

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits, dtype=np.uint8)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("bit sequence must be a non-empty 1-D array")
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("bit sequence must contain only 0s and 1s")
        object.__setattr__(self, "bits", arr)

    def __len__(self) -> int:
        return int(self.bits.size)


@dataclass(frozen=True, slots=True)
class TxConfig:
    """Transmitter settings (defaults: 10 Gb/s NRZ at 1550 nm, 0 dBm launch)."""

    bit_rate: float = 10e9  # bits/s
    wavelength: float = 1550e-9  # m
    launch_power_dbm: float = 0.0  # mark level at the first fiber input
    linewidth_hz: float = 10e6  # laser Lorentzian FWHM
    prbs_order: int = 7
    rise_time: float = 0.25  # 10-90 equivalent edge width, fraction of a UI
    extinction_db: float = 30.0

    def __post_init__(self) -> None:
        if not (self.bit_rate > 0 and np.isfinite(self.bit_rate)):
            raise ValueError(f"bit_rate must be positive, got {self.bit_rate}")
        if not (self.wavelength > 0 and np.isfinite(self.wavelength)):
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if not np.isfinite(self.launch_power_dbm):
            raise ValueError(f"launch_power_dbm must be finite, got {self.launch_power_dbm}")
        if self.linewidth_hz < 0 or not np.isfinite(self.linewidth_hz):
            raise ValueError(f"linewidth_hz must be >= 0, got {self.linewidth_hz}")
        if self.prbs_order not in PRBS_TAPS:
            raise ValueError(
                f"prbs_order must be one of {sorted(PRBS_TAPS)}, got {self.prbs_order}"
            )
        if not (0.0 < self.rise_time < 0.5):
            raise ValueError(f"rise_time must lie in (0, 0.5), got {self.rise_time}")
        if not (self.extinction_db > 0):
            raise ValueError(f"extinction_db must be positive, got {self.extinction_db}")


def prbs_generate(order: int, seed: int, n_bits: int) -> BitSequence:
    """Generate ``n_bits`` of a maximal-length PRBS from a Fibonacci LFSR.

    The register state is ``order`` bits wide; each step outputs the feedback
    bit (XOR of the two tap positions) and shifts it in. A maximal-length
    sequence repeats with period ``2**order - 1`` and contains ``2**(order-1)``
    ones per period.
    """
    if order not in PRBS_TAPS:
        raise ValueError(f"order must be one of {sorted(PRBS_TAPS)}, got {order}")
    if n_bits <= 0:
        raise ValueError(f"n_bits must be positive, got {n_bits}")
    mask = (1 << order) - 1
    state = int(seed) & mask
    if state == 0:
        raise ValueError("LFSR seed must be nonzero modulo 2**order")
    t1, t2 = PRBS_TAPS[order]
    period = mask
    n_gen = min(int(n_bits), period)
    out = np.empty(n_gen, dtype=np.uint8)
    for i in range(n_gen):
        fb = ((state >> (t1 - 1)) ^ (state >> (t2 - 1))) & 1
        out[i] = fb
        state = ((state << 1) | fb) & mask
    if n_bits > period:
        reps = -(-int(n_bits) // period)
        out = np.tile(out, reps)[: int(n_bits)]
    return BitSequence(bits=out, generator=f"prbs{order}")


def nrz_drive(bits: BitSequence, grid: SamplingGrid, rise_time: float = 0.25) -> ElectricalWaveform:
    """Trapezoidal NRZ drive in [0, 1] for one bit per grid slot.

    Each transition is a linear ramp of width ``rise_time`` UI centered on
    the bit boundary; the pattern is circular, so the edge into bit 0 comes
    from the last bit.
    """
    if not (0.0 < rise_time < 0.5):
        raise ValueError(f"rise_time must lie in (0, 0.5), got {rise_time}")
    if len(bits) != grid.n_bits:
        raise ValueError(f"got {len(bits)} bits for a grid of {grid.n_bits} bit slots")
    b = bits.bits.astype(np.float64)
    spb = grid.samples_per_bit
    n = grid.n_samples
    idx = np.arange(n)
    bit_idx = idx // spb
    frac = (idx % spb) / spb  # position within the bit, [0, 1)
    cur = b[bit_idx]
    prev = b[(bit_idx - 1) % grid.n_bits]
    nxt = b[(bit_idx + 1) % grid.n_bits]
    half = rise_time / 2.0
    v = cur.copy()
    lead = frac < half  # still finishing the transition from the previous bit
    v[lead] = prev[lead] + (cur[lead] - prev[lead]) * (frac[lead] + half) / rise_time
    tail = frac >= 1.0 - half  # starting the transition into the next bit
    v[tail] = cur[tail] + (nxt[tail] - cur[tail]) * (frac[tail] - (1.0 - half)) / rise_time
    return ElectricalWaveform(v, grid)


def cw_laser(
    grid: SamplingGrid,
    power_watts: float,
    linewidth_hz: float,
    rng: np.random.Generator | None = None,
) -> OpticalField:
    """Continuous-wave laser with Lorentzian phase noise.

    Phase noise is a Wiener process whose increments have variance
    ``2*pi*linewidth*dt``, giving a Lorentzian line of FWHM ``linewidth_hz``.
    ``linewidth_hz = 0`` yields a perfectly coherent constant field.
    """
    if power_watts < 0:
        raise ValueError(f"power_watts must be >= 0, got {power_watts}")
    if linewidth_hz < 0:
        raise ValueError(f"linewidth_hz must be >= 0, got {linewidth_hz}")
    phase = np.zeros(grid.n_samples)
    if linewidth_hz > 0.0:
        if rng is None:
            raise ValueError("an rng is required when linewidth_hz > 0")
        sigma = np.sqrt(2.0 * np.pi * linewidth_hz * grid.dt)
        increments = rng.normal(0.0, sigma, grid.n_samples - 1)
        phase[1:] = np.cumsum(increments)
    field = np.sqrt(power_watts) * np.exp(1j * phase)
    return OpticalField(field, grid)


def mz_modulate(
    field: OpticalField, drive: ElectricalWaveform, extinction_db: float = 30.0
) -> OpticalField:
    """Chirp-free Mach-Zehnder amplitude modulator with finite extinction.

    The drive is mapped onto the sin^2 transfer curve so that drive = 1 sits
    at full transmission and drive = 0 at the configured extinction ratio
    below it. Pure amplitude modulation: the optical phase is untouched.
    """
    if field.grid is not drive.grid and field.grid != drive.grid:
        raise ValueError("field and drive must share the same sampling grid")
    if not (extinction_db > 0):
        raise ValueError(f"extinction_db must be positive, got {extinction_db}")
    v = drive.samples
    if np.any(v < 0.0) or np.any(v > 1.0):
        raise ValueError("drive samples must lie in [0, 1]")
    if np.isinf(extinction_db):
        v_min = 0.0
    else:
        er_lin = 10.0 ** (extinction_db / 10.0)
        v_min = (2.0 / np.pi) * np.arcsin(1.0 / np.sqrt(er_lin))
    v_eff = v_min + (1.0 - v_min) * v
    amp = np.sin(0.5 * np.pi * v_eff)
    return OpticalField(field.samples * amp, field.grid)


def _mark_center_mask(bits: BitSequence, grid: SamplingGrid) -> np.ndarray:
    """Samples in the flat central half of each mark bit."""
    spb = grid.samples_per_bit
    idx = np.arange(grid.n_samples)
    frac = (idx % spb) / spb
    is_mark = bits.bits[idx // spb] == 1
    return is_mark & (frac >= 0.25) & (frac < 0.75)


def transmit(
    config: TxConfig,
    grid: SamplingGrid,
    rng: np.random.Generator | None = None,
) -> tuple[BitSequence, OpticalField]:
    """Run the full transmitter chain; returns the data bits and the field.

    The output is scaled so the mean power over the flat centers of the mark
    bits equals ``launch_power_dbm`` exactly. ``rng`` drives the laser phase
    noise and is required when ``linewidth_hz > 0``.
    """
    if grid.bit_rate != config.bit_rate:
        raise ValueError(
            f"grid bit rate {grid.bit_rate} does not match config bit rate {config.bit_rate}"
        )
    if grid.center_wavelength != config.wavelength:
        raise ValueError(
            f"grid wavelength {grid.center_wavelength} does not match "
            f"config wavelength {config.wavelength}"
        )
    bits = prbs_generate(config.prbs_order, DEFAULT_LFSR_SEED, grid.n_bits)
    drive = nrz_drive(bits, grid, config.rise_time)
    laser = cw_laser(grid, 1.0, config.linewidth_hz, rng)
    modulated = mz_modulate(laser, drive, config.extinction_db)
    mask = _mark_center_mask(bits, grid)
    if not np.any(mask):
        raise ValueError("bit pattern contains no mark bits to set the launch power against")
    p_mark = float(np.mean(np.abs(modulated.samples[mask]) ** 2))
    target = dbm_to_watts(config.launch_power_dbm)
    scale = np.sqrt(target / p_mark)
    return bits, OpticalField(modulated.samples * scale, grid)
