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
    as_integer,
    dbm_to_watts,
    finite_db,
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

# Carrier wavelengths a TxConfig accepts, in meters: the O band through the U band.
WAVELENGTH_RANGE = (1260e-9, 1675e-9)


@dataclass(frozen=True, slots=True)
class BitSequence:
    """A binary data pattern."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits, dtype=np.uint8)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("bit sequence must be a non-empty 1-D array")
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("bit sequence must contain only 0s and 1s")
        object.__setattr__(self, "bits", arr)


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
        low, high = WAVELENGTH_RANGE
        if not low <= self.wavelength <= high:
            raise ValueError(f"wavelength must lie in [{low}, {high}] m, got {self.wavelength}")
        if not finite_db(self.launch_power_dbm):
            raise ValueError(f"launch_power_dbm must be finite in W, got {self.launch_power_dbm}")
        if self.linewidth_hz < 0 or not np.isfinite(self.linewidth_hz):
            raise ValueError(f"linewidth_hz must be >= 0, got {self.linewidth_hz}")
        if as_integer("prbs_order", self.prbs_order) not in PRBS_TAPS:
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
    return BitSequence(bits=out)


def nrz_drive(bits: BitSequence, grid: SamplingGrid, tx: TxConfig) -> ElectricalWaveform:
    """Trapezoidal NRZ drive in [0, 1] for one bit per grid slot.

    Each transition is a linear ramp of width ``tx.rise_time`` UI centered on
    the bit boundary; the pattern is circular, so the edge into bit 0 comes
    from the last bit.
    """
    if bits.bits.size != grid.n_bits:
        raise ValueError(f"got {bits.bits.size} bits for a grid of {grid.n_bits} bit slots")
    b = bits.bits.astype(np.float64)
    spb = grid.samples_per_bit
    # One row per bit slot: the current, previous and next bit are columns.
    cur = b[:, None]
    prev = np.roll(b, 1)[:, None]
    nxt = np.roll(b, -1)[:, None]
    frac = np.arange(spb) / spb  # position within the bit, [0, 1)
    half = tx.rise_time / 2.0
    v = np.repeat(cur, spb, axis=1)
    lead = frac < half  # still finishing the transition from the previous bit
    v[:, lead] = prev + (cur - prev) * (frac[lead] + half) / tx.rise_time
    tail = frac >= 1.0 - half  # starting the transition into the next bit
    v[:, tail] = cur + (nxt - cur) * (frac[tail] - (1.0 - half)) / tx.rise_time
    return ElectricalWaveform(v.ravel(), grid)


def cw_laser(grid: SamplingGrid, tx: TxConfig, rng: np.random.Generator) -> OpticalField:
    """Unit-power continuous-wave laser with Lorentzian phase noise.

    Phase noise is a Wiener process whose increments have variance
    ``2*pi*linewidth*dt``, giving a Lorentzian line of FWHM ``tx.linewidth_hz``.
    ``linewidth_hz = 0`` yields a perfectly coherent constant field and draws nothing.
    """
    phase = np.zeros(grid.n_samples)
    if tx.linewidth_hz > 0.0:
        sigma = np.sqrt(2.0 * np.pi * tx.linewidth_hz * grid.dt)
        increments = rng.normal(0.0, sigma, grid.n_samples - 1)
        phase[1:] = np.cumsum(increments)
    return OpticalField(np.exp(1j * phase), grid)


def mz_modulate(field: OpticalField, drive: ElectricalWaveform, tx: TxConfig) -> OpticalField:
    """Chirp-free Mach-Zehnder amplitude modulator with finite extinction.

    The drive is mapped onto the sin^2 transfer curve so that drive = 1 sits
    at full transmission and drive = 0 at ``tx.extinction_db`` below it.
    Pure amplitude modulation: the optical phase is untouched.
    """
    if field.grid is not drive.grid and field.grid != drive.grid:
        raise ValueError("field and drive must share the same sampling grid")
    v = drive.samples
    if np.any(v < 0.0) or np.any(v > 1.0):
        raise ValueError("drive samples must lie in [0, 1]")
    # The amplitude floor 10^(-ER/20) = 1/sqrt(ER as a power ratio) cannot overflow.
    v_min = (2.0 / np.pi) * np.arcsin(10.0 ** (-tx.extinction_db / 20.0))
    v_eff = v_min + (1.0 - v_min) * v
    amp = np.sin(0.5 * np.pi * v_eff)
    return OpticalField(field.samples * amp, field.grid)


def transmit(
    config: TxConfig, grid: SamplingGrid, rng: np.random.Generator
) -> tuple[BitSequence, OpticalField]:
    """Run the full transmitter chain; returns the data bits and the field.

    The output is scaled so the mean power over the flat centers of the mark
    bits equals ``launch_power_dbm`` exactly. ``rng`` drives the laser phase noise.
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
    drive = nrz_drive(bits, grid, config)
    laser = cw_laser(grid, config, rng)
    modulated = mz_modulate(laser, drive, config)
    spb = grid.samples_per_bit
    centers = modulated.samples.reshape(grid.n_bits, spb)[bits.bits == 1, spb // 4 : 3 * spb // 4]
    if centers.size == 0:
        raise ValueError("bit pattern contains no mark bits to set the launch power against")
    p_mark = float(np.mean(np.abs(centers) ** 2))
    target = dbm_to_watts(config.launch_power_dbm)
    scale = np.sqrt(target / p_mark)
    return bits, OpticalField(modulated.samples * scale, grid)
