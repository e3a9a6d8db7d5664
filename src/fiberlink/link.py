"""Link assembly and orchestration: dispersion maps, single runs, and sweeps.

A link is an ordered sequence of fiber spans and amplifiers. The two DCF
lengths are the dispersion map: a DCF side is placed before (pre) or after
(post) the SMF line when its length is > 0. So (L, 0) is pre-compensation,
(0, L) post-compensation, two positive lengths split the DCF across both ends,
and (0, 0) is the uncompensated line. Every fiber span is followed by an
amplifier. By default (``amp.mode = restore``) it restores the launch level,
so the Q comparison across dispersion maps is not confounded by net loss;
``amp.mode = fixed:<dB>`` applies a fixed gain instead.
"""
from __future__ import annotations

import copy
import dataclasses
import functools
import math
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from .fiber import (
    AmplifierParams,
    FiberParams,
    PropagationError,
    SsfmOptions,
    amplify,
    propagate_fiber,
    propagate_span,
)
from .metrics import MIN_RAIL_BITS, QResult, estimate_q
from .receiver import RxConfig, receive
from .signals import ElectricalWaveform, OpticalField, SamplingGrid
from .transmitter import DEFAULT_LFSR_SEED, BitSequence, TxConfig, prbs_generate, transmit

__all__ = [
    "LinkTopology",
    "SimSettings",
    "LinkConfig",
    "SweepRow",
    "LinkRunResult",
    "build_link",
    "residual_dispersion",
    "dispersion_profile",
    "run_link_full",
    "sweep",
]

DEFAULT_SMF = FiberParams(
    length_km=120.0,
    dispersion_ps_nm_km=16.0,
    loss_db_km=0.2,
    gamma_per_w_km=1.26677,
    label="SMF",
)
# The DCF's parameters; its lengths are LinkConfig's pre/post_length_km.
DEFAULT_DCF = FiberParams(
    length_km=0.0,
    dispersion_ps_nm_km=-80.0,
    loss_db_km=0.6,
    gamma_per_w_km=1.8,
    label="DCF",
)


@dataclass(frozen=True, slots=True)
class LinkTopology:
    """Ordered element chain; fibers carry length, amplifiers are lumped."""

    elements: tuple[FiberParams | AmplifierParams, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("a link must contain at least one element")
        if not any(
            isinstance(el, FiberParams) and el.label == "SMF" for el in self.elements
        ):
            raise ValueError("a link must contain at least one SMF span")

    def fibers(self) -> tuple[FiberParams, ...]:
        return tuple(el for el in self.elements if isinstance(el, FiberParams))


def build_link(
    l_pre: float,
    l_post: float,
    smf: FiberParams = DEFAULT_SMF,
    dcf: FiberParams = DEFAULT_DCF,
    n_smf_spans: int = 2,
    amplifier: AmplifierParams | None = None,
) -> LinkTopology:
    """Assemble the element chain of one dispersion map.

    ``l_pre``/``l_post`` are the DCF lengths at the line input and output; a
    side is left out when its length is 0. Every fiber span is followed by a
    copy of ``amplifier`` (default: restore to 0 dBm).
    """
    if not (0 <= l_pre < math.inf and 0 <= l_post < math.inf):
        raise ValueError(f"DCF lengths must satisfy 0 <= l < inf, got pre={l_pre}, post={l_post}")
    if n_smf_spans < 1:
        raise ValueError(f"n_smf_spans must be >= 1, got {n_smf_spans}")
    if amplifier is None:
        amplifier = AmplifierParams(mode="restore", target_dbm=0.0)

    elements: list[FiberParams | AmplifierParams] = []

    def add_fiber(f: FiberParams) -> None:
        elements.append(f)
        elements.append(amplifier)

    if l_pre > 0:
        add_fiber(dataclasses.replace(dcf, length_km=l_pre, label="DCF-pre"))
    for _ in range(n_smf_spans):
        add_fiber(smf)
    if l_post > 0:
        add_fiber(dataclasses.replace(dcf, length_km=l_post, label="DCF-post"))
    return LinkTopology(elements=tuple(elements))


def residual_dispersion(topology: LinkTopology) -> float:
    """Net accumulated dispersion of the link, ps/nm: the end of its dispersion profile."""
    return dispersion_profile(topology)[-1][1]


def dispersion_profile(topology: LinkTopology) -> list[tuple[float, float]]:
    """Accumulated dispersion sampled at fiber boundaries.

    Returns (position_km, accumulated_ps_nm) breakpoints, starting at (0, 0);
    the profile is piecewise linear between them.
    """
    points = [(0.0, 0.0)]
    pos = 0.0
    acc = 0.0
    for f in topology.fibers():
        pos += f.length_km
        acc += f.dispersion_ps_nm_km * f.length_km
        points.append((pos, acc))
    return points


@dataclass(frozen=True, slots=True)
class SimSettings:
    """Grid size, integrator options, and seeding for one run."""

    n_bits: int = 1024
    samples_per_bit: int = 32
    seed: int = 42
    skip_bits: int = 8
    ssfm: SsfmOptions = field(default_factory=SsfmOptions)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (0 <= self.skip_bits < self.n_bits):
            raise ValueError(
                f"skip_bits must lie in [0, n_bits), got {self.skip_bits} for {self.n_bits} bits"
            )


@dataclass(frozen=True, slots=True)
class LinkConfig:
    """Complete description of one link simulation.

    ``pre_length_km``/``post_length_km`` are the DCF sides passed to
    :func:`build_link`; ``dcf`` supplies the other DCF parameters, and its own
    ``length_km`` must be 0. Construction checks what the modules must agree
    on: the topology, the fixed-mode step count of each span, the sampling
    grid, the receive filter against the grid's Nyquist frequency, the laser
    phase noise per sample, and enough bits of each value for ``estimate_q``.
    """

    n_smf_spans: int = 2
    smf: FiberParams = DEFAULT_SMF
    dcf: FiberParams = DEFAULT_DCF
    pre_length_km: float = 24.0
    post_length_km: float = 24.0
    tx: TxConfig = field(default_factory=TxConfig)
    rx: RxConfig = field(default_factory=RxConfig)
    amp: AmplifierParams = field(default_factory=AmplifierParams)
    sim: SimSettings = field(default_factory=SimSettings)

    def __post_init__(self) -> None:
        if self.dcf.length_km != 0:
            raise ValueError(
                f"dcf.length_km must be 0, got {self.dcf.length_km}: the DCF lengths are "
                "pre_length_km and post_length_km"
            )
        topology = self.resolve_topology()
        if self.sim.ssfm.step_km is not None:
            for fiber in topology.fibers():
                self.sim.ssfm.fixed_steps(fiber)
        grid = self.grid()
        if not self.rx.bessel_bandwidth < 0.5 * grid.sample_rate:
            raise ValueError(
                f"rx bessel_bandwidth {self.rx.bessel_bandwidth:.6g} Hz must be below "
                f"the grid Nyquist frequency {0.5 * grid.sample_rate:.6g} Hz"
            )
        variance = 2.0 * math.pi * self.tx.linewidth_hz * grid.dt
        if not variance <= 1.0:
            raise ValueError(
                f"tx linewidth_hz {self.tx.linewidth_hz:.6g} Hz gives a phase-noise variance "
                f"2*pi*linewidth*dt of {variance:.6g} rad^2 per sample, above 1 rad^2"
            )
        pattern = prbs_generate(self.tx.prbs_order, DEFAULT_LFSR_SEED, self.sim.n_bits)
        n_ones = int(np.count_nonzero(pattern.bits[self.sim.skip_bits :]))
        n_zeros = self.sim.n_bits - self.sim.skip_bits - n_ones
        if min(n_ones, n_zeros) < MIN_RAIL_BITS:
            raise ValueError(
                f"n_bits = {self.sim.n_bits} with skip_bits = {self.sim.skip_bits} leaves too "
                f"few bits for estimate_q: {n_ones} ones, {n_zeros} zeros, {MIN_RAIL_BITS} needed"
            )

    def grid(self) -> SamplingGrid:
        return SamplingGrid(
            self.tx.bit_rate, self.sim.n_bits, self.sim.samples_per_bit, self.tx.wavelength
        )

    def resolve_amplifier(self) -> AmplifierParams:
        """Fill a restore-mode amplifier's target from the launch power."""
        if self.amp.mode == "restore" and self.amp.target_dbm is None:
            return dataclasses.replace(self.amp, target_dbm=self.tx.launch_power_dbm)
        return self.amp

    def resolve_topology(self) -> LinkTopology:
        return build_link(
            self.pre_length_km,
            self.post_length_km,
            self.smf,
            self.dcf,
            self.n_smf_spans,
            self.resolve_amplifier(),
        )


@dataclass(frozen=True, slots=True)
class LinkRunResult:
    """Everything a single run produces."""

    q: QResult
    bits: BitSequence
    received: ElectricalWaveform
    grid: SamplingGrid
    topology: LinkTopology
    residual_ps_nm: float
    seed: int


def _streams(seed: int) -> list[np.random.SeedSequence]:
    """Seed sequences of the transmitter, the amplifier chain and the receiver."""
    return np.random.SeedSequence(seed).spawn(3)


def _transmit(
    config: LinkConfig, grid: SamplingGrid
) -> tuple[BitSequence, OpticalField, np.random.Generator]:
    """The state before element 0: bits, transmitted field and a fresh amplifier RNG."""
    tx_ss, amp_ss, _ = _streams(config.sim.seed)
    bits, field_ = transmit(config.tx, grid, rng=np.random.default_rng(tx_ss))
    return bits, field_, np.random.default_rng(amp_ss)


def _walk(
    field_: OpticalField, amp_rng: np.random.Generator, topology: LinkTopology,
    ssfm: SsfmOptions, start: int = 0,
    spans: Mapping[int, Callable[[OpticalField], OpticalField]] | None = None,
) -> Iterator[tuple[int, OpticalField]]:
    """Yield ``(k, field)`` at each point ``k`` of the chain, from ``start`` to its end.

    ``spans`` may map a fiber's index to the function that propagates it instead.
    """
    yield start, field_
    for index, element in enumerate(topology.elements[start:], start):
        try:
            if spans and index in spans:
                field_ = spans[index](field_)
            elif isinstance(element, FiberParams):
                field_ = propagate_fiber(field_, element, ssfm)
            else:
                field_ = amplify(field_, element, amp_rng)
        except PropagationError as exc:
            raise PropagationError(f"element {index} ({element.label}): {exc}") from exc
        yield index + 1, field_


def _finish(
    config: LinkConfig, grid: SamplingGrid, topology: LinkTopology, bits: BitSequence,
    field_: OpticalField,
) -> LinkRunResult:
    received = receive(field_, config.rx, np.random.default_rng(_streams(config.sim.seed)[2]))
    return LinkRunResult(
        q=estimate_q(received, bits, config.sim.skip_bits),
        bits=bits,
        received=received,
        grid=grid,
        topology=topology,
        residual_ps_nm=residual_dispersion(topology),
        seed=config.sim.seed,
    )


def run_link_full(config: LinkConfig) -> LinkRunResult:
    """Run transmitter -> link -> receiver -> metrics for one configuration.

    Independent RNG streams for the transmitter, amplifier chain, and receiver
    are derived from ``config.sim.seed``, so a run is a pure function of
    (config, seed).
    """
    grid, topology = config.grid(), config.resolve_topology()
    bits, field_, amp_rng = _transmit(config, grid)
    for _, field_ in _walk(field_, amp_rng, topology, config.sim.ssfm):
        pass
    return _finish(config, grid, topology, bits, field_)


@dataclass(frozen=True, slots=True)
class SweepRow:
    """Outcome of one sweep point; ``error`` is set when the run failed."""

    pre_km: float
    post_km: float
    residual_ps_nm: float | None
    q_db: float | None
    ber: float | None
    jitter_ns: float | None
    seed: int
    error: str | None = None


def sweep(
    config: LinkConfig, pairs: Iterable[tuple[float, float]], per_row_seeds: bool = False
) -> list[SweepRow]:
    """Run ``config`` at each (pre, post) DCF length pair; a row that fails records its error.

    By default every row reuses ``config.sim.seed``, so Q differences reflect
    the dispersion map alone; ``per_row_seeds`` derives a distinct child seed
    per row instead, which turns the sharing below off. Rows run in order, each
    resuming from the state at the end of the longest element-chain prefix it
    shares with an earlier row of its seed. A fixed-step fiber span resumes
    mid-way after an earlier row's span with the same prefix, the same fiber
    apart from its length and the same step dz (see :func:`propagate_span`);
    adaptive spans, and spans shorter than one already run, run whole. Each
    row still equals ``run_link_full`` of its config.
    """
    plan: list[tuple[float, float, int, tuple | Exception]] = []
    # A prefix's state (bits, field, amplifier RNG), or a span group's unclosed
    # spectrum and step count, is kept until its last resuming row.
    seen: set[tuple] = set()
    last_use: dict[tuple, int] = {}
    # Steps of the longest span so far in each group: same prefix, same fiber
    # apart from its length, same fixed step dz.
    ends: dict[tuple, int] = {}
    for index, (pre, post) in enumerate(pairs):
        seed = config.sim.seed
        if per_row_seeds:
            seed = int(np.random.SeedSequence([config.sim.seed, index]).generate_state(1)[0])
        try:
            sim = dataclasses.replace(config.sim, seed=seed)
            cfg = dataclasses.replace(config, pre_length_km=pre, post_length_km=post, sim=sim)
            grid, topology = cfg.grid(), cfg.resolve_topology()
            keys = [(seed, topology.elements[:k]) for k in range(len(topology.elements) + 1)]
        except Exception as exc:  # noqa: BLE001 - row-level fault isolation
            plan.append((pre, post, seed, exc))
            continue
        shared = [key for key in keys if key in seen]
        if shared:
            last_use[shared[-1]] = index
        seen.update(keys)
        ssfm, spans = cfg.sim.ssfm, {}
        for k in range(max(len(shared) - 1, 0), len(topology.elements)):
            fiber = topology.elements[k]
            if ssfm.step_km is None or not isinstance(fiber, FiberParams):
                continue
            group = (keys[k], dataclasses.replace(fiber, length_km=0.0), ssfm.fixed_step_m(fiber))
            steps, end = ssfm.fixed_steps(fiber), ends.get(group, 0)
            resumes = 0 < end <= steps
            if resumes:
                last_use[group] = index
            spans[k] = (group, fiber, resumes, steps > end)
            ends[group] = max(end, steps)
        plan.append((pre, post, seed, (cfg, grid, topology, keys, spans)))

    rows: list[SweepRow] = []
    saved: dict[tuple, tuple] = {}
    for index, (pre, post, seed, built) in enumerate(plan):
        try:
            if isinstance(built, Exception):
                raise built
            cfg, grid, topology, keys, spans = built
            start = max((k for k, key in enumerate(keys) if key in saved), default=0)
            bits, field_, amp_rng = saved.get(keys[start]) or _transmit(cfg, grid)
            amp_rng = copy.deepcopy(amp_rng)  # later rows may resume from the same state
            runners = {}
            for k, (group, fiber, resumes, extends) in spans.items():
                span = saved.get(group) if resumes else None
                keep = extends and last_use.get(group, index) > index
                if span or keep:
                    runners[k] = functools.partial(
                        propagate_span, fiber=fiber, options=cfg.sim.ssfm, start=span,
                        keep=functools.partial(saved.__setitem__, group) if keep else None,
                    )
            for k, field_ in _walk(field_, amp_rng, topology, cfg.sim.ssfm, start, runners):
                if last_use.get(keys[k], index) > index and keys[k] not in saved:
                    saved[keys[k]] = (bits, field_, copy.deepcopy(amp_rng))
            r = _finish(cfg, grid, topology, bits, field_)
            row = SweepRow(pre, post, r.residual_ps_nm, r.q.q_db, r.q.ber, r.q.jitter_ns, seed)
        except Exception as exc:  # noqa: BLE001 - row-level fault isolation
            row = SweepRow(pre, post, None, None, None, None, seed, f"{type(exc).__name__}: {exc}")
        rows.append(row)
        for key in [key for key in saved if last_use[key] == index]:
            del saved[key]
    return rows
