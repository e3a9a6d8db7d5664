"""Link assembly and orchestration: dispersion maps, single runs, and sweeps.

A link is an ordered sequence of fiber spans and amplifiers. The three
compensation schemes place the DCF before the SMF line (``pre``), after it
(``post``), or split it across both ends (``symmetric``). Every fiber span is
followed by an amplifier that restores the launch level, so the Q comparison
across dispersion maps is not confounded by net loss.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .fiber import (
    AmplifierParams,
    FiberParams,
    PropagationError,
    SsfmOptions,
    amplify,
    propagate_fiber,
)
from .metrics import MIN_RAIL_BITS, EyeDiagram, QResult, estimate_q
from .receiver import RxConfig, receive
from .signals import ElectricalWaveform, SamplingGrid, make_grid
from .transmitter import DEFAULT_LFSR_SEED, BitSequence, TxConfig, prbs_generate, transmit

__all__ = [
    "SCHEMES",
    "LinkTopology",
    "SimSettings",
    "LinkConfig",
    "SweepSpec",
    "SweepRow",
    "LinkRunResult",
    "build_link",
    "residual_dispersion",
    "dispersion_profile",
    "run_link",
    "run_link_full",
    "sweep",
]

SCHEMES = ("pre", "post", "symmetric")

DEFAULT_SMF = FiberParams(
    length_km=120.0,
    dispersion_ps_nm_km=16.0,
    loss_db_km=0.2,
    gamma_per_w_km=1.26677,
    label="SMF",
)
DEFAULT_DCF = FiberParams(
    length_km=24.0,
    dispersion_ps_nm_km=-80.0,
    loss_db_km=0.6,
    gamma_per_w_km=1.8,
    label="DCF",
)


@dataclass(frozen=True, slots=True)
class LinkTopology:
    """Ordered element chain; fibers carry length, amplifiers are lumped."""

    elements: tuple[FiberParams | AmplifierParams, ...]
    scheme: str

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
    scheme: str,
    l_pre: float,
    l_post: float,
    smf: FiberParams = DEFAULT_SMF,
    dcf: FiberParams = DEFAULT_DCF,
    n_smf_spans: int = 2,
    amplifier: AmplifierParams | None = None,
) -> LinkTopology:
    """Assemble the element chain for one compensation scheme.

    ``l_pre``/``l_post`` are the DCF lengths at the line input and output;
    the scheme dictates which of them must be positive. Every fiber span is
    followed by a copy of ``amplifier`` (default: restore to 0 dBm).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if l_pre < 0 or l_post < 0:
        raise ValueError(f"DCF lengths must be >= 0, got pre={l_pre}, post={l_post}")
    if scheme == "pre" and not (l_pre > 0 and l_post == 0):
        raise ValueError("pre-compensation requires l_pre > 0 and l_post == 0")
    if scheme == "post" and not (l_post > 0 and l_pre == 0):
        raise ValueError("post-compensation requires l_post > 0 and l_pre == 0")
    if scheme == "symmetric" and not (l_pre > 0 and l_post > 0):
        raise ValueError("symmetric compensation requires both DCF lengths > 0")
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
    return LinkTopology(elements=tuple(elements), scheme=scheme)


def residual_dispersion(topology: LinkTopology) -> float:
    """Net accumulated dispersion of the link, ps/nm: sum of D * L."""
    return float(
        sum(f.dispersion_ps_nm_km * f.length_km for f in topology.fibers())
    )


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
    """Complete description of one link simulation."""

    scheme: str = "symmetric"
    n_smf_spans: int = 2
    smf: FiberParams = DEFAULT_SMF
    dcf: FiberParams = DEFAULT_DCF
    pre_length_km: float = DEFAULT_DCF.length_km
    post_length_km: float = DEFAULT_DCF.length_km
    tx: TxConfig = field(default_factory=TxConfig)
    rx: RxConfig = field(default_factory=RxConfig)
    amp: AmplifierParams = field(default_factory=AmplifierParams)
    sim: SimSettings = field(default_factory=SimSettings)

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.n_smf_spans < 1:
            raise ValueError(f"n_smf_spans must be >= 1, got {self.n_smf_spans}")

    def validate(self) -> "LinkConfig":
        """Check cross-module consistency (grid, filter, eye, topology); returns self."""
        grid = make_grid(
            self.tx.bit_rate, self.sim.n_bits, self.sim.samples_per_bit, self.tx.wavelength
        )
        if not self.rx.bessel_bandwidth < 0.5 * grid.sample_rate:
            raise ValueError(
                f"rx bessel_bandwidth {self.rx.bessel_bandwidth:.6g} Hz must be below "
                f"the grid Nyquist frequency {0.5 * grid.sample_rate:.6g} Hz"
            )
        pattern = prbs_generate(self.tx.prbs_order, DEFAULT_LFSR_SEED, self.sim.n_bits)
        n_ones = int(np.count_nonzero(pattern.bits[self.sim.skip_bits :]))
        n_zeros = self.sim.n_bits - self.sim.skip_bits - n_ones
        if min(n_ones, n_zeros) < MIN_RAIL_BITS:
            raise ValueError(
                f"n_bits = {self.sim.n_bits} with skip_bits = {self.sim.skip_bits} leaves too "
                f"few bits for estimate_q: {n_ones} ones, {n_zeros} zeros, {MIN_RAIL_BITS} needed"
            )
        self.resolve_topology()
        return self

    def resolve_amplifier(self) -> AmplifierParams:
        """Fill a restore-mode amplifier's target from the launch power."""
        if self.amp.mode == "restore" and self.amp.target_dbm is None:
            return dataclasses.replace(self.amp, target_dbm=self.tx.launch_power_dbm)
        return self.amp

    def resolve_topology(self) -> LinkTopology:
        return build_link(
            self.scheme,
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
    eye: EyeDiagram
    grid: SamplingGrid
    topology: LinkTopology
    residual_ps_nm: float
    seed: int


def run_link_full(config: LinkConfig) -> LinkRunResult:
    """Run transmitter -> link -> receiver -> metrics for one configuration.

    Independent RNG streams for the transmitter, amplifier chain, and receiver
    are derived from ``config.sim.seed``, so a run is a pure function of
    (config, seed).
    """
    grid = make_grid(
        config.tx.bit_rate, config.sim.n_bits, config.sim.samples_per_bit, config.tx.wavelength
    )
    topology = config.resolve_topology()
    master = np.random.SeedSequence(config.sim.seed)
    tx_ss, amp_ss, rx_ss = master.spawn(3)
    bits, field_ = transmit(config.tx, grid, rng=np.random.default_rng(tx_ss))
    amp_rng = np.random.default_rng(amp_ss)
    for index, element in enumerate(topology.elements):
        try:
            if isinstance(element, FiberParams):
                field_ = propagate_fiber(field_, element, config.sim.ssfm)
            else:
                field_ = amplify(field_, element, amp_rng)
        except PropagationError as exc:
            raise PropagationError(f"element {index} ({element.label}): {exc}") from exc
    received = receive(field_, config.rx, np.random.default_rng(rx_ss))
    q = estimate_q(received, bits, grid, config.sim.skip_bits)
    return LinkRunResult(
        q=q,
        bits=bits,
        received=received,
        eye=q.eye,
        grid=grid,
        topology=topology,
        residual_ps_nm=residual_dispersion(topology),
        seed=config.sim.seed,
    )


def run_link(config: LinkConfig) -> QResult:
    """Convenience wrapper over :func:`run_link_full` returning just the QResult."""
    return run_link_full(config).q


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """A family of runs over (pre, post) DCF length pairs.

    ``pairing = "zip"`` walks the two lists in lockstep (equal lengths
    required); ``"cross"`` runs the Cartesian product. By default every row
    reuses the master seed so Q differences reflect the dispersion map alone;
    ``per_row_seeds`` derives a distinct child seed per row instead.
    """

    pre_lengths_km: tuple[float, ...]
    post_lengths_km: tuple[float, ...]
    config: LinkConfig
    pairing: str = "zip"
    per_row_seeds: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "pre_lengths_km", tuple(self.pre_lengths_km))
        object.__setattr__(self, "post_lengths_km", tuple(self.post_lengths_km))
        if self.pairing not in ("zip", "cross"):
            raise ValueError(f"pairing must be 'zip' or 'cross', got {self.pairing!r}")
        if not self.pre_lengths_km or not self.post_lengths_km:
            raise ValueError("sweep length lists must be non-empty")
        if self.pairing == "zip" and len(self.pre_lengths_km) != len(self.post_lengths_km):
            raise ValueError(
                "zip pairing requires equally long lists, got "
                f"{len(self.pre_lengths_km)} and {len(self.post_lengths_km)}"
            )

    def pairs(self) -> list[tuple[float, float]]:
        if self.pairing == "zip":
            return list(zip(self.pre_lengths_km, self.post_lengths_km))
        return [(a, b) for a in self.pre_lengths_km for b in self.post_lengths_km]


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


def sweep(spec: SweepSpec) -> list[SweepRow]:
    """Run every sweep point, collecting failures instead of aborting."""
    rows: list[SweepRow] = []
    master_seed = spec.config.sim.seed
    for index, (pre, post) in enumerate(spec.pairs()):
        if spec.per_row_seeds:
            seed = int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])
        else:
            seed = master_seed
        try:
            cfg = dataclasses.replace(
                spec.config,
                pre_length_km=pre,
                post_length_km=post,
                sim=dataclasses.replace(spec.config.sim, seed=seed),
            )
            result = run_link_full(cfg)
            rows.append(
                SweepRow(
                    pre_km=pre,
                    post_km=post,
                    residual_ps_nm=result.residual_ps_nm,
                    q_db=result.q.q_db,
                    ber=result.q.ber,
                    jitter_ns=result.q.jitter_ns,
                    seed=seed,
                )
            )
        except Exception as exc:  # noqa: BLE001 - row-level fault isolation
            rows.append(
                SweepRow(
                    pre_km=pre,
                    post_km=post,
                    residual_ps_nm=None,
                    q_db=None,
                    ber=None,
                    jitter_ns=None,
                    seed=seed,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return rows
