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
import importlib
import math
import random
import sys
import types
from collections.abc import Iterable, Iterator
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
from .metrics import QResult, _check_skip, _rail_mask, estimate_q
from .receiver import RxConfig, receive
from .signals import OpticalField, SamplingGrid, as_integer
from .transmitter import DEFAULT_LFSR_SEED, BitSequence, TxConfig, prbs_generate, transmit

__all__ = [
    "SimSettings",
    "LinkConfig",
    "SweepRow",
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


def residual_dispersion(elements: tuple[FiberParams | AmplifierParams, ...]) -> float:
    """Net accumulated dispersion of the link, ps/nm: the end of its dispersion profile."""
    return dispersion_profile(elements)[-1][1]


def dispersion_profile(
    elements: tuple[FiberParams | AmplifierParams, ...],
) -> list[tuple[float, float]]:
    """Accumulated dispersion of an element chain sampled at fiber boundaries.

    Returns (position_km, accumulated_ps_nm) breakpoints, starting at (0, 0);
    the profile is piecewise linear between them.
    """
    points = [(0.0, 0.0)]
    pos = 0.0
    acc = 0.0
    for f in elements:
        if isinstance(f, FiberParams):
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
        for name in ("seed", "skip_bits"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True, slots=True)
class LinkConfig:
    """Complete description of one link simulation.

    ``pre_length_km``/``post_length_km`` are the DCF sides of the element
    chain :meth:`elements` builds; ``dcf`` supplies the other DCF parameters,
    and its own ``length_km`` must be 0. Construction checks what the modules
    must agree on: the DCF lengths and SMF span count, the fixed-mode step
    count of each span, the sampling grid and the warm-up bits within it, the
    receive filter against the grid, the laser phase noise per sample, and
    enough bits of each value for ``estimate_q``. A rule a stage also runs is
    the stage's own check, called here.
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
        pre, post = self.pre_length_km, self.post_length_km
        if not (0 <= pre * 1e3 < math.inf and 0 <= post * 1e3 < math.inf):
            raise ValueError(
                f"DCF lengths must satisfy 0 <= l < inf in m, got pre={pre}, post={post}"
            )
        if as_integer("n_smf_spans", self.n_smf_spans) < 1:
            raise ValueError(f"n_smf_spans must be >= 1, got {self.n_smf_spans}")
        if self.sim.ssfm.step_km is not None:
            for fiber in self.elements()[::2]:  # every fiber; an amplifier follows each
                self.sim.ssfm.fixed_steps(fiber)
        grid = self.grid()  # checks n_bits before skip_bits is checked against it
        _check_skip(self.sim.skip_bits, self.sim.n_bits)
        self.rx.check_grid(grid)
        variance = 2.0 * math.pi * self.tx.linewidth_hz * grid.dt
        if not variance <= 1.0:
            raise ValueError(
                f"tx linewidth_hz {self.tx.linewidth_hz:.6g} Hz gives a phase-noise variance "
                f"2*pi*linewidth*dt of {variance:.6g} rad^2 per sample, above 1 rad^2"
            )
        pattern = prbs_generate(self.tx.prbs_order, DEFAULT_LFSR_SEED, self.sim.n_bits)
        _rail_mask(pattern.bits, self.sim.skip_bits)

    def grid(self) -> SamplingGrid:
        return SamplingGrid(
            self.tx.bit_rate, self.sim.n_bits, self.sim.samples_per_bit, self.tx.wavelength
        )

    def elements(self) -> tuple[FiberParams | AmplifierParams, ...]:
        """The element chain of the dispersion map, each fiber followed by ``amp``.

        DCF-pre when its length is > 0, the SMF spans, then DCF-post when its
        length is > 0. A restoring ``amp`` without a target restores the
        launch power.
        """
        amp, pre, post = self.amp, self.pre_length_km, self.post_length_km
        if amp.gain_db is None and amp.target_dbm is None:
            amp = dataclasses.replace(amp, target_dbm=self.tx.launch_power_dbm)
        fibers = [self.smf] * self.n_smf_spans
        if pre > 0:
            fibers.insert(0, dataclasses.replace(self.dcf, length_km=pre, label="DCF-pre"))
        if post > 0:
            fibers.append(dataclasses.replace(self.dcf, length_km=post, label="DCF-post"))
        return tuple(el for fiber in fibers for el in (fiber, amp))


def _np_random() -> types.ModuleType:
    """``numpy.random``, first loaded without OpenSSL: numpy takes only ``randbits`` from
    ``secrets``, so a stand-in serves it and ``hmac``, ``hashlib`` and ``_hashlib`` stay out."""
    if "numpy.random" not in sys.modules and "secrets" not in sys.modules:
        sys.modules["secrets"] = stand_in = types.ModuleType("secrets")
        stand_in.randbits = random.SystemRandom().getrandbits  # what secrets.randbits is
        try:
            importlib.import_module("numpy.random")
        finally:
            del sys.modules["secrets"]  # a later ``import secrets`` loads the real one
    return np.random


def _streams(seed: int) -> list[np.random.SeedSequence]:
    """Seed sequences of the transmitter, the amplifier chain and the receiver."""
    return _np_random().SeedSequence(seed).spawn(3)


def _finish(config: LinkConfig, bits: BitSequence, field_: OpticalField) -> QResult:
    received = receive(field_, config.rx, np.random.default_rng(_streams(config.sim.seed)[2]))
    return estimate_q(received, bits, config.sim.skip_bits)


def _leaves(node: tuple[dict, list[int]]) -> list[int]:
    """The rows whose chains end at ``node`` or below it."""
    return node[1] + [index for child in node[0].values() for index in _leaves(child)]


def _walk(configs: dict[int, LinkConfig]) -> Iterator[tuple[int, QResult | Exception]]:
    """Yield ``(index, QResult or exception)`` once for each row, walking its element chain.

    The chains form a tree: one root per seed, whose edge is the transmitter,
    and one child per distinct next element; a row ends at the node of its last
    element. The tree is walked depth first, with a field held only where a
    node branches. The children of a node run in span groups (see
    :meth:`SsfmOptions.span_group`; an amplifier is its own group), each in
    ascending length, so a fixed-step fiber resumes the unclosed spectrum that
    the group's previous span returned (see :func:`propagate_span`). Each
    amplifier draws from its own copy of its branch's RNG. An edge that fails
    gives its exception to every row below it.
    """
    roots: dict[int, tuple[LinkConfig, tuple[dict, list[int]]]] = {}
    for index, cfg in configs.items():
        node = roots.setdefault(cfg.sim.seed, (cfg, ({}, [])))[1]
        for element in cfg.elements():
            node = node[0].setdefault(element, ({}, []))
        node[1].append(index)
    # (k, the (element, node) siblings of one span group still to run, bits, their
    # input field, RNG, the checkpoint the group's last span returned); a root's
    # edge is the transmitter, given as its first row's config.
    stack = [(-1, [(cfg, root)], None, None, None, None) for cfg, root in roots.values()][::-1]
    while stack:
        k, group, bits, field_, rng, start = stack.pop()
        (element, node), rest = group[0], group[1:]
        out = end = None
        try:
            try:
                if isinstance(element, LinkConfig):
                    ssfm, (tx_ss, amp_ss, _) = element.sim.ssfm, _streams(element.sim.seed)
                    bits, out = transmit(element.tx, element.grid(), np.random.default_rng(tx_ss))
                    rng = np.random.default_rng(amp_ss)
                elif isinstance(element, AmplifierParams):
                    rng = copy.deepcopy(rng)
                    out = amplify(field_, element, rng)
                elif start or rest:
                    out, end = propagate_span(field_, element, ssfm, start, keep=bool(rest))
                else:
                    out = propagate_fiber(field_, element, ssfm)
            except PropagationError as exc:
                raise PropagationError(f"element {k} ({element.label}): {exc}") from exc
        except Exception as exc:  # noqa: BLE001 - row-level fault isolation
            yield from ((index, exc) for index in _leaves(node))
        if rest:
            stack.append((k, rest, bits, field_, rng, end))
        if out is None:
            continue
        for index in node[1]:
            try:
                yield index, _finish(configs[index], bits, out)
            except Exception as exc:  # noqa: BLE001 - row-level fault isolation
                yield index, exc
        groups: dict[object, list] = {}
        for el, child in sorted(node[0].items(), key=lambda c: getattr(c[0], "length_km", 0.0)):
            key = ssfm.span_group(el) if isinstance(el, FiberParams) else el
            groups.setdefault(key, []).append((el, child))
        stack.extend((k + 1, g, bits, out, rng, None) for g in reversed(groups.values()))


def run_link_full(config: LinkConfig) -> QResult:
    """Run transmitter -> link -> receiver -> metrics for one configuration; return its Q.

    Independent RNG streams for the transmitter, amplifier chain, and receiver
    are derived from ``config.sim.seed``, so a run is a pure function of
    (config, seed).
    """
    [(_, result)] = _walk({0: config})
    if isinstance(result, Exception):
        raise result
    return result


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


def _failed_row(pre: float, post: float, seed: int, exc: Exception) -> SweepRow:
    return SweepRow(pre, post, None, None, None, None, seed, f"{type(exc).__name__}: {exc}")


def _sweep_row(config: LinkConfig, outcome: QResult | Exception) -> SweepRow:
    """The row of ``config``'s run, given its QResult or the exception it raised."""
    pre, post, seed = config.pre_length_km, config.post_length_km, config.sim.seed
    if isinstance(outcome, Exception):
        return _failed_row(pre, post, seed, outcome)
    residual = residual_dispersion(config.elements())
    return SweepRow(pre, post, residual, outcome.q_db, outcome.ber, outcome.jitter_ns, seed)


def sweep(
    config: LinkConfig, pairs: Iterable[tuple[float, float]], per_row_seeds: bool = False
) -> list[SweepRow]:
    """Run ``config`` at each (pre, post) DCF length pair; a row that fails records its error.

    By default every row reuses ``config.sim.seed``, so Q differences reflect
    the dispersion map alone; ``per_row_seeds`` derives a distinct child seed
    per row instead, which turns the sharing below off. The rows' element
    chains form a tree that is walked once, depth first: rows that share a
    seed transmit once and share the work of their common chain prefix, and at
    fixed steps a fiber span resumes mid-way after a shorter sibling span of
    the same fiber apart from its length. Each row still equals
    ``run_link_full`` of its config, and the rows come back in input order.
    """
    rows: list[SweepRow | None] = []
    configs: dict[int, LinkConfig] = {}
    for index, (pre, post) in enumerate(pairs):
        seed = config.sim.seed
        if per_row_seeds:
            seed = int(_np_random().SeedSequence([config.sim.seed, index]).generate_state(1)[0])
        rows.append(None)
        try:
            sim = dataclasses.replace(config.sim, seed=seed)
            configs[index] = dataclasses.replace(
                config, pre_length_km=pre, post_length_km=post, sim=sim
            )
        except Exception as exc:  # noqa: BLE001 - row-level fault isolation
            rows[index] = _failed_row(pre, post, seed, exc)
    for index, outcome in _walk(configs):
        rows[index] = _sweep_row(configs[index], outcome)
        # A QResult holds its eye, an exception its frames' fields.
        del outcome
    return rows
