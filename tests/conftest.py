from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import fiberlink as fl

ROOT = Path(__file__).resolve().parent.parent


def centred_time(grid: fl.SamplingGrid) -> np.ndarray:
    """Sample times in seconds, with zero at the middle of the frame."""
    return np.arange(grid.n_samples) * grid.dt - grid.n_samples * grid.dt / 2


def subprocess_env() -> dict[str, str]:
    """The current environment with this tree's ``src`` first on ``PYTHONPATH``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture
def grid64():
    """Small default-rate grid: 64 bits at 32 samples/bit."""
    return fl.SamplingGrid(10e9, 64, 32, 1550e-9)


@pytest.fixture
def grid_tiny():
    """Minimal legal grid for fast structural tests."""
    return fl.SamplingGrid(10e9, 16, 8, 1550e-9)


@pytest.fixture
def gaussian_pulse(grid64):
    """Unit-peak chirp-free Gaussian, T0 = 25 ps, centered in the frame."""
    t = centred_time(grid64)
    t0 = 25e-12
    return fl.OpticalField(np.exp(-(t**2) / (2 * t0**2)).astype(complex), grid64), t0


# Config text of a scaled-down link that runs in well under a second.
SMALL_LINK = """\
sim.n_bits = 64
sim.samples_per_bit = 16
sim.step_km = 1.0
smf.length_km = 12
dcf.pre_length_km = 2.4
dcf.post_length_km = 2.4
"""


def small_link_config(**overrides) -> fl.LinkConfig:
    """``SMALL_LINK`` with ``overrides`` set."""
    return fl.parse_config(SMALL_LINK + "".join(f"{k} = {v}\n" for k, v in overrides.items()))
