"""fiberlink: single-channel 10 Gb/s NRZ optical link simulator.

Split-step Fourier NLSE propagation over SMF/DCF dispersion maps with a
trapezoidal-NRZ transmitter, direct-detection receiver, and eye/Q/BER
metrics. See the README for the CLI and the sweep workflow.
"""
from __future__ import annotations

from . import config, fiber, link, metrics, receiver, signals, transmitter
from .config import *  # noqa: F403
from .fiber import *  # noqa: F403
from .link import *  # noqa: F403
from .metrics import *  # noqa: F403
from .receiver import *  # noqa: F403
from .signals import *  # noqa: F403
from .transmitter import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    "__version__",
    *signals.__all__,
    *transmitter.__all__,
    *fiber.__all__,
    *receiver.__all__,
    *metrics.__all__,
    *link.__all__,
    *config.__all__,
]
