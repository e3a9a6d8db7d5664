"""The package's public names."""
from __future__ import annotations

import fiberlink as fl
from fiberlink import config, fiber, link, metrics, receiver, signals, transmitter


def test_all_is_the_module_lists():
    assert fl.__all__ == [
        "__version__",
        *signals.__all__,
        *transmitter.__all__,
        *fiber.__all__,
        *receiver.__all__,
        *metrics.__all__,
        *link.__all__,
        *config.__all__,
    ]
    assert len(set(fl.__all__)) == len(fl.__all__)
    assert all(hasattr(fl, name) for name in fl.__all__)
