"""The package's public names, and what importing and stepping it costs."""
from __future__ import annotations

import platform
import subprocess
import sys

import pytest

import fiberlink as fl
from conftest import subprocess_env
from fiberlink import config, fiber, link, metrics, receiver, signals, transmitter

# Minor page faults per step of a warm 100-step propagate_fiber at 32,768 samples.
FAULTS_PER_STEP = """
import resource
import numpy as np
import fiberlink as fl
grid = fl.SamplingGrid(10e9, 1024, 32, 1550e-9)
field = fl.OpticalField(np.full(grid.n_samples, 0.03 + 0.0j), grid)
fiber = fl.FiberParams(10.0, 17.0, 0.2, 1.3)
options = fl.SsfmOptions(step_km=0.1)
fl.propagate_fiber(field, fiber, options)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
fl.propagate_fiber(field, fiber, options)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(options.fixed_steps(fiber), (after - before) / options.fixed_steps(fiber))
"""


def fresh_process(code: str) -> list[str]:
    """Run ``code`` in a new interpreter: this one has loaded scipy (test_receiver.py),
    which would hide both a scipy import and the FFT page faults."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return result.stdout.split()


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


def test_cli_import_loads_no_scipy():
    loaded = fresh_process(
        "import sys, fiberlink.cli\n"
        "print(*[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    assert loaded == []


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the FFT scratch faults are glibc's mmap threshold"
)
def test_split_steps_do_not_page_fault():
    steps, faults_per_step = fresh_process(FAULTS_PER_STEP)
    assert int(steps) >= 100
    assert float(faults_per_step) < 8, f"{faults_per_step} minor page faults per step"
