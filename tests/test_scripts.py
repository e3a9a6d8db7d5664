"""The example scripts in scripts/ run to completion against this source tree."""
from __future__ import annotations

import subprocess
import sys

import pytest

from conftest import ROOT, subprocess_env


@pytest.mark.parametrize(
    ("script", "args", "expected"),
    [
        ("compensation_sweep.py", ["--quick"], "Q dB"),
        ("dispersion_map.py", [], "position_km,accumulated_ps_nm"),
        ("q_map.py", ["--local-error", "2e-4", "--seeds", "0-1"], "4 at 32768, 108 at 12288"),
    ],
    ids=["compensation_sweep", "dispersion_map", "q_map"],
)
def test_script_exits_0(script, args, expected):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
