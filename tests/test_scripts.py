"""The example scripts in scripts/ run to completion against this source tree."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    ("script", "args", "expected"),
    [
        ("compensation_sweep.py", ["--quick"], "Q dB"),
        ("dispersion_map.py", [], "position_km,accumulated_ps_nm"),
    ],
    ids=["compensation_sweep", "dispersion_map"],
)
def test_script_exits_0(script, args, expected):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
