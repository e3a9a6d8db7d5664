"""The example scripts in scripts/ run to completion against this source tree."""
from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import ROOT, subprocess_env


@pytest.mark.parametrize(
    ("script", "args", "expected"),
    [
        ("compensation_sweep.py", ["--quick"], "Q dB"),
        ("dispersion_map.py", [], "position_km,accumulated_ps_nm"),
        ("q_map.py", ["--local-error", "2e-4", "--seeds", "0-1"], "4 at 32768, 105 at 8192"),
        (
            "q_map.py",
            ["--local-error", "2.5e-4", "--seeds", "0-1", "--per-fiber"],
            "fiber 3 DCF-post alone: Q - Q(all at 0.0002) -1.782e-02 to -6.678e-03 dB",
        ),
    ],
    ids=["compensation_sweep", "dispersion_map", "q_map", "q_map_per_fiber"],
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


def test_cmp_outputs_compare(tmp_path):
    # The comparison step of scripts/cmp_outputs.py on fabricated output trees;
    # building real trees runs the 0.1 km oracle and is left to the script.
    path = ROOT / "scripts" / "cmp_outputs.py"
    spec = importlib.util.spec_from_file_location("cmp_outputs", path)
    cmp_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cmp_outputs)
    header = "pre_km,post_km,residual_ps_nm,q_db,ber,jitter_ns,seed\n"
    row = "24.0,24.0,0.0,46.5,1e-9,0.001,42\n"
    for tree in ("old", "new"):
        for name, (_, _, files) in cmp_outputs.OUTPUTS.items():
            (tmp_path / tree / name).mkdir(parents=True)
            for file in files:
                (tmp_path / tree / name / file).write_text(header + row)
    old, new = tmp_path / "old", tmp_path / "new"
    report = cmp_outputs.compare(old, new)
    assert [file for file, _, _ in report] == [
        "default/result.csv", "default/eye.txt", "oracle/result.csv", "oracle/eye.txt",
        "sweep_cross/sweep.csv", "pairs/sweep.csv", "per_row/sweep.csv",
    ]
    assert all(same for _, same, _ in report)

    (new / "default" / "result.csv").write_text(header + "24.0,24.0,0.0,46.25,1e-9,0.001,42\n")
    (new / "oracle" / "eye.txt").write_text("changed\n")
    (new / "pairs" / "sweep.csv").unlink()
    report = {file: (same, note) for file, same, note in cmp_outputs.compare(old, new)}
    assert report["default/result.csv"] == (False, "max |dq_db| 2.500e-01")
    assert report["oracle/eye.txt"] == (False, "")
    assert report["pairs/sweep.csv"] == (False, "missing")
    assert sum(not same for same, _ in report.values()) == 3


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads /proc/self/status")
def test_rss_stages_prints_every_stage(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "rss_stages.py"), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    # The table is the last 15 lines: a header, then (stage, VmRSS, VmHWM) rows.
    header, *rows = [line.rsplit(maxsplit=2) for line in proc.stdout.splitlines()[-15:]]
    assert header == ["stage", "VmRSS_MiB", "VmHWM_MiB"]
    assert [stage for stage, _, _ in rows] == [
        "imports", "first RNG use", "transmit",
        "propagate_fiber DCF-pre", "amplify AMP", "propagate_fiber SMF", "amplify AMP",
        "propagate_fiber SMF", "amplify AMP", "propagate_fiber DCF-post", "amplify AMP",
        "receive", "estimate_q", "format_eye",
    ]
    assert all(0 < float(rss) <= float(hwm) for _, rss, hwm in rows)
    assert (tmp_path / "result.csv").is_file()
