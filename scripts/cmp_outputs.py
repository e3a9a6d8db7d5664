#!/usr/bin/env python3
"""Byte-compare the five reference outputs of a git revision and of the working tree.

Builds every output twice in temporary directories, once from ``git archive
REV`` and once from this working tree, running ``python -m fiberlink`` with
``PYTHONPATH`` set to each tree's ``src``. The five outputs are:

- ``default``: the default ``fiberlink run`` (result.csv, eye.txt);
- ``oracle``: the same run at ``sim.step_km = 0.1`` (result.csv, eye.txt);
- ``sweep_cross``: perfbench's ``sweep_cross`` settings at ``sim.seed = 7``
  (sweep.csv);
- ``pairs``: the acceptance pairs ``--pre 24,30,30,35 --post 24,24,30,35`` at
  ``sim.step_km = 2`` and ``tx.power_dbm = 8`` (sweep.csv);
- ``per_row``: the same pairs at ``sim.step_km = 2`` and the default power,
  with ``--per-row-seeds`` (sweep.csv): the sweep's own first RNG use.

Prints ``same`` or ``differs`` for each of the seven files, with the largest
|delta q_db| for a CSV that differs, and exits 1 on any difference. The
0.1 km oracle dominates the run time, ~5 s per tree.

Usage:
    python3 scripts/cmp_outputs.py REV
"""
from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (config text, CLI arguments, files written)
OUTPUTS = {
    "default": ("", ["run"], ["result.csv", "eye.txt"]),
    "oracle": ("sim.step_km = 0.1\n", ["run"], ["result.csv", "eye.txt"]),
    "sweep_cross": (
        "sim.n_bits = 256\nsim.step_km = 0.5\namp.ase = true\nsim.seed = 7\n",
        ["sweep", "--pairing", "cross", "--pre", "24,27,30,35", "--post", "24,27,30,35"],
        ["sweep.csv"],
    ),
    "pairs": (
        "sim.step_km = 2\ntx.power_dbm = 8\n",
        ["sweep", "--pre", "24,30,30,35", "--post", "24,24,30,35"],
        ["sweep.csv"],
    ),
    "per_row": (
        "sim.step_km = 2\n",
        ["sweep", "--per-row-seeds", "--pre", "24,30,30,35", "--post", "24,24,30,35"],
        ["sweep.csv"],
    ),
}


def build(src: Path, out: Path) -> None:
    """Write every output of ``OUTPUTS`` under ``out/<name>/``, running the package in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name, (config, args, _) in OUTPUTS.items():
        run_dir = out / name
        run_dir.mkdir(parents=True)
        (run_dir / "link.cfg").write_text(config, encoding="utf-8")
        subprocess.run(
            [sys.executable, "-m", "fiberlink", *args, "--config", "link.cfg", "--out", "."],
            cwd=run_dir, env=env, check=True, stdout=subprocess.DEVNULL,
        )


def max_q_delta(old: Path, new: Path) -> float | None:
    """Largest |q_db| difference between two CSVs row by row; None if the row
    counts differ or no row has a q_db on both sides."""
    rows = [list(csv.DictReader(io.StringIO(p.read_text(encoding="utf-8")))) for p in (old, new)]
    if len(rows[0]) != len(rows[1]):
        return None
    deltas = [abs(float(a["q_db"]) - float(b["q_db"]))
              for a, b in zip(*rows) if a["q_db"] and b["q_db"]]
    return max(deltas, default=None)


def compare(old: Path, new: Path) -> list[tuple[str, bool, str]]:
    """(file, same, note) for each output file of two trees built by ``build``."""
    report = []
    for name, (_, _, files) in OUTPUTS.items():
        for file in files:
            a, b = old / name / file, new / name / file
            if not (a.is_file() and b.is_file()):
                report.append((f"{name}/{file}", False, "missing"))
                continue
            same = a.read_bytes() == b.read_bytes()
            note = ""
            if not same and file.endswith(".csv"):
                delta = max_q_delta(a, b)
                note = "no q_db to compare" if delta is None else f"max |dq_db| {delta:.3e}"
            report.append((f"{name}/{file}", same, note))
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="cmp_outputs_") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "archive", "--format=tar", args.rev], cwd=ROOT, check=True, capture_output=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        build(tmp / "rev" / "src", tmp / "old")
        build(ROOT / "src", tmp / "new")
        report = compare(tmp / "old", tmp / "new")

    for file, same, note in report:
        print(f"{file:<24} {'same' if same else 'differs'}{f' ({note})' if note else ''}")
    return 0 if all(same for _, same, _ in report) else 1


if __name__ == "__main__":
    sys.exit(main())
