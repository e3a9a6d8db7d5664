#!/usr/bin/env python3
"""Record the reference CSVs that ``run.py`` checks outputs against.

Usage, from the repository root:

    python3 perfbench/record_reference.py

Runs the untraced CLI once per workload and per seed of ``REFERENCE_SEEDS``,
one process per CPU at a time, with the config text ``run.py`` generates, and
writes ``reference.json``. Re-record only when a change to the program's
output is intended; the benchmark then reports Q against the new reference.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run import (REFERENCE, REFERENCE_SEEDS, ROOT, WORKLOADS, Workload, child_env, config_text,
                 program_seed)


def record(workload: Workload, seed: int) -> str:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        cfg = Path(tmp) / "config.txt"
        cfg.write_text(config_text(workload, seed), encoding="utf-8")
        subprocess.run(
            [sys.executable, "-m", "fiberlink.cli", *workload.cli_args,
             "--config", str(cfg), "--out", tmp],
            env=child_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        return (Path(tmp) / workload.csv_name).read_text(encoding="utf-8")


def main() -> int:
    tasks = [(name, seed) for name in WORKLOADS for seed in REFERENCE_SEEDS]
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        csvs = list(pool.map(lambda t: record(WORKLOADS[t[0]], t[1]), tasks))
    reference = {"q_db_source": "this tree, sim.step_km as in each workload's config",
                 "workloads": {name: {} for name in WORKLOADS}}
    for (name, seed), csv in zip(tasks, csvs):
        reference["workloads"][name][str(program_seed(seed))] = csv
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE} ({len(tasks)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
