#!/usr/bin/env python3
"""Q error of adaptive steps against the 0.1 km fixed-step oracle, per local error.

For each ``--local-error`` value, runs the default link at every seed of
``--seeds`` with that adaptive tolerance and prints the worst and the mean
|Q - Q_ref| over the seeds, the seed of the worst, the forward FFTs of
one run by size (a range where the seeds differ), and the band each fiber's
trials ran on: the sizes of the FFTs inside its ``propagate_fiber`` call after
the first, joined by ``>`` where a fiber restarted on the whole grid, and by
``|`` where the seeds differ. Q_ref is the q_db of
``perfbench/reference.json``'s ``run_default`` CSV for the seed, recorded at
fixed 0.1 km steps over the whole grid. With ``--set``, the link differs from
the default, so Q_ref comes from a 0.1 km fixed-step run of the same config
instead (~5 s per seed).

With ``--per-fiber``, each fiber of the chain also runs alone at each
``--local-error`` value, the others at the config's own (2e-4 by default), and
the min and max over the seeds of Q - Q(every fiber at the config's own) are
printed per fiber position and label.

Usage:
    python3 scripts/q_map.py [--local-error 1e-4,2e-4] [--seeds 0-31]
                             [--set tx.power_dbm=8 --set amp.ase=true] [--per-fiber]
"""
from __future__ import annotations

import argparse
import collections
import csv
import dataclasses
import io
import json
from pathlib import Path

import numpy as np

import fiberlink as fl

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def parse_seeds(text: str) -> list[int]:
    """``0-3,7`` -> [0, 1, 2, 3, 7]."""
    seeds = []
    for item in text.split(","):
        first, _, last = item.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_q(
    settings: list[str], fiber_tol: tuple[int, float] | None = None
) -> tuple[float, collections.Counter, list[tuple[str, str]]]:
    """Q in dB of one run of the config ``settings``, its forward FFTs by size, and
    each fiber's label and band, as ``("SMF", "8192")``. ``fiber_tol = (i, tol)``
    runs the chain's i-th fiber at local error ``tol`` instead of the config's."""
    sizes, bands = [], []
    forward, propagate = np.fft.fft, fl.link.propagate_fiber

    def counting(a, *args, **kwargs):
        sizes.append(np.size(a))
        return forward(a, *args, **kwargs)

    def recording(field, fiber, options):
        first = len(sizes)
        if fiber_tol is not None and fiber_tol[0] == len(bands):
            options = dataclasses.replace(options, local_error=fiber_tol[1])
        out = propagate(field, fiber, options)
        trial_sizes = dict.fromkeys(sizes[first + 1 :])
        bands.append((fiber.label, ">".join(str(size) for size in trial_sizes)))
        return out

    np.fft.fft, fl.link.propagate_fiber = counting, recording
    try:
        q_db = fl.run_link_full(fl.parse_config("\n".join(settings))).q_db
    finally:
        np.fft.fft, fl.link.propagate_fiber = forward, propagate
    return q_db, collections.Counter(sizes), bands


def reference_q(seeds: list[int]) -> dict[int, float]:
    """Q_ref by seed, from the run_default CSVs of perfbench/reference.json."""
    csvs = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"]["run_default"]
    return {s: float(next(csv.DictReader(io.StringIO(csvs[str(s)])))["q_db"]) for s in seeds}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--local-error", default="1e-4,2e-4,3e-4",
                        help="comma-separated sim.local_error values")
    parser.add_argument("--seeds", default="0-31", help="e.g. 0-31 or 0,5,9")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="a config setting for every run, oracle included")
    parser.add_argument("--per-fiber", action="store_true",
                        help="also run each fiber alone at each local error")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    settings = [item.replace("=", " = ", 1) for item in args.set]
    if settings:
        q_ref = {s: run_q([*settings, f"sim.seed = {s}", "sim.step_km = 0.1"])[0] for s in seeds}
    else:
        q_ref = reference_q(seeds)
    if args.per_fiber:
        own_tol = fl.parse_config("\n".join(settings)).sim.ssfm.local_error
        q_own = {s: run_q([*settings, f"sim.seed = {s}"])[0] for s in seeds}

    print(f"seeds {args.seeds}, Q_ref at 0.1 km fixed steps"
          + (f", with {', '.join(args.set)}" if args.set else " from perfbench/reference.json"))
    print(f"{'local_error':>11} {'worst dB':>10} {'seed':>5} {'mean dB':>10}  forward FFTs per run")
    for tol in args.local_error.split(","):
        errors, counts, bands = {}, collections.defaultdict(list), collections.defaultdict(dict)
        for s in seeds:
            q_db, ffts, fibers = run_q([*settings, f"sim.seed = {s}", f"sim.local_error = {tol}"])
            errors[s] = abs(q_db - q_ref[s])
            for size in ffts.keys() | counts.keys():
                counts[size].append(ffts[size])
            for i, (label, band) in enumerate(fibers):
                bands[i, label][band] = None
        worst = max(errors, key=errors.get)
        by_size = ", ".join(
            f"{min(c)}-{max(c)} at {size}" if min(c) < max(c) else f"{c[0]} at {size}"
            for size, c in sorted(counts.items(), reverse=True)
        )
        mean = sum(errors.values()) / len(errors)
        print(f"{float(tol):>11.3g} {errors[worst]:>10.3e} {worst:>5} {mean:>10.3e}  {by_size}")
        by_fiber = ", ".join(f"{label} {'|'.join(b)}" for (_, label), b in bands.items())
        print(f"{'':>11} bands: {by_fiber}")
        if not args.per_fiber:
            continue
        for i, label in bands:
            runs = [run_q([*settings, f"sim.seed = {s}"], (i, float(tol)))[0] for s in seeds]
            deltas = [q - q_own[s] for q, s in zip(runs, seeds)]
            print(f"{'':>11} fiber {i} {label} alone: Q - Q(all at {own_tol:g}) "
                  f"{min(deltas):+.3e} to {max(deltas):+.3e} dB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
