#!/usr/bin/env python3
"""Q factor vs DCF length at the four acceptance rows.

Runs the default 2x120 km SMF link with pre/post compensation at the four
(pre, post) DCF-length pairs of the acceptance table and prints one table
row per pair. The fully compensated map (24, 24) should come out far ahead
of every under-compensated variant.

Usage:
    python3 scripts/compensation_sweep.py [--quick] [--seed N]

``--quick`` drops to a 256-bit grid and fixed 0.5 km integrator steps for a
fast smoke run; the default settings match the package defaults (1024 bits,
32 samples/bit, adaptive local-error steps) and take a few seconds.
"""
from __future__ import annotations

import argparse
import dataclasses
import time

import fiberlink as fl

PAIRS = ((24.0, 24.0), (30.0, 24.0), (30.0, 30.0), (35.0, 35.0))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small grid, coarse steps")
    parser.add_argument("--seed", type=int, default=42, help="master RNG seed")
    args = parser.parse_args()

    config = fl.LinkConfig()
    sim = dataclasses.replace(config.sim, seed=args.seed)
    if args.quick:
        sim = dataclasses.replace(
            sim, n_bits=256, ssfm=fl.SsfmOptions(step_km=0.5)
        )
    config = dataclasses.replace(config, sim=sim)

    start = time.perf_counter()
    rows = fl.sweep(config, PAIRS)
    elapsed = time.perf_counter() - start

    header = f"{'pre km':>7} {'post km':>8} {'residual ps/nm':>15} {'Q dB':>8} {'BER':>12} {'jitter ns':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        if row.error is not None:
            print(f"{row.pre_km:>7.1f} {row.post_km:>8.1f}  failed: {row.error}")
            continue
        print(
            f"{row.pre_km:>7.1f} {row.post_km:>8.1f} {row.residual_ps_nm:>15.1f} "
            f"{row.q_db:>8.2f} {row.ber:>12.3e} {row.jitter_ns:>10.4f}"
        )
    print(f"\nseed {args.seed}, {elapsed:.1f} s")
    return 0 if all(r.error is None for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
