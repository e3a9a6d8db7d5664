#!/usr/bin/env python3
"""Resident memory of one default ``fiberlink run``, stage by stage.

Imports numpy and scipy first, as perfbench's child process does, then
``fiberlink.cli``, and runs ``fiberlink run`` with the default config. It
prints ``VmRSS`` and ``VmHWM`` from ``/proc/self/status`` (Linux only), in
MiB:

- after the imports;
- after the first RNG use (the first call of ``link._streams``);
- after each ``transmit``, ``propagate_fiber``, ``amplify``, ``receive`` and
  ``estimate_q`` call;
- after ``format_eye``.

The stages are found by wrapping the names ``link`` and ``cli`` call them by,
so run it in a process of its own: each figure includes what the stages
before it left resident.

Usage:
    python3 scripts/rss_stages.py [--out DIR]
"""
from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy  # noqa: F401 - loaded before fiberlink, as in perfbench's child
import scipy  # noqa: F401

import fiberlink.cli as cli
import fiberlink.link as link

STATUS = Path("/proc/self/status")
# The calls read after, by the module that calls them and the name it binds.
STAGES = (
    (link, "transmit"),
    (link, "propagate_fiber"),
    (link, "amplify"),
    (link, "receive"),
    (link, "estimate_q"),
    (cli, "format_eye"),
)
# Stages whose second argument is a fiber or an amplifier; its label joins theirs.
ELEMENT_STAGES = ("propagate_fiber", "amplify")


def memory_mib() -> tuple[float, float]:
    """(VmRSS, VmHWM) of this process in MiB."""
    fields = dict(line.split(":", 1) for line in STATUS.read_text().splitlines())
    return tuple(int(fields[key].split()[0]) / 1024 for key in ("VmRSS", "VmHWM"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", help="directory for result.csv and eye.txt (default: a temporary one)"
    )
    args = parser.parse_args()
    if not STATUS.is_file():
        print(f"error: {STATUS} is missing; VmRSS and VmHWM are read from it", file=sys.stderr)
        return 1

    readings = [("imports", *memory_mib())]

    def after(fn, name):
        def staged(*fn_args, **kwargs):
            result = fn(*fn_args, **kwargs)
            label = f"{name} {fn_args[1].label}" if name in ELEMENT_STAGES else name
            readings.append((label, *memory_mib()))
            return result

        return staged

    streams = link._streams

    def first_streams(seed):
        result = streams(seed)
        if len(readings) == 1:  # the run's first call comes before every other stage
            readings.append(("first RNG use", *memory_mib()))
        return result

    link._streams = first_streams
    for module, name in STAGES:
        setattr(module, name, after(getattr(module, name), name))

    with tempfile.TemporaryDirectory(prefix="rss_stages_") as tmp:
        code = cli.main(["run", "--out", args.out or tmp])
    print(f"{'stage':<28} {'VmRSS_MiB':>10} {'VmHWM_MiB':>10}")
    for label, rss, hwm in readings:
        print(f"{label:<28} {rss:>10.2f} {hwm:>10.2f}")
    return code


if __name__ == "__main__":
    sys.exit(main())
