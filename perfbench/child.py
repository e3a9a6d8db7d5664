"""One fiberlink CLI invocation in a fresh process, timed for ``run.py``.

Usage: python3 perfbench/child.py TIMING_JSON TRACE RUN_ID CLI_ARGS...

The process imports fiberlink the way the ``fiberlink`` entry point does and
calls ``fiberlink.cli.main(CLI_ARGS)``. It records two instants on the
system-wide monotonic clock, so the parent can subtract its own spawn time:
the start of the first simulation call (``run_link_full`` for ``run``,
``sweep`` for ``sweep``) and the return of ``main``, after the CSV and eye
files are written.

With TRACE = 1 it also wraps the public functions each layer exposes to the
CLI and link, plus the FFT entry points of ``numpy.fft`` and ``scipy.fft``,
and records a span (name, start, end, parent, run id) around every call. The
spans stay in memory and are written to TIMING_JSON when ``main`` returns.
"""
from __future__ import annotations

import importlib
import json
import sys
import time

# time.monotonic is CLOCK_MONOTONIC on Linux: one clock for every process, so
# instants taken here compare with the parent's spawn instant.
clock = time.monotonic

# (module, attribute, span name) wrapped when tracing. Functions are wrapped
# in the namespace they are called from, since cli and link import them by
# name; a missing attribute is skipped and its metrics read 0.
TRACED_CALLS = (
    ("fiberlink.cli", "parse_config", "config.parse_config"),
    ("fiberlink.cli", "run_link_full", "link.run_link_full"),
    ("fiberlink.cli", "sweep", "link.sweep"),
    ("fiberlink.cli", "format_eye", "metrics.format_eye"),
    ("fiberlink.link", "run_link_full", "link.run_link_full"),
    ("fiberlink.link", "transmit", "transmitter.transmit"),
    ("fiberlink.link", "propagate_fiber", "fiber.propagate_fiber"),
    ("fiberlink.link", "amplify", "fiber.amplify"),
    ("fiberlink.link", "receive", "receiver.receive"),
    ("fiberlink.link", "estimate_q", "metrics.estimate_q"),
    ("fiberlink.link", "fold_eye", "metrics.fold_eye"),
)
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")


def _fiber_detail(field, fiber, options=None):
    """Label, length, step mode and size, and field size of one propagate_fiber call."""
    if options is None:  # propagate_fiber's own default
        from fiberlink.fiber import SsfmOptions

        options = SsfmOptions()
    return {
        "label": fiber.label,
        "length_km": fiber.length_km,
        "mode": options.mode,
        "step_km": options.step_km,
        "n_samples": int(field.samples.size),
    }


class Tracer:
    """In-memory span recorder; the parent of a span is the innermost open one."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._open = [-1]

    def wrap(self, name, fn, detail=None):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, open_spans[-1],
                      detail(*args, **kwargs) if detail else None]
            open_spans.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_spans.pop()

        return traced

    def patch(self, module, attribute, name, detail=None) -> None:
        fn = getattr(module, attribute, None)
        if fn is not None:
            setattr(module, attribute, self.wrap(name, fn, detail))

    def as_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run_id": self.run_id, "detail": d}
            for n, s, e, p, d in self.spans
        ]


def main() -> int:
    timing_path, trace, run_id, *cli_args = sys.argv[1:]
    tracer = Tracer(run_id) if trace == "1" else None
    if tracer is not None:
        # Before fiberlink is imported, so a module that binds an FFT function
        # by name at import time still gets the wrapper.
        for module_name in FFT_MODULES:
            module = importlib.import_module(module_name)
            for attribute in FFT_FUNCTIONS:
                tracer.patch(module, attribute, "fft")

    import numpy
    import scipy

    import fiberlink.cli as cli

    if tracer is not None:
        for module_name, attribute, name in TRACED_CALLS:
            detail = _fiber_detail if attribute == "propagate_fiber" else None
            tracer.patch(importlib.import_module(module_name), attribute, name, detail)
        cli_main = tracer.wrap("cli.main", cli.main)
    else:
        cli_main = cli.main

    marks: dict[str, float] = {}

    def mark_first_call(fn):
        def first_call(*args, **kwargs):
            marks.setdefault("sim_start", clock())
            return fn(*args, **kwargs)

        return first_call

    for attribute in ("run_link_full", "sweep"):
        setattr(cli, attribute, mark_first_call(getattr(cli, attribute)))

    code = cli_main(cli_args)
    marks["main_end"] = clock()

    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit_code": code,
                "marks": marks,
                "versions": {
                    "python": sys.version.split()[0],
                    "numpy": numpy.__version__,
                    "scipy": scipy.__version__,
                },
                "spans": tracer.as_records() if tracer is not None else [],
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
