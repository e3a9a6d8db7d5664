#!/usr/bin/env python3
"""Accumulated-dispersion maps for the three compensation schemes.

Prints the piecewise-linear accumulated dispersion (ps/nm) against position
for pre, post, and symmetric placement of the same total DCF length, plus a
small ASCII sketch of each map. All three end at the same residual; they
differ in how far the signal excursion strays from zero along the way.

Usage:
    python3 scripts/dispersion_map.py [--dcf-km TOTAL]
"""
from __future__ import annotations

import argparse

import fiberlink as fl


def sketch(profile: list[tuple[float, float]], width: int = 56, height: int = 9) -> str:
    """Render breakpoints as a crude ASCII polyline on a fixed canvas."""
    xs = [p for p, _ in profile]
    ys = [a for _, a in profile]
    x_span = xs[-1] - xs[0] or 1.0
    y_min, y_max = min(ys + [0.0]), max(ys + [0.0])
    y_span = (y_max - y_min) or 1.0
    grid = [[" "] * width for _ in range(height)]

    def plot(x: float, y: float, ch: str) -> None:
        col = round((x - xs[0]) / x_span * (width - 1))
        row = round((y_max - y) / y_span * (height - 1))
        grid[row][col] = ch

    # dense interpolation between breakpoints so segments read as lines
    for (x0, y0), (x1, y1) in zip(profile, profile[1:]):
        steps = max(2, int((x1 - x0) / x_span * width * 2))
        for k in range(steps + 1):
            f = k / steps
            plot(x0 + f * (x1 - x0), y0 + f * (y1 - y0), ".")
    for x, y in profile:
        plot(x, y, "+")
    return "\n".join("".join(row) for row in grid)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dcf-km", type=float, default=48.0, help="total DCF length to place (default 48)"
    )
    args = parser.parse_args()
    total = args.dcf_km

    layouts = {
        "pre": (total, 0.0),
        "post": (0.0, total),
        "symmetric": (total / 2, total / 2),
    }
    for name, (pre, post) in layouts.items():
        elements = fl.LinkConfig(pre_length_km=pre, post_length_km=post).elements()
        profile = fl.dispersion_profile(elements)
        residual = fl.residual_dispersion(elements)
        print(f"== {name} (pre {pre:g} km, post {post:g} km) ==")
        print("position_km,accumulated_ps_nm")
        for position, accumulated in profile:
            print(f"{position:g},{accumulated:g}")
        print(f"residual: {residual:g} ps/nm")
        print(sketch(profile))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
