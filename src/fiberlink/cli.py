"""Command-line interface: run one link, sweep DCF lengths, or dump the map.

All numeric CSV output uses shortest round-trip float formatting, so runs
with a fixed seed produce byte-identical files.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .config import ConfigError, parse_config, read_config_text
from .link import LinkConfig, SweepSpec, dispersion_profile, run_link_full, sweep
from .metrics import format_eye

__all__ = ["main", "CSV_HEADER"]

CSV_HEADER = "pre_km,post_km,residual_ps_nm,q_db,ber,jitter_ns,seed"


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _row_csv(pre: float, post: float, residual: float | None, q_db: float | None,
             ber: float | None, jitter_ns: float | None, seed: int) -> str:
    return ",".join(
        [_fmt(pre), _fmt(post), _fmt(residual), _fmt(q_db), _fmt(ber), _fmt(jitter_ns), str(seed)]
    )


def _load_config(path: str | None, seed: int | None) -> LinkConfig:
    cfg = parse_config("" if path is None else read_config_text(path))
    if seed is not None:
        try:
            cfg = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, seed=seed))
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    return cfg


def _parse_lengths(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} expects at least one length, got {text!r}")
    if not all(0.0 <= value < math.inf for value in values):
        raise ConfigError(f"{flag} lengths must be finite and >= 0 km, got {text!r}")
    return values


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args.seed)
    result = run_link_full(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    q = result.q
    row = _row_csv(
        config.pre_length_km,
        config.post_length_km,
        result.residual_ps_nm,
        q.q_db,
        q.ber,
        q.jitter_ns,
        result.seed,
    )
    (out_dir / "result.csv").write_text(CSV_HEADER + "\n" + row + "\n", encoding="utf-8")
    (out_dir / "eye.txt").write_text(format_eye(result.eye), encoding="utf-8")
    print(f"q_db = {_fmt(q.q_db)}")
    print(f"ber = {_fmt(q.ber)}")
    print(f"jitter_ns = {_fmt(q.jitter_ns)}")
    print(f"residual_ps_nm = {_fmt(result.residual_ps_nm)}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args.seed)
    pre = _parse_lengths(args.pre, "--pre")
    post = _parse_lengths(args.post, "--post")
    spec = SweepSpec(
        pre_lengths_km=pre,
        post_lengths_km=post,
        config=config,
        pairing=args.pairing,
        per_row_seeds=args.per_row_seeds,
    )
    rows = sweep(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER]
    failures = 0
    for row in rows:
        lines.append(
            _row_csv(row.pre_km, row.post_km, row.residual_ps_nm, row.q_db, row.ber,
                     row.jitter_ns, row.seed)
        )
        if row.error is not None:
            failures += 1
            print(
                f"row (pre={row.pre_km}, post={row.post_km}) failed: {row.error}",
                file=sys.stderr,
            )
    path = out_dir / "sweep.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(rows) - failures}/{len(rows)} rows ok)")
    return 0 if failures == 0 else 1


def cmd_profile(args: argparse.Namespace) -> int:
    config = _load_config(args.config, None)
    topology = config.resolve_topology()
    print("position_km,accumulated_ps_nm")
    for position, accumulated in dispersion_profile(topology):
        print(f"{_fmt(position)},{_fmt(accumulated)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberlink",
        description="Single-channel 10 Gb/s NRZ fiber link simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one link and write result.csv + eye.txt")
    run_p.add_argument("--config", help="config file (flat key=value); defaults if omitted")
    run_p.add_argument("--out", default=".", help="output directory (default: .)")
    run_p.add_argument("--seed", type=int, help="override sim.seed")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep DCF lengths and write sweep.csv")
    sweep_p.add_argument("--config", help="config file (flat key=value); defaults if omitted")
    sweep_p.add_argument("--pre", required=True, help="comma-separated pre-DCF lengths, km")
    sweep_p.add_argument("--post", required=True, help="comma-separated post-DCF lengths, km")
    sweep_p.add_argument(
        "--pairing", choices=("zip", "cross"), default="zip",
        help="pair the two lists in lockstep (zip) or as a product (cross)",
    )
    sweep_p.add_argument("--out", default=".", help="output directory (default: .)")
    sweep_p.add_argument("--seed", type=int, help="override sim.seed")
    sweep_p.add_argument(
        "--per-row-seeds", action="store_true",
        help="derive a distinct child seed per row instead of reusing one seed",
    )
    sweep_p.set_defaults(func=cmd_sweep)

    profile_p = sub.add_parser("profile", help="print the accumulated dispersion map")
    profile_p.add_argument("--config", help="config file (flat key=value); defaults if omitted")
    profile_p.set_defaults(func=cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface module errors as exit status
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
