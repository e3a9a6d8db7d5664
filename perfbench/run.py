#!/usr/bin/env python3
"""fiberlink benchmark: the CLI end to end, and per layer when traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run writes the workload's config (its settings plus ``sim.seed = N``) and
starts ``fiberlink.cli.main`` through ``child.py`` in one fresh process after
another, for about S seconds and at least ``MIN_PROCESSES`` times. Each
process is checked against ``reference.json`` and timed:

- ``setup_s``: spawn until the first simulation call (interpreter, imports of
  numpy, scipy and fiberlink, ``parse_config`` and ``validate``);
- ``wall_s``: first simulation call until the CSV and eye files are written;
- ``cpu_s``: user + sys CPU time of the process and of the children it waits
  for (``wait4``);
- ``peak_rss_mb``: peak resident memory of the process tree: the larger of the
  summed VmRSS of the process and its descendants, sampled every
  ``POLL_S``, and the largest single-process peak ``wait4`` reports.

The run reports the median of each over its processes. With ``--trace 1``
every other process is traced (see ``child.py``) and the run reports per-layer
medians over the traced processes instead, plus the traced wall time over the
untraced one, minus 1.

Output check, per row, with columns found by the CSV's own header: the row is
present, its pre/post lengths are the ones asked for, its residual dispersion
matches the recorded one byte for byte, its seed is the program seed, and Q
is finite. Where ``reference.json`` holds the seed, |Q - Q_ref| must also stay
within ``Q_TOL_DB``. A process that exits non-zero fails all its rows. Every
process of a run, traced or not, must write byte-identical CSV and eye files. The last stdout line is the JSON result; the
exit code is 1 when the check fails and 2 when the program cannot be started.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"

# Same clock as child.py: CLOCK_MONOTONIC is shared by all processes on Linux.
clock = time.monotonic

# The CSV columns the output check reads; the header itself is the program's.
CHECKED_COLUMNS = ("pre_km", "post_km", "residual_ps_nm", "q_db", "seed")
# Stated accuracy of a row: the |dQ| gate ROADMAP sets for step-size control.
Q_TOL_DB = 0.01
# Per --trace value; a traced run needs one traced and one untraced process.
MIN_PROCESSES = {0: 3, 1: 2}
# The benchmark must exit within 180 s: start no process after LAST_START_S
# and kill one still running at KILL_S.
LAST_START_S = 120.0
KILL_S = 165.0
# How often a running process is polled for exit, deadline and tree RSS.
POLL_S = 0.02
# FFT calls per step of the adaptive SSFM stepper (two half linear steps).
FFTS_PER_ADAPTIVE_STEP = 4
CROSS_LENGTHS = (24.0, 27.0, 30.0, 35.0)


@dataclass(frozen=True)
class Workload:
    config: str  # config text; the run appends its sim.seed line
    cli_args: tuple[str, ...]
    pairs: tuple[tuple[float, float], ...]  # (pre_km, post_km) of each output row
    csv_name: str
    field_samples: int  # n_bits * samples_per_bit, computed from the config


def _lengths(values: tuple[float, ...]) -> str:
    return ",".join(f"{v:g}" for v in values)


# The one-line reason for each declared workload is its "why" in
# BENCHMARK.json. run_wide_eye is not declared there: with three workloads the
# benchmark's time budget allows only 40 s runs, too short for steady medians
# on a host whose speed drifts. It stays runnable by hand.
WORKLOADS = {
    "run_default": Workload(
        config="",
        cli_args=("run",),
        pairs=((24.0, 24.0),),
        csv_name="result.csv",
        field_samples=1024 * 32,
    ),
    "sweep_cross": Workload(
        config="sim.n_bits = 256\nsim.step_km = 0.5\namp.ase = true\n",
        cli_args=("sweep", "--pairing", "cross",
                  "--pre", _lengths(CROSS_LENGTHS), "--post", _lengths(CROSS_LENGTHS)),
        pairs=tuple((a, b) for a in CROSS_LENGTHS for b in CROSS_LENGTHS),
        csv_name="sweep.csv",
        field_samples=256 * 32,
    ),
    # 16384-bit PRBS-15 run at 8 km steps: an 8 MiB field, larger than L2, and a
    # 19.5 MB eye.txt, so metrics, cli, transmitter and memory-bound FFTs show.
    "run_wide_eye": Workload(
        config="sim.n_bits = 16384\ntx.prbs_order = 15\nsim.step_km = 8\n",
        cli_args=("run",),
        pairs=((24.0, 24.0),),
        csv_name="result.csv",
        field_samples=16384 * 32,
    ),
}
# Benchmark seeds reference.json holds, for every workload above.
REFERENCE_SEEDS = range(32)


def program_seed(seed: int) -> int:
    """The ``sim.seed`` a benchmark seed maps to (the program needs 0 <= seed)."""
    return seed % 2**32


def config_text(workload: Workload, seed: int) -> str:
    return workload.config + f"sim.seed = {program_seed(seed)}\n"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def tree_rss_kib(pid: int) -> int:
    """Summed VmRSS of a process and all its descendants, 0 for those already gone."""
    total = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            for line in Path(f"/proc/{current}/status").read_text().splitlines():
                if line.startswith("VmRSS:"):
                    total += int(line.split()[1])
            for task in Path(f"/proc/{current}/task").iterdir():
                pending.extend(int(c) for c in (task / "children").read_text().split())
        except (OSError, ValueError):
            continue
    return total


@dataclass
class Process:
    traced: bool
    exit_code: int
    setup_s: float | None
    wall_s: float | None
    cpu_s: float
    peak_rss_mb: float
    csv: str | None
    eye_sha256: str | None
    timing: dict | None


def run_program(workload: Workload, cfg: Path, out: Path, traced: bool, run_id: str,
                kill_at: float) -> Process:
    """Start one child process, wait for it, and collect its timings and outputs."""
    out.mkdir(parents=True)
    timing_path = out / "timing.json"
    argv = [sys.executable, str(CHILD), str(timing_path), "1" if traced else "0", run_id,
            *workload.cli_args, "--config", str(cfg), "--out", str(out)]
    with open(out / "stdout.txt", "wb") as stdout, open(out / "stderr.txt", "wb") as stderr:
        spawn = clock()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT)
        # wait4 gives the CPU time of the child and the children it waited
        # for, and the largest single-process peak RSS among them; poll it so
        # the child can be killed at the deadline, and sum the RSS of the
        # live process tree on the way, which wait4 does not give.
        pid = 0
        tree_peak_kib = 0
        try:
            while not pid:
                time.sleep(POLL_S)
                if clock() > kill_at:
                    proc.kill()
                tree_peak_kib = max(tree_peak_kib, tree_rss_kib(proc.pid))
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        finally:
            if not pid:
                proc.kill()
                os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)

    timing = json.loads(timing_path.read_text()) if timing_path.exists() else None
    marks = timing["marks"] if timing else {}
    csv_path = out / workload.csv_name
    eye_path = out / "eye.txt"
    eye_sha = hashlib.sha256(eye_path.read_bytes()).hexdigest() if eye_path.exists() else None
    eye_path.unlink(missing_ok=True)  # up to 19.5 MB each; the hash is what is compared
    return Process(
        traced=traced,
        exit_code=proc.returncode,
        setup_s=marks["sim_start"] - spawn if "sim_start" in marks else None,
        wall_s=marks["main_end"] - marks["sim_start"] if "sim_start" in marks else None,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=max(tree_peak_kib, usage.ru_maxrss) / 1024.0,  # both in KiB on Linux
        csv=csv_path.read_text(encoding="utf-8") if csv_path.exists() else None,
        eye_sha256=eye_sha,
        timing=timing,
    )


def parse_csv(text: str) -> list[dict[str, str]]:
    """Rows of a CSV as dicts keyed by the names in its header line."""
    lines = text.splitlines()
    if not lines:
        return []
    names = lines[0].split(",")
    return [dict(zip(names, line.split(","))) for line in lines[1:]]


def load_reference(name: str) -> dict[str, str]:
    """Reference CSV text of a workload, keyed by program seed."""
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"].get(name, {})


def recorded_residuals(reference: dict[str, str]) -> dict[tuple[float, float], str]:
    """Residual dispersion field of each (pre, post) row; it does not depend on the seed."""
    residuals = {}
    for text in reference.values():
        for row in parse_csv(text):
            residuals[(float(row["pre_km"]), float(row["post_km"]))] = row["residual_ps_nm"]
    return residuals


def check_rows(workload: Workload, proc: Process, seed: int, ref_csv: str | None,
               residuals: dict[tuple[float, float], str]) -> tuple[int, float, list[str]]:
    """Failed rows, largest |Q - Q_ref| and the problems found in one process's CSV."""
    problems = []
    if proc.exit_code != 0:
        problems.append(f"exit code {proc.exit_code}")
    rows = parse_csv(proc.csv) if proc.csv is not None else []
    if proc.csv is None:
        problems.append(f"no {workload.csv_name}")
    else:
        header = proc.csv.splitlines()[0].split(",") if proc.csv else []
        missing = [c for c in CHECKED_COLUMNS if c not in header]
        if missing:
            problems.append(f"{workload.csv_name} header lacks columns {missing}")
    ref_rows = parse_csv(ref_csv) if ref_csv is not None else []
    if len(rows) > len(workload.pairs):
        problems.append(f"{len(rows) - len(workload.pairs)} unexpected extra rows")
    failed = 0
    q_err = 0.0
    for index, (pre, post) in enumerate(workload.pairs):
        where = f"row {index} (pre={pre:g}, post={post:g})"
        if index >= len(rows):
            problems.append(f"{where}: missing")
            failed += 1
            continue
        row = rows[index]
        row_problems = []
        try:
            q = float(row["q_db"])
            if (float(row["pre_km"]), float(row["post_km"])) != (pre, post):
                row_problems.append(f"lengths {row['pre_km']},{row['post_km']}")
        except (KeyError, ValueError):
            q = math.nan
            row_problems.append("unparsable row (an error row has no Q)")
        if not math.isfinite(q):
            row_problems.append(f"Q is {row.get('q_db')!r}")
        if row.get("seed") != str(program_seed(seed)):
            row_problems.append(f"seed {row.get('seed')!r}, expected {program_seed(seed)}")
        if row.get("residual_ps_nm") != residuals.get((pre, post)):
            row_problems.append(
                f"residual {row.get('residual_ps_nm')!r}, recorded {residuals.get((pre, post))!r}"
            )
        if index < len(ref_rows) and math.isfinite(q):
            err = abs(q - float(ref_rows[index]["q_db"]))
            q_err = max(q_err, err)
            if err > Q_TOL_DB:
                row_problems.append(f"|Q - Q_ref| = {err:.6g} dB > {Q_TOL_DB} dB")
        if row_problems or proc.exit_code != 0:
            failed += 1
        problems.extend(f"{where}: {p}" for p in row_problems)
    return failed, q_err, problems


def steps_of(detail: dict, fft_calls: int) -> int:
    """SSFM steps of one propagate_fiber call.

    Computed from length and step in ``fixed`` mode; otherwise derived from the
    FFT calls the call made, since an adaptive step length depends on the field.
    """
    if detail["mode"] == "fixed":
        return max(1, math.ceil(detail["length_km"] / detail["step_km"] - 1e-12))
    return fft_calls // FFTS_PER_ADAPTIVE_STEP


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one traced process."""
    def dur(span):
        return span["end"] - span["start"]

    def total(name):
        return sum(dur(s) for s in spans if s["name"] == name)

    children: dict[int, float] = {}
    for span in spans:
        children[span["parent"]] = children.get(span["parent"], 0.0) + dur(span)
    prop = {i: s for i, s in enumerate(spans) if s["name"] == "fiber.propagate_fiber"}
    propagate_s = sum(dur(s) for s in prop.values())
    fft = [s for s in spans if s["name"] == "fft" and s["parent"] in prop]
    fft_calls = {i: 0 for i in prop}
    for s in fft:
        fft_calls[s["parent"]] += 1
    call_steps = {i: steps_of(s["detail"], fft_calls[i]) for i, s in prop.items()}
    steps = sum(call_steps.values())
    sample_steps = sum(call_steps[i] * s["detail"]["n_samples"] for i, s in prop.items())
    fft_s = sum(dur(s) for s in fft)
    main = next(i for i, s in enumerate(spans) if s["name"] == "cli.main")
    top = [s for s in spans if s["parent"] == main]
    sim_end = max(s["end"] for s in top if s["name"] in ("link.run_link_full", "link.sweep"))
    after_sim = sum(dur(s) for s in top if s["start"] >= sim_end)
    return {
        "fiber.propagate_s": propagate_s,
        "fiber.SMF_s": sum(dur(s) for s in prop.values() if s["detail"]["label"].startswith("SMF")),
        "fiber.DCF_s": sum(dur(s) for s in prop.values() if s["detail"]["label"].startswith("DCF")),
        "fiber.propagate_calls": len(prop),
        "fiber.steps": steps,
        "fiber.us_per_step": propagate_s / steps * 1e6 if steps else 0.0,
        "fiber.msample_steps_per_s": sample_steps / propagate_s / 1e6 if propagate_s else 0.0,
        "fiber.fft_calls": len(fft),
        "fiber.fft_share": fft_s / propagate_s if propagate_s else 0.0,
        "fiber.field_bytes": 16 * max((s["detail"]["n_samples"] for s in prop.values()), default=0),
        "fiber.amplify_s": total("fiber.amplify"),
        "fiber.amplify_calls": sum(s["name"] == "fiber.amplify" for s in spans),
        "transmitter.transmit_s": total("transmitter.transmit"),
        "receiver.receive_s": total("receiver.receive"),
        "metrics.estimate_q_s": total("metrics.estimate_q"),
        "metrics.fold_eye_s": total("metrics.fold_eye"),
        "metrics.format_eye_s": total("metrics.format_eye"),
        # cli's own time once the simulation has returned: CSV and eye writes.
        "cli.write_s": spans[main]["end"] - sim_end - after_sim,
        "link.self_s": sum(dur(s) - children.get(i, 0.0)
                           for i, s in enumerate(spans) if s["name"].startswith("link.")),
        "link.run_calls": sum(s["name"] == "link.run_link_full" for s in spans),
        "config.parse_s": total("config.parse_config"),
    }


# Counts derived from the config (lengths, step, grid size), not measured;
# fiber.steps only for fixed-step propagation (see steps_of).
COMPUTED = ("fiber.steps", "fiber.field_bytes")


def step_modes(spans: list[dict]) -> set[str]:
    return {s["detail"]["mode"] for s in spans if s["name"] == "fiber.propagate_fiber"}


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def size_bytes(text: str) -> int:
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(text[:-1]) * scale[text[-1]] if text[-1] in scale else int(text)


def environment(workload: Workload, versions: dict) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = cache_sizes()
    field = 16 * workload.field_samples
    env = {"nproc": os.cpu_count(), "cpu_model": model, **caches,
           "field_bytes_computed": field, **versions}
    if "L2" in caches:
        env["field_over_L2"] = round(field / size_bytes(caches["L2"]), 4)
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = clock()
    workload = WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    why = next((w["why"] for w in declared["workloads"] if w["name"] == args.workload),
               "not declared in BENCHMARK.json; runnable by hand")

    if not (ROOT / "src" / "fiberlink" / "cli.py").is_file():
        print(f"error: no fiberlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Untimed warm-up: fills the bytecode and file caches, so the first timed
    # process does not pay costs a user pays only once.
    warm = subprocess.run([sys.executable, "-c", "import fiberlink.cli"], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    if warm.returncode != 0:
        print(f"error: cannot import fiberlink:\n{warm.stderr}", file=sys.stderr)
        return 2

    cfg = work / "config.txt"
    cfg.write_text(config_text(workload, args.seed), encoding="utf-8")
    reference = load_reference(args.workload)
    ref_csv = reference.get(str(program_seed(args.seed)))
    residuals = recorded_residuals(reference)

    start = clock()
    procs: list[Process] = []
    while True:
        traced = args.trace == 1 and len(procs) % 2 == 0
        began = clock()
        procs.append(run_program(workload, cfg, work / f"p{len(procs)}", traced,
                                 f"{args.workload}/seed{args.seed}/p{len(procs)}",
                                 started + KILL_S))
        now = clock()
        # Start another process only if it, judged by the last one, ends in time.
        next_end = now + (now - began) - start
        if len(procs) >= MIN_PROCESSES[args.trace] and next_end > args.seconds:
            break
        if now - started > LAST_START_S:
            break

    attempted = failed = 0
    q_err = 0.0
    problems = []
    for index, proc in enumerate(procs):
        f, e, p = check_rows(workload, proc, args.seed, ref_csv, residuals)
        attempted += len(workload.pairs)
        failed += f
        q_err = max(q_err, e)
        problems.extend(f"process {index}: {x}" for x in p)
    outputs = {(p.csv, p.eye_sha256) for p in procs}
    if len(outputs) > 1:
        problems.append("processes wrote different CSV or eye files "
                        "(traced and untraced outputs must be byte-identical)")
    correct = not problems and failed == 0

    timed = [p for p in procs if p.wall_s is not None]
    untraced = [p for p in timed if not p.traced]
    traced = [p for p in timed if p.traced]
    versions = next((p.timing["versions"] for p in timed), {})
    env = environment(workload, versions)
    if not untraced or (args.trace == 1 and not traced):
        for problem in problems:
            print(problem, file=sys.stderr)
        print("error: no process reached the end of a simulation", file=sys.stderr)
        return 1

    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(p.setup_s for p in untraced),
            "wall_s": statistics.median(p.wall_s for p in untraced),
            "cpu_s": statistics.median(p.cpu_s for p in untraced),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in untraced),
        }
    else:
        per_process = [layer_metrics(p.timing["spans"]) for p in traced]
        metrics = {name: statistics.median(m[name] for m in per_process)
                   for name in per_process[0]}
        metrics["trace.overhead_frac"] = (statistics.median(p.wall_s for p in traced)
                                          / statistics.median(p.wall_s for p in untraced) - 1.0)
        # Against the recorded CSV where there is one, else against this run's first.
        expected = ref_csv if ref_csv is not None else procs[0].csv
        metrics["cli.csv_identical"] = float(all(p.csv == expected for p in procs))
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} are not both measured and "
              "declared in BENCHMARK.json", file=sys.stderr)
        return 1

    kinds = "".join("T" if p.traced else "U" for p in procs)
    modes = set().union(*(step_modes(p.timing["spans"]) for p in traced))
    print(f"workload {args.workload}: {why}")
    print(f"seed {args.seed} (sim.seed {program_seed(args.seed)})  "
          f"processes {kinds} (U untraced, T traced); values are medians over "
          f"{len(traced) if args.trace else len(untraced)} processes")
    for name, value in metrics.items():
        note = "  (computed from config)" if name in COMPUTED else ""
        if name == "fiber.steps" and modes - {"fixed"}:
            note = (f"  (computed from config for fixed steps, else {FFTS_PER_ADAPTIVE_STEP} "
                    f"FFT calls per adaptive step; modes {sorted(modes)})")
        print(f"  {name:<26} {value:.6g} {units[name]}{note}")
    if ref_csv is not None:
        print(f"  {'q_err_db':<26} {q_err:.6g} dB  (largest |Q - Q_ref| over {attempted} rows; "
              f"tolerance {Q_TOL_DB} dB)")
    else:
        print(f"  {'q_err_db':<26} not measured: no reference for this seed, "
              "so only the invariants (no failures, exact residuals, finite Q) are checked")
    print(f"  {'failed_frac':<26} {failed / attempted:.6g} fraction  ({failed} of {attempted} rows)")
    print("environment " + json.dumps(env))
    for problem in problems:
        print(f"check failed: {problem}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (work / "result.json").write_text(
        json.dumps({**result, "q_err_db": q_err, "environment": env, "problems": problems,
                    "processes": [{"traced": p.traced, "exit_code": p.exit_code,
                                   "setup_s": p.setup_s, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                                   "peak_rss_mb": p.peak_rss_mb} for p in procs]},
                   indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
