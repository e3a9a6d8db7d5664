"""The package's public names, and what importing and stepping it costs."""
from __future__ import annotations

import ast
import importlib
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

import fiberlink as fl
from conftest import ROOT, SMALL_LINK, small_link_config, subprocess_env
from fiberlink import config, fiber, link, metrics, receiver, signals, transmitter

# Minor page faults per FFT pair of warm propagate_fiber calls on a 32,768-sample
# grid. The noise field takes 156 adaptive trials over 120 km, not the few a CW
# takes, and its predicted band error (0.47 at 6x the bit rate) is over
# BAND_ERROR_CEILING, so they run at 32,768 samples like the fixed steps. The
# transmitted NRZ field runs 30 of its 31 FFT pairs per call on the 8,192-sample
# band, so its calls repeat to reach the same floor of pairs.
FAULTS_PER_FFT_PAIR = """
import resource
import numpy as np
fft, pairs = np.fft.fft, []
def counted_fft(*args, **kwargs):
    pairs.append(None)
    return fft(*args, **kwargs)
np.fft.fft = counted_fft
import fiberlink as fl
grid = fl.SamplingGrid(10e9, 1024, 32, 1550e-9)
n, rng = grid.n_samples, np.random.default_rng(0)
field = {field}
fiber, options = {fiber}, fl.SsfmOptions(step_km={step_km})
fl.propagate_fiber(field, fiber, options)
pairs.clear()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range({calls}):
    fl.propagate_fiber(field, fiber, options)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(len(pairs), (after - before) / len(pairs))
"""
NOISE = "fl.OpticalField(0.03 * (rng.normal(size=n) + 1j * rng.normal(size=n)), grid)"

# One CLI command in a new interpreter that imports numpy and scipy first, as
# perfbench's child process does. It prints the OpenSSL modules the command's
# first RNG use left loaded ("-" for none), whether a later ``import secrets``
# gets the real module, and whether two unseeded SeedSequences draw different
# entropy.
FIRST_RNG_USE = """
import contextlib, io, sys
import numpy, scipy
import fiberlink.cli
assert "numpy.random" not in sys.modules and "secrets" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert fiberlink.cli.main({args!r}) == 0
print(",".join(m for m in ("secrets", "hmac", "_hashlib") if m in sys.modules) or "-")
import secrets
print(hasattr(secrets, "token_bytes"))
print(numpy.random.SeedSequence().entropy != numpy.random.SeedSequence().entropy)
"""


def fresh_process(code: str) -> list[str]:
    """Run ``code`` in a new interpreter: this one has loaded scipy (test_receiver.py),
    which would hide both a scipy import and the FFT page faults."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return result.stdout.split()


def test_all_is_the_module_lists():
    assert fl.__all__ == [
        "__version__",
        *signals.__all__,
        *transmitter.__all__,
        *fiber.__all__,
        *receiver.__all__,
        *metrics.__all__,
        *link.__all__,
        *config.__all__,
    ]
    assert len(set(fl.__all__)) == len(fl.__all__)
    assert all(hasattr(fl, name) for name in fl.__all__)


def test_readme_counts_the_public_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"`fl\.__all__` lists the public names \((\d+)\)", readme)
    assert stated is not None
    assert int(stated.group(1)) == len(fl.__all__)


def test_cli_import_loads_no_scipy_or_rng():
    # numpy.random loads at the first RNG use, inside the run, so it cannot
    # drift into start-up.
    loaded = fresh_process(
        "import sys, fiberlink.cli\n"
        "print(*[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')"
        " or m in ('numpy.random', 'secrets')])"
    )
    assert loaded == []


@pytest.mark.parametrize(
    "args",
    [["run"], ["sweep", "--per-row-seeds", "--pre", "2.4,3", "--post", "2.4,3"]],
    ids=["run", "sweep_per_row_seeds"],
)
def test_first_rng_use_loads_no_openssl(tmp_path, args):
    (tmp_path / "link.cfg").write_text(SMALL_LINK, encoding="utf-8")
    args = [*args, "--config", str(tmp_path / "link.cfg"), "--out", str(tmp_path)]
    loaded, real_secrets, fresh_entropy = fresh_process(FIRST_RNG_USE.format(args=args))
    assert loaded == "-"
    assert real_secrets == "True"
    assert fresh_entropy == "True"


def test_rng_use_with_numpy_random_loaded_keeps_secrets():
    assert np.random is sys.modules["numpy.random"]  # loaded, as in any test process
    secrets = sys.modules.get("secrets")
    link.run_link_full(small_link_config())
    link.sweep(small_link_config(), [(2.4, 2.4)], per_row_seeds=True)
    assert sys.modules.get("secrets") is secrets


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the FFT scratch faults are glibc's mmap threshold"
)
@pytest.mark.parametrize(
    ("field", "fiber", "step_km", "calls", "bound"),
    [
        (NOISE, "fl.FiberParams(10.0, 17.0, 0.2, 1.3)", 0.1, 1, 8),
        (NOISE, "fl.FiberParams(120.0, 17.0, 0.2, 1.3)", None, 1, 8),
        ("fl.transmit(fl.TxConfig(), grid, rng)[1]", "fl.LinkConfig().smf", None, 4, 1),
    ],
    ids=["fixed", "adaptive", "band"],
)
def test_split_steps_do_not_page_fault(field, fiber, step_km, calls, bound):
    code = FAULTS_PER_FFT_PAIR.format(field=field, fiber=fiber, step_km=step_km, calls=calls)
    pairs, faults_per_pair = fresh_process(code)
    assert int(pairs) >= 100
    assert float(faults_per_pair) < bound, f"{faults_per_pair} minor page faults per FFT pair"


def test_every_import_is_used_or_exported():
    unused = []
    for path in sorted((ROOT / "src" / "fiberlink").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = importlib.import_module(f"fiberlink.{path.stem}".removesuffix(".__init__"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(getattr(module, "__all__", ()))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "*" and name not in used:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


# Public names with no caller in src/ or scripts/, each with the reason it stays public.
TEST_FACING = {
    "__version__": "the package version, for whoever imports the library",
    "q_from_rails": "the tests' rail oracle for estimate_q",
}


def test_public_names_have_a_caller():
    """README: ``fl.__all__`` is what the link, the CLI and the scripts call. A name
    counts as called when src/ or scripts/ reads it outside its own definition."""
    referenced = set()
    paths = [*(ROOT / "src" / "fiberlink").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    for path in paths:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name | ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    if name != own:
                        referenced.add(name)
    assert sorted(set(fl.__all__) - referenced) == sorted(TEST_FACING)
