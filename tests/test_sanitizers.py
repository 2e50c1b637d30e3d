"""The native library under AddressSanitizer and UndefinedBehaviorSanitizer.

``_native.c`` is built with ``-fsanitize=address,undefined`` into a
temporary cache (the test replaces ``_native._compile_flags`` in a child
process), then a second child process, with gcc's ``libasan`` and
``libubsan`` preloaded, runs every entry point of the library through the
package: a read or write outside an array, or undefined behaviour, ends it
with an error report.  Both builds are checked: as built for this
processor, and without the AVX-512 flags, whose draw refills Philox with
the scalar code that an AVX-512 build reaches only when a counter
carries.  The two builds are started at once, and each test waits for
its own.  Skipped where gcc has no sanitizer runtime.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from slnoise import _native

from conftest import without_avx512

ROOT = Path(__file__).resolve().parents[1]

SANITIZE = ["-fsanitize=address,undefined", "-fno-omit-frame-pointer",
            "-fno-sanitize-recover=undefined"]

# run first in each child, formatted with the build's flags: the library
# the package builds is the sanitized one
PATCH = """
from slnoise import _native
_native._compile_flags = lambda: {flags!r}
"""

ENTRY_POINTS = """
import logging.handlers

import numpy as np

from slnoise import (BathParams, RunConfig, SchemeId, Synthesizer, SystemModel,
                     TimeGrid, build_kernel_table, make_filters, SIGMA_Z)
from slnoise import ensemble, noise
from slnoise.dynamics import integrate_blocks, qnd_sln_config

from conftest import PROBES, kernel

# every record of the package's logger, a kernel's fallback among them
records = logging.handlers.BufferingHandler(10**6)
logging.getLogger("slnoise").addHandler(records)
logging.getLogger("slnoise").setLevel(logging.INFO)

# every probe passes, so the runs below go through the native kernels
for symbol in PROBES:
    assert kernel(symbol) is not None, symbol

bath = BathParams(1.0, 25.0)
lams = np.logspace(-2, 1, 13)
# sln_normals, sln_mix and sln_fft: n = 8 ... 32768, every wiring
# (orthogonal, orthogonal with the pair apart at 1 and 13 strengths,
# convex), chunks of 1, 3 and 16 rows
for k in range(3, 16):
    grid = TimeGrid(dt=0.01, t_max=0.01 * 2 ** (k - 1))
    assert grid.n == 2 ** k
    table = build_kernel_table(grid.freq(), bath)
    for scheme, lam in ((SchemeId.LIKE, None), (SchemeId.ETANU_OPTIMISED, [0.5]),
                        (SchemeId.ETANU_OPTIMISED, lams), (SchemeId.CONVEX, None)):
        synth = Synthesizer(make_filters(scheme, table), grid, lam)
        for rows in (1, 3, 16):
            out = [np.empty((grid.n_phys, rows), dtype=complex) for _ in range(4)]
            factors = np.empty((0 if lam is None else len(lam), rows))
            synth.fill(list(range(rows)), out[0], out[1], (out[2], out[3], factors))

# sln_fft: n = 2 ... 65536, forward and inverse, on 1 row and on two
# rows of each half of a (2, 3, n) buffer (the fills above run it too)
fft = kernel("sln_fft")
gen = np.random.default_rng(2)
for k in range(1, 17):
    n = 2 ** k
    twiddles, scratch = noise._fft_twiddles(n), np.empty(n, dtype=complex)
    a = gen.standard_normal((2, 3, n)) + 1j * gen.standard_normal((2, 3, n))
    for rows in (a[0, 0], a[:, :2]):
        for inverse in (False, True):
            noise._fft_native(fft, rows, inverse, twiddles, scratch)

# sln_rk4: 1, 3 and 16 rows, without factors and with 1 and 13 factor
# rows, some columns diverging through inf into nan
rng = np.random.default_rng(1)
model = SystemModel(1.0, -1.0, 40.0, 0.5 * (np.eye(2) + SIGMA_Z))
for rows in (1, 3, 16):
    eta, nu, eta0, nu0 = (30.0 * (rng.standard_normal((401, rows))
                                  + 1j * rng.standard_normal((401, rows)))
                          for _ in range(4))
    for cross in (None, (eta0, nu0, rng.uniform(0.1, 10.0, (1, rows))),
                  (eta0, nu0, rng.uniform(0.1, 10.0, (13, rows)))):
        diverged = False
        for _, states, new_div in integrate_blocks(model, eta, nu, 0.005, cross):
            diverged |= bool((new_div >= 0).any())
        assert diverged

# sln_sums: units of 1 ... 300 columns in chunks of 1, 3 and 16, two
# and four quantities, 1 and 13 strengths, into the last strengths and
# steps of the sums
for width in range(1, 301, 7):
    for nq, points in ((4, 1), (2, 13)):
        for chunk in (1, 3, 16):
            sums = ensemble._Sums(points + 1, 4, nq, kernel("sln_sums"))
            for col in range(0, width, chunk):
                rows = min(chunk, width - col)
                block = rng.standard_normal((3, nq, 2 * points * rows)).view(complex)
                sums.add(np.ascontiguousarray(block), rows, 1, 1)

# the runs: an ensemble, a 13-point scan and a coherence run
weak = SystemModel(1.0, -1.0, 0.05, 0.5 * (np.eye(2) + SIGMA_Z))
cfg = RunConfig(scheme=SchemeId.ETANU_OPTIMISED, model=weak,
                grid=TimeGrid(dt=0.01, t_max=2.0), n_realizations=40,
                master_seed=0, bath=bath)
ensemble.run_ensemble(cfg)
ensemble.scan_lambda(cfg, lams, 20)
kernel, qnd = qnd_sln_config()
ensemble.run_coherence(RunConfig(scheme=SchemeId.ETANU_OPTIMISED, model=qnd,
                                 grid=TimeGrid(dt=0.01, t_max=1.0),
                                 n_realizations=20, master_seed=0, kernel=kernel))
# no kernel fell back to numpy, so the runs tested the native code
assert not records.buffer, [r.getMessage() for r in records.buffer]
print("ok")
"""


def _runtime(name):
    """Path of gcc's runtime library ``name``, or None."""
    cc = shutil.which("gcc")
    if cc is None:
        return None
    path = subprocess.run([cc, f"-print-file-name={name}"], capture_output=True,
                          text=True).stdout.strip()
    return path if os.path.isabs(path) and os.path.isfile(path) else None


BUILDS = ["as built", "without AVX-512"]


@pytest.fixture(scope="module")
def sanitized_builds(tmp_path_factory):
    """Each build's child process, started at once, with its log of
    errors, the patch that makes its flags the package's and the
    environment of its cache; and gcc's sanitizer runtimes."""
    runtimes = [_runtime("libasan.so"), _runtime("libubsan.so")]
    if None in runtimes:
        pytest.skip("gcc's libasan or libubsan is missing")
    started = {}
    try:
        for build in BUILDS:
            flags = _native._compile_flags()
            if build == "without AVX-512":
                flags = without_avx512(flags)
            patch = PATCH.format(flags=flags + SANITIZE)
            cache = tmp_path_factory.mktemp("sanitized")
            env = {**os.environ, "XDG_CACHE_HOME": str(cache),
                   "PYTHONPATH": os.pathsep.join([
                       str(ROOT / "src"), str(ROOT / "tests"),
                       os.environ.get("PYTHONPATH", "")])}
            log = cache / "build.log"
            # the build runs without the runtimes, so that gcc itself is not
            # sanitized
            with open(log, "w") as err:
                proc = subprocess.Popen(
                    [sys.executable, "-c", patch + "assert _native._build()"],
                    env=env, stdout=subprocess.DEVNULL, stderr=err)
            started[build] = proc, log, patch, env
        yield runtimes, started
    finally:
        for proc, *_ in started.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait()


@pytest.mark.parametrize("build", BUILDS)
def test_native_library_is_clean_under_sanitizers(sanitized_builds, build):
    runtimes, started = sanitized_builds
    proc, log, patch, env = started[build]
    assert proc.wait(timeout=600) == 0, log.read_text()[-4000:]
    env = {**env, "LD_PRELOAD": ":".join(runtimes),
           "ASAN_OPTIONS": "detect_leaks=0",
           "UBSAN_OPTIONS": "halt_on_error=1:print_stacktrace=1"}
    run = subprocess.run([sys.executable, "-c", patch + ENTRY_POINTS], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-4000:]
    assert run.stdout.split() == ["ok"]
    assert "runtime error" not in run.stderr
