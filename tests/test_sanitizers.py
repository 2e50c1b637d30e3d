"""The native library under AddressSanitizer and UndefinedBehaviorSanitizer.

``_native.c`` is built with ``-fsanitize=address,undefined`` into a
temporary cache (the test replaces ``_native._compile_flags`` in a child
process), then a second child process, with gcc's ``libasan`` and
``libubsan`` preloaded, runs every entry point of the library through the
package: a read or write outside an array, or undefined behaviour, ends it
with an error report.  Skipped where gcc has no sanitizer runtime.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SANITIZE = ["-fsanitize=address,undefined", "-fno-omit-frame-pointer",
            "-fno-sanitize-recover=undefined"]

# run first in each child: the library the package builds is the
# sanitized one
PATCH = f"""
from slnoise import _native
_flags = _native._compile_flags
_native._compile_flags = lambda: _flags() + {SANITIZE!r}
"""

ENTRY_POINTS = """
import numpy as np

from slnoise import (BathParams, RunConfig, SchemeId, Synthesizer, SystemModel,
                     TimeGrid, build_kernel_table, make_filters, SIGMA_Z)
from slnoise import dynamics, ensemble, noise
from slnoise.dynamics import integrate_blocks, qnd_sln_config

# every probe passes, so the runs below go through the native kernels
assert dynamics._native_kernel() is not None
assert noise._native_normals() is not None
assert noise._native_colour() is not None
assert ensemble._native_sums() is not None

bath = BathParams(1.0, 25.0)
lams = np.logspace(-2, 1, 13)
# sln_normals, sln_mix and sln_transpose: n = 8 ... 32768, every wiring
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
# and four quantities, 1 and 13 strengths
for width in range(1, 301, 7):
    for nq, points in ((4, 1), (2, 13)):
        sums = ensemble._Sums(width, points, 3, nq, ensemble._native_sums())
        col = 0
        for rows in (1, 3, 16) * width:
            rows = min(rows, width - col)
            if rows == 0:
                break
            block = rng.standard_normal((3, nq, 2 * points * rows)).view(complex)
            sums.add(np.ascontiguousarray(block), rows, col, 0, 0)
            col += rows
        sums.result()

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


def test_native_library_is_clean_under_sanitizers(tmp_path):
    runtimes = [_runtime("libasan.so"), _runtime("libubsan.so")]
    if None in runtimes:
        pytest.skip("gcc's libasan or libubsan is missing")
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                          os.environ.get("PYTHONPATH", "")])}
    # the build runs without the runtimes, so that gcc itself is not
    # sanitized
    build = subprocess.run([sys.executable, "-c", PATCH + "assert _native._build()"],
                           env=env, capture_output=True, text=True, timeout=600)
    assert build.returncode == 0, build.stderr[-4000:]
    env.update(LD_PRELOAD=":".join(runtimes),
               ASAN_OPTIONS="detect_leaks=0",
               UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1")
    run = subprocess.run([sys.executable, "-c", PATCH + ENTRY_POINTS], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-4000:]
    assert run.stdout.split() == ["ok"]
    assert "runtime error" not in run.stderr
