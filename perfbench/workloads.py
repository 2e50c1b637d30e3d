"""The three benchmark workloads.

Each workload turns the benchmark seed into ``master_seed`` and makes one
call through slnoise's public API or CLI, shaped like the caller it
copies: acceptance criterion 6, the shipped config file, criterion 7.
``run`` is the timed part; ``verify`` checks its output and summarises it
for the reference comparison.  Calls go through module attributes
(``ensemble.run_ensemble``, ``cli.main``) so that a traced repetition sees
the wrapped functions.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from slnoise import cli, ensemble
from slnoise import BathParams, RunConfig, SchemeId, SystemModel, TimeGrid, SIGMA_Z

import check

OMEGA_C = 25.0
MODEL = SystemModel(delta=1.0, epsilon=-1.0, alpha=0.05,
                    rho0=0.5 * (np.eye(2) + SIGMA_Z))


class LongWindow:
    """Criterion-6-shaped run: like scheme, beta = 0.1, t_max = 80.

    One batch of 256 realizations instead of criterion 6's 10,000, which
    would take minutes per call.  ``run_ensemble`` works in 256-row batches,
    so the batch arrays and the peak memory are those of the full size.
    """

    name = "long_window"
    n_realizations = 256

    def config(self, seed, root):
        return RunConfig(scheme=SchemeId.LIKE, model=MODEL,
                         grid=TimeGrid(dt=0.01, t_max=80.0),
                         n_realizations=self.n_realizations, master_seed=seed,
                         bath=BathParams(0.1, OMEGA_C))

    def run(self, seed, root, workdir):
        return ensemble.run_ensemble(self.config(seed, root))

    def realizations(self, seed, root, out):
        return out.n_realizations

    def verify(self, out):
        return (check.check_ensemble(out.mean_tr, out.se_tr, out.diverged),
                check.ensemble_summary(out.mean_tr, out.se_tr, out.var_tr))


class SchemeComparison:
    """``slnoise simulate --config configs/scheme_comparison.cfg``, with the
    config file's ensemble size and the benchmark seed."""

    name = "scheme_comparison"
    config_file = "configs/scheme_comparison.cfg"

    def config(self, seed, root):
        settings = cli.load_config(str(root / self.config_file))
        settings.update(seed=seed)
        return cli.build_run_config(settings)

    def run(self, seed, root, workdir):
        csv = workdir / f"{self.name}_{seed}.csv"
        argv = ["simulate", "--config", str(root / self.config_file),
                "--seed", str(seed), "--output", str(csv)]
        status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"slnoise simulate exited {status}")
        return csv

    def realizations(self, seed, root, out):
        return self.config(seed, root).n_realizations

    def verify(self, out: Path):
        cols = np.loadtxt(out, delimiter=",", skiprows=1)
        out.unlink()
        mean_tr = cols[:, 1] + 1j * cols[:, 2]
        var_tr, se_tr, diverged = cols[:, 4], cols[:, 5], cols[:, 9]
        return (check.check_ensemble(mean_tr, se_tr, diverged),
                check.ensemble_summary(mean_tr, se_tr, var_tr))


class LambdaScan:
    """Criterion-7-shaped scan: etanu-optimised, beta = 1, t_max = 10 and
    criterion 7's 13 lambdas, at 500 runs per point instead of its 1000 so
    that a call takes under 20 s.  The README gives the layer shares at both
    sizes."""

    name = "lambda_scan"
    runs_per_point = 500
    lambdas = np.logspace(np.log10(0.01), np.log10(10.0), 13)

    def config(self, seed, root):
        return RunConfig(scheme=SchemeId.ETANU_OPTIMISED, model=MODEL,
                         grid=TimeGrid(dt=0.01, t_max=10.0),
                         n_realizations=self.runs_per_point, master_seed=seed,
                         bath=BathParams(1.0, OMEGA_C))

    def run(self, seed, root, workdir):
        return ensemble.scan_lambda(self.config(seed, root), self.lambdas,
                                    self.runs_per_point)

    def realizations(self, seed, root, out):
        return len(out.lambdas) * self.runs_per_point

    def verify(self, out):
        return (check.check_scan(out.lambdas, out.se_final),
                check.scan_summary(out.se_final))


WORKLOADS = {w.name: w for w in (LongWindow(), SchemeComparison(), LambdaScan())}
