"""Command-line front end.

Subcommands: ``kernels`` (dump the correlation-kernel table),
``gen-noise`` (one coloured realization), ``validate`` (empirical vs
target correlations), ``simulate`` (ensemble statistics), ``qnd-verify``
(stochastic average vs exact dephasing solution), ``scan-lambda``
(rescaling-strength scan).  All output is plain CSV with a header row.

Configuration is a flat ``key=value`` file ('#' starts a comment);
command-line flags override file values.  This module only parses them:
the library refuses every bad value with ConfigError.  Exit status: 0
success, 1 configuration error, 2 runtime error, each printed as one
line on stderr.  Linear-algebra thread count follows OMP_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from .dynamics import QndModel, SystemModel, qnd_exact, qnd_sln_config
from .ensemble import RunConfig, run_coherence, run_ensemble, scan_lambda, seed_for
from .exceptions import ConfigError, SlnoiseError
from .grids import TimeGrid
from .kernels import BathParams, build_kernel_table, kernel_time
from .noise import (TABLE_BYTES, check_memory, chunk_rows, estimate_correlations,
                    grid_name, lag_steps, synthesize, synthesize_batch,
                    workspace_bytes)
from .schemes import SchemeId, make_filters

__all__ = ["main", "load_config", "build_run_config"]

_DEFAULTS = {
    "scheme": None,
    "gamma": 0.01,
    "lambda": None,
    "beta": None,
    "omega_c": 25.0,
    "alpha": 0.05,
    "delta": 1.0,
    "epsilon": -1.0,
    "kappa": None,
    "dt": 0.01,
    "t_max": 10.0,
    "t0": 0.0,
    "pad_factor": 2,
    "n_realizations": 1000,
    "seed": 0,
    "stats_window": 100,
    "sx0": 0.0,
    "sy0": 0.0,
    "sz0": 1.0,
    "output": None,
}

_INT_KEYS = {"pad_factor", "n_realizations", "seed", "stats_window"}
_STR_KEYS = {"scheme", "output"}


def load_config(path: str) -> dict:
    """Parse a flat key=value config file into a settings dict.

    Unknown and duplicate keys are rejected with the offending line
    number; values keep the types of the documented defaults.
    """
    settings = dict(_DEFAULTS)
    seen = set()
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            if key in _STR_KEYS:
                settings[key] = value
            elif key in _INT_KEYS:
                settings[key] = int(value)
            else:
                settings[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return settings


def _scheme_from_name(name: str) -> SchemeId:
    try:
        return SchemeId(name)
    except ValueError:
        valid = ", ".join(s.value for s in SchemeId)
        raise ConfigError(f"unknown scheme {name!r}; valid: {valid}") from None


def build_run_config(settings: dict, qnd: bool = False) -> RunConfig:
    """Validated RunConfig from a settings dict: the spin-boson model in a
    Drude bath, or with ``qnd`` the pure-dephasing model of qnd-verify."""
    if settings["scheme"] is None:
        raise ConfigError("missing required key 'scheme'")
    if not qnd and settings["beta"] is None:
        raise ConfigError("missing required key 'beta' (Drude bath mode)")
    scheme = _scheme_from_name(settings["scheme"])
    if qnd:
        kernel, model = qnd_sln_config()
        source = dict(kernel=kernel)
    else:
        model = _spin_boson(settings)
        source = dict(bath=BathParams(settings["beta"], settings["omega_c"]))
    return RunConfig(
        scheme=scheme,
        model=model,
        grid=TimeGrid(settings["dt"], settings["t_max"], settings["pad_factor"]),
        n_realizations=settings["n_realizations"],
        master_seed=settings["seed"],
        gamma=settings["gamma"],
        lam=settings["lambda"],
        stats_window=settings["stats_window"],
        **source,
    )


def _spin_boson(settings: dict) -> SystemModel:
    """The driven two-level system of a settings dict."""
    if settings["kappa"] is not None:
        kappa = float(settings["kappa"])
        if not np.isfinite(kappa):
            raise ConfigError(f"kappa must be finite, got {kappa:g}")
        epsilon = lambda t, k=kappa: k * t  # noqa: E731
    else:
        epsilon = settings["epsilon"]
    # a non-finite Bloch component makes inf * 0 here; SystemModel
    # refuses the matrix
    with np.errstate(invalid="ignore"):
        rho0 = 0.5 * np.array(
            [
                [1.0 + settings["sz0"], settings["sx0"] - 1j * settings["sy0"]],
                [settings["sx0"] + 1j * settings["sy0"], 1.0 - settings["sz0"]],
            ],
            dtype=complex,
        )
    return SystemModel(
        delta=settings["delta"],
        epsilon=epsilon,
        alpha=settings["alpha"],
        rho0=rho0,
        t0=settings["t0"],
    )


def _settings_from_args(args) -> dict:
    settings = load_config(args.config) if getattr(args, "config", None) else dict(_DEFAULTS)
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    return settings


def _check_output(path):
    """Refuse an ``output`` file that cannot be opened, before anything runs;
    an existing file keeps its bytes and a new one is removed again."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc
    if not existed:
        os.remove(path)


def _write_csv(settings, header, rows):
    """Write the CSV to the ``output`` file (checked before the run), closed
    even when writing raises, or to stdout, which is never closed."""
    path = settings.get("output")
    out = open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)
    with out as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is
    # status 1 for anything configuration-shaped.
    def error(self, message):
        raise ConfigError(message)


def _add_common(p, *keys):
    mapping = {
        "config": lambda: p.add_argument("--config", help="key=value config file"),
        "scheme": lambda: p.add_argument("--scheme", help="noise generation scheme"),
        "beta": lambda: p.add_argument("--beta", type=float, help="inverse temperature"),
        "omega_c": lambda: p.add_argument("--omega-c", dest="omega_c", type=float,
                                          help="hard spectral cutoff"),
        "gamma": lambda: p.add_argument("--gamma", type=float,
                                        help="spectral-division regularisation"),
        "lambda": lambda: p.add_argument("--lambda", dest="lambda", type=float,
                                         help="component rescaling strength"),
        "dt": lambda: p.add_argument("--dt", type=float, help="time step"),
        "t_max": lambda: p.add_argument("--t-max", dest="t_max", type=float,
                                        help="physical duration"),
        "seed": lambda: p.add_argument("--seed", type=int, help="master seed"),
        "n_realizations": lambda: p.add_argument("--n", "--n-realizations",
                                                 dest="n_realizations", type=int,
                                                 help="number of realizations"),
        "output": lambda: p.add_argument("--output", help="output CSV path (default stdout)"),
    }
    for key in keys:
        mapping[key]()


def _cmd_kernels(args, settings):
    if settings["beta"] is None:
        raise ConfigError("missing required key 'beta'")
    bath = BathParams(settings["beta"], settings["omega_c"])
    time_grid = TimeGrid(settings["dt"], settings["t_max"], settings["pad_factor"])
    check_memory({grid_name(time_grid): TABLE_BYTES * time_grid.n})
    grid = time_grid.freq()
    table = build_kernel_table(grid, bath)
    order = np.argsort(grid.omega, kind="stable")
    rows = zip(
        grid.omega[order],
        table.k_etaeta_w[order],
        table.k_etanu_w.real[order],
        table.k_etanu_w.imag[order],
    )
    return ["omega", "k_etaeta", "re_k_etanu", "im_k_etanu"], rows


def _noise_filters(settings):
    """Run config and filters of the noise commands, which colour noise
    on the dt grid itself (the ensemble commands use dt/2).  First refuses
    a run too large for memory: validate holds every realization (four
    series) and up to three rows of lagged products per realization."""
    cfg = build_run_config(settings)
    rows, n, n_phys = cfg.n_realizations, cfg.grid.n, cfg.grid.n_phys
    check_memory({
        grid_name(cfg.grid): workspace_bytes(chunk_rows(n, 4, rows), 4, n)
        + TABLE_BYTES * n,
        f"{rows} realizations and their lagged products":
            (64 * n_phys + 3 * 16 * (2 * n_phys - 1)) * rows,
    })
    table = build_kernel_table(cfg.grid.freq(), cfg.bath)
    return cfg, make_filters(cfg.scheme, table, cfg.gamma)


def _cmd_gen_noise(args, settings):
    cfg, fs = _noise_filters({**settings, "n_realizations": 2})
    pair = synthesize(fs, cfg.grid, seed_for(cfg.master_seed, 0), cfg.lam)
    t = cfg.grid.times
    rows = zip(t, pair.eta_t.real, pair.eta_t.imag, pair.nu_t.real, pair.nu_t.imag)
    return ["t", "re_eta", "im_eta", "re_nu", "im_nu"], rows


def _cmd_validate(args, settings):
    cfg, fs = _noise_filters(settings)
    lag_steps(args.max_lag, cfg.grid.dt, cfg.grid.n_phys)
    seeds = [seed_for(cfg.master_seed, i) for i in range(cfg.n_realizations)]
    est = estimate_correlations(synthesize_batch(fs, cfg.grid, seeds, cfg.lam),
                                args.max_lag)
    k_ee = kernel_time(est.lags, cfg.bath, "etaeta")
    k_en = kernel_time(est.lags, cfg.bath, "etanu")
    rows = zip(
        est.lags,
        k_ee.real, k_ee.imag, est.est_etaeta.real, est.est_etaeta.imag, est.se_etaeta,
        k_en.real, k_en.imag, est.est_etanu.real, est.est_etanu.imag, est.se_etanu,
        est.est_nunu.real, est.est_nunu.imag, est.se_nunu,
    )
    header = [
        "lag",
        "re_k_etaeta", "im_k_etaeta", "re_est_etaeta", "im_est_etaeta", "se_etaeta",
        "re_k_etanu", "im_k_etanu", "re_est_etanu", "im_est_etanu", "se_etanu",
        "re_est_nunu", "im_est_nunu", "se_nunu",
    ]
    return header, rows


def _cmd_simulate(args, settings):
    cfg = build_run_config(settings)
    stats = run_ensemble(cfg)
    rows = zip(
        stats.t,
        stats.mean_tr.real, stats.mean_tr.imag, stats.abs_mean_tr,
        stats.var_tr, stats.se_tr,
        stats.mean_sx.real, stats.mean_sy.real, stats.mean_sz.real,
        stats.diverged,
    )
    header = ["t", "re_mean_tr", "im_mean_tr", "abs_mean_tr", "var_tr",
              "se_tr", "mean_sx", "mean_sy", "mean_sz", "diverged"]
    return header, rows


def _cmd_qnd_verify(args, settings):
    if settings["scheme"] is None:
        settings["scheme"] = SchemeId.ETANU_OPTIMISED.value
    t, mean_r01, se = run_coherence(build_run_config(settings, qnd=True))
    exact = qnd_exact(QndModel(), t)[..., 0, 1]
    rows = zip(t, exact.real, mean_r01.real, exact.imag, mean_r01.imag, se)
    header = ["t", "re_rho01_exact", "re_rho01_sln",
              "im_rho01_exact", "im_rho01_sln", "se"]
    return header, rows


def _cmd_scan_lambda(args, settings):
    # np.logspace refuses a negative count with a bare ValueError
    if args.points < 1:
        raise ConfigError(f"--points must be >= 1, got {args.points}")
    cfg = build_run_config(settings)
    if args.lambdas:
        try:
            lambdas = [float(s) for s in args.lambdas.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --lambdas list: {args.lambdas!r}") from exc
    else:
        lambdas = np.logspace(np.log10(0.01), np.log10(10.0), args.points)
    scan = scan_lambda(cfg, lambdas, args.runs_per_point)
    return ["lambda", "se_final"], zip(scan.lambdas, scan.se_final)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="slnoise",
        description="Coloured-noise schemes and stochastic two-level dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernels", help="dump the correlation-kernel table")
    _add_common(p, "config", "beta", "omega_c", "dt", "t_max", "output")
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("gen-noise", help="emit one coloured noise realization")
    _add_common(p, "config", "scheme", "beta", "omega_c", "gamma", "lambda",
                "dt", "t_max", "seed", "output")
    p.set_defaults(func=_cmd_gen_noise)

    p = sub.add_parser("validate", help="empirical vs target correlations")
    _add_common(p, "config", "scheme", "beta", "omega_c", "gamma", "lambda",
                "dt", "t_max", "seed", "n_realizations", "output")
    p.add_argument("--max-lag", type=float, default=2.0,
                   help="largest correlation lag")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("simulate", help="ensemble statistics CSV")
    _add_common(p, "config", "scheme", "beta", "omega_c", "gamma", "lambda",
                "dt", "t_max", "seed", "n_realizations", "output")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("qnd-verify",
                       help="stochastic average vs exact dephasing solution")
    _add_common(p, "config", "scheme", "gamma", "lambda", "dt", "t_max",
                "seed", "n_realizations", "output")
    p.set_defaults(func=_cmd_qnd_verify)

    p = sub.add_parser("scan-lambda", help="rescaling-strength scan")
    _add_common(p, "config", "scheme", "beta", "omega_c", "gamma",
                "dt", "t_max", "seed", "output")
    p.add_argument("--lambdas", help="comma-separated lambda values")
    p.add_argument("--points", type=int, default=13,
                   help="log-spaced points in [0.01, 10] when --lambdas absent")
    p.add_argument("--runs-per-point", type=int, default=1000)
    p.set_defaults(func=_cmd_scan_lambda)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        settings = _settings_from_args(args)
        if settings["output"]:
            _check_output(settings["output"])
        _write_csv(settings, *args.func(args, settings))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SlnoiseError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
