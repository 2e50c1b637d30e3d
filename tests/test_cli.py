"""Tests for the command-line interface and config parsing."""

import numpy as np
import pytest

from slnoise import ConfigError, SlnoiseError
from slnoise.cli import build_run_config, load_config, main, _DEFAULTS


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ------------------------------------------------------------- config


def test_load_config_basic(tmp_path):
    path = write(tmp_path, """
# comment line
scheme = like
beta = 1.0      # trailing comment
n_realizations = 50
""")
    settings = load_config(path)
    assert settings["scheme"] == "like"
    assert settings["beta"] == 1.0
    assert settings["n_realizations"] == 50
    assert settings["gamma"] == 0.01  # default preserved


def test_load_config_rejects_unknown_key(tmp_path):
    path = write(tmp_path, "schem = like\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_load_config_rejects_duplicate_key(tmp_path):
    path = write(tmp_path, "beta = 1\nbeta = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path)


def test_load_config_rejects_bad_value(tmp_path):
    path = write(tmp_path, "beta = warm\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(path)


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/file.cfg")


def test_build_run_config_requires_scheme_and_beta():
    with pytest.raises(ConfigError, match="scheme"):
        build_run_config(dict(_DEFAULTS))
    settings = dict(_DEFAULTS, scheme="like")
    with pytest.raises(ConfigError, match="beta"):
        build_run_config(settings)


def test_build_run_config_rejects_constrained_gamma_zero():
    settings = dict(_DEFAULTS, scheme="constrained", beta=1.0, gamma=0.0)
    with pytest.raises(ConfigError, match="gamma"):
        build_run_config(settings)


def test_build_run_config_unknown_scheme():
    settings = dict(_DEFAULTS, scheme="optimal", beta=1.0)
    with pytest.raises(ConfigError, match="valid"):
        build_run_config(settings)


def test_build_run_config_linear_sweep():
    settings = dict(_DEFAULTS, scheme="like", beta=1.0, kappa=5.0, t0=-5.0)
    cfg = build_run_config(settings)
    assert callable(cfg.model.epsilon)
    assert cfg.model.epsilon(2.0) == 10.0
    assert cfg.model.t0 == -5.0


def test_build_run_config_initial_state():
    settings = dict(_DEFAULTS, scheme="like", beta=1.0, sx0=1.0, sz0=0.0)
    cfg = build_run_config(settings)
    assert np.allclose(cfg.model.rho0, 0.5 * np.array([[1, 1], [1, 1]]))


# ------------------------------------------------------------- exit codes


def test_exit_code_bad_flag():
    assert main(["simulate", "--no-such-flag"]) == 1


def test_exit_code_missing_subcommand():
    assert main([]) == 1


def test_exit_code_config_error(tmp_path):
    path = write(tmp_path, "beta = 1\nbeta = 2\n")
    assert main(["simulate", "--config", path]) == 1


@pytest.mark.parametrize("argv", [
    ["kernels", "--beta", "1", "--dt", "-1"],
    ["simulate", "--scheme", "like", "--beta", "1", "--lambda", "-1"],
    ["scan-lambda", "--scheme", "like", "--beta", "1", "--points", "0"],
    ["scan-lambda", "--scheme", "like", "--beta", "1", "--runs-per-point", "1"],
    ["validate", "--scheme", "like", "--beta", "1", "--max-lag", "5",
     "--t-max", "0.2"],
    ["validate", "--scheme", "like", "--beta", "1", "--max-lag", "nan"],
    ["simulate", "--scheme", "convex", "--beta", "1", "--lambda", "0.5"],
    ["simulate", "--scheme", "like", "--beta", "1", "--dt", "0.5",
     "--t-max", "20", "--n", "2"],
    ["scan-lambda", "--scheme", "convex", "--beta", "1", "--lambdas", "1"],
    ["simulate", "--scheme", "constrained", "--beta", "1", "--lambda", "0.5"],
    ["scan-lambda", "--scheme", "like", "--beta", "1", "--lambdas", "0.5,inf"],
    ["simulate", "--scheme", "constrained", "--beta", "1", "--gamma", "nan"],
    ["simulate", "--scheme", "reduced", "--beta", "1", "--gamma", "nan"],
    ["simulate", "--scheme", "constrained", "--beta", "1", "--gamma", "-1"],
    ["simulate", "--scheme", "like", "--beta", "1", "--seed", "-1"],
    ["gen-noise", "--scheme", "like", "--beta", "1", "--seed", "-1"],
    ["qnd-verify", "--n", "1"],
    ["qnd-verify", "--scheme", "constrained", "--gamma", "-1"],
    ["simulate", "--scheme", "like", "--beta", "1e-300", "--t-max", "1",
     "--n", "20"],
    ["gen-noise", "--scheme", "like", "--beta", "1e-300", "--t-max", "1"],
    ["kernels", "--beta", "1e-300", "--t-max", "1"],
    ["kernels", "--beta", "0"],
    ["kernels", "--beta", "-1"],
    ["simulate", "--scheme", "like", "--beta", "1", "--dt", "inf"],
    ["simulate", "--scheme", "like", "--beta", "1", "--t-max", "inf"],
    ["simulate", "--scheme", "etanu-optimised", "--beta", "1", "--dt", "0.01",
     "--t-max", "0.5", "--n", "4", "--lambda", "inf"],
    ["simulate", "--scheme", "like", "--beta", "1", "--dt", "0.01",
     "--t-max", "0.004"],
    ["gen-noise", "--scheme", "like", "--beta", "1", "--dt", "0.01",
     "--t-max", "0.004"],
    ["kernels", "--beta", "1", "--dt", "0.01", "--t-max", "0.004"],
    ["simulate", "--scheme", "like", "--beta", "1", "--t-max", "1e-300"],
    # 1000.4 steps of dt round to 1000, but 2000.8 half steps to 2001
    ["simulate", "--scheme", "like", "--beta", "1", "--t-max", "10.004"],
    ["qnd-verify", "--t-max", "10.004"],
    ["scan-lambda", "--scheme", "etanu-optimised", "--beta", "1",
     "--t-max", "10.004"],
])
def test_exit_code_bad_values(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["alpha", "delta", "epsilon", "kappa", "t0",
                                 "sx0", "sy0", "sz0"])
def test_non_finite_model_parameter_is_refused(tmp_path, capsys, key, value):
    path = write(tmp_path, f"scheme = like\nbeta = 1\nt_max = 0.5\n"
                           f"n_realizations = 4\n{key} = {value}\n")
    assert main(["simulate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


# The smallest run of each subcommand; the sweep appends one flag=value
# to it (the = form lets argparse take "-inf"), which overrides any
# earlier value of that flag.
_SWEEP_BASE = {
    "kernels": ["kernels", "--beta", "1", "--t-max", "0.5"],
    "gen-noise": ["gen-noise", "--scheme", "etanu-optimised", "--beta", "1",
                  "--t-max", "0.5"],
    "validate": ["validate", "--scheme", "etanu-optimised", "--beta", "1",
                 "--t-max", "0.5", "--n", "4", "--max-lag", "0.1"],
    "simulate": ["simulate", "--scheme", "etanu-optimised", "--beta", "1",
                 "--t-max", "0.5", "--n", "4"],
    "qnd-verify": ["qnd-verify", "--t-max", "0.5", "--n", "4"],
    "scan-lambda": ["scan-lambda", "--scheme", "etanu-optimised", "--beta", "1",
                    "--t-max", "0.5", "--points", "2", "--runs-per-point", "4"],
}
_FLOAT_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e300"]
_INT_VALUES = ["-1", "0", "1", "2"]


def _sweep_cases():
    """(subcommand, flag, value) for every numeric flag of every
    subcommand, read from the parser itself; --lambdas is swept as one
    float."""
    import argparse

    from slnoise.cli import _build_parser

    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    cases = []
    for cmd, parser in sub.choices.items():
        for action in parser._actions:
            flag = action.option_strings[0] if action.option_strings else None
            if action.type is float or flag == "--lambdas":
                cases += [(cmd, flag, v) for v in _FLOAT_VALUES]
            elif action.type is int:
                cases += [(cmd, flag, v) for v in _INT_VALUES]
    return cases


@pytest.mark.parametrize("cmd,flag,value", _sweep_cases(), ids=str)
def test_every_numeric_flag_value_ends_cleanly(cmd, flag, value, tmp_path, capsys):
    # one of three ends: a finite CSV (a diverged simulate may carry
    # non-finite statistics), one "error:" line with exit 1, or one
    # "runtime error:" line with exit 2; never a warning or a traceback
    import warnings

    out = tmp_path / "out.csv"
    argv = [*_SWEEP_BASE[cmd], f"{flag}={value}", "--output", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        assert err == ""
        header, data = read_csv(out)
        if cmd == "simulate" and data[-1, header.index("diverged")] > 0:
            return
        assert np.all(np.isfinite(data))
    else:
        prefix = {1: "error: ", 2: "runtime error: "}[code]
        assert err.startswith(prefix) and err.count("\n") == 1, err


def test_grid_larger_than_memory_is_refused(capsys):
    # 2.7e11 samples per channel: refused before any array of the grid's
    # size exists
    import tracemalloc

    tracemalloc.start()
    try:
        code = main(["simulate", "--scheme", "like", "--beta", "1",
                     "--dt", "1e-7", "--t-max", "1e4"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "physical memory" in err
    assert err.count("\n") == 1
    assert peak < 16 * 2**20


def test_validate_refuses_realizations_larger_than_memory(capsys):
    # validate keeps every realization's noise and lagged products:
    # refused for all of them, before any is drawn
    import tracemalloc

    tracemalloc.start()
    try:
        code = main(["validate", "--scheme", "like", "--beta", "1",
                     "--n", "1000000000", "--t-max", "2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "physical memory" in err
    assert err.count("\n") == 1
    assert peak < 16 * 2**20


@pytest.mark.parametrize("max_lag", ["nan", "-0.1", "11", "inf"])
def test_validate_refuses_max_lag_before_drawing_noise(max_lag, monkeypatch, capsys):
    # the lag window is the library's rule (noise.lag_steps), checked
    # before the realizations are synthesized
    import slnoise.cli as cli

    def refused(*args, **kwargs):
        raise AssertionError("noise drawn before --max-lag was checked")

    monkeypatch.setattr(cli, "synthesize_batch", refused)
    assert main(["validate", "--scheme", "like", "--beta", "1", "--n", "2000",
                 "--max-lag", max_lag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: max_lag ") and err.count("\n") == 1


@pytest.mark.parametrize("case", ["missing output dir", "output is a dir",
                                  "config not utf-8"])
def test_unusable_file_is_one_error_line(case, tmp_path, capsys):
    if case == "missing output dir":
        argv = ["kernels", "--beta", "1", "--t-max", "1",
                "--output", str(tmp_path / "no" / "x.csv")]
    elif case == "output is a dir":
        argv = ["simulate", "--scheme", "like", "--beta", "1", "--t-max", "0.1",
                "--n", "4", "--output", str(tmp_path)]
    else:
        path = tmp_path / "run.cfg"
        path.write_bytes(b"scheme = like\n\xff\n")
        argv = ["simulate", "--config", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("cmd,entry", [
    ("simulate", "run_ensemble"), ("qnd-verify", "run_coherence"),
    ("scan-lambda", "scan_lambda"), ("validate", "synthesize_batch"),
    ("config file", "run_ensemble"),
])
def test_unusable_output_is_refused_before_the_run(cmd, entry, tmp_path,
                                                   monkeypatch, capsys):
    # a directory as --output, or as a config file's output key
    import slnoise.cli as cli

    def refused(*args, **kwargs):
        raise AssertionError(f"{entry} ran before the output was checked")

    monkeypatch.setattr(cli, entry, refused)
    if cmd == "config file":
        config = tmp_path / "run.cfg"
        config.write_text(f"scheme = like\nbeta = 1\noutput = {tmp_path}\n")
        argv = ["simulate", "--config", str(config)]
    else:
        argv = [cmd, "--scheme", "like", "--output", str(tmp_path)]
        argv += [] if cmd == "qnd-verify" else ["--beta", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output {tmp_path}: ")
    assert err.count("\n") == 1


def test_failed_run_leaves_output_files_as_they_were(tmp_path, monkeypatch, capsys):
    # the check neither truncates an existing file nor leaves a new one
    import slnoise.cli as cli

    def failing(*args, **kwargs):
        raise SlnoiseError("the run failed")

    monkeypatch.setattr(cli, "run_ensemble", failing)
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("kept\n")
    for out in (old, new):
        assert main(["simulate", "--scheme", "like", "--beta", "1",
                     "--output", str(out)]) == 2
    assert capsys.readouterr().err == "runtime error: the run failed\n" * 2
    assert old.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv"]


@pytest.mark.parametrize("argv,reason", [
    (["scan-lambda", "--scheme", "convex", "--beta", "1", "--lambdas", "1"],
     "the convex scheme has no cross-correlative component pair"),
    # the pure-dephasing kernel has K >= 2|R| at every frequency, so the
    # etanu-optimised pair vanishes on every bin of a long enough window
    (["qnd-verify", "--lambda", "0.5", "--n", "4"],
     "the etanu-optimised scheme's cross-correlative filter f2 is zero on "
     "every bin"),
], ids=["convex", "pair zero on every bin"])
def test_rescaling_refusal_says_why_there_is_no_pair(argv, reason, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + reason)
    assert err.count("\n") == 1


def test_exit_code_runtime_error(tmp_path, capsys):
    # put a frequency-grid point exactly on the hard cutoff: n = 2048,
    # dt = 0.01 puts bin k at 2*pi*k/20.48; choose omega_c on bin 100
    wc = 2.0 * np.pi * 100 / (1024 * 0.02)
    out = str(tmp_path / "k.csv")
    code = main(["kernels", "--beta", "1", "--omega-c", str(wc),
                 "--dt", "0.02", "--t-max", "10", "--output", out])
    assert code == 2
    assert "runtime error" in capsys.readouterr().err


def test_python_m_slnoise_runs_the_cli():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import slnoise

    src = str(Path(slnoise.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "slnoise", "--help"],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: slnoise")


def _fresh_python(code):
    """stdout of ``code`` run by a new interpreter that imports the
    package from this checkout."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import slnoise

    src = str(Path(slnoise.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_leaves_scipy_out():
    # scipy.fft adds to every process's start-up time and resident memory
    # (README, Start-up); the library and the CLI take no module of scipy,
    # whose FFTs numpy.fft gives bit for bit
    code = ("import sys, slnoise, slnoise.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code) == "[]"


def test_first_run_imports_no_module(kernel_cache):
    # a module first imported inside a run is paid for inside it: numpy
    # imports numpy.fft and numpy.ma on first use (np.unique takes
    # numpy.ma), which an import of scipy used to hide
    code = f"""
import sys

import numpy as np

import slnoise, slnoise.cli
from slnoise import (BathParams, RunConfig, SchemeId, SystemModel, TimeGrid,
                     SIGMA_Z, _native, run_ensemble)

_native._cache_dirs = lambda: ({kernel_cache!r},)
loaded = set(sys.modules)
cfg = RunConfig(scheme=SchemeId.ETANU_OPTIMISED,
                model=SystemModel(1.0, -1.0, 0.05, 0.5 * (np.eye(2) + SIGMA_Z)),
                grid=TimeGrid(dt=0.01, t_max=2.0), n_realizations=8,
                master_seed=0, bath=BathParams(1.0, 25.0))
cfg.filters()
print(sorted(set(sys.modules) - loaded))
run_ensemble(cfg)
print(sorted(set(sys.modules) - loaded))
"""
    assert _fresh_python(code).split("\n") == ["[]", "[]"]


def test_csv_output_file_closed_when_writing_raises(tmp_path, monkeypatch):
    import builtins

    import slnoise.cli as cli

    opened = []

    def spy(*args, **kwargs):
        opened.append(builtins.open(*args, **kwargs))
        return opened[-1]

    def rows():
        yield (1.0, 2)
        raise RuntimeError("row failed")

    monkeypatch.setattr(cli, "open", spy, raising=False)
    with pytest.raises(RuntimeError, match="row failed"):
        cli._write_csv({"output": str(tmp_path / "x.csv")}, ["a", "b"], rows())
    assert len(opened) == 1 and opened[0].closed


def test_csv_to_stdout_leaves_it_open(capsys):
    import sys

    assert main(["kernels", "--beta", "1", "--t-max", "1"]) == 0
    assert not sys.stdout.closed
    assert capsys.readouterr().out.startswith("omega,k_etaeta,re_k_etanu,im_k_etanu\n")


# ------------------------------------------------------------- subcommands


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def test_kernels_csv(tmp_path):
    out = str(tmp_path / "k.csv")
    assert main(["kernels", "--beta", "0.5", "--dt", "0.01",
                 "--t-max", "5", "--output", out]) == 0
    header, data = read_csv(out)
    assert header == ["omega", "k_etaeta", "re_k_etanu", "im_k_etanu"]
    omega = data[:, 0]
    assert np.all(np.diff(omega) > 0)  # sorted ascending
    # the DC row carries the finite 2/beta limit (up to truncation leakage)
    dc = data[np.argmin(np.abs(omega))]
    assert dc[1] == pytest.approx(4.0, rel=0.02)
    # real cross part is odd: antisymmetric about omega = 0
    mid = np.argmin(np.abs(omega))
    assert data[mid + 5, 2] == pytest.approx(-data[mid - 5, 2], rel=1e-12)


def test_gen_noise_deterministic(tmp_path):
    args = ["gen-noise", "--scheme", "like", "--beta", "1",
            "--dt", "0.01", "--t-max", "2"]
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(args + ["--output", out1]) == 0
    assert main(args + ["--output", out2]) == 0
    assert open(out1).read() == open(out2).read()
    header, data = read_csv(out1)
    assert header == ["t", "re_eta", "im_eta", "re_nu", "im_nu"]
    assert data.shape[0] == 201


def test_simulate_csv(tmp_path):
    out = str(tmp_path / "s.csv")
    assert main(["simulate", "--scheme", "etanu-optimised", "--beta", "1",
                 "--dt", "0.01", "--t-max", "1", "--n", "16",
                 "--output", out]) == 0
    header, data = read_csv(out)
    assert header == ["t", "re_mean_tr", "im_mean_tr", "abs_mean_tr",
                      "var_tr", "se_tr", "mean_sx", "mean_sy", "mean_sz",
                      "diverged"]
    assert data[0, 1] == pytest.approx(1.0)  # trace starts at 1
    assert data[0, 8] == pytest.approx(1.0)  # default initial sz
    assert np.all(data[:, 9] == 0)


def test_validate_csv(tmp_path):
    out = str(tmp_path / "v.csv")
    assert main(["validate", "--scheme", "like", "--beta", "1",
                 "--dt", "0.01", "--t-max", "2", "--n", "8",
                 "--max-lag", "0.1", "--output", out]) == 0
    header, data = read_csv(out)
    assert len(header) == 14
    assert header[0] == "lag"
    # lags span [-0.1, 0.1]
    assert data[0, 0] == pytest.approx(-0.1)
    assert data[-1, 0] == pytest.approx(0.1)


def test_qnd_verify_csv(tmp_path):
    out = str(tmp_path / "q.csv")
    assert main(["qnd-verify", "--dt", "0.01", "--t-max", "1",
                 "--n", "32", "--output", out]) == 0
    header, data = read_csv(out)
    assert header == ["t", "re_rho01_exact", "re_rho01_sln",
                      "im_rho01_exact", "im_rho01_sln", "se"]
    assert data[0, 1] == pytest.approx(0.5)
    assert data[0, 3] == pytest.approx(-0.6)


def test_qnd_verify_constrained_runs_at_gamma_zero(tmp_path):
    # unlike the Drude spectrum, the pure-dephasing one has no zero bin,
    # so the bare spectral division of the constrained scheme is finite
    out = str(tmp_path / "q.csv")
    assert main(["qnd-verify", "--scheme", "constrained", "--gamma", "0",
                 "--t-max", "0.5", "--n", "8", "--output", out]) == 0
    _, data = read_csv(out)
    assert np.all(np.isfinite(data))


def test_scan_lambda_csv(tmp_path):
    out = str(tmp_path / "l.csv")
    assert main(["scan-lambda", "--scheme", "like", "--beta", "1",
                 "--dt", "0.01", "--t-max", "1",
                 "--lambdas", "0.5,2.0", "--runs-per-point", "8",
                 "--output", out]) == 0
    header, data = read_csv(out)
    assert header == ["lambda", "se_final"]
    assert data[:, 0].tolist() == [0.5, 2.0]
    assert np.all(data[:, 1] > 0)


def test_flag_overrides_config(tmp_path):
    path = write(tmp_path, "scheme = like\nbeta = 1\nt_max = 5\n")
    out = str(tmp_path / "o.csv")
    assert main(["gen-noise", "--config", path, "--t-max", "1",
                 "--output", out]) == 0
    _, data = read_csv(out)
    assert data.shape[0] == 101
