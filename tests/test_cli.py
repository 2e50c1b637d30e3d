"""Tests for the command-line interface and config parsing."""

import numpy as np
import pytest

from slnoise import ConfigError
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
    ["validate", "--scheme", "like", "--beta", "1", "--max-lag", "5",
     "--t-max", "0.2"],
    ["validate", "--scheme", "like", "--beta", "1", "--max-lag", "nan"],
    ["simulate", "--scheme", "convex", "--beta", "1", "--lambda", "0.5"],
    ["simulate", "--scheme", "like", "--beta", "1", "--dt", "0.5",
     "--t-max", "20", "--n", "2"],
    ["scan-lambda", "--scheme", "convex", "--beta", "1", "--lambdas", "1"],
    ["simulate", "--scheme", "constrained", "--beta", "1", "--lambda", "0.5"],
    ["scan-lambda", "--scheme", "like", "--beta", "1", "--lambdas", "0.5,inf"],
])
def test_exit_code_bad_values(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


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
