"""Tests of the benchmark itself: output checks, spans and printed metrics.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import rep  # puts the checkout's src/ on sys.path
import run
from check import (check_ensemble, check_scan, compare_reference,
                   ensemble_summary)
from spans import Tracer, layer_metrics
from workloads import MODEL

from slnoise import BathParams, RunConfig, SchemeId, TimeGrid, cli, ensemble

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def good_ensemble(n=801, se=0.01, seed=0):
    rng = np.random.default_rng(seed)
    mean_tr = 1.0 + se * rng.standard_normal(n) + 1j * se * rng.standard_normal(n)
    mean_tr[0] = 1.0
    return mean_tr, np.full(n, se), np.full(n, 2e-4), np.zeros(n, dtype=int)


def test_check_accepts_conserved_trace():
    mean_tr, se_tr, _, diverged = good_ensemble()
    assert check_ensemble(mean_tr, se_tr, diverged) == []


def test_check_rejects_mean_trace_shifted_by_10_se():
    mean_tr, se_tr, _, diverged = good_ensemble()
    mean_tr[400] += 10 * se_tr[400]
    assert check_ensemble(mean_tr, se_tr, diverged)


def test_check_rejects_diverged_trajectories():
    mean_tr, se_tr, _, diverged = good_ensemble()
    diverged[-5:] = 1
    assert check_ensemble(mean_tr, se_tr, diverged)


def test_check_scan_argmin_window():
    lams = np.logspace(-2, 1, 13)
    se = np.abs(np.log(lams / 0.5)) + 1.0
    assert check_scan(lams, se) == []
    assert check_scan(lams, se[::-1])


def test_reference_tolerates_quadrature_change_not_new_stream():
    mean_tr, se_tr, var_tr, _ = good_ensemble()
    ref = ensemble_summary(mean_tr, se_tr, var_tr)
    # a 1e-3 relative change of the noise amplitude
    scaled = 1.0 + 1.001 * (mean_tr - 1.0)
    assert compare_reference(ensemble_summary(scaled, se_tr, var_tr * 1.002), ref) == []
    assert compare_reference(ensemble_summary(mean_tr, se_tr, var_tr * 1.2), ref)
    other, _, _, _ = good_ensemble(seed=1)
    assert compare_reference(ensemble_summary(other, se_tr, var_tr), ref)
    ref_scan = {"se_final": [1.0, 2.0, 3.0]}
    assert compare_reference({"se_final": [1.001, 2.002, 2.997]}, ref_scan) == []
    assert compare_reference({"se_final": [1.2, 2.0, 3.0]}, ref_scan)


@pytest.fixture
def traced_spans(tmp_path):
    cfg = RunConfig(scheme=SchemeId.ETANU_OPTIMISED, model=MODEL,
                    grid=TimeGrid(dt=0.05, t_max=2.0), n_realizations=6,
                    master_seed=0, bath=BathParams(1.0, 25.0), stats_window=5)
    originals = {(m, a): getattr(m, a) for m, a in ((ensemble, "run_ensemble"),
                                                    (ensemble, "integrate_batch"),
                                                    (cli, "main"))}
    tracer = Tracer("test")
    uninstall = tracer.install()
    try:
        t0 = time.perf_counter()
        ensemble.run_ensemble(cfg, batch_size=4)
        ensemble.scan_lambda(cfg, [0.5, 1.0], 4, batch_size=4)
        argv = ["simulate", "--scheme", "like", "--beta", "1", "--dt", "0.05",
                "--t-max", "2", "--n", "4", "--output", str(tmp_path / "sim.csv")]
        assert cli.main(argv) == 0
        wall = time.perf_counter() - t0
    finally:
        uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn
    return tracer.spans, wall


def test_child_spans_never_outlast_parent(traced_spans):
    spans, _ = traced_spans
    names = {s.name for s in spans}
    assert {"kernels.build", "schemes.filters", "noise.white", "noise.synth",
            "dynamics.rk4", "ensemble.run_ensemble", "ensemble.scan_lambda",
            "cli.main"} <= names
    for s in spans:
        assert s.start <= s.end
        if s.parent >= 0:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end, (p.name, s.name)
    cli_runs = [s for s in spans if s.name == "ensemble.run_ensemble"
                and s.parent >= 0 and spans[s.parent].name == "cli.main"]
    assert len(cli_runs) == 1


def test_layer_self_times_add_up_to_wall(traced_spans):
    spans, wall = traced_spans
    m = layer_metrics(spans, wall)
    layers = ("kernels.build_s", "schemes.filters_s", "noise.white_s",
              "noise.synth_s", "dynamics.rk4_s", "ensemble.self_s", "cli.self_s")
    assert sum(m[k] for k in layers) + m["trace.residual_s"] == pytest.approx(wall)
    assert m["trace.residual_s"] >= 0
    assert m["kernels.build_calls"] == 1 + 3 + 1  # run, scan check + 2 points, cli
    assert m["ensemble.realizations"] == 6 + 2 * 4 + 4


def fake_child(workload, seed, mode, trace, deadline):
    versions = {"python": "x", "numpy": "x", "scipy": "x", "blas": "x"}
    if mode == "setup":
        return {"setup_s": 0.5, "versions": versions}, 0, 10**8
    result = {"wall_s": 2.0 + trace, "realizations": 100, "failures": [],
              "versions": versions}
    if trace:
        span = Tracer("fake").call("ensemble.run_ensemble", lambda: None)[1]
        span.attrs["realizations"] = 100
        result["layers"] = layer_metrics([span], 3.0)
    return result, 0, 10**8


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(monkeypatch, capsys, tmp_path, trace, section):
    monkeypatch.setattr(run, "run_child", fake_child)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "lambda_scan", "--seed", "1",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0


def test_failed_repetition_is_counted(monkeypatch, capsys, tmp_path):
    def failing(*args):
        result, code, peak = fake_child(*args)
        if args[2] == "call":
            result["failures"] = ["mean trace pulled 9.00 SE from 1 (limit 5.0)"]
        return result, code, peak
    monkeypatch.setattr(run, "run_child", failing)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "lambda_scan", "--seed", "1",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] == result["attempted"] == 1
    assert result["correct"] is False


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "lambda_scan", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
