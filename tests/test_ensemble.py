"""Tests for ensemble averaging, seeding and the lambda scan."""

import numpy as np
import pytest

from slnoise import (
    BathParams,
    ConfigError,
    QndModel,
    RunConfig,
    SIGMA_Z,
    SchemeId,
    SlnoiseError,
    Synthesizer,
    SystemModel,
    TimeGrid,
    ZeroComponent,
    integrate_batch,
    qnd_sln_config,
    run_coherence,
    run_ensemble,
    sample_white,
    scan_lambda,
    seed_for,
    synthesize_batch,
)
from slnoise.ensemble import _pooled_window_stats
from slnoise.noise import CHUNK_ROWS

BATH = BathParams(beta=1.0, omega_c=25.0)
RHO0 = 0.5 * (np.eye(2) + SIGMA_Z)
MODEL = SystemModel(delta=1.0, epsilon=-1.0, alpha=0.05, rho0=RHO0)


def small_cfg(**kw):
    base = dict(
        scheme=SchemeId.ETANU_OPTIMISED,
        model=MODEL,
        grid=TimeGrid(dt=0.01, t_max=2.0),
        n_realizations=64,
        master_seed=5,
        bath=BATH,
        stats_window=20,
    )
    base.update(kw)
    return RunConfig(**base)


def test_seed_for_deterministic_and_distinct():
    a = seed_for(1, 0)
    b = seed_for(1, 0)
    assert a.entropy == b.entropy and a.spawn_key == b.spawn_key
    assert seed_for(1, 1).spawn_key != a.spawn_key
    assert seed_for(2, 0).entropy != a.entropy
    assert seed_for(1, 0, group=(3,)).spawn_key != a.spawn_key


def test_seed_for_streams_are_independent():
    grid = TimeGrid(dt=0.01, t_max=10.0)
    x = sample_white(grid, seed_for(0, 0), 1)[0]
    y = sample_white(grid, seed_for(0, 1), 1)[0]
    n = x.size
    corr = np.dot(x, y) / np.sqrt(np.dot(x, x) * np.dot(y, y))
    assert abs(corr) < 5.0 / np.sqrt(n)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(n_realizations=1)
    with pytest.raises(ConfigError):
        small_cfg(bath=None)
    with pytest.raises(ConfigError):
        small_cfg(stats_window=0)
    for gamma in (np.nan, np.inf, -1.0):
        with pytest.raises(ConfigError, match="gamma"):
            small_cfg(gamma=gamma)
    with pytest.raises(ConfigError, match="seed"):
        small_cfg(master_seed=-1)
    for lam in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ConfigError, match="lambda"):
            small_cfg(lam=lam)
    # the hard cutoff zeroes the Drude spectrum's high bins, which the
    # bare division of the constrained scheme cannot divide by
    with pytest.raises(ConfigError, match="gamma=0"):
        small_cfg(scheme=SchemeId.CONSTRAINED, gamma=0.0)
    small_cfg(gamma=0.0, master_seed=0, lam=0.5)
    qnd_cfg(scheme=SchemeId.CONSTRAINED, gamma=0.0)


def windowed_stats(traces, window):
    """Pooled window statistics of a (realizations, steps) trace array,
    from the per-step sums the ensemble loop accumulates."""
    traces = np.asarray(traces)
    return _pooled_window_stats(traces.sum(axis=0),
                                (np.abs(traces) ** 2).sum(axis=0),
                                traces.shape[0], window)


def test_windowed_stats_constant_series():
    traces = np.ones((8, 50), dtype=complex)
    var, se = windowed_stats(traces, 10)
    assert np.all(var == 0.0)
    assert np.all(se == 0.0)


def test_windowed_stats_unit_variance():
    rng = np.random.default_rng(0)
    traces = rng.standard_normal((400, 100))
    var, se = windowed_stats(traces, 100)
    assert var[0] == pytest.approx(1.0, rel=0.05)
    assert se[0] == pytest.approx(np.sqrt(var[0] / 400), rel=1e-12)


def test_windowed_stats_window_pooling_shrinks_se():
    # pooling over a window multiplies the effective sample count, so the
    # pooled variance of white data is unchanged while per-window values
    # are smoother; compare window=1 scatter vs window=50
    rng = np.random.default_rng(1)
    traces = rng.standard_normal((50, 100))
    v1, _ = windowed_stats(traces, 1)
    v50, _ = windowed_stats(traces, 50)
    assert np.std(v50) < 0.5 * np.std(v1)
    assert np.unique(v50).size == 2  # one pooled value per window


def test_force_nu_zero_keeps_trace_constant(monkeypatch):
    # the trace-driving noise nu zeroed as each chunk is synthesized
    real = Synthesizer.fill

    def zero_nu(self, seeds, eta_out, nu_out, cross=None):
        real(self, seeds, eta_out, nu_out, cross)
        nu_out[...] = 0.0

    monkeypatch.setattr(Synthesizer, "fill", zero_nu)
    stats = run_ensemble(small_cfg())
    assert np.max(np.abs(stats.mean_tr - 1.0)) == 0.0
    assert np.all(stats.var_tr == 0.0)
    assert np.all(stats.diverged == 0)


def test_run_ensemble_deterministic():
    a = run_ensemble(small_cfg())
    b = run_ensemble(small_cfg())
    assert np.array_equal(a.mean_tr, b.mean_tr)
    assert np.array_equal(a.var_tr, b.var_tr)


def test_run_ensemble_batch_size_invariant(monkeypatch):
    import slnoise.ensemble as ens

    monkeypatch.setattr(ens, "BATCH_ROWS", 16)
    a = run_ensemble(small_cfg())
    monkeypatch.setattr(ens, "BATCH_ROWS", 1000)
    b = run_ensemble(small_cfg())
    assert np.allclose(a.mean_tr, b.mean_tr, rtol=1e-12, atol=1e-14)
    assert np.allclose(a.var_tr, b.var_tr, rtol=1e-10, atol=1e-14)


def test_output_independent_of_synthesis_thread_count(monkeypatch):
    # more threads than cores, switching as often as the interpreter
    # allows: a chunk written to the wrong columns or lost would show
    import sys

    import slnoise.ensemble as ens

    cfg = small_cfg(n_realizations=3 * CHUNK_ROWS + 5)
    monkeypatch.setattr(ens, "BATCH_ROWS", 2 * CHUNK_ROWS + 3)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 5):
            monkeypatch.setattr(ens, "SYNTH_THREADS", threads)
            runs.append((run_ensemble(cfg), run_coherence(cfg)))
    finally:
        sys.setswitchinterval(interval)
    (ens1, coh1) = runs[0]
    for ens_n, coh_n in runs[1:]:
        for name in ("mean_tr", "var_tr", "se_tr", "mean_sx", "mean_sy",
                     "mean_sz", "diverged"):
            assert np.array_equal(getattr(ens1, name), getattr(ens_n, name)), name
        for a, b in zip(coh1, coh_n):
            assert np.array_equal(a, b)


def test_streamed_sums_match_integrated_states(monkeypatch):
    # a strongly coupled run in which some trajectories diverge; the
    # reference integrates the same noise with integrate_batch and reduces
    # the full state array
    import slnoise.ensemble as ens

    cfg = small_cfg(scheme=SchemeId.LIKE, n_realizations=3 * CHUNK_ROWS,
                    model=SystemModel(1.0, -1.0, 2.0, RHO0))
    monkeypatch.setattr(ens, "BATCH_ROWS", 2 * CHUNK_ROWS)
    stats = run_ensemble(cfg)
    ngrid = cfg.noise_grid()
    synth = Synthesizer(cfg.filters(), ngrid)
    n = cfg.n_realizations
    eta = np.empty((ngrid.n_phys, n), dtype=complex)
    nu = np.empty_like(eta)
    for a in range(0, n, CHUNK_ROWS):
        synth.fill([seed_for(cfg.master_seed, i) for i in range(a, a + CHUNK_ROWS)],
                   eta[:, a:a + CHUNK_ROWS], nu[:, a:a + CHUNK_ROWS])
    states, first_div = integrate_batch(cfg.model, eta.T, nu.T, ngrid.dt)
    assert 0 < np.sum(first_div >= 0) < n
    steps = np.arange(states.shape[1])
    diverged = ((first_div[:, None] >= 0) & (first_div[:, None] <= steps)).sum(axis=0)
    assert np.array_equal(stats.diverged, diverged)
    tr = states[:, :, 3]
    var, se = windowed_stats(tr, cfg.stats_window)
    for got, want in ((stats.mean_tr, tr.mean(axis=0)),
                      (stats.var_tr, var), (stats.se_tr, se),
                      (stats.mean_sx, states[:, :, 0].mean(axis=0)),
                      (stats.mean_sy, states[:, :, 1].mean(axis=0)),
                      (stats.mean_sz, states[:, :, 2].mean(axis=0))):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _count_drawn_rows(monkeypatch):
    """Patch Synthesizer._draw to count the rows it draws; returns the
    list of counts."""
    drawn = []
    real = Synthesizer._draw

    def counting(self, seeds):
        drawn.append(len(seeds))
        return real(self, seeds)

    monkeypatch.setattr(Synthesizer, "_draw", counting)
    return drawn


def test_run_ensemble_refuses_grid_larger_than_memory(monkeypatch):
    import slnoise.ensemble as ens

    drawn = _count_drawn_rows(monkeypatch)
    huge = small_cfg(grid=TimeGrid(dt=1e-7, t_max=1e4))
    with pytest.raises(ConfigError, match="physical memory"):
        run_ensemble(huge)
    with pytest.raises(ConfigError, match="physical memory"):
        scan_lambda(huge, [0.5, 2.0], runs_per_point=16)
    # a short grid on a machine of 1 GiB, two threads: a chunk of 16
    # realizations integrated at 10^5 lambdas in one pass would take about
    # 1 GB of RK4 buffers per thread; capped at RK4_COLUMNS columns, the
    # same scan fits, its accumulators and statistics included
    import os

    real = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: 2**18 if name == "SC_PHYS_PAGES"
                        else 4096 if name == "SC_PAGE_SIZE" else real(name))
    monkeypatch.setattr(ens, "SYNTH_THREADS", 2)
    short = small_cfg(grid=TimeGrid(dt=0.01, t_max=0.02))
    ens._check_memory(short.noise_grid(), CHUNK_ROWS, 10**5)
    monkeypatch.setattr(ens, "RK4_COLUMNS", 2**62)
    with pytest.raises(ConfigError, match="physical memory"):
        scan_lambda(short, [0.5] * 10**5, runs_per_point=CHUNK_ROWS)
    assert drawn == []


def test_scan_memory_charges_every_lambda(monkeypatch, capsys):
    # every strength keeps its running sums and statistics to the end of
    # the scan, so a scan of lambda_scan.cfg's shape at 10^5 points (about
    # 19 GB of them) is refused, at a physical memory of 8 GiB that its 13
    # points fit in; nothing of that size is allocated
    import os
    from pathlib import Path

    import slnoise.ensemble as ens
    from slnoise.cli import main

    real = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: 2**21 if name == "SC_PHYS_PAGES"
                        else 4096 if name == "SC_PAGE_SIZE" else real(name))

    def refused(*args, **kwargs):
        raise AssertionError("the memory check let the scan through")

    ngrid = small_cfg(grid=TimeGrid(dt=0.01, t_max=10.0)).noise_grid()
    ens._check_memory(ngrid, 256, 13)
    with pytest.raises(ConfigError, match="physical memory"):
        ens._check_memory(ngrid, 256, 10**5)
    monkeypatch.setattr(ens, "Synthesizer", refused)
    with pytest.raises(ConfigError, match="physical memory"):
        scan_lambda(small_cfg(grid=TimeGrid(dt=0.01, t_max=10.0)),
                    np.full(10**5, 0.5), runs_per_point=1000)
    config = Path(__file__).resolve().parents[1] / "configs" / "lambda_scan.cfg"
    assert main(["scan-lambda", "--config", str(config),
                 "--points", "100000", "--runs-per-point", "1000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "physical memory" in err
    assert err.count("\n") == 1


def test_diverged_run_warns_nothing():
    # diverged trajectories overflow the running sums; the pooled
    # statistics of those sums must not print floating-point warnings
    import warnings

    cfg = small_cfg(scheme=SchemeId.LIKE, model=SystemModel(1.0, -1.0, 2.0, RHO0),
                    grid=TimeGrid(dt=0.01, t_max=40.0), n_realizations=48,
                    master_seed=1, bath=BathParams(beta=0.1, omega_c=25.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stats = run_ensemble(cfg)
    assert stats.diverged[-1] > 0
    assert np.isnan(stats.var_tr[-1])


def test_mean_trace_near_unity():
    stats = run_ensemble(small_cfg(n_realizations=500))
    # the ensemble mean trace is 1 up to sampling error
    pull = np.abs(stats.mean_tr - 1.0) / np.maximum(stats.se_tr, 1e-15)
    assert np.max(pull) < 6.0
    assert stats.abs_mean_tr[0] == pytest.approx(1.0)


def test_rescaling_improves_final_se():
    base = run_ensemble(small_cfg(grid=TimeGrid(dt=0.01, t_max=10.0),
                                  n_realizations=400))
    scaled = run_ensemble(small_cfg(grid=TimeGrid(dt=0.01, t_max=10.0),
                                    n_realizations=400, lam=0.5))
    assert scaled.se_tr[-1] <= base.se_tr[-1]


def test_scan_lambda_repeated_values_identical():
    cfg = small_cfg()
    scan = scan_lambda(cfg, [0.5, 0.5, 2.0], runs_per_point=32)
    assert scan.se_final[0] == scan.se_final[1]
    assert scan.best_lambda in (0.5, 2.0)


def test_scan_lambda_builds_filters_once(monkeypatch):
    import slnoise.ensemble as ens

    builds = []
    real = ens.build_kernel_table

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(ens, "build_kernel_table", counting)
    cfg = small_cfg()
    scan = scan_lambda(cfg, [0.5, 2.0], runs_per_point=16)
    assert len(builds) == 1
    # each point matches a stand-alone run that builds its own filters
    for lam, se in zip(scan.lambdas, scan.se_final):
        sub = small_cfg(n_realizations=16, lam=float(lam))
        assert run_ensemble(sub).se_tr[-1] == se


def test_scan_lambda_points_equal_stand_alone_runs(monkeypatch):
    # three batches of a full and a partial chunk, a repeated lambda, and
    # the factor table of each batch written by 1, 2 and 5 threads that
    # switch as often as the interpreter allows
    import dataclasses
    import sys

    import slnoise.ensemble as ens

    cfg = small_cfg()
    runs, batch = 3 * CHUNK_ROWS + 5, CHUNK_ROWS + 3
    lambdas = [0.5, 0.05, 2.0, 0.5]
    monkeypatch.setattr(ens, "BATCH_ROWS", batch)
    scans = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 5):
            monkeypatch.setattr(ens, "SYNTH_THREADS", threads)
            scans.append(scan_lambda(cfg, lambdas, runs_per_point=runs).se_final)
    finally:
        sys.setswitchinterval(interval)
    for se_final in scans[1:]:
        assert np.array_equal(se_final, scans[0])
    for lam, se in zip(lambdas, scans[0]):
        sub = dataclasses.replace(cfg, lam=lam, n_realizations=runs)
        assert run_ensemble(sub).se_tr[-1] == se


def test_scan_lambda_passes_narrower_than_lambdas_equal_stand_alone_runs(monkeypatch):
    # RK4_COLUMNS set below the width of all lambdas: the chunks of 16
    # rows run in passes of 2, 2 and 1 lambdas, those of 3 rows in one
    # pass, and the last batch's chunk of 15 in passes of 3 and 2; every
    # statistic of every point, diverged counts included, must equal a
    # stand-alone run's, bitwise
    import dataclasses

    import slnoise.ensemble as ens

    monkeypatch.setattr(ens, "RK4_COLUMNS", 45)
    monkeypatch.setattr(ens, "BATCH_ROWS", CHUNK_ROWS + 3)
    cfg = small_cfg(model=SystemModel(1.0, -1.0, 2.0, RHO0),
                    n_realizations=2 * (CHUNK_ROWS + 3) + 15)
    lambdas = [0.5, 0.02, 2.0, 0.5, 5.0]
    runs = ens._ensembles(cfg, lambdas)
    assert 0 < sum(int(r.diverged[-1]) for r in runs) < len(lambdas) * cfg.n_realizations
    for lam, got in zip(lambdas, runs):
        want = run_ensemble(dataclasses.replace(cfg, lam=lam))
        for name, value in dataclasses.asdict(want).items():
            assert np.array_equal(getattr(got, name), value, equal_nan=True), name


@pytest.mark.parametrize("window", [1, 7, 100, 500])
def test_scan_lambda_reduces_only_its_final_window(window, monkeypatch):
    # 201 steps in blocks of 128: the final window begins at step 200, 196,
    # 200 and 0, inside the second block or at step 0; the steps before
    # it are never added to the sums, and each point still
    # equals a stand-alone run's final SE, bitwise, over full batches and
    # a partial last one
    import dataclasses

    import slnoise.ensemble as ens

    cfg = small_cfg(stats_window=window)
    first = (cfg.grid.n_phys - 1) // window * window
    reduced = []
    real = ens._Sums.add

    def recording(self, block, rows, col, point, step):
        reduced.append((first + step, len(block)))
        real(self, block, rows, col, point, step)

    monkeypatch.setattr(ens._Sums, "add", recording)
    runs, batch = 2 * CHUNK_ROWS + 5, CHUNK_ROWS + 3
    monkeypatch.setattr(ens, "BATCH_ROWS", batch)
    lambdas = [0.5, 2.0]
    scan = scan_lambda(cfg, lambdas, runs_per_point=runs)
    assert min(start for start, _ in reduced) == first
    # every chunk (16 and 3 realizations of the first batch, 16 and 2 of
    # the second) adds each step from first on once, for both lambdas
    chunks = sum(-(-rows // CHUNK_ROWS) for rows in (batch, runs - batch))
    assert sum(m for _, m in reduced) == chunks * (cfg.grid.n_phys - first)
    assert np.isfinite(scan.se_final).all()
    for lam, se in zip(lambdas, scan.se_final):
        sub = dataclasses.replace(cfg, lam=lam, n_realizations=runs)
        assert run_ensemble(sub).se_tr[-1] == se


def _assert_tail_of_stand_alone_runs(cfg, lambdas, first):
    """Every field of the statistics of each lambda reduced from step
    ``first`` on equals the steps from ``first`` on of a stand-alone run,
    bitwise; returns the stand-alone runs."""
    import dataclasses

    import slnoise.ensemble as ens

    wants = [run_ensemble(dataclasses.replace(cfg, lam=lam)) for lam in lambdas]
    for got, want in zip(ens._ensembles(cfg, lambdas, first), wants):
        for name, value in dataclasses.asdict(want).items():
            if isinstance(value, np.ndarray):
                value = value[first:]
            assert np.array_equal(getattr(got, name), value, equal_nan=True), name
    return wants


def test_scan_lambda_counts_divergences_of_skipped_blocks():
    # 1001 steps in blocks of 128 and a final window from step 1000: at
    # lambda = 1e-300 every trajectory diverges at step 1, in a block that
    # is integrated but not reduced; the point reads nan without being
    # taken for a faulty integration, and its final-window statistics,
    # diverged counts included, are those of a stand-alone run
    from slnoise.dynamics import BLOCK_STEPS

    cfg = small_cfg(grid=TimeGrid(dt=0.01, t_max=10.0), stats_window=100,
                    n_realizations=4)
    assert BLOCK_STEPS < 1000
    scan = scan_lambda(cfg, [1e-300, 1.0], runs_per_point=4)
    assert np.isnan(scan.se_final[0]) and np.isfinite(scan.se_final[1])
    assert scan.best_lambda == 1.0
    wants = _assert_tail_of_stand_alone_runs(cfg, [1e-300, 1.0], 1000)
    assert wants[0].diverged[1] == 4 and wants[1].diverged[-1] == 0


@pytest.mark.parametrize("first", [120, 140, 200])
def test_statistics_from_a_window_equal_the_tail_of_a_full_run(first, monkeypatch):
    # strongly coupled, 201 steps in blocks of 128 and windows of 20: at
    # lambda = 0.5 trajectories diverge at steps 115, 138, 160 and later,
    # in a skipped block or in the block that holds first, before first
    # and after it; at 0.02 all diverge early, at 5.0 after step 150
    import slnoise.ensemble as ens

    cfg = small_cfg(model=SystemModel(1.0, -1.0, 2.0, RHO0),
                    n_realizations=2 * (CHUNK_ROWS + 3) + 15)
    monkeypatch.setattr(ens, "BATCH_ROWS", CHUNK_ROWS + 3)
    wants = _assert_tail_of_stand_alone_runs(cfg, [0.5, 0.02, 5.0], first)
    assert wants[0].diverged[first - 1] > 0


def test_scan_lambda_synthesizes_each_realization_once(monkeypatch):
    drawn = _count_drawn_rows(monkeypatch)
    scan_lambda(small_cfg(), [0.5, 1.0, 2.0], runs_per_point=2 * CHUNK_ROWS + 5)
    assert sum(drawn) == 2 * CHUNK_ROWS + 5


def test_rescaled_run_matches_integrated_noise_pairs(monkeypatch):
    # the reference folds the rescale factors in at synthesis (the
    # NoisePair path) and integrates the whole batch at once
    import slnoise.ensemble as ens

    cfg = small_cfg(lam=0.5, n_realizations=3 * CHUNK_ROWS)
    monkeypatch.setattr(ens, "BATCH_ROWS", 2 * CHUNK_ROWS + 3)
    stats = run_ensemble(cfg)
    ngrid = cfg.noise_grid()
    seeds = [seed_for(cfg.master_seed, i) for i in range(cfg.n_realizations)]
    pairs = synthesize_batch(cfg.filters(), ngrid, seeds, cfg.lam)
    states, first_div = integrate_batch(cfg.model, [p.eta_t for p in pairs],
                                        [p.nu_t for p in pairs], ngrid.dt)
    assert np.all(first_div < 0) and np.all(stats.diverged == 0)
    tr = states[:, :, 3]
    var, se = windowed_stats(tr, cfg.stats_window)
    for got, want in ((stats.mean_tr, tr.mean(axis=0)),
                      (stats.var_tr, var), (stats.se_tr, se),
                      (stats.mean_sx, states[:, :, 0].mean(axis=0)),
                      (stats.mean_sy, states[:, :, 1].mean(axis=0)),
                      (stats.mean_sz, states[:, :, 2].mean(axis=0))):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def qnd_cfg(**kw):
    kernel, model = qnd_sln_config()
    base = dict(
        scheme=SchemeId.ETANU_OPTIMISED,
        model=model,
        grid=TimeGrid(dt=0.01, t_max=0.2),
        n_realizations=64,
        master_seed=0,
        kernel=kernel,
    )
    base.update(kw)
    return RunConfig(**base)


def test_coherence_se_vanishes_where_realizations_agree():
    # every realization starts from the same rho01
    t, mean, se = run_coherence(qnd_cfg())
    assert se[0] == 0.0
    assert mean[0] == pytest.approx(QndModel().rho0[0, 1], rel=1e-15)
    assert np.all(se[1:] > 0)


def test_coherence_se_matches_two_pass_variance(monkeypatch):
    import slnoise.ensemble as ens

    cfg = qnd_cfg(grid=TimeGrid(dt=0.01, t_max=1.0), n_realizations=3 * CHUNK_ROWS)
    monkeypatch.setattr(ens, "BATCH_ROWS", 2 * CHUNK_ROWS)
    t, mean, se = run_coherence(cfg)
    ngrid = cfg.noise_grid()
    synth = Synthesizer(cfg.filters(), ngrid)
    n = cfg.n_realizations
    eta = np.empty((ngrid.n_phys, n), dtype=complex)
    nu = np.empty_like(eta)
    for a in range(0, n, CHUNK_ROWS):
        synth.fill([seed_for(cfg.master_seed, i) for i in range(a, a + CHUNK_ROWS)],
                   eta[:, a:a + CHUNK_ROWS], nu[:, a:a + CHUNK_ROWS])
    states, _ = integrate_batch(cfg.model, eta.T, nu.T, ngrid.dt)
    r01 = 0.5 * (states[:, :, 0] - 1j * states[:, :, 1])
    want_mean = r01.mean(axis=0)
    var = np.sum(np.abs(r01 - want_mean) ** 2, axis=0) / (n - 1)
    np.testing.assert_allclose(mean, want_mean, rtol=1e-12, atol=0)
    # at t = 0 the exact value is 0, which the other test pins
    np.testing.assert_allclose(se[1:], np.sqrt(var / n)[1:], rtol=1e-12, atol=0)


def test_scan_lambda_rejects_schemes_without_pair():
    with pytest.raises(ZeroComponent):
        scan_lambda(small_cfg(scheme=SchemeId.CONVEX), [0.5], 16)
    with pytest.raises(ZeroComponent):
        scan_lambda(small_cfg(scheme=SchemeId.CONSTRAINED), [0.5], 16)


def test_scan_lambda_validates_grid():
    with pytest.raises(ConfigError):
        scan_lambda(small_cfg(), [], 16)
    with pytest.raises(ConfigError):
        scan_lambda(small_cfg(), [-1.0], 16)
    with pytest.raises(ConfigError, match="n_realizations"):
        scan_lambda(small_cfg(), [0.5], 1)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_scan_lambda_refuses_non_finite_lambda(bad):
    with pytest.raises(ConfigError, match="finite"):
        scan_lambda(small_cfg(), [0.5, bad], 16)


def test_scan_lambda_best_lambda_skips_diverged_points():
    # at 1e-300 and 1e300 the rescaled noise overflows and every
    # trajectory diverges: those points read nan and cannot be the best
    cfg = small_cfg(grid=TimeGrid(dt=0.01, t_max=0.5))
    scan = scan_lambda(cfg, [1e-300, 1.0, 1e300], 4)
    assert np.isnan(scan.se_final[[0, 2]]).all()
    assert np.isfinite(scan.se_final[1])
    assert scan.best_lambda == 1.0
    with pytest.raises(SlnoiseError, match="every lambda"):
        scan_lambda(cfg, [1e-300, 1e300], 4)


@pytest.mark.parametrize("lam", [1e-300, 1e-30])
def test_coherence_refuses_diverged_trajectories(lam):
    # qnd-verify --dt 0.05 --t-max 2 --n 4 --lambda 1e-300 wrote nan rows;
    # at 1e-30 the diverged sums also overflowed with a RuntimeWarning
    cfg = qnd_cfg(grid=TimeGrid(dt=0.05, t_max=2.0), n_realizations=4, lam=lam)
    with pytest.raises(SlnoiseError, match=r"4 of 4 trajectories diverged, "
                                           r"the first at step 1 \(t = 0.05\)"):
        run_coherence(cfg)


def test_noise_grid_halves_step():
    cfg = small_cfg()
    ng = cfg.noise_grid()
    assert ng.dt == cfg.grid.dt / 2.0
    assert ng.t_max == cfg.grid.t_max
    # one noise sample for every RK4 half step
    assert ng.n_phys == 2 * (cfg.grid.n_phys - 1) + 1


def _nan_block_without_divergence(monkeypatch):
    """Patch the integration of the ensemble runs so that the last states
    of every block are nan while no new_div flags a divergence, as a
    faulty kernel would."""
    import slnoise.ensemble as ens

    real = ens.integrate_blocks

    def faulty(*args):
        for start, states, new_div in real(*args):
            states[-1, :, 0] = np.nan
            yield start, states, new_div

    monkeypatch.setattr(ens, "integrate_blocks", faulty)


@pytest.mark.parametrize("run", [
    lambda: run_ensemble(small_cfg(n_realizations=8)),
    lambda: scan_lambda(small_cfg(n_realizations=8), [0.5, 2.0], 8),
    lambda: run_coherence(qnd_cfg(grid=TimeGrid(dt=0.05, t_max=2.0),
                                  n_realizations=4)),
], ids=["run_ensemble", "scan_lambda", "run_coherence"])
def test_non_finite_statistics_without_divergence_are_refused(run, monkeypatch):
    _nan_block_without_divergence(monkeypatch)
    with pytest.raises(SlnoiseError, match="not finite although no trajectory "
                                           "diverged"):
        run()


# ------------------------------------------------ units and native sums

def _numpy_tree(n, lo=0):
    """The nodes (lo, hi, cut) of numpy's pairwise sum of ``n`` doubles
    from ``lo`` on, cut None at a leaf, as numpy's pairwise_sum recurses."""
    if n <= 128:
        return [(lo, lo + n, None)]
    half = n // 2
    half -= half % 8
    return ([(lo, lo + n, lo + half)] + _numpy_tree(half, lo)
            + _numpy_tree(n - half, lo + half))


def test_units_cut_exactly_where_both_numpy_trees_split():
    # for every batch width 1 ... 4096: each cut between units splits a node
    # that numpy's float sum over the columns and its complex sum over
    # the columns' interleaved doubles share, and no unit is such a node
    import itertools

    import slnoise.ensemble as ens

    for width in range(1, 4097):
        floats = {(lo, hi): cut for lo, hi, cut in _numpy_tree(width)}
        complexes = {(lo // 2, hi // 2): None if cut is None else cut // 2
                     for lo, hi, cut in _numpy_tree(2 * width)}

        def shared(lo, hi):
            cut = floats.get((lo, hi))
            return cut if cut is not None and complexes.get((lo, hi)) == cut else None

        def units(lo, hi):
            cut = shared(lo, hi)
            return [(lo, hi)] if cut is None else units(lo, cut) + units(cut, hi)

        bounds = [0, *itertools.accumulate(ens._leaves(width, ens._unit_split))]
        assert list(zip(bounds[:-1], bounds[1:])) == units(0, width), width
    assert ens._leaves(256, ens._unit_split) == [128, 128]
    assert ens._leaves(244, ens._unit_split) == [120, 124]
    assert ens._leaves(208, ens._unit_split) == [104, 104]
    assert ens._leaves(250, ens._unit_split) == [250]


def _batch_sums_of(x, chunks, native):
    """x (m, width) complex summed over its columns as a run sums a batch:
    unit by unit, fed in chunks cycling through ``chunks`` columns, the
    units added up the tree and into zeros."""
    import itertools

    import slnoise.ensemble as ens

    m, width = x.shape
    results = []
    lo = 0
    for unit in ens._leaves(width, ens._unit_split):
        sums = ens._Sums(unit, 1, m, 1, native)
        cuts = [0, *itertools.takewhile(lambda c: c < unit, itertools.accumulate(
            itertools.cycle(chunks))), unit]
        for a, b in zip(cuts[:-1], cuts[1:]):
            block = x[:, lo + a:lo + b].reshape(m, 1, b - a)
            if m > 1:
                block = np.ascontiguousarray(block)
            sums.add(block, b - a, a, 0, 0)
        results.append(sums.result())
        lo += unit
    c, f = zip(*results)
    c = ens._pairwise(iter(c), width, ens._unit_split)[0, :, 0]
    f = ens._pairwise(iter(f), width, ens._unit_split)[0]
    return np.zeros(m, dtype=complex) + c, np.zeros(m) + f


def _special_values(rng, m, width):
    """Random complex values of every magnitude, with +-0.0, +-inf and nan
    among the parts, and moduli that np.abs and libm's hypot round apart."""
    x = sum(part * rng.standard_normal((m, width))
            * 10.0 ** rng.uniform(-150, 150, (m, width)) for part in (1, 1j))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0])
    x.real[:, ::13] = rng.choice(special, x[:, ::13].shape)
    x.imag[:, ::17] = rng.choice(special, x[:, ::17].shape)
    x[:, 5::19] = 765406082731.0397 + 643547611694.9894j
    x[0] = -0.0
    x[1, ::2] = complex(0.0, -0.0)
    return x


def _bits(a):
    """The bits of ``a``, every nan as numpy's default nan: which of two
    nans an add returns depends on the operand order inside numpy's own
    compiled loops (its complex leaf combine returns the second one, its
    elementwise add the first in vector lanes and the second in the
    tail), so the sign and payload of a nan are not reproducible."""
    a = np.array(a)
    a.view(float)[np.isnan(a.view(float))] = np.nan
    return a.view(np.uint64)


def _assert_sums_bitwise(x, chunks, native):
    with np.errstate(over="ignore", invalid="ignore"):
        got_c, got_f = _batch_sums_of(x, chunks, native)
        want_c, want_f = x.sum(axis=-1), (np.abs(x) ** 2).sum(axis=-1)
    assert np.array_equal(_bits(got_c), _bits(want_c)), x.shape
    assert np.array_equal(_bits(got_f), _bits(want_f)), x.shape


@pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
def test_unit_sums_equal_numpy_sums_bitwise(native):
    # natively, every width from 1 to 4096 in chunks of 16 columns, one
    # step; the widths up to 300 and six wider ones also at three steps
    # in chunks of 1, 3 and 8, and of 16, 8, 3 and 1 in turn; numpy's
    # in-order adds on the widths up to 300 in chunks of 16 and in turn,
    # and on the wider ones in 16
    import slnoise.ensemble as ens

    fn = ens._native_sums() if native else None
    if native and fn is None:
        pytest.skip("the native sums could not be built")
    values = _special_values(np.random.default_rng(11), 3, 4096)
    few = [*range(1, 301), 511, 512, 1000, 2049, 4095, 4096]
    for width in range(1, 4097):
        x = values[:, :width]
        if native:
            # one row each, whose columns are then contiguous
            _assert_sums_bitwise(x[width % 3, None], (16,), fn)
        if width in few:
            turns = (16, 8, 3, 1)
            for chunks in ((1,), (3,), (8,), turns) if native else ((16,), turns):
                if native or width <= 300 or chunks == (16,):
                    _assert_sums_bitwise(x, chunks, fn)


def test_native_sums_refused_when_probe_fails(monkeypatch):
    # a pass that the probe rejects is never used, silently
    import warnings

    import slnoise.ensemble as ens

    ens._native_sums.cache_clear()
    try:
        with monkeypatch.context() as m, warnings.catch_warnings():
            m.setattr(ens, "_sums_probe", lambda native: False)
            warnings.simplefilter("error")
            assert ens._native_sums() is None
            a = run_ensemble(small_cfg(n_realizations=20))
    finally:
        ens._native_sums.cache_clear()
    b = run_ensemble(small_cfg(n_realizations=20))
    for name in ("mean_tr", "var_tr", "se_tr", "mean_sx", "mean_sy", "mean_sz"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_run_ensemble_holds_no_batch_of_noise(monkeypatch):
    # 256 realizations at dt = 0.01 and t_max = 40: the batch's two noise
    # series alone took 65.5 MB; each of two threads now holds a chunk
    import tracemalloc

    import slnoise.ensemble as ens
    from slnoise import _native

    if _native.library() is None:
        pytest.skip("the native library could not be built")
    monkeypatch.setattr(ens, "SYNTH_THREADS", 2)
    cfg = small_cfg(grid=TimeGrid(dt=0.01, t_max=40.0), n_realizations=256)
    ngrid = cfg.noise_grid()
    batch_noise = 2 * 16 * ngrid.n_phys * 256
    assert batch_noise == 65_544_192
    cfg.filters()
    tracemalloc.start()
    try:
        run_ensemble(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < batch_noise / 2
