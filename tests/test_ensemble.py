"""Tests for ensemble averaging, seeding and the lambda scan."""

import numpy as np
import pytest

from slnoise import (
    BathParams,
    ConfigError,
    CustomKernel,
    QndModel,
    RunConfig,
    SIGMA_Z,
    SchemeId,
    Synthesizer,
    SystemModel,
    TimeGrid,
    ZeroComponent,
    integrate_batch,
    qnd_kernel,
    run_coherence,
    run_ensemble,
    sample_white,
    scan_lambda,
    seed_for,
    synthesize_batch,
    windowed_stats,
)
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
    with pytest.raises(ValueError):
        small_cfg(n_realizations=1)
    with pytest.raises(ValueError):
        small_cfg(bath=None)
    with pytest.raises(ValueError):
        small_cfg(stats_window=0)


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


def test_windowed_stats_rejects_oversized_window():
    with pytest.raises(ValueError):
        windowed_stats(np.ones((4, 10)), 11)


def test_force_nu_zero_keeps_trace_constant():
    stats = run_ensemble(small_cfg(), force_nu_zero=True)
    assert np.max(np.abs(stats.mean_tr - 1.0)) == 0.0
    assert np.all(stats.var_tr == 0.0)
    assert np.all(stats.diverged == 0)


def test_run_ensemble_deterministic():
    a = run_ensemble(small_cfg())
    b = run_ensemble(small_cfg())
    assert np.array_equal(a.mean_tr, b.mean_tr)
    assert np.array_equal(a.var_tr, b.var_tr)


def test_run_ensemble_batch_size_invariant():
    a = run_ensemble(small_cfg(), batch_size=16)
    b = run_ensemble(small_cfg(), batch_size=1000)
    assert np.allclose(a.mean_tr, b.mean_tr, rtol=1e-12, atol=1e-14)
    assert np.allclose(a.var_tr, b.var_tr, rtol=1e-10, atol=1e-14)


def test_output_independent_of_synthesis_thread_count(monkeypatch):
    # more threads than cores, switching as often as the interpreter
    # allows: a chunk written to the wrong columns or lost would show
    import sys

    import slnoise.ensemble as ens

    cfg = small_cfg(n_realizations=3 * CHUNK_ROWS + 5)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 5):
            monkeypatch.setattr(ens, "SYNTH_THREADS", threads)
            runs.append((run_ensemble(cfg, batch_size=2 * CHUNK_ROWS + 3),
                         run_coherence(cfg, batch_size=2 * CHUNK_ROWS + 3)))
    finally:
        sys.setswitchinterval(interval)
    (ens1, coh1) = runs[0]
    for ens_n, coh_n in runs[1:]:
        for name in ("mean_tr", "var_tr", "se_tr", "mean_sx", "mean_sy",
                     "mean_sz", "diverged"):
            assert np.array_equal(getattr(ens1, name), getattr(ens_n, name)), name
        for a, b in zip(coh1, coh_n):
            assert np.array_equal(a, b)


def test_streamed_sums_match_integrated_states():
    # a strongly coupled run in which some trajectories diverge; the
    # reference integrates the same noise with integrate_batch and reduces
    # the full state array
    cfg = small_cfg(scheme=SchemeId.LIKE, n_realizations=3 * CHUNK_ROWS,
                    model=SystemModel(1.0, -1.0, 2.0, RHO0))
    stats = run_ensemble(cfg, batch_size=2 * CHUNK_ROWS)
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
    """Patch Synthesizer.draw to count the rows it draws; returns the
    list of counts."""
    drawn = []
    real = Synthesizer.draw

    def counting(self, seeds):
        drawn.append(len(seeds))
        return real(self, seeds)

    monkeypatch.setattr(Synthesizer, "draw", counting)
    return drawn


def test_run_ensemble_refuses_grid_larger_than_memory(monkeypatch):
    import slnoise.ensemble as ens

    drawn = _count_drawn_rows(monkeypatch)
    huge = small_cfg(grid=TimeGrid(dt=1e-7, t_max=1e4))
    with pytest.raises(ConfigError, match="physical memory"):
        run_ensemble(huge)
    with pytest.raises(ConfigError, match="physical memory"):
        scan_lambda(huge, [0.5, 2.0], runs_per_point=16)
    # a short grid whose noise takes tens of MB, but whose RK4 pass over
    # 10^6 lambdas x 10^5 realizations at once would take tens of TiB;
    # capped at RK4_COLUMNS columns, the same pass fits
    short = small_cfg(grid=TimeGrid(dt=0.01, t_max=0.02))
    ens._check_memory(short.noise_grid(), 10**5, 10**6)
    monkeypatch.setattr(ens, "RK4_COLUMNS", 2**62)
    with pytest.raises(ConfigError, match="physical memory"):
        scan_lambda(short, [0.5] * 10**6, runs_per_point=10**5,
                    batch_size=10**5)
    assert drawn == []


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
    scans = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 5):
            monkeypatch.setattr(ens, "SYNTH_THREADS", threads)
            scans.append(scan_lambda(cfg, lambdas, runs_per_point=runs,
                                     batch_size=batch).se_final)
    finally:
        sys.setswitchinterval(interval)
    for se_final in scans[1:]:
        assert np.array_equal(se_final, scans[0])
    for lam, se in zip(lambdas, scans[0]):
        sub = dataclasses.replace(cfg, lam=lam, n_realizations=runs)
        assert run_ensemble(sub, batch_size=batch).se_tr[-1] == se


def test_scan_lambda_passes_narrower_than_lambdas_equal_stand_alone_runs(monkeypatch):
    # RK4_COLUMNS set below the width of all lambdas: full batches of 19
    # rows run in passes of 2, 2 and 1 lambdas, the last batch of 15 rows
    # in passes of 3 and 2; every statistic of every point, diverged
    # counts included, must equal a stand-alone run's, bitwise
    import dataclasses

    import slnoise.ensemble as ens

    monkeypatch.setattr(ens, "RK4_COLUMNS", 45)
    cfg = small_cfg(model=SystemModel(1.0, -1.0, 2.0, RHO0),
                    n_realizations=2 * (CHUNK_ROWS + 3) + 15)
    lambdas = [0.5, 0.02, 2.0, 0.5, 5.0]
    runs = ens._ensembles(cfg, CHUNK_ROWS + 3, lambdas)
    assert 0 < sum(int(r.diverged[-1]) for r in runs) < len(lambdas) * cfg.n_realizations
    for lam, got in zip(lambdas, runs):
        want = run_ensemble(dataclasses.replace(cfg, lam=lam),
                            batch_size=CHUNK_ROWS + 3)
        for name, value in dataclasses.asdict(want).items():
            assert np.array_equal(getattr(got, name), value, equal_nan=True), name


def test_scan_lambda_synthesizes_each_realization_once(monkeypatch):
    drawn = _count_drawn_rows(monkeypatch)
    scan_lambda(small_cfg(), [0.5, 1.0, 2.0], runs_per_point=2 * CHUNK_ROWS + 5)
    assert sum(drawn) == 2 * CHUNK_ROWS + 5


def test_rescaled_run_matches_integrated_noise_pairs():
    # the reference folds the rescale factors in at synthesis (the
    # NoisePair path) and integrates the whole batch at once
    cfg = small_cfg(lam=0.5, n_realizations=3 * CHUNK_ROWS)
    stats = run_ensemble(cfg, batch_size=2 * CHUNK_ROWS + 3)
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
    base = dict(
        scheme=SchemeId.ETANU_OPTIMISED,
        model=SystemModel(delta=0.0, epsilon=-1.0, alpha=1.0,
                          rho0=QndModel().rho0),
        grid=TimeGrid(dt=0.01, t_max=0.2),
        n_realizations=64,
        master_seed=0,
        kernel=CustomKernel(qnd_kernel),
    )
    base.update(kw)
    return RunConfig(**base)


def test_coherence_se_vanishes_where_realizations_agree():
    # every realization starts from the same rho01
    t, mean, se = run_coherence(qnd_cfg())
    assert se[0] == 0.0
    assert mean[0] == pytest.approx(QndModel().rho0[0, 1], rel=1e-15)
    assert np.all(se[1:] > 0)


def test_coherence_se_matches_two_pass_variance():
    cfg = qnd_cfg(grid=TimeGrid(dt=0.01, t_max=1.0), n_realizations=3 * CHUNK_ROWS)
    t, mean, se = run_coherence(cfg, batch_size=2 * CHUNK_ROWS)
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
    with pytest.raises(ValueError):
        scan_lambda(small_cfg(), [], 16)
    with pytest.raises(ValueError):
        scan_lambda(small_cfg(), [-1.0], 16)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_scan_lambda_refuses_non_finite_lambda(bad):
    with pytest.raises(ValueError, match="finite"):
        scan_lambda(small_cfg(), [0.5, bad], 16)


def test_noise_grid_halves_step():
    cfg = small_cfg()
    ng = cfg.noise_grid()
    assert ng.dt == cfg.grid.dt / 2.0
    assert ng.t_max == cfg.grid.t_max
    # one noise sample for every RK4 half step
    assert ng.n_phys == 2 * (cfg.grid.n_phys - 1) + 1
