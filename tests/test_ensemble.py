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

from conftest import kernel

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


def _bits(a):
    """The bits of ``a``, every nan as numpy's default nan: which of two
    nans numpy's elementwise add returns depends on the lane of its
    compiled loop (the first operand's in vector lanes, the second's in
    the tail), so the sign and payload of a nan are not reproducible."""
    a = np.array(a)
    a.view(float)[np.isnan(a.view(float))] = np.nan
    return a.view(np.uint64)


def _unit_order_sums(x, unit):
    """The sums over the first axis of ``x`` as a run takes them: in order
    within each unit of ``unit`` rows, the units' sums added in order."""
    total = np.zeros(x.shape[1:], x.dtype)
    for lo in range(0, len(x), unit):
        part = np.zeros(x.shape[1:], x.dtype)
        for row in x[lo:lo + unit]:
            part += row
        total += part
    return total


def _assert_stats_of_states(stats, states, unit, window):
    """Every statistic of ``stats`` is the one formed from the integrated
    ``states`` (realizations, steps, 4) summed unit by unit, bitwise."""
    n = len(states)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _unit_order_sums(states, unit)
        tr = states[:, :, 3]
        abs2 = _unit_order_sums(tr.real * tr.real + tr.imag * tr.imag, unit)
        var, se = _pooled_window_stats(sums[:, 3], abs2, n, window)
        for got, want in ((stats.mean_tr, sums[:, 3] / n),
                          (stats.var_tr, var), (stats.se_tr, se),
                          (stats.mean_sx, sums[:, 0] / n),
                          (stats.mean_sy, sums[:, 1] / n),
                          (stats.mean_sz, sums[:, 2] / n)):
            assert np.array_equal(_bits(got), _bits(want))


def _pooled_window_stats_one_series(sum_tr, sum_abs2, nreal, window):
    """The reference of _pooled_window_stats: one series, window by window,
    in scalars."""
    n_steps = sum_tr.shape[0]
    var = np.empty(n_steps)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, window):
            sl = slice(start, min(start + window, n_steps))
            m = (sl.stop - sl.start) * nreal
            s1 = np.sum(sum_tr[sl])
            s2 = np.sum(sum_abs2[sl])
            v = (s2 - np.abs(s1) ** 2 / m) / max(m - 1, 1)
            var[sl] = max(v, 0.0)
    return var, np.sqrt(var / nreal)


@pytest.mark.parametrize("strengths, steps, window, nreal", [
    (1, 1, 100, 500), (13, 1001, 100, 500), (13, 1, 100, 500),
    (1000, 37, 10, 500), (3, 1000, 1, 500), (1000, 20, 1, 1)])
def test_windowed_stats_of_many_strengths_equal_one_at_a_time(strengths, steps,
                                                              window, nreal):
    # every strength's series at once, bitwise as one at a time, from a
    # run's running sums (points, steps, quantities); a window whose
    # variance rounds below zero is clipped to 0, an overflowed one is
    # inf or nan.  With one realization, the variance is the rounding of
    # |s1|^2 against the sum of squares, so the last bit of |s1|^2 shows
    rng = np.random.default_rng(steps)
    c = (rng.standard_normal((strengths, steps, 4))
         + 1j * rng.standard_normal((strengths, steps, 4))) * 50.0
    tr = c[:, :, 3]
    f = tr.real * tr.real + tr.imag * tr.imag
    f[0, 0] = 0.0
    if strengths > 2:
        with np.errstate(over="ignore"):
            f[1] *= 1e308
        c[2, 0, 3] = np.nan
    var, se = _pooled_window_stats(tr, f, nreal, window)
    for p in range(strengths):
        want_var, want_se = _pooled_window_stats_one_series(tr[p], f[p], nreal,
                                                            window)
        assert np.array_equal(_bits(var[p]), _bits(want_var))
        assert np.array_equal(_bits(se[p]), _bits(want_se))
    assert (var >= 0.0).sum() + np.isnan(var).sum() == var.size


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
    real = Synthesizer.colour

    def zero_nu(self, seeds):
        eta, nu, cross = real(self, seeds)
        nu[...] = 0.0
        return eta, nu, cross

    monkeypatch.setattr(Synthesizer, "colour", zero_nu)
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
    # reference integrates the same noise with integrate_batch and sums the
    # full state array in units of 16 realizations
    import slnoise.ensemble as ens

    cfg = small_cfg(scheme=SchemeId.LIKE, n_realizations=3 * CHUNK_ROWS,
                    model=SystemModel(1.0, -1.0, 2.0, RHO0))
    monkeypatch.setattr(ens, "BATCH_ROWS", 2 * CHUNK_ROWS)
    stats = run_ensemble(cfg)
    ngrid = cfg.noise_grid()
    synth = Synthesizer(cfg.filters(), ngrid)
    n = cfg.n_realizations
    eta = np.empty((n, ngrid.n_phys), dtype=complex)
    nu = np.empty_like(eta)
    for a in range(0, n, CHUNK_ROWS):
        eta[a:a + CHUNK_ROWS], nu[a:a + CHUNK_ROWS], _ = synth.colour(
            [seed_for(cfg.master_seed, i) for i in range(a, a + CHUNK_ROWS)])
    states, first_div = integrate_batch(cfg.model, eta, nu, ngrid.dt)
    assert 0 < np.sum(first_div >= 0) < n
    steps = np.arange(states.shape[1])
    diverged = ((first_div[:, None] >= 0) & (first_div[:, None] <= steps)).sum(axis=0)
    assert np.array_equal(stats.diverged, diverged)
    _assert_stats_of_states(stats, states, CHUNK_ROWS, cfg.stats_window)


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
    with pytest.raises(ConfigError, match="the grid .* physical memory"):
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


def _physical_memory_8gib(monkeypatch):
    import os

    real = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: 2**21 if name == "SC_PHYS_PAGES"
                        else 4096 if name == "SC_PAGE_SIZE" else real(name))


def test_scan_memory_charges_every_lambda(monkeypatch, capsys):
    # every strength keeps its running sums and statistics to the end of
    # the scan, and every unit in flight its sums and first divergences,
    # so a scan of lambda_scan.cfg's shape at 2 * 10^6 points (about 11 GB
    # of them, mostly first divergences) is refused, at a physical memory
    # of 8 GiB that 10^5 of its points fit in; so is a run that keeps
    # every step at 10^5 points (about 54 GB); nothing of that size is
    # allocated
    from pathlib import Path

    import slnoise.ensemble as ens
    from slnoise.cli import main

    _physical_memory_8gib(monkeypatch)

    def refused(*args, **kwargs):
        raise AssertionError("the memory check let the scan through")

    cfg = small_cfg(grid=TimeGrid(dt=0.01, t_max=10.0))
    ngrid, first = cfg.noise_grid(), 1000
    ens._check_memory(ngrid, 256, 13)
    ens._check_memory(ngrid, 256, 10**5, first=first)
    with pytest.raises(ConfigError, match="2000000 rescaling strengths .* physical memory"):
        ens._check_memory(ngrid, 256, 2 * 10**6, first=first)
    with pytest.raises(ConfigError, match="100000 rescaling strengths .* physical memory"):
        ens._check_memory(ngrid, 256, 10**5)
    monkeypatch.setattr(ens, "Synthesizer", refused)
    with pytest.raises(ConfigError, match="rescaling strengths .* physical memory"):
        scan_lambda(cfg, np.full(2 * 10**6, 0.5), runs_per_point=1000)
    config = Path(__file__).resolve().parents[1] / "configs" / "lambda_scan.cfg"
    assert main(["scan-lambda", "--config", str(config),
                 "--points", "2000000", "--runs-per-point", "1000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "physical memory" in err
    assert "2000000 rescaling strengths" in err
    assert err.count("\n") == 1


def test_scan_memory_charges_the_kept_steps_only(monkeypatch):
    # a scan sums the steps of its final stats window only (1 of 1001 at
    # lambda_scan.cfg's grid), so at 10^5 points it passes the memory
    # check at 8 GiB and goes on to build its synthesizer
    import slnoise.ensemble as ens

    _physical_memory_8gib(monkeypatch)

    class Built(Exception):
        pass

    def built(*args, **kwargs):
        raise Built

    monkeypatch.setattr(ens, "Synthesizer", built)
    with pytest.raises(Built):
        scan_lambda(small_cfg(grid=TimeGrid(dt=0.01, t_max=10.0)),
                    np.full(10**5, 0.5), runs_per_point=1000)


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
    # units of a full and a partial chunk and a partial last unit, a
    # repeated lambda, and the factor table of each unit written by 1, 2
    # and 5 threads that
    # switch as often as the interpreter allows
    import dataclasses
    import sys

    import slnoise.ensemble as ens

    cfg = small_cfg()
    runs = 3 * CHUNK_ROWS + 5
    lambdas = [0.5, 0.05, 2.0, 0.5]
    monkeypatch.setattr(ens, "BATCH_ROWS", 2 * (CHUNK_ROWS + 3))
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
    # pass, and the last unit's chunk of 15 in passes of 3 and 2; every
    # statistic of every point, diverged counts included, must equal a
    # stand-alone run's, bitwise
    import dataclasses

    import slnoise.ensemble as ens

    monkeypatch.setattr(ens, "RK4_COLUMNS", 45)
    monkeypatch.setattr(ens, "BATCH_ROWS", 2 * (CHUNK_ROWS + 3))
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
    # equals a stand-alone run's final SE, bitwise, over a full unit and
    # a partial last one
    import dataclasses

    import slnoise.ensemble as ens

    cfg = small_cfg(stats_window=window)
    first = (cfg.grid.n_phys - 1) // window * window
    reduced = []
    real = ens._Sums.add

    def recording(self, block, rows, point, step):
        reduced.append((first + step, len(block)))
        real(self, block, rows, point, step)

    monkeypatch.setattr(ens._Sums, "add", recording)
    runs, unit = 2 * CHUNK_ROWS + 5, CHUNK_ROWS + 3
    monkeypatch.setattr(ens, "BATCH_ROWS", 2 * unit)
    lambdas = [0.5, 2.0]
    scan = scan_lambda(cfg, lambdas, runs_per_point=runs)
    assert min(start for start, _ in reduced) == first
    # every chunk (16 and 3 realizations of the first unit, 16 and 2 of
    # the second) adds each step from first on once, for both lambdas
    chunks = sum(-(-rows // CHUNK_ROWS) for rows in (unit, runs - unit))
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
    monkeypatch.setattr(ens, "BATCH_ROWS", 2 * (CHUNK_ROWS + 3))
    wants = _assert_tail_of_stand_alone_runs(cfg, [0.5, 0.02, 5.0], first)
    assert wants[0].diverged[first - 1] > 0


def test_scan_lambda_synthesizes_each_realization_once(monkeypatch):
    drawn = _count_drawn_rows(monkeypatch)
    scan_lambda(small_cfg(), [0.5, 1.0, 2.0], runs_per_point=2 * CHUNK_ROWS + 5)
    assert sum(drawn) == 2 * CHUNK_ROWS + 5


def test_rescaled_run_matches_integrated_noise_pairs(monkeypatch):
    # the reference folds the rescale factors in at synthesis (the
    # NoisePair path), integrates the whole ensemble at once and sums it
    # in units of 17 realizations
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
    _assert_stats_of_states(stats, states, CHUNK_ROWS + 1, cfg.stats_window)


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
    eta = np.empty((n, ngrid.n_phys), dtype=complex)
    nu = np.empty_like(eta)
    for a in range(0, n, CHUNK_ROWS):
        eta[a:a + CHUNK_ROWS], nu[a:a + CHUNK_ROWS], _ = synth.colour(
            [seed_for(cfg.master_seed, i) for i in range(a, a + CHUNK_ROWS)])
    states, _ = integrate_batch(cfg.model, eta, nu, ngrid.dt)
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
    for runs in (1, -5):
        with pytest.raises(ConfigError, match="runs_per_point"):
            scan_lambda(small_cfg(), [0.5], runs)


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


# ------------------------------------------------------------ unit sums

def _unit_values(rng, points, m, nq, width):
    """(points, m, nq, width) complex: random values of every magnitude;
    +-0.0, +-inf and nan among the parts of the first step, -0.0 in
    the second."""
    x = sum(part * rng.standard_normal((points, m, nq, width))
            * 10.0 ** rng.uniform(-150, 150, (points, m, nq, width))
            for part in (1, 1j))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0])
    first = x[:, 0]
    first.real[..., ::13] = rng.choice(special, first[..., ::13].shape)
    first.imag[..., ::17] = rng.choice(special, first[..., ::17].shape)
    x[:, 1, 0] = complex(-0.0, -0.0)
    return x


def _in_order(x):
    """The sums over the last axis of ``x`` (points, m, nq, width), column
    after column from zero: of x, and of |x[:, :, -1]|^2 as re*re + im*im."""
    c = np.zeros(x.shape[:-1], dtype=complex)
    f = np.zeros(x.shape[:-2])
    for col in np.moveaxis(x, -1, 0):
        c += col
        last = col[:, :, -1]
        f += last.real * last.real + last.imag * last.imag
    return c, f


@pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
def test_unit_sums_equal_in_order_sums_bitwise(native):
    # widths 1 ... 300 and six up to 4096, fed in chunks of 1, 3 and 16
    # columns, four quantities at 1 point and two at 13
    import slnoise.ensemble as ens
    from slnoise import _native

    fn = None
    if native:
        if _native.library() is None:
            pytest.skip("the native library could not be built")
        fn = kernel("sln_sums")
        assert fn is not None, "the native sums failed their probe"
    rng = np.random.default_rng(11)
    m = 3
    for nq, points in ((4, 1), (2, 13)):
        values = _unit_values(rng, points, m, nq, 4096)
        for width in (*range(1, 301), 511, 512, 1000, 2049, 4095, 4096):
            x = values[..., :width]
            with np.errstate(over="ignore", invalid="ignore"):
                want_c, want_f = _in_order(x)
                for chunk in (1, 3, 16):
                    sums = ens._Sums(points, m, nq, fn)
                    for a in range(0, width, chunk):
                        rows = min(chunk, width - a)
                        block = x[..., a:a + rows].transpose(1, 2, 0, 3)
                        sums.add(np.ascontiguousarray(block).reshape(m, nq, -1),
                                 rows, 0, 0)
                    assert np.array_equal(_bits(sums.c), _bits(want_c)), (width, chunk)
                    assert np.array_equal(_bits(sums.f), _bits(want_f)), (width, chunk)


def test_native_sums_refused_when_probe_fails(rebuild, monkeypatch):
    # a pass that the probe rejects is never used, silently
    import warnings

    import slnoise.ensemble as ens

    want = run_ensemble(small_cfg(n_realizations=20))
    monkeypatch.setattr(ens, "_sums_probe", lambda native: False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel("sln_sums") is None
        got = run_ensemble(small_cfg(n_realizations=20))
    for name in ("mean_tr", "var_tr", "se_tr", "mean_sx", "mean_sy", "mean_sz"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_refused_sums_probe_is_logged_once(rebuild, monkeypatch, caplog):
    # one record for the kernel whose probe fails, however often a run
    # asks for it; the other kernels still load
    import logging

    import slnoise.ensemble as ens
    from slnoise import _native

    if _native.library() is None:
        pytest.skip("the native library could not be built")
    monkeypatch.setattr(ens, "_sums_probe", lambda native: False)
    caplog.set_level(logging.INFO, logger="slnoise")
    run_ensemble(small_cfg(n_realizations=300))
    assert [r.getMessage() for r in caplog.records if r.name == "slnoise"] == [
        "sln_sums falls back to numpy: probe refused"]
    for symbol in ("sln_rk4", "sln_normals", "sln_mix"):
        assert kernel(symbol) is not None, symbol


@pytest.mark.parametrize("rk4", ["native", "numpy"])
@pytest.mark.parametrize("run", ["ensemble", "scan"])
def test_one_worker_reuses_its_chunk_and_rk4_buffers(run, rk4, monkeypatch):
    # one worker thread, three units of 128, 128 and 44 realizations in
    # chunks of 16: every chunk is coloured into the same noise series and
    # integrated into the same RK4 block (the scan storing its final
    # window only), and no buffer of the thread, nor the synthesizer that
    # keeps them, outlives the run
    import weakref

    import slnoise.ensemble as ens

    from conftest import force_numpy

    if rk4 == "numpy":
        force_numpy(monkeypatch, "sln_rk4")
    monkeypatch.setattr(ens, "SYNTH_THREADS", 1)
    integrate, synthesizer = ens.integrate_blocks, ens._synthesizer
    scratch = Synthesizer.scratch
    held, buffers, synths = [], [], []

    def spy_integrate(model, eta_t, nu_t, dt_half, cross=None, *args):
        for start, states, new_div in integrate(model, eta_t, nu_t, dt_half,
                                                cross, *args):
            # kept until the run ends, so a buffer freed and allocated
            # again could not take the same address
            held.append((eta_t, nu_t, *(cross or ()), states))
            yield start, states, new_div

    def spy_scratch(self, *args):
        a = scratch(self, *args)
        buffers.append(weakref.ref(a.base))
        return a

    def spy_synthesizer(*args):
        synth = synthesizer(*args)
        synths.append(weakref.ref(synth))
        return synth

    monkeypatch.setattr(ens, "integrate_blocks", spy_integrate)
    monkeypatch.setattr(Synthesizer, "scratch", spy_scratch)
    monkeypatch.setattr(ens, "_synthesizer", spy_synthesizer)
    cfg = small_cfg(n_realizations=300)
    if run == "scan":
        scan_lambda(cfg, [0.1, 1.0, 10.0], runs_per_point=300)
    else:
        run_ensemble(cfg)
    chunks = 8 + 8 + 3
    assert len(held) == chunks * (1 if run == "scan" else 2)
    assert {len(a) for a in held} == {6 if run == "scan" else 3}
    # one address per kind of array: eta, nu, (eta0, nu0, factors,) states
    assert all(len({a.ctypes.data for a in arrays}) == 1 for arrays in zip(*held))
    held.clear()
    assert len(synths) == 1 and buffers
    assert all(ref() is None for ref in synths + buffers)


@pytest.mark.parametrize("scheme, lam", [(SchemeId.LIKE, None),
                                         (SchemeId.ETANU_OPTIMISED, [0.5, 2.0]),
                                         (SchemeId.CONVEX, None)])
def test_rk4_reads_the_colourings_rows_in_place(scheme, lam, monkeypatch):
    # the worker hands integrate_blocks views of its transform buffers,
    # rows of n samples cut to the window: every series in z or c, and eta
    # in z (numpy's convex pass alone mixes it into c); and it asks its
    # per-thread store for no time-major (n_phys, rows) series
    import slnoise.ensemble as ens

    monkeypatch.setattr(ens, "SYNTH_THREADS", 1)
    integrate, scratch = ens.integrate_blocks, Synthesizer.scratch
    seen, asked = [], []

    def spy_integrate(model, eta, nu, dt_half, cross=None, first=0,
                      scratch=None):
        synth = scratch.__self__
        z, c = (synth._buffer(name, synth.chunk_rows) for name in ("z", "c"))
        series = (eta, nu) + (cross[:2] if cross else ())
        seen.append((scheme is SchemeId.CONVEX or np.shares_memory(eta, z),
                     all(np.shares_memory(x, z) or np.shares_memory(x, c)
                         for x in series),
                     eta.shape[1] == synth.n_phys and eta.strides[0] == 16 * synth.grid.n))
        yield from integrate(model, eta, nu, dt_half, cross, first, scratch)

    def spy_scratch(self, name, shape, dtype=complex):
        asked.append((name, tuple(shape), np.dtype(dtype)))
        return scratch(self, name, shape, dtype)

    monkeypatch.setattr(ens, "integrate_blocks", spy_integrate)
    monkeypatch.setattr(Synthesizer, "scratch", spy_scratch)
    cfg = small_cfg(scheme=scheme, n_realizations=2 * CHUNK_ROWS + 3)
    if lam is None:
        run_ensemble(cfg)
    else:
        scan_lambda(cfg, lam, cfg.n_realizations)
    assert len(seen) == 3 and all(all(call) for call in seen)
    n_phys = cfg.noise_grid().n_phys
    assert asked and not any(shape[0] == n_phys and dtype == complex
                             for _, shape, dtype in asked)


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


# The whole-run memory gate, at two threads: long_window's and
# scheme_comparison's ensembles (like, beta 0.1, t_max 80 and 40) of
# 2 * 2 + 1 units and one realization more, past which the units in flight
# and so the peak no longer grow, and a scan of 10^4 points at
# lambda_scan's grid, 8 runs each.  The charge was measured at 2.6, 2.8
# and 2.3 times the tracemalloc peak with the native kernels (it counts
# numpy's colouring workspace, the white channels and c among it, which
# the native colouring does not hold) and at 1.1 and 1.1 times it with
# the colouring forced to numpy; RK4 reads the colouring's rows, so no
# chunk noise series is charged or held.  The scan colours one chunk of 8
# realizations, a 3 MiB workspace, so it runs with the native kernels only.
MEMORY_FACTOR = 3.0
MEMORY_SHAPES = {
    "long_window": lambda: run_ensemble(small_cfg(
        scheme=SchemeId.LIKE, grid=TimeGrid(dt=0.01, t_max=80.0),
        n_realizations=5 * 128 + 1, bath=BathParams(0.1, 25.0),
        stats_window=100)),
    "scheme_comparison": lambda: run_ensemble(small_cfg(
        scheme=SchemeId.LIKE, grid=TimeGrid(dt=0.01, t_max=40.0),
        n_realizations=5 * 128 + 1, bath=BathParams(0.1, 25.0),
        stats_window=100)),
    "scan": lambda: scan_lambda(small_cfg(
        grid=TimeGrid(dt=0.01, t_max=10.0), stats_window=100),
        np.logspace(-2, 1, 10**4), runs_per_point=8),
}


@pytest.mark.parametrize("shape, colouring", [
    ("long_window", "native"), ("long_window", "numpy"),
    ("scheme_comparison", "native"), ("scheme_comparison", "numpy"),
    ("scan", "native")])
def test_run_stays_within_its_memory_charge(shape, colouring, monkeypatch):
    import tracemalloc

    import slnoise.ensemble as ens
    from slnoise import _native

    from conftest import force_numpy

    if _native.library() is None:
        pytest.skip("the native library could not be built")
    if colouring == "numpy":
        force_numpy(monkeypatch, "sln_normals", "sln_mix")
    monkeypatch.setattr(ens, "SYNTH_THREADS", 2)
    charges = []
    check = ens.check_memory

    def charging(parts):
        charges.append(sum(parts.values()))
        check(parts)

    monkeypatch.setattr(ens, "check_memory", charging)
    tracemalloc.start()
    try:
        MEMORY_SHAPES[shape]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    [charge] = charges
    assert peak <= charge <= MEMORY_FACTOR * peak, (charge, peak)
