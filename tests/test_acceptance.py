"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Shared conventions: the two-level model has tunnelling 1, bias -1,
coupling 0.05, hard spectral cutoff 25, integration step 0.01 unless a
criterion says otherwise.  Heavy ensemble runs are sized to finish on a
desktop within the stated budgets.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from slnoise import (
    BathParams,
    DivisionByZeroSpectrum,
    QndModel,
    RunConfig,
    SIGMA_Z,
    SchemeId,
    SystemModel,
    TimeGrid,
    FrequencyGrid,
    build_kernel_table,
    estimate_correlations,
    integrate_trajectory,
    kernel_time,
    make_filters,
    qnd_exact,
    qnd_sln_config,
    run_coherence,
    run_ensemble,
    scan_lambda,
    seed_for,
    sample_white,
    synthesize,
    verify_constraint,
)
from slnoise.kernels import _pv_cutoff_integral

RHO0_UP = 0.5 * (np.eye(2) + SIGMA_Z)
MODEL = SystemModel(delta=1.0, epsilon=-1.0, alpha=0.05, rho0=RHO0_UP)
OMEGA_C = 25.0


def report(num, ok, detail):
    print(f"\nCRITERION {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_filter_constraints():
    worst = 0.0
    for beta in (0.1, 1.0, 10.0):
        table = build_kernel_table(FrequencyGrid(4096, 0.005),
                                   BathParams(beta, OMEGA_C))
        scale = np.max(np.abs(table.r_w))
        interior = table.k_etaeta_w > 0
        for scheme in (SchemeId.LIKE, SchemeId.REDUCED,
                       SchemeId.NU_OPTIMISED, SchemeId.ETANU_OPTIMISED):
            fs = make_filters(scheme, table, gamma=0.0)
            res = verify_constraint(fs, table).residual
            worst = max(worst, np.max(np.abs(res[interior])) / scale)
    report(1, worst <= 1e-10,
           f"max relative constraint residual {worst:.2e} (limit 1e-10)")


def test_criterion_02_kernel_symmetries_and_pv_oracle():
    bath = BathParams(1.0, OMEGA_C)
    table = build_kernel_table(FrequencyGrid(4096, 0.005), bath)
    from slnoise import flip_freq

    k = table.k_etaeta_w
    even_defect = np.max(np.abs(k - flip_freq(k))) / np.max(np.abs(k))
    kn = table.k_etanu_w
    herm_defect = np.max(np.abs(kn + np.conj(flip_freq(kn)))) / np.max(np.abs(kn))
    sym_ok = even_defect <= 1e-12 and herm_defect <= 1e-12

    rng = np.random.default_rng(7)
    ws = rng.uniform(0.05, 0.95, size=50) * OMEGA_C
    ours = _pv_cutoff_integral(ws, bath)
    worst = 0.0
    for w, val in zip(ws, ours):
        oracle, _ = quad(
            lambda x: x * x * (1 + (x / OMEGA_C) ** 2) ** -2 / (x + w),
            0.0, OMEGA_C, weight="cauchy", wvar=w, limit=200,
        )
        worst = max(worst, abs(val - oracle) / abs(oracle))
    report(2, sym_ok and worst <= 1e-8,
           f"symmetry defects ({even_defect:.1e}, {herm_defect:.1e}); "
           f"PV vs adaptive oracle max rel err {worst:.2e}")


def test_criterion_03_correlation_recovery():
    bath = BathParams(1.0, OMEGA_C)
    grid = TimeGrid(dt=0.01, t_max=5.0)   # padded FFT size 1024
    assert grid.n == 1024
    table = build_kernel_table(grid.freq(), bath)
    target_ee = None
    worst = {}
    for scheme in (SchemeId.LIKE, SchemeId.ETANU_OPTIMISED):
        fs = make_filters(scheme, table)
        # each scheme's streams are keyed by its place in SchemeId, the
        # same in every process (str hashes are salted per process)
        group = (list(SchemeId).index(scheme),)
        pairs = [synthesize(fs, grid, seed_for(0, i, group)) for i in range(2000)]
        est = estimate_correlations(pairs, max_lag=2.0)
        if target_ee is None:
            target_ee = kernel_time(est.lags, bath, "etaeta")
            target_en = kernel_time(est.lags, bath, "etanu")
        pulls = [
            np.max(np.abs(est.est_etaeta - target_ee) / est.se_etaeta),
            np.max(np.abs(est.est_etanu - target_en) / est.se_etanu),
            np.max(np.abs(est.est_nunu) / est.se_nunu),
        ]
        worst[scheme.value] = max(pulls)
    bad = max(worst.values())
    report(3, bad <= 5.0,
           "empirical correlations vs targets, worst pull per scheme: "
           + ", ".join(f"{k}={v:.2f}" for k, v in worst.items())
           + " (limit 5 SE)")


def test_criterion_04_qnd_oracle_match():
    kernel, model = qnd_sln_config()
    grid = TimeGrid(dt=0.01, t_max=4.0)
    devs = {}
    for n in (10_000, 50_000):
        cfg = RunConfig(
            scheme=SchemeId.ETANU_OPTIMISED, model=model, grid=grid,
            n_realizations=n, master_seed=3, kernel=kernel, lam=0.5,
        )
        t, r01, _ = run_coherence(cfg)
        exact = qnd_exact(QndModel(), t)[..., 0, 1]
        devs[n] = np.max(np.abs(r01 - exact))
    ok = devs[10_000] <= 0.05 and devs[50_000] <= 0.02
    report(4, ok,
           f"stochastic vs exact coherence: max dev {devs[10_000]:.4f} "
           f"at 1e4 runs (limit 0.05), {devs[50_000]:.4f} at 5e4 (limit 0.02)")


def test_criterion_05_regularised_inverse_stabilisation():
    bath = BathParams(1.0, OMEGA_C)
    grid = TimeGrid(dt=0.01, t_max=5.0)
    table = build_kernel_table(grid.freq(), bath)

    # the blow-up of the unfiltered inverse grows with the window length,
    # so the amplitude comparison uses a longer window than the leakage
    # estimate below
    amp_grid = TimeGrid(dt=0.01, t_max=10.0)
    amp_table = build_kernel_table(amp_grid.freq(), bath)

    def mean_abs_nu(gamma):
        fs = make_filters(SchemeId.CONSTRAINED, amp_table, gamma=gamma)
        vals = [np.mean(np.abs(synthesize(fs, amp_grid, s).nu_t))
                for s in range(100)]
        return float(np.mean(vals))

    amp = {g: mean_abs_nu(g) for g in (0.001, 0.01)}
    stabilised = amp[0.001] >= 2.0 * amp[0.01]

    with pytest.raises(DivisionByZeroSpectrum):
        make_filters(SchemeId.CONSTRAINED, table, gamma=0.0)

    # acausal leakage of the estimated cross-correlation, isolated from
    # the gamma-independent cutoff-truncation baseline with common random
    # numbers against a tiny-gamma reference
    def est(gamma):
        fs = make_filters(SchemeId.CONSTRAINED, table, gamma=gamma)
        pairs = [synthesize(fs, grid, s) for s in range(200)]
        return estimate_correlations(pairs, max_lag=0.5)

    ref = est(1e-6)
    neg = ref.lags < 0
    leak = [
        float(np.mean(np.abs(est(g).est_etanu[neg] - ref.est_etanu[neg])))
        for g in (0.001, 0.01, 0.1)
    ]
    monotone = leak[0] < leak[1] < leak[2]
    report(5, stabilised and monotone,
           f"mean|nu| {amp[0.001]:.1f} at gamma=0.001 vs {amp[0.01]:.1f} at "
           f"0.01 (>=2x); gamma=0 rejected; acausal leakage "
           f"{leak[0]:.3g} < {leak[1]:.3g} < {leak[2]:.3g}")


def test_criterion_06_scheme_ranking_high_temperature():
    bath = BathParams(0.1, OMEGA_C)
    grid = TimeGrid(dt=0.01, t_max=80.0)
    final_var = {}
    for scheme in (SchemeId.LIKE, SchemeId.NU_OPTIMISED,
                   SchemeId.ETANU_OPTIMISED):
        cfg = RunConfig(scheme=scheme, model=MODEL, grid=grid,
                        n_realizations=10_000, master_seed=11, bath=bath)
        stats = run_ensemble(cfg)
        assert stats.diverged[-1] == 0
        final_var[scheme.value] = float(stats.var_tr[-1])
    v_like = final_var["like"]
    v_nu = final_var["nu-optimised"]
    v_both = final_var["etanu-optimised"]
    ordered = v_both <= v_nu <= v_like
    margin = v_like / v_both
    report(6, ordered and margin >= 10.0,
           f"final-window trace variance like={v_like:.3g}, "
           f"nu-opt={v_nu:.3g}, etanu-opt={v_both:.3g}; "
           f"ratio like/etanu-opt = {margin:.1f} (>=10 required)")


def test_criterion_07_lambda_scan_optimum():
    bath = BathParams(1.0, OMEGA_C)
    cfg = RunConfig(scheme=SchemeId.ETANU_OPTIMISED, model=MODEL,
                    grid=TimeGrid(dt=0.01, t_max=10.0),
                    n_realizations=1000, master_seed=7, bath=bath)
    lams = np.logspace(np.log10(0.01), np.log10(10.0), 13)
    scan = scan_lambda(cfg, lams, runs_per_point=1000)
    best = scan.best_lambda
    report(7, 0.2 <= best <= 1.0,
           f"rescaling scan argmin lambda = {best:.3f} (required in [0.2, 1.0])")


def test_criterion_08_equilibrium_relaxation():
    # Faithful run at the stated parameters.  The criterion expects the
    # z-spin to sit within 0.1 of the equilibrium value 0.05 by t = 15,
    # but the model's own relaxation time at coupling 0.05 is ~10-20, so
    # the envelope is still near 0.2 there (it does reach the band by
    # t ~ 25).  The window is kept honest rather than widened; see the
    # repository notes for the rate analysis.
    bath = BathParams(0.1, OMEGA_C)
    cfg = RunConfig(scheme=SchemeId.ETANU_OPTIMISED, model=MODEL,
                    grid=TimeGrid(dt=0.01, t_max=15.0),
                    n_realizations=10_000, master_seed=21, bath=bath)
    stats = run_ensemble(cfg)
    w = cfg.stats_window
    sz_final = float(np.mean(stats.mean_sz[-w:].real))
    sz_ok = abs(sz_final - 0.05) <= 0.1
    pull = np.abs(stats.mean_tr - 1.0) / np.maximum(stats.se_tr, 1e-300)
    tr_ok = bool(np.max(pull) <= 5.0)
    report(8, sz_ok and tr_ok,
           f"final-window <sigma_z> = {sz_final:.4f} (target 0.05 +- 0.1); "
           f"max |<tr>-1|/SE = {np.max(pull):.2f} (limit 5)")


def test_criterion_09_deterministic_integrator():
    model = SystemModel(delta=1.0, epsilon=0.7, alpha=0.0, rho0=RHO0_UP)
    gen = np.array([[0.0, -0.7, 0.0], [0.7, 0.0, -1.0], [0.0, 1.0, 0.0]])
    exact = expm(gen) @ np.array([0.0, 0.0, 1.0])

    def error(dt):
        n = int(round(1.0 / dt))
        zeros = np.zeros(2 * n + 1)
        tr = integrate_trajectory(model, zeros, zeros, dt / 2.0)
        got = np.array([tr.sx[-1].real, tr.sy[-1].real, tr.sz[-1].real])
        return np.max(np.abs(got - exact))

    ratio = error(0.02) / error(0.01)
    order_ok = 14.0 <= ratio <= 18.0

    # trace conservation with the trace-driving noise switched off
    rng_grid = TimeGrid(dt=0.01, t_max=2.0)
    white = sample_white(rng_grid, 0, 1)[0]
    noisy = SystemModel(delta=1.0, epsilon=-1.0, alpha=0.3, rho0=RHO0_UP)
    n = 200
    tr = integrate_trajectory(noisy, white[: 2 * n + 1],
                              np.zeros(2 * n + 1), 0.005)
    trace_ok = bool(np.max(np.abs(tr.tr - 1.0)) == 0.0)
    report(9, order_ok and trace_ok,
           f"halving-step error ratio {ratio:.2f} (16 +- 2); trace drift "
           f"with zero trace-noise {np.max(np.abs(tr.tr - 1.0)):.1e}")


def test_criterion_10_delta_scheme_pathology():
    # Faithful run of the delta scheme at the standard parameters.  The
    # criterion expects the trace variance to pass 1e3 before t = 1; the
    # measured growth is the alpha^2-rate lognormal spreading of the
    # trace, which is orders of magnitude slower at coupling 0.05.  The
    # test is kept honest rather than loosened; see the repository notes
    # for the quantitative analysis.
    bath = BathParams(0.1, OMEGA_C)
    cfg = RunConfig(scheme=SchemeId.DELTA, model=MODEL,
                    grid=TimeGrid(dt=0.01, t_max=1.0),
                    n_realizations=2000, master_seed=2, bath=bath)
    stats = run_ensemble(cfg)
    peak = float(np.max(stats.var_tr))
    report(10, peak > 1e3,
           f"delta-scheme peak trace variance on [0, 1] = {peak:.3g} "
           f"(criterion expects > 1e3)")
