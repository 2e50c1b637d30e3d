"""Tests for the trajectory integrator and the dephasing oracle."""

import logging
import shutil

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from slnoise import (
    DIVERGENCE_THRESHOLD,
    FrequencyGrid,
    LZ_FINITE_WINDOW,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SystemModel,
    integrate_batch,
    integrate_blocks,
    integrate_trajectory,
    lz_asymptote,
    qnd_exact,
    qnd_kernel,
    qnd_sln_config,
    rho_to_state,
)
from slnoise import _native, build_kernel_table, dynamics, kernels
from slnoise.dynamics import BLOCK_STEPS, QndModel, rk4_bytes

from conftest import PROBES, force_numpy, kernel


def state_to_rho(state):
    """Inverse of :func:`rho_to_state`; accepts trailing state axis."""
    sx, sy, sz, tr = np.moveaxis(np.asarray(state, dtype=complex), -1, 0)
    return 0.5 * (
        np.multiply.outer(tr, np.eye(2, dtype=complex))
        + np.multiply.outer(sx, SIGMA_X)
        + np.multiply.outer(sy, SIGMA_Y)
        + np.multiply.outer(sz, SIGMA_Z)
    )


def test_state_round_trip():
    rng = np.random.default_rng(0)
    rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    back = state_to_rho(rho_to_state(rho))
    assert np.max(np.abs(back - rho)) < 1e-12


def test_state_components():
    assert np.allclose(rho_to_state(SIGMA_X), [2, 0, 0, 0])
    assert np.allclose(rho_to_state(SIGMA_Z), [0, 0, 2, 0])
    assert np.allclose(rho_to_state(np.eye(2)), [0, 0, 0, 2])


def _run_free(model, t_end, dt):
    n = int(round(t_end / dt))
    zeros = np.zeros(2 * n + 1)
    return integrate_trajectory(model, zeros, zeros, dt / 2.0)


def test_free_precession_about_z():
    # H = (eps/2) sigma_z rotates sx into sy at rate eps
    rho0 = 0.5 * (np.eye(2) + SIGMA_X)
    model = SystemModel(delta=0.0, epsilon=1.0, alpha=0.0, rho0=rho0)
    tr = _run_free(model, np.pi / 2.0, 1e-3)
    t_end = tr.t[-1]
    assert tr.sx[-1].real == pytest.approx(np.cos(t_end), abs=1e-9)
    assert tr.sy[-1].real == pytest.approx(np.sin(t_end), abs=1e-9)
    assert np.max(np.abs(tr.tr - 1.0)) < 1e-12


def test_free_precession_about_x():
    # the tunnelling term rotates sz into -sy at rate delta
    rho0 = 0.5 * (np.eye(2) + SIGMA_Z)
    model = SystemModel(delta=1.0, epsilon=0.0, alpha=0.0, rho0=rho0)
    tr = _run_free(model, np.pi / 2.0, 1e-3)
    t_end = tr.t[-1]
    assert tr.sz[-1].real == pytest.approx(np.cos(t_end), abs=1e-9)
    assert tr.sy[-1].real == pytest.approx(-np.sin(t_end), abs=1e-9)


def test_free_precession_full_period():
    rho0 = 0.5 * (np.eye(2) + SIGMA_X)
    model = SystemModel(delta=0.0, epsilon=1.0, alpha=0.0, rho0=rho0)
    tr = _run_free(model, 2.0 * np.pi, np.pi / 1000.0)
    assert tr.sx[-1].real == pytest.approx(1.0, rel=1e-9)


def test_rk4_order_of_convergence():
    rho0 = 0.5 * (np.eye(2) + SIGMA_Z)
    model = SystemModel(delta=1.0, epsilon=0.7, alpha=0.0, rho0=rho0)

    # exact linear-flow oracle for the noise-free Bloch equations
    from scipy.linalg import expm

    gen = np.array(
        [[0.0, -0.7, 0.0], [0.7, 0.0, -1.0], [0.0, 1.0, 0.0]]
    )
    exact = expm(gen) @ np.array([0.0, 0.0, 1.0])

    def error(dt):
        tr = _run_free(model, 1.0, dt)
        got = np.array([tr.sx[-1].real, tr.sy[-1].real, tr.sz[-1].real])
        return np.max(np.abs(got - exact))

    ratio = error(0.02) / error(0.01)
    assert 14.0 <= ratio <= 18.0


def test_trace_constant_without_nu():
    rng = np.random.default_rng(1)
    n = 200
    eta = rng.standard_normal(2 * n + 1)
    model = SystemModel(delta=1.0, epsilon=-1.0, alpha=0.3,
                        rho0=0.5 * (np.eye(2) + SIGMA_X))
    tr = integrate_trajectory(model, eta, np.zeros(2 * n + 1), 0.005)
    assert np.max(np.abs(tr.tr - 1.0)) == 0.0


def test_linearity_in_initial_state():
    rng = np.random.default_rng(2)
    n = 100
    eta = rng.standard_normal(2 * n + 1)
    nu = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
    rho_a = np.array([[0.7, 0.1], [0.2, 0.3]], dtype=complex)
    rho_b = np.array([[0.1, -0.4j], [0.3, 0.9]], dtype=complex)

    def run(rho0):
        model = SystemModel(1.0, -1.0, 0.2, rho0)
        states, _ = integrate_batch(model, eta, nu, 0.005)
        return states[0]

    lhs = run(0.25 * rho_a + 0.75 * rho_b)
    rhs = 0.25 * run(rho_a) + 0.75 * run(rho_b)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_trace_derivative_couples_to_sz():
    # d tr/dt = i * alpha * nu * sz at t = 0
    alpha, nu0, sz0 = 0.3, 0.8 - 0.2j, 1.0
    model = SystemModel(1.0, -1.0, alpha, 0.5 * (np.eye(2) + SIGMA_Z))
    dt = 1e-4
    nu = np.full(3, nu0, dtype=complex)
    tr = integrate_trajectory(model, np.zeros(3), nu, dt / 2.0)
    # forward difference is only first-order accurate in dt
    deriv = (tr.tr[1] - tr.tr[0]) / dt
    assert deriv == pytest.approx(1j * alpha * nu0 * sz0, rel=1e-3)


def test_divergence_flagging():
    # a huge constant nu drives exponential growth of (tr, sz)
    n = 4000
    nu = np.full(2 * n + 1, -1e3j)
    model = SystemModel(0.0, 0.0, 1.0, 0.5 * (np.eye(2) + SIGMA_Z))
    tr = integrate_trajectory(model, np.zeros(2 * n + 1), nu, 0.005)
    assert tr.diverged
    assert 0 < tr.diverged_step <= n
    assert np.abs(tr.tr[tr.diverged_step]) > DIVERGENCE_THRESHOLD


def test_batch_matches_single():
    rng = np.random.default_rng(3)
    n = 50
    eta = rng.standard_normal((3, 2 * n + 1))
    nu = rng.standard_normal((3, 2 * n + 1)) * 1j
    model = SystemModel(1.0, -1.0, 0.1, 0.5 * (np.eye(2) + SIGMA_X))
    states, div = integrate_batch(model, eta, nu, 0.01)
    for b in range(3):
        single = integrate_trajectory(model, eta[b], nu[b], 0.01)
        assert np.array_equal(states[b, :, 3], single.tr)
    assert np.all(div == -1)


def test_time_dependent_drive():
    # a linear sweep epsilon(t) = kappa*t starting at t0 < 0 integrates
    # the phase exactly like the constant case does at kappa*t frozen
    model = SystemModel(
        delta=0.0, epsilon=lambda t: 2.0 * t, alpha=0.0,
        rho0=0.5 * (np.eye(2) + SIGMA_X), t0=-1.0,
    )
    n = 2000
    zeros = np.zeros(2 * n + 1)
    tr = integrate_trajectory(model, zeros, zeros, 5e-4)
    # phase = int_{-1}^{1} 2 t dt = 0 -> sx returns to 1
    assert tr.t[0] == -1.0
    assert tr.sx[-1].real == pytest.approx(1.0, rel=1e-9)


def test_lz_asymptote_examples():
    assert lz_asymptote(1.0, np.pi / 2.0) == pytest.approx(2.0 / np.e - 1.0)
    # strong sweep -> no transition -> +1; slow sweep -> full transfer -> -1
    assert lz_asymptote(1.0, 1e6) == pytest.approx(1.0, abs=1e-5)
    assert lz_asymptote(1.0, 1e-3) == pytest.approx(-1.0, abs=1e-5)
    with pytest.raises(ValueError):
        lz_asymptote(1.0, 0.0)


def test_lz_finite_window_value():
    # deterministic sweep on the finite window [-5, 5] with kappa = 5
    model = SystemModel(
        delta=1.0, epsilon=lambda t: 5.0 * t, alpha=0.0,
        rho0=0.5 * (np.eye(2) + SIGMA_Z), t0=-5.0,
    )
    n = 10000
    zeros = np.zeros(2 * n + 1)
    tr = integrate_trajectory(model, zeros, zeros, 5e-4)
    assert tr.sz[-1].real == pytest.approx(LZ_FINITE_WINDOW, abs=5e-3)


# ------------------------------------------------------------- dephasing


def test_qnd_kernel_values():
    assert qnd_kernel(0.0) == pytest.approx(0.5)
    assert qnd_kernel(1.0) == pytest.approx(0.5 * np.exp(-2.0 + 1j))
    assert qnd_kernel(-1.0) == pytest.approx(0.5 * np.exp(-2.0 - 1j))


def test_qnd_cumulative_integrals_match_kernel():
    # c_r / c_i are antiderivatives of Re K / Im K starting at 0
    for t in (0.3, 1.0, 2.5):
        cr, _ = quad(lambda s: qnd_kernel(s).real, 0.0, t)
        ci, _ = quad(lambda s: qnd_kernel(s).imag, 0.0, t)
        assert QndModel.c_r(t) == pytest.approx(cr, rel=1e-9)
        assert QndModel.c_i(t) == pytest.approx(ci, rel=1e-9)
    assert QndModel.c_r(0.0) == pytest.approx(0.0, abs=1e-15)


def test_qnd_double_integral_matches():
    for t in (0.5, 2.0):
        d, _ = quad(QndModel.c_r, 0.0, t)
        assert QndModel.d_r(t) == pytest.approx(d, rel=1e-9)


def test_qnd_exact_shape_and_diagonal():
    m = QndModel()
    t = np.linspace(0.0, 3.0, 7)
    rho = qnd_exact(m, t)
    assert rho.shape == (7, 2, 2)
    assert np.allclose(rho[:, 0, 0], 0.5)
    assert np.allclose(rho[:, 1, 1], 0.5)
    assert np.allclose(rho[:, 1, 0], np.conj(rho[:, 0, 1]))
    assert np.allclose(rho[0], m.rho0)


def test_qnd_exact_against_ode_oracle():
    # independent oracle: integrate d rho01/dt = (i - 4 c_r(t)) rho01
    m = QndModel()
    t_eval = np.linspace(0.0, 10.0, 41)

    def rhs(t, y):
        dy = (1j - 4.0 * QndModel.c_r(t)) * (y[0] + 1j * y[1])
        return [dy.real, dy.imag]

    r0 = m.rho0[0, 1]
    sol = solve_ivp(rhs, (0.0, 10.0), [r0.real, r0.imag], t_eval=t_eval,
                    rtol=1e-11, atol=1e-13)
    oracle = sol.y[0] + 1j * sol.y[1]
    ours = qnd_exact(m, t_eval)[:, 0, 1]
    assert np.max(np.abs(ours - oracle)) < 1e-8


def test_qnd_sln_config_table_and_model():
    grid = FrequencyGrid(2048, 0.005)
    kernel, model = qnd_sln_config()
    table = build_kernel_table(grid, kernel)
    assert table.k_etaeta_t[0] == pytest.approx(0.5)
    # causal cross-kernel, even autocorrelation spectrum
    t = grid.times
    assert np.all(table.k_etanu_t[t < 0] == 0.0)
    assert model.delta == 0.0
    assert model.epsilon == -1.0
    assert model.alpha == 1.0
    assert model.rho0[0, 1] == 0.5 - 0.6j


def test_qnd_sln_config_builds_no_kernel_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("qnd_sln_config built a kernel table")

    monkeypatch.setattr(kernels, "build_kernel_table", refuse)
    monkeypatch.setattr(dynamics, "build_kernel_table", refuse, raising=False)
    kernel, _ = qnd_sln_config()
    assert kernel.func is qnd_kernel


def test_qnd_noise_free_coherence_rotates():
    # without noise the coherence just precesses: rho01(t) = rho01(0) e^{it}
    _, model = qnd_sln_config()
    n = 500
    zeros = np.zeros(2 * n + 1)
    tr = integrate_trajectory(model, zeros, zeros, 0.005)
    rho01 = 0.5 * (tr.sx - 1j * tr.sy)
    expect = model.rho0[0, 1] * np.exp(1j * tr.t)
    assert np.max(np.abs(rho01 - expect)) < 1e-9


def _streamed(model, eta_t, nu_t, dt_half, cross):
    """States of every step, first-divergence steps and block length of
    one integrate_blocks call, checking that each block's new_div names a
    step of that block and no column twice."""
    blocks = []
    first_div = np.full(np.size(cross[2]), -1)
    for start, states, new_div in integrate_blocks(model, eta_t, nu_t,
                                                   dt_half, cross):
        hit = new_div >= 0
        assert np.all(first_div[hit] < 0)
        assert np.all((new_div[hit] >= start) & (new_div[hit] < start + len(states)))
        first_div[hit] = new_div[hit]
        blocks.append(states.copy())
    return np.concatenate(blocks), first_div, len(blocks[0])


def test_factor_table_columns_equal_one_row_runs():
    # a table of L factor rows integrates L x rows columns in blocks cut
    # to the column-steps of a one-row block; every column must equal the
    # one-row call of its factor row, bitwise, also in the partial last
    # block and in columns that diverge
    rng = np.random.default_rng(11)
    n, rows, n_points = 300, 90, 4

    def series():
        return np.ascontiguousarray(
            rng.standard_normal((2 * n + 1, rows))
            + 1j * rng.standard_normal((2 * n + 1, rows)))

    eta, nu, eta0, nu0 = series(), series(), series(), series()
    factors = np.exp(rng.uniform(-6.0, 2.0, (n_points, rows)))
    model = SystemModel(1.0, -1.0, 2.0, 0.5 * (np.eye(2) + SIGMA_Z))
    wide, wide_div, wide_block = _streamed(model, eta, nu, 0.005,
                                           (eta0, nu0, factors))
    assert wide.shape == (n + 1, 4, n_points * rows)
    assert wide_block < BLOCK_STEPS and (n + 1) % wide_block
    assert 0 < np.sum(wide_div >= 0) < n_points * rows
    for p in range(n_points):
        one, one_div, one_block = _streamed(model, eta, nu, 0.005,
                                            (eta0, nu0, factors[p]))
        assert one_block == BLOCK_STEPS and (n + 1) % one_block
        cols = slice(p * rows, (p + 1) * rows)
        assert np.array_equal(wide[:, :, cols], one, equal_nan=True)
        assert np.array_equal(wide_div[cols], one_div)


# ------------------------------------------------------ native kernel

needs_compiler = pytest.mark.skipif(shutil.which(_native._COMPILER) is None,
                                    reason="no C compiler to build the kernel")


def _blocks(model, eta_t, nu_t, cross):
    return [(start, states.copy(), new_div)
            for start, states, new_div in integrate_blocks(
                model, eta_t, nu_t, 0.005, cross)]


def _numpy_kernel_blocks(monkeypatch, *args):
    with monkeypatch.context() as m:
        force_numpy(m, "sln_rk4")
        return _blocks(*args)


def _assert_same_bits(a, b):
    assert len(a) == len(b)
    for (s0, x, d0), (s1, y, d1) in zip(a, b):
        assert s0 == s1
        assert x.dtype == y.dtype == complex
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
        assert d0.dtype == d1.dtype and np.array_equal(d0, d1)


def _noise(rng, n, rows, scale=1.0):
    return [scale * (rng.standard_normal((2 * n + 1, rows))
                     + 1j * rng.standard_normal((2 * n + 1, rows)))
            for _ in range(4)]


@needs_compiler
@pytest.mark.parametrize("table", [None, "row", "table"])
@pytest.mark.parametrize("alpha, scale", [(0.3, 2.0), (40.0, 30.0)])
def test_native_kernel_bitwise_equals_numpy_kernel(table, alpha, scale,
                                                   monkeypatch):
    # every yielded state and new_div, by its bits; at alpha = 40 the
    # trajectories diverge through inf into nan
    assert kernel("sln_rk4") is not None
    rng = np.random.default_rng(7)
    n, rows = 260, 29
    eta, nu, eta0, nu0 = _noise(rng, n, rows, scale)
    shape = {"row": rows, "table": (3, rows)}.get(table)
    cross = None if table is None else (eta0, nu0, rng.uniform(0.05, 20.0, shape))
    model = SystemModel(lambda t: 1.0 + 0.1 * t, -1.0, alpha,
                        np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]]))
    ref = _numpy_kernel_blocks(monkeypatch, model, eta, nu, cross)
    _assert_same_bits(ref, _blocks(model, eta, nu, cross))
    states = np.concatenate([s for _, s, _ in ref])
    if alpha > 1:
        assert np.isnan(states).any() and np.isinf(states).any()
        assert any((d >= 0).any() for _, _, d in ref)
    else:
        assert np.isfinite(states).all()


def _joined(blocks, n_points):
    """The states of all blocks, (steps, 4, n_points, rows), and each
    column's first divergence, (n_points, rows)."""
    states = np.concatenate([s for _, s, _ in blocks])
    first_div = np.max([d for _, _, d in blocks], axis=0)
    return (states.reshape(len(states), 4, n_points, -1),
            first_div.reshape(n_points, -1))


@needs_compiler
def test_native_kernel_independent_of_slab_count(monkeypatch):
    # 13 x 37 columns, the 37 trajectories integrated in 1, 2 and 5 slabs
    # apart, none of equal width, as an ensemble integrates each chunk of
    # its realizations apart and run_coherence realization 0 alone: every
    # column has the bits of the numpy kernel's run of all of them
    assert kernel("sln_rk4") is not None
    rng = np.random.default_rng(8)
    eta, nu, eta0, nu0 = _noise(rng, 150, 37, 3.0)
    cross = (eta0, nu0, np.exp(rng.uniform(-4.0, 2.0, (13, 37))))
    model = SystemModel(1.0, -1.0, 2.0, 0.5 * (np.eye(2) + SIGMA_Z))
    ref = _numpy_kernel_blocks(monkeypatch, model, eta, nu, cross)
    assert any((d >= 0).any() for _, _, d in ref)
    want, want_div = _joined(ref, 13)
    for slabs in (1, 2, 5):
        cuts = [37 * s // slabs for s in range(slabs + 1)]
        for a, b in zip(cuts[:-1], cuts[1:]):
            eta_s, nu_s, eta0_s, nu0_s, factor = (
                np.ascontiguousarray(x[:, a:b]) for x in (eta, nu, eta0, nu0, cross[2]))
            got, got_div = _joined(_blocks(model, eta_s, nu_s, (eta0_s, nu0_s, factor)), 13)
            assert np.array_equal(got.view(np.uint64),
                                  want[..., a:b].copy().view(np.uint64))
            assert np.array_equal(got_div, want_div[:, a:b])


@pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
@pytest.mark.parametrize("n_points", [1, 13])
def test_rk4_bytes_bounds_what_integrate_blocks_allocates(native, n_points,
                                                          monkeypatch):
    # rk4_bytes is the numpy kernel's peak, and at least the native one's
    import tracemalloc

    if native:
        if shutil.which(_native._COMPILER) is None:
            pytest.skip("no C compiler to build the kernel")
        assert kernel("sln_rk4") is not None
    else:
        force_numpy(monkeypatch, "sln_rk4")
    rng = np.random.default_rng(9)
    n, rows = 400, 64
    eta, nu, eta0, nu0 = _noise(rng, n, rows)
    cross = (eta0, nu0, rng.uniform(0.5, 2.0, (n_points, rows)))
    model = SystemModel(1.0, -1.0, 0.1, 0.5 * (np.eye(2) + SIGMA_Z))
    tracemalloc.start()
    try:
        for _ in integrate_blocks(model, eta, nu, 0.005, cross):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = rk4_bytes(rows, n, n_points)
    assert peak <= bound
    if not native:
        assert peak >= 0.97 * bound


def _fallbacks(caplog):
    """The messages of the fallback records on the slnoise logger."""
    return [r.getMessage() for r in caplog.records
            if r.name == "slnoise" and "falls back to numpy" in r.getMessage()]


def _fallback_is_silent(monkeypatch, caplog, reason):
    """The kernel is not built, and integrate_blocks runs the numpy
    kernel without a warning; one INFO record on the slnoise logger gives
    the ``reason``."""
    import warnings

    caplog.set_level(logging.INFO, logger="slnoise")
    rng = np.random.default_rng(10)
    eta, nu, _, _ = _noise(rng, 20, 5)
    model = SystemModel(1.0, -1.0, 0.3, 0.5 * (np.eye(2) + SIGMA_Z))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel("sln_rk4") is None
        got = _blocks(model, eta, nu, None)
    _assert_same_bits(_numpy_kernel_blocks(monkeypatch, model, eta, nu, None), got)
    assert _fallbacks(caplog) == [f"sln_rk4 falls back to numpy: {reason}"]


def test_native_kernel_falls_back_without_compiler(rebuild, monkeypatch, caplog):
    monkeypatch.setattr(_native, "_COMPILER", "no-such-compiler-for-slnoise")
    _fallback_is_silent(monkeypatch, caplog, "no library: no compiler "
                        "'no-such-compiler-for-slnoise' on PATH")


@needs_compiler
def test_native_kernel_falls_back_without_writable_cache(rebuild, monkeypatch,
                                                        tmp_path, caplog):
    # directories under a regular file cannot be created, even by root
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(_native, "_cache_dirs",
                        lambda: (str(blocker / "a"), str(blocker / "b")))
    _fallback_is_silent(monkeypatch, caplog,
                        "no library: no private, writable cache directory "
                        f"among {blocker / 'a'}, {blocker / 'b'}")


@needs_compiler
def test_native_kernel_builds_once_into_a_private_cache(rebuild, monkeypatch,
                                                        tmp_path):
    # the first usable directory receives one library, renamed into place
    # from a temporary name; of the older builds, the three most recent
    # stay beside it, so that checkouts of other sources keep theirs; a
    # second process would load it as it is
    import os

    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    older = ["native-a.so", "native-b.so", "native-c.so", "native-d.so", "native-e.so"]
    for age, name in enumerate(older):
        (cache / name).write_bytes(b"")
        os.utime(cache / name, ns=(0, 10**18 - 10**9 * (age + 1)))
    (cache / "other.so").write_bytes(b"")
    monkeypatch.setattr(_native, "_cache_dirs", lambda: (str(cache),))
    assert kernel("sln_rk4") is not None
    (lib,) = set(os.listdir(cache)) - set(older) - {"other.so"}
    assert lib.startswith("native-") and lib.endswith(".so")
    assert sorted(os.listdir(cache)) == sorted(older[:3] + ["other.so", lib])
    assert os.stat(cache).st_mode & 0o077 == 0
    built = os.stat(cache / lib).st_mtime_ns
    _native.library.cache_clear()
    _native.kernel.cache_clear()
    assert kernel("sln_rk4") is not None
    assert sorted(os.listdir(cache)) == sorted(older[:3] + ["other.so", lib])
    assert os.stat(cache / lib).st_mtime_ns == built


@needs_compiler
def test_native_kernel_falls_back_when_it_does_not_match_numpy(rebuild,
                                                              monkeypatch,
                                                              caplog):
    monkeypatch.setattr(dynamics, "_probe", lambda rk4: False)
    _fallback_is_silent(monkeypatch, caplog, "probe refused")


@needs_compiler
def test_loading_every_kernel_logs_no_fallback(rebuild, caplog):
    caplog.set_level(logging.INFO, logger="slnoise")
    for symbol in PROBES:
        assert kernel(symbol) is not None, symbol
    assert _fallbacks(caplog) == []


def test_source_abi_and_probes_name_the_same_kernels():
    # a kernel removed from one of the three places only fails here
    import re

    defined = re.findall(r"^void (sln_\w+)\(", _native._SOURCE.read_text(),
                         flags=re.MULTILINE)
    assert set(defined) == set(_native._ARGTYPES) == set(PROBES)
    assert set(PROBES) == {"sln_rk4", "sln_normals", "sln_mix", "sln_sums",
                           "sln_fft"}


@needs_compiler
def test_failed_build_logs_the_tail_of_the_compiler_errors(rebuild, monkeypatch,
                                                           tmp_path, caplog):
    # a source that uses an undeclared name: the last lines of gcc's
    # errors, which name it, are the reason, and no file is left behind
    import os

    broken = tmp_path / "_native.c"
    broken.write_text(_native._SOURCE.read_text()
                      + "\nint sln_broken(void) { return no_such_name; }\n")
    monkeypatch.setattr(_native, "_SOURCE", broken)
    monkeypatch.setattr(_native, "_cache_dirs", lambda: (str(tmp_path / "cache"),))
    caplog.set_level(logging.INFO, logger="slnoise")
    assert kernel("sln_sums") is None
    (message,) = _fallbacks(caplog)
    head = "sln_sums falls back to numpy: no library: the build failed: "
    assert message.startswith(head)
    tail = message[len(head):].splitlines()
    assert 1 <= len(tail) <= _native._TAIL_LINES
    assert any("error:" in line and "no_such_name" in line for line in tail)
    assert os.listdir(tmp_path / "cache") == []


def test_kernel_source_ships_with_the_package():
    from pathlib import Path

    assert _native._SOURCE.is_file()
    assert _native._SOURCE.parent == Path(dynamics.__file__).parent
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert '"_native.c"' in pyproject.read_text()


@needs_compiler
def test_native_kernel_decides_divergence_as_np_abs_at_the_threshold():
    # np.abs puts this modulus one ulp above the threshold and libm's hypot
    # at it; without coupling, noise or drives the state stays put, and
    # both kernels must flag it at step 1
    rk4 = kernel("sln_rk4")
    assert rk4 is not None
    z = 765406082731.0397 + 643547611694.9894j
    nh = 2 * 3 + 1
    still = np.zeros((nh, 1), dtype=complex)
    run = dynamics._Run(np.array([z, 0, 0, 1]), 0.0, 0.05, np.zeros(nh),
                        np.zeros(nh), still, still, None, 4)
    ref = list(dynamics._numpy_blocks(run))
    assert [d.tolist() for _, _, d in ref] == [[1]]
    _assert_same_bits(ref, list(dynamics._native_blocks(run, rk4)))
