"""Tests for white-noise sampling and coloured-noise synthesis."""

import ctypes
import shutil
from dataclasses import replace

import numpy as np
import pytest

from slnoise import (
    BathParams,
    ConfigError,
    FilterSet,
    FilterStructure,
    FrequencyGrid,
    GridMismatch,
    InsufficientSample,
    SchemeId,
    SlnoiseError,
    Synthesizer,
    TimeGrid,
    ZeroComponent,
    build_kernel_table,
    estimate_correlations,
    expected_nu_power,
    kernel_time,
    make_filters,
    sample_white,
    synthesize,
    synthesize_batch,
    synthesize_from_white,
)
from slnoise import _native, dynamics, noise
from slnoise.ensemble import seed_for
from slnoise.noise import CHUNK_ROWS, _lagged_products, chunk_rows, workspace_bytes

BATH = BathParams(beta=1.0, omega_c=25.0)
GRID = TimeGrid(dt=0.01, t_max=5.0)


@pytest.fixture(scope="module")
def table():
    return build_kernel_table(GRID.freq(), BATH)


def test_sample_white_deterministic():
    a = sample_white(GRID, 3, 4)
    b = sample_white(GRID, 3, 4)
    assert np.array_equal(a, b)
    c = sample_white(GRID, 4, 4)
    assert not np.array_equal(a, c)


def test_sample_white_moments():
    w = sample_white(GRID, 0, 4)
    assert w.shape == (4, GRID.n)
    # discrete variance 1/dt; the variance estimate itself has relative
    # standard error sqrt(2/n)
    var = w.var()
    n = w.size
    assert var == pytest.approx(1.0 / GRID.dt, rel=6.0 * np.sqrt(2.0 / n))
    assert abs(w.mean()) < 5.0 / np.sqrt(n * GRID.dt)


def test_zero_white_gives_zero_noise(table):
    fs = make_filters(SchemeId.LIKE, table)
    white = np.zeros((4, GRID.n))
    pair = synthesize_from_white(fs, GRID, white)
    assert np.all(pair.eta_t == 0.0)
    assert np.all(pair.nu_t == 0.0)


def test_delta_scheme_nu_is_bare_white_channel(table):
    # the delta scheme passes the third/second channels through unfiltered
    # into nu: g2 = 1, g1 = 0
    fs = make_filters(SchemeId.DELTA, table)
    white = sample_white(GRID, 5, 4)
    pair = synthesize_from_white(fs, GRID, white)
    expect = (white[2] + 1j * white[1])[: GRID.n_phys]
    assert np.max(np.abs(pair.nu_t - expect)) < 1e-9 * np.max(np.abs(expect))


def test_synthesize_grid_mismatch(table):
    fs = make_filters(SchemeId.LIKE, table)
    with pytest.raises(GridMismatch):
        synthesize(fs, TimeGrid(dt=0.02, t_max=5.0), 0)


def test_synthesize_deterministic(table):
    fs = make_filters(SchemeId.LIKE, table)
    a = synthesize(fs, GRID, 9)
    b = synthesize(fs, GRID, 9)
    assert np.array_equal(a.eta_t, b.eta_t)
    assert np.array_equal(a.nu_t, b.nu_t)
    assert a.eta_t.shape == (GRID.n_phys,)


def test_nu_power_matches_expectation(table):
    fs = make_filters(SchemeId.LIKE, table)
    pairs = [synthesize(fs, GRID, s) for s in range(200)]
    per = np.array([np.mean(np.abs(p.nu_t) ** 2) for p in pairs])
    se = per.std(ddof=1) / np.sqrt(per.size)
    assert abs(per.mean() - expected_nu_power(fs)) < 5.0 * se


class TestRealizedCorrelations:
    @pytest.fixture(scope="class")
    @staticmethod
    def est():
        tab = build_kernel_table(GRID.freq(), BATH)
        fs = make_filters(SchemeId.ETANU_OPTIMISED, tab)
        pairs = [synthesize(fs, GRID, s) for s in range(400)]
        return estimate_correlations(pairs, max_lag=0.5)

    def _check(self, lags, est, se, target, max_pull=5.0):
        pull = np.abs(est - target) / np.maximum(se, 1e-30)
        assert np.max(pull) < max_pull

    def test_etaeta_matches_kernel(self, est):
        target = kernel_time(est.lags, BATH, "etaeta")
        self._check(est.lags, est.est_etaeta, est.se_etaeta, target)

    def test_etanu_matches_kernel(self, est):
        target = kernel_time(est.lags, BATH, "etanu")
        self._check(est.lags, est.est_etanu, est.se_etanu, target)

    def test_etanu_causal(self, est):
        # negative lags probe acausal leakage; at gamma = 0 it is pure
        # sampling noise
        neg = est.lags < 0
        pull = np.abs(est.est_etanu[neg]) / est.se_etanu[neg]
        assert np.max(pull) < 5.0

    def test_nunu_vanishes(self, est):
        pull = np.abs(est.est_nunu) / est.se_nunu
        assert np.max(pull) < 5.0


def test_estimate_requires_two_realizations(table):
    fs = make_filters(SchemeId.LIKE, table)
    with pytest.raises(InsufficientSample):
        estimate_correlations([synthesize(fs, GRID, 0)], max_lag=0.5)


@pytest.mark.parametrize("max_lag", [-1.0, np.nan, np.inf, 5.0 + 0.006])
def test_estimate_refuses_lag_outside_the_window(table, max_lag):
    fs = make_filters(SchemeId.LIKE, table)
    pairs = synthesize_batch(fs, GRID, [0, 1])
    with pytest.raises(ConfigError, match="max_lag"):
        estimate_correlations(pairs, max_lag=max_lag)
    assert estimate_correlations(pairs, max_lag=5.0).lags[-1] == pytest.approx(5.0)


@pytest.mark.parametrize("lam", [1e-300, 1e300])
def test_estimate_refuses_overflowed_noise(lam):
    # the rescale factor (or its inverse) of about 1e150 makes products
    # of about 1e300, whose squares overflow
    grid = TimeGrid(dt=0.01, t_max=0.5)
    fs = make_filters(SchemeId.ETANU_OPTIMISED, build_kernel_table(grid.freq(), BATH))
    pairs = synthesize_batch(fs, grid, [0, 1, 2, 3], lam)
    with pytest.raises(SlnoiseError, match="not finite"):
        estimate_correlations(pairs, max_lag=0.1)


def test_acausal_leakage_grows_with_regularisation(table):
    # the regularised spectral inverse trades constraint accuracy for noise
    # power: larger gamma leaks more cross-correlation into negative lags.
    # The hard-cutoff truncation contributes a gamma-independent acausal
    # baseline, so the gamma-induced part is isolated with common random
    # numbers against a tiny-gamma reference.
    def acausal(gamma):
        fs = make_filters(SchemeId.CONSTRAINED, table, gamma=gamma)
        pairs = [synthesize(fs, GRID, s) for s in range(200)]
        return estimate_correlations(pairs, max_lag=0.5)

    ref = acausal(1e-6)
    neg = ref.lags < 0
    leak = {
        gamma: np.mean(np.abs(acausal(gamma).est_etanu[neg] - ref.est_etanu[neg]))
        for gamma in (0.01, 0.1)
    }
    assert leak[0.1] > 2.0 * leak[0.01]


def test_stationarity(table):
    # the per-origin estimate over the first half of the window agrees
    # with the second half within combined errors
    fs = make_filters(SchemeId.LIKE, table)
    pairs = [synthesize(fs, GRID, s) for s in range(300)]
    half = GRID.n_phys // 2
    first = [replace(p, eta_t=p.eta_t[:half], nu_t=p.nu_t[:half]) for p in pairs]
    second = [replace(p, eta_t=p.eta_t[half:], nu_t=p.nu_t[half:]) for p in pairs]
    e1 = estimate_correlations(first, max_lag=0.2)
    e2 = estimate_correlations(second, max_lag=0.2)
    pull = np.abs(e1.est_etaeta - e2.est_etaeta) / np.hypot(
        e1.se_etaeta, e2.se_etaeta
    )
    assert np.max(pull) < 5.0


def _fill(fs, grid, lams, seeds):
    """(eta, nu, eta0, nu0, factors) of a fill of the seeds at the
    strengths ``lams``, if set; unrescaled, only eta and nu are written."""
    series = [np.empty((grid.n_phys, len(seeds)), dtype=complex) for _ in range(4)]
    factors = np.empty((1 if lams is None else len(lams), len(seeds)))
    Synthesizer(fs, grid, lams).fill(seeds, series[0], series[1],
                                     (series[2], series[3], factors))
    return (*series, factors)


def test_rescaling_preserves_product_and_sets_ratio(table):
    fs = make_filters(SchemeId.ETANU_OPTIMISED, table)
    lam = 0.5
    seeds = [12, 13]
    base_eta, base_nu, *_ = _fill(fs, GRID, None, seeds)
    eta, nu, eta0, nu0, factors = _fill(fs, GRID, [lam], seeds)
    scaled_eta0, scaled_nu0 = factors * eta0, nu0 / factors
    # product of the component pair is invariant sample by sample
    assert np.allclose(eta0 * nu0, scaled_eta0 * scaled_nu0, rtol=1e-12)
    ratio = np.sum(np.abs(scaled_nu0), axis=0) / np.sum(np.abs(scaled_eta0), axis=0)
    assert ratio == pytest.approx([lam, lam], rel=1e-10)
    assert synthesize(fs, GRID, 12, lam=lam).lambda_applied == lam
    # the non-component parts are untouched: with the unscaled pair they
    # sum to the unrescaled noise
    assert np.allclose(base_eta, eta + eta0, rtol=1e-12)
    assert np.allclose(base_nu, nu + nu0, rtol=1e-12)


def test_convex_rescaling_undefined(table):
    fs = make_filters(SchemeId.CONVEX, table)
    with pytest.raises(ZeroComponent):
        synthesize(fs, GRID, 0, lam=0.5)


def test_constrained_rescaling_undefined(table):
    # the constrained scheme has a g2 = 0 component; rescaling would
    # divide by a zero sum
    fs = make_filters(SchemeId.CONSTRAINED, table, gamma=0.01)
    with pytest.raises(ZeroComponent):
        synthesize(fs, GRID, 0, lam=0.5)


@pytest.mark.parametrize("lam", [None, 0.5])
@pytest.mark.parametrize("rows", [1, CHUNK_ROWS + 5])
@pytest.mark.parametrize("scheme", list(SchemeId))
def test_packed_synthesis_matches_per_channel_reference(table, scheme, rows, lam):
    # both batched outputs against the per-channel reference: the
    # NoisePairs and the time-major fill of the ensemble (summed spectra
    # when lam is unset, the parts and the rescale factors when it is set)
    fs = make_filters(scheme, table, gamma=0.01)
    seeds = [100 + i for i in range(rows)]
    lams = None if lam is None else [lam]
    if lam is not None and not fs.has_cross_pair:
        with pytest.raises(ZeroComponent):
            Synthesizer(fs, GRID, lams)
        with pytest.raises(ZeroComponent):
            synthesize_batch(fs, GRID, seeds, lam)
        with pytest.raises(ZeroComponent):
            synthesize_from_white(fs, GRID, sample_white(GRID, 0, fs.n_channels), lam)
        return
    pairs = synthesize_batch(fs, GRID, seeds, lam)
    synth = Synthesizer(fs, GRID, lams)
    eta_t, nu_t, eta0_t, nu0_t = (np.empty((GRID.n_phys, rows), dtype=complex)
                                  for _ in range(4))
    factors = np.empty((1, rows))
    for a in range(0, rows, CHUNK_ROWS):
        cols = slice(a, a + CHUNK_ROWS)
        cross = (eta0_t[:, cols], nu0_t[:, cols], factors[:, cols])
        synth.fill(seeds[cols], eta_t[:, cols], nu_t[:, cols], cross)
    if lam is not None:
        # the rescaled noise that RK4 forms from the parts, bitwise the
        # noise of the NoisePairs
        eta_t += factors * eta0_t
        nu_t += nu0_t / factors
        assert np.array_equal(eta_t.T, [p.eta_t for p in pairs])
        assert np.array_equal(nu_t.T, [p.nu_t for p in pairs])
    for j, seed in enumerate(seeds):
        ref = synthesize_from_white(fs, GRID, sample_white(GRID, seed, fs.n_channels),
                                    lam)
        eta, nu = ref.eta_t, ref.nu_t
        for got_eta, got_nu in ((pairs[j].eta_t, pairs[j].nu_t),
                                (eta_t[:, j], nu_t[:, j])):
            for got, want in ((got_eta, eta), (got_nu, nu)):
                scale = np.max(np.abs(want))
                assert scale > 0
                assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
@pytest.mark.parametrize("lam", [None, 0.5])
@pytest.mark.parametrize("scheme", list(SchemeId))
def test_noise_pairs_are_the_noise_the_ensemble_integrates(table, monkeypatch,
                                                          scheme, lam, native):
    # the NoisePairs are the columns of the fill, recombined as
    # integrate_blocks forms a rescaled batch's noise, bitwise
    if native:
        if shutil.which(_native._COMPILER) is None:
            pytest.skip("no C compiler to build the library")
        assert noise._native_normals() is not None
        assert noise._native_colour() is not None
    else:
        monkeypatch.setattr(noise, "_native_normals", lambda: None)
        monkeypatch.setattr(noise, "_native_colour", lambda: None)
    fs = make_filters(scheme, table, gamma=0.01)
    seeds = _seeds("seed_for", CHUNK_ROWS + 5)
    if lam is not None and not fs.has_cross_pair:
        with pytest.raises(ZeroComponent):
            synthesize_batch(fs, GRID, seeds, lam)
        return
    eta, nu, eta0, nu0, factors = _fill(fs, GRID, None if lam is None else [lam],
                                        seeds)
    if lam is not None:
        eta = np.add(np.multiply(eta0, factors), eta)
        nu = np.add(np.divide(nu0, factors), nu)
    pairs = synthesize_batch(fs, GRID, seeds, lam)
    assert [p.eta_t.tobytes() for p in pairs] == [a.tobytes() for a in eta.T]
    assert [p.nu_t.tobytes() for p in pairs] == [a.tobytes() for a in nu.T]
    assert all(p.lambda_applied == (1.0 if lam is None else lam) for p in pairs)


def test_pairs_refuses_more_than_one_strength(table):
    synth = Synthesizer(make_filters(SchemeId.LIKE, table), GRID, np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="one strength, not at 2$"):
        synth.pairs([1, 2])
    # refused before any noise is drawn: the thread has no workspace
    assert not vars(synth._local)


@pytest.mark.parametrize("lam", [None, 0.5])
def test_noise_pairs_peak_within_the_charge(monkeypatch, lam):
    # the NoisePairs of validate's realizations, of which a machine with
    # one byte of memory less than their peak is refused
    import os
    import tracemalloc

    from slnoise import cli

    rows = 64
    settings = {**cli._DEFAULTS, "scheme": "etanu-optimised", "beta": 1.0,
                "lambda": lam, "t_max": 5.0, "n_realizations": rows}
    cfg, fs = cli._noise_filters(settings)
    seeds = [seed_for(0, i) for i in range(rows)]
    tracemalloc.start()
    try:
        synthesize_batch(fs, cfg.grid, seeds, lam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # at least the series the pairs keep
    assert peak >= 2 * 16 * cfg.grid.n_phys * rows
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: {
        "SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": peak - 1}.get(name) or sysconf(name))
    with pytest.raises(ConfigError, match="physical memory"):
        cli._noise_filters(settings)


def test_lagged_products_equal_fftconvolve():
    from scipy.signal import fftconvolve

    rng = np.random.default_rng(3)
    a, b = (rng.standard_normal(3001) + 1j * rng.standard_normal(3001)
            for _ in range(2))
    t, m = a.size, 400
    want = fftconvolve(a, b[::-1])[t - 1 - m:t + m] / (t - np.abs(np.arange(-m, m + 1)))
    assert _lagged_products(a, b, m).tobytes() == want.tobytes()


def test_chunk_rows_bounded_in_bytes():
    # 16 rows up to n = 16384, then as many as fit in the 16-row
    # footprint at n = 16384; the workspace is exactly what is charged
    assert [chunk_rows(n, 4) for n in (1024, 16384, 32768, 65536)] == [16, 16, 8, 4]
    assert chunk_rows(2**30, 4) == 1
    assert chunk_rows(1024, 4, rows=3) == 3
    assert workspace_bytes(16, 4, 16384) == noise.CHUNK_BYTES


@pytest.mark.parametrize("scheme", [SchemeId.LIKE, SchemeId.CONVEX])
def test_workspace_is_what_check_memory_charges(table, scheme):
    fs = make_filters(scheme, table)
    synth = Synthesizer(fs, GRID, rows=7)
    assert synth.chunk_rows == 7
    nbytes = sum(synth._buffer(name, synth.chunk_rows).nbytes
                 for name in ("white", "z", "c"))
    assert nbytes == workspace_bytes(7, fs.n_channels, GRID.n)


@pytest.mark.parametrize("lam", [None, 0.5])
def test_second_fill_reuses_the_workspace(lam):
    # a grid on which one chunk's series (2 MiB) dwarf numpy's fixed-size
    # ufunc buffers (256 KiB at most)
    import tracemalloc

    grid = TimeGrid(dt=0.01, t_max=40.0)
    fs = make_filters(SchemeId.ETANU_OPTIMISED, build_kernel_table(grid.freq(), BATH))
    rows = CHUNK_ROWS
    seeds = [[7 + i for i in range(rows)], [300 + i for i in range(rows)]]

    def buffers():
        return ([np.empty((grid.n_phys, rows), dtype=complex) for _ in range(4)]
                + [np.empty((1, rows))])

    def fill(synth, chunk, bufs):
        eta, nu, eta0, nu0, factors = bufs
        synth.fill(chunk, eta, nu, (eta0, nu0, factors))

    lams = None if lam is None else [lam]
    synth = Synthesizer(fs, grid, lams)
    first, second = buffers(), buffers()
    fill(synth, seeds[0], first)
    tracemalloc.start()
    try:
        fill(synth, seeds[1], second)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a quarter of one complex series of the chunk on the padded grid,
    # far below any of the workspace's buffers
    assert peak < rows * grid.n * 4
    fresh = buffers()
    fill(Synthesizer(fs, grid, lams), seeds[1], fresh)
    n_out = 5 if lam is not None else 2
    for got, want in zip(second[:n_out], fresh[:n_out]):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lam", [None, 0.5])
@pytest.mark.parametrize("scheme", list(SchemeId))
def test_one_row_chunks_equal_full_chunks(table, monkeypatch, scheme, lam):
    # a byte budget forced down to one row per chunk changes no bit of
    # the NoisePairs nor of the ensemble's fill
    fs = make_filters(scheme, table, gamma=0.01)
    if lam is not None and not fs.has_cross_pair:
        return
    rows = CHUNK_ROWS + 5
    seeds = [100 + i for i in range(rows)]

    def run():
        synth = Synthesizer(fs, GRID, None if lam is None else [lam], rows=rows)
        bufs = [np.empty((GRID.n_phys, rows), dtype=complex) for _ in range(4)]
        factors = np.empty((1, rows))
        synth.fill(seeds, bufs[0], bufs[1], (bufs[2], bufs[3], factors))
        pairs = synthesize_batch(fs, GRID, seeds, lam)
        arrays = [p_.eta_t for p_ in pairs] + [p_.nu_t for p_ in pairs] + bufs[:2]
        if lam is not None:
            arrays += bufs[2:] + [factors]
        return synth.chunk_rows, [a.tobytes() for a in arrays]

    wide, want = run()
    monkeypatch.setattr(noise, "CHUNK_BYTES", workspace_bytes(1, 4, GRID.n))
    narrow, got = run()
    assert (wide, narrow) == (CHUNK_ROWS, 1)
    assert got == want


# ------------------------------------------------------ native normal draw

# the radius of numpy's ziggurat: normals beyond it come from its tail
ZIGGURAT_R = 3.6541528853610087963519472518

needs_compiler = pytest.mark.skipif(shutil.which(_native._COMPILER) is None,
                                    reason="no C compiler to build the library")


def _numpy_normals(seed, shape):
    return np.random.Generator(np.random.Philox(seed)).standard_normal(shape)


def _seeds(kind, rows):
    if kind == "int":
        return [3 + 1000 * i for i in range(rows)]
    return [seed_for(11, i, (2, 5)) for i in range(rows)]


@pytest.mark.parametrize("seed", [0, 2020, 2**70, np.random.SeedSequence(5),
                                  seed_for(11, 3), seed_for(11, 3, (2, 5))])
def test_philox_key_is_the_key_of_philox(seed):
    key = noise._philox_key(seed)
    assert key.dtype == np.uint64 and key.shape == (2,)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    assert np.array_equal(key, np.random.Philox(ss).state["state"]["key"])


def _packed_normals(structure, seeds):
    """numpy's unit normals of the seeds, packed as the wiring packs them:
    orthogonal z0 = x1 + i x4, z1 = x2 + i x3; convex z0 = x1 + i x2, and
    None for z1."""
    x = np.array([_numpy_normals(seed, (2 if structure is FilterStructure.CONVEX
                                        else 4, GRID.n)) for seed in seeds])
    if structure is FilterStructure.CONVEX:
        return [x[:, 0] + 1j * x[:, 1], None]
    return [x[:, 0] + 1j * x[:, 3], x[:, 1] + 1j * x[:, 2]]


@needs_compiler
@pytest.mark.parametrize("rows", [1, 3, 16])
@pytest.mark.parametrize("kind", ["int", "seed_for"])
def test_native_draw_bitwise_equals_numpy(monkeypatch, table, kind, rows):
    assert noise._native_normals() is not None
    fs = make_filters(SchemeId.LIKE, table)
    seeds = _seeds(kind, rows)
    native = Synthesizer(fs, GRID, rows=rows)._draw(seeds).copy()
    monkeypatch.setattr(noise, "_native_normals", lambda: None)
    numpy_draw = Synthesizer(fs, GRID, rows=rows)._draw(seeds)
    want = np.array(_packed_normals(FilterStructure.ORTHOGONAL, seeds))
    assert native.tobytes() == want.tobytes()
    assert numpy_draw.tobytes() == want.tobytes()


@pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
@pytest.mark.parametrize("structure", list(FilterStructure))
def test_draw_into_the_transform_buffer_packs_each_wiring(monkeypatch, structure,
                                                         native):
    # the first rows of the thread's transform buffer; the others, and z1
    # of the convex wiring, are left alone
    if native:
        if shutil.which(_native._COMPILER) is None:
            pytest.skip("no C compiler to build the library")
        assert noise._native_normals() is not None
    else:
        monkeypatch.setattr(noise, "_native_normals", lambda: None)
    fs = _random_filters(structure, GRID.n, GRID.dt)
    synth = Synthesizer(fs, GRID, rows=5)
    z = synth._buffer("z", 5)
    z[...] = np.nan
    seeds = _seeds("seed_for", 6)
    got = synth._draw(seeds[:3])
    assert got.shape == (2, 3, GRID.n) and np.shares_memory(got, z)
    eta_half, nu_half = _packed_normals(structure, seeds)
    assert z[0, :3].tobytes() == eta_half[:3].tobytes()
    if nu_half is None:
        assert np.isnan(z[1]).all()
    else:
        assert z[1, :3].tobytes() == nu_half[:3].tobytes()
    assert np.isnan(z[:, 3:]).all()
    # one seed more than the buffer's rows, which is not drawn
    got = synth._draw(seeds)
    assert got.shape == (2, 5, GRID.n)
    assert z[0].tobytes() == eta_half[:5].tobytes()


@needs_compiler
def test_native_draw_bitwise_equals_numpy_on_a_long_stream():
    # 10^7 normals of one stream, among them a few thousand from the
    # ziggurat's tail, beyond its radius
    normals = noise._native_normals()
    assert normals is not None
    count = 10**7
    got = np.empty(count)
    noise._draw_native(normals, [77], count, got, count, [0], 1)
    want = _numpy_normals(77, count)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert (np.abs(want) > ZIGGURAT_R).sum() > 1000


def _ziggurat_tables():
    """ki, wi and fi of the ziggurat, as the library's source writes them."""
    import re

    text = _native._SOURCE.read_text()

    def table(name, cast):
        body = re.search(name + r"\[256\] = \{(.*?)\};", text, re.S).group(1)
        values = [cast(v.strip()) for v in body.split(",") if v.strip()]
        assert len(values) == 256
        return values

    return (table("ki_double", lambda v: int(v.rstrip("ULL"), 16)),
            table("wi_double", float.fromhex), table("fi_double", float.fromhex))


def test_probe_seed_reaches_the_wedges_and_the_tail():
    # numpy's ziggurat replayed in Python on the probe seed's raw Philox
    # output, with the tables of the library: it gives numpy's normals,
    # and its first 2^16 draws take both the wedge and the tail branch
    import math

    ki, wi, fi = _ziggurat_tables()
    raw = iter(np.random.Philox(noise._PROBE_SEED).random_raw(2 * noise._PROBE_COUNT).tolist())
    r_, inv_r = ZIGGURAT_R, 0.27366123732975827203338247596

    def uniform():
        return (next(raw) >> 11) * (1.0 / 9007199254740992.0)

    branches = {"wedge": 0, "tail": 0}

    def normal():
        while True:
            r = next(raw)
            idx = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * wi[idx]
            if r & 1:
                x = -x
            if rabs < ki[idx]:
                return x
            if idx == 0:
                branches["tail"] += 1
                while True:
                    xx = -inv_r * math.log1p(-uniform())
                    yy = -math.log1p(-uniform())
                    if yy + yy > xx * xx:
                        return -(r_ + xx) if (rabs >> 8) & 1 else r_ + xx
            branches["wedge"] += 1
            if (fi[idx - 1] - fi[idx]) * uniform() + fi[idx] < math.exp(-0.5 * x * x):
                return x

    got = np.array([normal() for _ in range(noise._PROBE_COUNT)])
    want = _numpy_normals(noise._PROBE_SEED, noise._PROBE_COUNT)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert branches["wedge"] > 0 and branches["tail"] > 0


@pytest.mark.parametrize("flip", [None, 0, 2**16 - 1], ids=["same", "first", "last"])
def test_probe_refuses_a_draw_one_bit_off(flip):
    # a stand-in for the library that writes numpy's probe stream, with
    # the last bit of one normal flipped
    def normals(keys, rows, channels, count, out, row_stride, offsets, step):
        assert (rows, channels, count, step) == (1, 1, noise._PROBE_COUNT, 1)
        got = np.ctypeslib.as_array(ctypes.cast(out, ctypes.POINTER(ctypes.c_double)),
                                    (count,))
        got[:] = _numpy_normals(noise._PROBE_SEED, count)
        if flip is not None:
            got.view(np.uint64)[flip] ^= 1

    assert noise._probe(normals) is (flip is None)


def _fill_and_pairs(table):
    """Bytes of an ensemble fill (rescaled at two strengths) and of
    NoisePairs, 19 realizations of seed_for seeds each."""
    fs = make_filters(SchemeId.ETANU_OPTIMISED, table)
    seeds = _seeds("seed_for", 19)
    lam = np.array([0.5, 2.0])
    synth = Synthesizer(fs, GRID, lam, rows=len(seeds))
    bufs = [np.empty((GRID.n_phys, len(seeds)), dtype=complex) for _ in range(4)]
    factors = np.empty((len(lam), len(seeds)))
    synth.fill(seeds, bufs[0], bufs[1], (bufs[2], bufs[3], factors))
    pairs = synthesize_batch(fs, GRID, seeds, 0.5)
    arrays = bufs + [factors] + [a for p in pairs for a in (p.eta_t, p.nu_t)]
    return [a.tobytes() for a in arrays]


def _numpy_draw_is_silent(table, native):
    """The normals are drawn by numpy, without a warning, with the bits of
    the native draw ``native``."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert noise._native_normals() is None
        assert _fill_and_pairs(table) == native


@needs_compiler
def test_native_draw_falls_back_without_compiler(table, rebuild, monkeypatch):
    assert noise._native_normals() is not None
    native = _fill_and_pairs(table)
    _native.library.cache_clear()
    noise._native_normals.cache_clear()
    monkeypatch.setattr(_native, "_COMPILER", "no-such-compiler-for-slnoise")
    _numpy_draw_is_silent(table, native)


@needs_compiler
def test_native_draw_falls_back_when_it_does_not_match_numpy(table, rebuild,
                                                            monkeypatch):
    # the RK4 kernel of the same library runs on its own probe's result
    assert noise._native_normals() is not None
    native = _fill_and_pairs(table)
    noise._native_normals.cache_clear()
    monkeypatch.setattr(noise, "_probe", lambda normals: False)
    _numpy_draw_is_silent(table, native)
    assert dynamics._native_kernel() is not None
    assert noise._native_colour() is not None


@needs_compiler
def test_native_draw_runs_when_the_rk4_kernel_does_not_match(rebuild,
                                                            monkeypatch):
    monkeypatch.setattr(dynamics, "_probe", lambda rk4: False)
    assert dynamics._native_kernel() is None
    assert noise._native_normals() is not None
    assert noise._native_colour() is not None


# ------------------------------------------------------ native colouring

def _random_filters(structure, n, dt=1.0):
    """A filter set of random taps on the n-bin grid of step ``dt``: f1
    real, the others complex, as most schemes have them."""
    rng = np.random.default_rng(n)

    def taps():
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    scheme = (SchemeId.CONVEX if structure is FilterStructure.CONVEX
              else SchemeId.ETANU_OPTIMISED)
    return FilterSet(scheme, structure, FrequencyGrid(n, dt),
                     rng.standard_normal(n), taps(), taps(),
                     None if structure is FilterStructure.CONVEX else taps())


# the wirings: orthogonal with the cross-correlative pair summed in, apart
# at one and at three rescaling strengths, and convex
WIRINGS = [(FilterStructure.ORTHOGONAL, None),
           (FilterStructure.ORTHOGONAL, [0.5]),
           (FilterStructure.ORTHOGONAL, [0.5, 1.0, 2.0]),
           (FilterStructure.CONVEX, None)]
WIRING_IDS = ["unsplit", "rescaled-1", "rescaled-3", "convex"]


def _colour_outputs(fs, grid, lam, chunk, seeds):
    """Bytes of a fill (rescaled at the strengths ``lam``, if set) and of
    the NoisePairs of the seeds (rescaled at the first strength), with
    chunks of ``chunk`` rows."""
    rows = len(seeds)
    bufs = [np.empty((grid.n_phys, rows), dtype=complex) for _ in range(4)]
    factors = np.empty((1 if lam is None else len(lam), rows))
    Synthesizer(fs, grid, lam, rows=chunk).fill(
        seeds, bufs[0], bufs[1], (bufs[2], bufs[3], factors))
    arrays = bufs[:2] if lam is None else bufs + [factors]
    pair_synth = Synthesizer(fs, grid, None if lam is None else lam[:1], rows=chunk)
    arrays += [a for p in pair_synth.pairs(seeds) for a in (p.eta_t, p.nu_t)]
    return [a.tobytes() for a in arrays]


def _native_and_numpy_colouring(monkeypatch, fs, grid, lam, chunk, seeds):
    """The outputs of :func:`_colour_outputs` with the native colouring
    and the native draw, with the native colouring and numpy's draw, and
    with numpy alone."""
    assert noise._native_colour() is not None
    assert noise._native_normals() is not None
    runs = [_colour_outputs(fs, grid, lam, chunk, seeds)]
    with monkeypatch.context() as m:
        m.setattr(noise, "_native_normals", lambda: None)
        runs.append(_colour_outputs(fs, grid, lam, chunk, seeds))
        m.setattr(noise, "_native_colour", lambda: None)
        runs.append(_colour_outputs(fs, grid, lam, chunk, seeds))
    return runs


@needs_compiler
@pytest.mark.parametrize("chunk", [1, 3, 16])
@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("structure, lam", WIRINGS, ids=WIRING_IDS)
def test_native_colouring_bitwise_equals_numpy(monkeypatch, structure, lam, n,
                                               chunk):
    # on 8 and 16 bins, bins 0 and n/2 are a large share of those that
    # pair with themselves; 19 realizations leave a short last chunk
    fs = _random_filters(structure, n)
    grid = TimeGrid(1.0, n / 2)
    assert grid.n == n
    native, numpy_draw, numpy_only = _native_and_numpy_colouring(
        monkeypatch, fs, grid, lam, chunk, _seeds("seed_for", 19))
    assert native == numpy_only
    assert numpy_draw == numpy_only


@needs_compiler
@pytest.mark.parametrize("structure, lam", WIRINGS, ids=WIRING_IDS)
def test_native_colouring_bitwise_equals_numpy_on_16384_samples(monkeypatch,
                                                                structure, lam):
    grid = TimeGrid(dt=0.0025, t_max=20.0)
    assert grid.n == 16384
    scheme = (SchemeId.CONVEX if structure is FilterStructure.CONVEX
              else SchemeId.ETANU_OPTIMISED)
    fs = make_filters(scheme, build_kernel_table(grid.freq(), BATH))
    native, numpy_draw, numpy_only = _native_and_numpy_colouring(
        monkeypatch, fs, grid, lam, CHUNK_ROWS, _seeds("int", CHUNK_ROWS + 3))
    assert native == numpy_only
    assert numpy_draw == numpy_only


@needs_compiler
@pytest.mark.parametrize("lam", [None, [0.5]])
@pytest.mark.parametrize("structure", list(FilterStructure))
def test_native_colouring_allocates_no_more_than_the_charge(structure, lam):
    # the first fill of a fresh synthesizer allocates the thread's
    # workspace; check_memory charges numpy's
    import tracemalloc

    if lam is not None and structure is FilterStructure.CONVEX:
        return
    assert noise._native_colour() is not None
    assert noise._native_normals() is not None
    scheme = (SchemeId.CONVEX if structure is FilterStructure.CONVEX
              else SchemeId.ETANU_OPTIMISED)
    fs = make_filters(scheme, build_kernel_table(GRID.freq(), BATH))
    rows = CHUNK_ROWS
    synth = Synthesizer(fs, GRID, lam, rows=rows)
    bufs = [np.empty((GRID.n_phys, rows), dtype=complex) for _ in range(4)]
    factors = np.empty((1, rows))
    tracemalloc.start()
    try:
        synth.fill(_seeds("int", rows), bufs[0], bufs[1], (bufs[2], bufs[3], factors))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    charge = workspace_bytes(rows, fs.n_channels, GRID.n)
    assert peak <= charge
    # z alone, and c where the cross-correlative pair is transformed apart
    assert peak >= (1 if lam is None else 2) * rows * GRID.n * 32


def _colour_is_silent(table, native):
    """The colouring runs in numpy, without a warning, with the bits of the
    native one, ``native``."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert noise._native_colour() is None
        assert _fill_and_pairs(table) == native


@needs_compiler
def test_native_colouring_falls_back_without_compiler(table, rebuild, monkeypatch):
    assert noise._native_colour() is not None
    native = _fill_and_pairs(table)
    _native.library.cache_clear()
    noise._native_colour.cache_clear()
    noise._native_normals.cache_clear()
    monkeypatch.setattr(_native, "_COMPILER", "no-such-compiler-for-slnoise")
    _colour_is_silent(table, native)


@needs_compiler
def test_native_colouring_falls_back_when_it_does_not_match_numpy(
        table, rebuild, monkeypatch):
    # the draw and the RK4 kernel of the same library run on their own
    # probes' results
    assert noise._native_colour() is not None
    native = _fill_and_pairs(table)
    noise._native_colour.cache_clear()
    monkeypatch.setattr(noise, "_colour_probe", lambda colouring: False)
    _colour_is_silent(table, native)
    assert noise._native_normals() is not None
    assert dynamics._native_kernel() is not None


@needs_compiler
@pytest.mark.parametrize("call, flipped", [
    ("cmul(z1r, z1i, t[2 * (n + k)], t[2 * (n + k) + 1], &fr, &fi)",
     "cmul(t[2 * (n + k)], t[2 * (n + k) + 1], z1r, z1i, &fr, &fi)"),
    ("cmul(c1r, c1i, t[2 * (3 * n + k)], t[2 * (3 * n + k) + 1], &hr, &hi)",
     "cmul(t[2 * (3 * n + k)], t[2 * (3 * n + k) + 1], c1r, c1i, &hr, &hi)"),
    ("cmul(t[2 * k], t[2 * k + 1], zr, zi, &pr, &pi)",
     "cmul(zr, zi, t[2 * k], t[2 * k + 1], &pr, &pi)"),
], ids=["orthogonal-b", "orthogonal-c2", "convex-p"])
def test_colour_probe_refuses_a_flipped_operand_order(rebuild, monkeypatch,
                                                      tmp_path, call, flipped):
    # the library built from a source whose spectral pass multiplies one
    # pair of operands the other way round: the draw still loads from it
    source = _native._SOURCE.read_text()
    assert source.count(call) == 1
    mutated = tmp_path / "_native.c"
    mutated.write_text(source.replace(call, flipped))
    monkeypatch.setattr(_native, "_SOURCE", mutated)
    monkeypatch.setattr(_native, "_cache_dirs", lambda: (str(tmp_path / "cache"),))
    assert noise._native_normals() is not None
    assert noise._native_colour() is None


def test_chunk_factors_equal_per_row_rescale_factor(table):
    # the factors of a chunk are formed over its rows in one call: each
    # equals its own row's rescale_factor at every strength, bitwise, on
    # the full grid of criterion 7 (whose rows sum more values than
    # numpy's buffer holds) and here; a row with a zero pair is refused
    # as rescale_factor refuses it
    from slnoise.schemes import rescale_factor

    lams = np.logspace(-2, 1, 13)
    for grid in (GRID, TimeGrid(dt=0.005, t_max=10.0)):
        fs = make_filters(SchemeId.ETANU_OPTIMISED, build_kernel_table(grid.freq(), BATH))
        synth = Synthesizer(fs, grid, lams)
        _, _, eta0, nu0 = synth._colour(_seeds("int", CHUNK_ROWS))
        want = np.array([rescale_factor(e, v, lams) for e, v in zip(eta0, nu0)])
        got = synth.factors(eta0, nu0)
        assert got.shape == (CHUNK_ROWS, 13)
        assert got.tobytes() == want.tobytes()
    nu0 = nu0.copy()
    nu0[3] = 0.0
    with pytest.raises(ZeroComponent) as refused:
        synth.factors(eta0, nu0)
    with pytest.raises(ZeroComponent) as per_row:
        rescale_factor(eta0[3], nu0[3], lams)
    assert str(refused.value) == str(per_row.value)
