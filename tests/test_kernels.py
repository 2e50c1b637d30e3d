"""Tests for the spectral density and correlation kernels."""

from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from slnoise import (
    AsymmetryExceeded,
    BathParams,
    ConfigError,
    CustomKernel,
    FrequencyGrid,
    SingularPoint,
    TimeGrid,
    build_kernel_table,
    k_etaeta_freq,
    k_etanu_freq,
    kernel_time,
    qnd_kernel,
    spectral_density,
)
from slnoise import kernels, noise
from slnoise.cli import build_run_config, load_config
from slnoise.kernels import (FILON_NODES, _chirp, _czt, _half_hat, _pv_cutoff_integral,
                             next_fast_len)

BATH = BathParams(beta=1.0, omega_c=25.0)


def test_bath_params_validation():
    with pytest.raises(ConfigError):
        BathParams(beta=0.0, omega_c=25.0)
    with pytest.raises(ConfigError):
        BathParams(beta=1.0, omega_c=-1.0)


def test_spectral_density_hard_cutoff():
    assert spectral_density(26.0, BATH) == 0.0
    assert spectral_density(-1.0, BATH) == 0.0
    assert spectral_density(0.0, BATH) == 0.0
    # at the cutoff itself J = omega_c * (1 + 1)^-2 = omega_c / 4
    assert spectral_density(25.0, BATH) == pytest.approx(25.0 / 4.0)


def test_spectral_density_formula():
    w = 5.0
    assert spectral_density(w, BATH) == pytest.approx(w * (1 + (w / 25) ** 2) ** -2)


def test_k_etaeta_dc_limit():
    # omega * coth(beta*omega/2) -> 2/beta as omega -> 0
    for beta in (0.1, 1.0, 10.0):
        bath = BathParams(beta, 25.0)
        assert k_etaeta_freq(0.0, bath) == pytest.approx(2.0 / beta)
        # continuity: a tiny but nonzero frequency gives nearly the limit
        assert k_etaeta_freq(1e-8, bath) == pytest.approx(2.0 / beta, rel=1e-10)


def test_k_etaeta_even_and_cut():
    w = np.array([-7.0, 7.0, 30.0])
    vals = k_etaeta_freq(w, BATH)
    assert vals[0] == vals[1]
    assert vals[2] == 0.0


def test_k_etaeta_value():
    w = 5.0
    expect = spectral_density(w, BATH) / np.tanh(0.5 * w)
    assert k_etaeta_freq(w, BATH) == pytest.approx(expect, rel=1e-12)


def test_pv_integral_against_adaptive_oracle():
    # independent oracle: scipy's Cauchy-weight adaptive quadrature of
    # x^2 f(x) / ((x - w)(x + w)) over [0, omega_c]
    rng = np.random.default_rng(42)
    wc = BATH.omega_c
    ws = rng.uniform(0.05, 0.95, size=50) * wc
    ours = _pv_cutoff_integral(ws, BATH)
    for w, val in zip(ws, ours):
        oracle, _ = quad(
            lambda x: x * x * (1 + (x / wc) ** 2) ** -2 / (x + w),
            0.0, wc, weight="cauchy", wvar=w, limit=200,
        )
        assert val == pytest.approx(oracle, rel=1e-8)


def test_k_etanu_freq_symmetries():
    w = np.linspace(0.3, 24.0, 40)
    plus = k_etanu_freq(w, BATH)
    minus = k_etanu_freq(-w, BATH)
    assert np.max(np.abs(plus.real + minus.real)) < 1e-12 * np.max(np.abs(plus.real))
    assert np.max(np.abs(plus.imag - minus.imag)) < 1e-12 * np.max(np.abs(plus.imag))


def test_k_etanu_freq_real_part_is_signed_spectral_density():
    w = 8.0
    assert k_etanu_freq(w, BATH).real == pytest.approx(spectral_density(w, BATH))
    assert k_etanu_freq(-w, BATH).real == pytest.approx(-spectral_density(w, BATH))
    assert k_etanu_freq(30.0, BATH).real == 0.0


def test_k_etanu_freq_singular_at_cutoff():
    with pytest.raises(SingularPoint):
        k_etanu_freq(25.0, BATH)
    with pytest.raises(SingularPoint):
        k_etanu_freq(-25.0, BATH)


def test_kernel_time_etaeta_matches_quadrature_oracle():
    t = 0.7
    oracle, _ = quad(
        lambda w: spectral_density(w, BATH) / np.tanh(0.5 * w) * np.cos(w * t) / np.pi,
        0.0, 25.0, limit=400,
    )
    assert kernel_time(t, BATH, "etaeta") == pytest.approx(oracle, rel=1e-9)


def test_kernel_time_etaeta_even():
    t = np.array([-1.3, 1.3])
    vals = kernel_time(t, BATH, "etaeta")
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)


def test_kernel_time_etanu_causal():
    t = np.array([-2.0, -0.01, 0.0, 0.01, 2.0])
    vals = kernel_time(t, BATH, "etanu")
    assert np.all(vals[:2] == 0.0)
    assert vals[2] == 0.0  # sine integral vanishes at t = 0
    assert np.all(vals[3:].real == 0.0)
    assert np.all(vals[3:] != 0.0)


def test_kernel_time_etanu_matches_quadrature_oracle():
    t = 0.9
    sine, _ = quad(
        lambda w: spectral_density(w, BATH) * np.sin(w * t) / np.pi,
        0.0, 25.0, limit=400,
    )
    assert kernel_time(t, BATH, "etanu") == pytest.approx(-2j * sine, rel=1e-9)


def test_kernel_time_rejects_unknown_kind():
    with pytest.raises(ValueError):
        kernel_time(1.0, BATH, "nunu")


class TestDrudeKernelTable:
    @pytest.fixture(scope="class")
    @staticmethod
    def table():
        return build_kernel_table(FrequencyGrid(2048, 0.01), BATH)

    def test_dc_value(self, table):
        # DFT approximant of the continuous transform: the 2/beta limit
        # holds up to the leakage of the truncated kernel tails
        assert table.k_etaeta_w[0] == pytest.approx(2.0, rel=1e-2)

    def test_symmetries(self, table):
        from slnoise import flip_freq

        k = table.k_etaeta_w
        assert np.max(np.abs(k - flip_freq(k))) == 0.0
        kn = table.k_etanu_w
        asym = np.abs(kn + np.conj(flip_freq(kn)))
        assert np.max(asym) < 1e-12 * np.max(np.abs(kn))

    def test_r_relation(self, table):
        assert np.array_equal(table.r_w, -1j * table.k_etanu_w)

    def test_spectrum_nonnegative(self, table):
        assert np.all(table.k_etaeta_w >= 0.0)

    def test_time_frequency_consistency(self, table):
        # the frequency table is the DFT of the time samples, so the
        # round trip is exact up to the clipping of the small negative
        # truncation-lobe values
        n, dt = table.grid.n, table.grid.dt
        back = np.fft.fft(table.k_etaeta_w) / (n * dt)
        rel = np.max(np.abs(back - table.k_etaeta_t)) / np.max(np.abs(table.k_etaeta_t))
        assert rel < 1e-3

    def test_cross_kernel_round_trip_causal(self, table):
        n, dt = table.grid.n, table.grid.dt
        back = np.fft.fft(table.k_etanu_w) / (n * dt)
        assert np.max(np.abs(back - table.k_etanu_t)) < 1e-12
        t = table.grid.times
        assert np.max(np.abs(back[t < 0])) < 1e-12

    def test_cutoff_leakage_structure(self, table):
        # beyond the hard cutoff the spectrum holds only truncation
        # leakage: a mix of exact zeros (clipped lobes) and small
        # positive values, all well below the in-band scale
        k = table.k_etaeta_w
        beyond = np.abs(table.grid.omega) > 25.0
        assert np.any(k[beyond] == 0.0)
        assert np.any(k[beyond] > 0.0)
        assert np.max(k[beyond]) < 0.1 * np.max(k)

    def test_grid_point_on_cutoff_rejected(self):
        n, dt = 1024, 0.01
        k = 100
        wc = 2.0 * np.pi * k / (n * dt)
        with pytest.raises(SingularPoint):
            build_kernel_table(FrequencyGrid(n, dt), BathParams(1.0, wc))


def test_half_hat_weight_matches_quadrature():
    # both the small-theta series and the closed form
    theta = np.array([1e-6, 0.2, 0.3, 7.0])
    for th, val in zip(theta, _half_hat(theta)):
        re, _ = quad(lambda x: (1 - x) * np.cos(th * x), 0.0, 1.0)
        im, _ = quad(lambda x: (1 - x) * np.sin(th * x), 0.0, 1.0)
        assert val == pytest.approx(re + 1j * im, rel=1e-13)


@pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("n, dt", [(2048, 0.01), (16384, 0.0025)])
def test_table_time_samples_match_quadrature(n, dt, beta):
    # the table's Filon/chirp-z samples against pointwise Gauss-Legendre
    # at ~64 lags, both signs, up to the last positive lag below n*dt/2
    bath = BathParams(beta, 25.0)
    grid = FrequencyGrid(n, dt)
    table = build_kernel_table(grid, bath)
    t = grid.times
    idx = np.unique(np.r_[np.linspace(0, n - 1, 60).astype(int),
                          1, n // 2 - 1, n // 2, n - 1])
    k_ee = kernel_time(t[idx], bath, "etaeta").real
    k_en = kernel_time(t[idx], bath, "etanu")
    tol = 1e-8 * abs(k_ee[0])
    assert np.max(np.abs(table.k_etaeta_t[idx] - k_ee)) < tol
    assert np.max(np.abs(table.k_etanu_t[idx] - k_en)) < tol
    # exact symmetries: K_etaeta(-t) = K_etaeta(t), K_etanu(t < 0) = 0
    k = table.k_etaeta_t
    assert np.array_equal(k[1:], k[:0:-1])
    assert np.all(table.k_etanu_t[t < 0] == 0.0)


def test_table_rejects_nyquist_below_cutoff():
    # pi/dt = 12.6 < omega_c = 25: the grid cannot carry the bath
    with pytest.raises(ConfigError, match="Nyquist"):
        build_kernel_table(FrequencyGrid(256, 0.25), BATH)
    with pytest.raises(ConfigError, match="Nyquist"):
        build_kernel_table(FrequencyGrid(256, np.pi / 25.0), BATH)


def test_table_rejects_non_finite_samples():
    # at beta = 1e-300 the Drude kernel, about 2/beta, overflows in the
    # chirp-z sums; no RuntimeWarning, a ConfigError
    with pytest.raises(ConfigError, match="not finite"):
        build_kernel_table(FrequencyGrid(256, 0.01), BathParams(1e-300, 25.0))
    with pytest.raises(ConfigError, match="not finite"):
        build_kernel_table(FrequencyGrid(256, 0.01),
                           CustomKernel(lambda t: np.full(t.shape, np.nan)))


@pytest.mark.parametrize("dt", [0.00125, 0.0025, 0.005, 0.01])
def test_chirp_is_numpy_power_bit_for_bit(dt):
    # the table's w at the noise grid of the three benchmark workloads
    # (dt 0.005) and at dt 0.0025 and 0.01 with their noise grids
    size = FILON_NODES + 1
    w = np.exp(1j * (BATH.omega_c / FILON_NODES) * dt)
    k = np.arange(size, dtype=np.min_scalar_type(-size**2))
    assert _chirp(w, size).tobytes() == (w**(k**2 / 2.)).tobytes()


@pytest.mark.parametrize("n, dt", [(4096, 0.005), (4096, 0.01), (16384, 0.005),
                                   (32768, 0.005)])
def test_czt_equals_scipy_signal_czt(n, dt):
    # the table's shapes: both kernels on the Filon nodes, the lags 0..n/2
    from scipy.signal import czt

    omega = np.linspace(0.0, BATH.omega_c, FILON_NODES + 1)
    g = np.stack([k_etaeta_freq(omega, BATH), spectral_density(omega, BATH)])
    m = n // 2 + 1
    w = np.exp(1j * (BATH.omega_c / FILON_NODES) * dt)
    got = _czt(g, m, w)
    want = czt(g, m, w=w, a=1.0)
    assert got.shape == want.shape == (2, m)
    assert got.tobytes() == want.tobytes()


# numpy >= 2.0 runs the C++ pocketfft that scipy.fft runs; the package's
# transforms are numpy.fft's, and its bitwise contracts are stated in
# scipy.fft's bits, so the two must agree at every length it asks for

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _transform_lengths():
    """The lengths the package asks numpy.fft for at the grids of
    configs/*.cfg and at the benchmark's long_window grid (dt 0.01,
    t_max 80; its other workloads run on configs' grids), each as the
    integration grid and as the noise grid that RunConfig.filters() and
    the ensembles build their tables on: each kernel table's chirp-z
    transform, and a correlation estimate's lagged products over the
    physical window."""
    from dataclasses import replace

    cfgs = [build_run_config(load_config(str(path)))
            for path in sorted(CONFIGS.glob("*.cfg"))]
    cfgs.append(replace(cfgs[0], grid=TimeGrid(0.01, 80.0)))
    grids = [g for cfg in cfgs for g in (cfg.grid, cfg.noise_grid())]
    lengths = set()

    def spy(transform):
        def call(a, n=None, *args, **kwargs):
            lengths.add(a.shape[-1] if n is None else n)
            return transform(a, n, *args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernels, "fft", spy(np.fft.fft))
        m.setattr(np.fft, "fft", spy(np.fft.fft))
        for grid in grids:
            build_kernel_table(grid.freq(), BATH)
            x = np.zeros(grid.n_phys, dtype=complex)
            noise._lagged_products(x, x, 1)
    return sorted(lengths)


def _assert_numpy_fft_gives_scipys_bits(n, rng):
    """Forward and inverse at n samples: as a new array, in place through
    ``out=``, and zero-padded to n through ``n=``."""
    import scipy.fft

    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    short = x[:(n + 1) // 2]
    for ours, theirs in ((np.fft.fft, scipy.fft.fft), (np.fft.ifft, scipy.fft.ifft)):
        want = theirs(x).tobytes()
        assert ours(x).tobytes() == want, (ours.__name__, n)
        buf = x.copy()
        ours(buf, out=buf)
        assert buf.tobytes() == want, (ours.__name__, n, "out=")
        assert ours(short, n).tobytes() == theirs(short, n).tobytes(), (
            ours.__name__, n, "n=")


def test_numpy_fft_gives_scipys_bits_at_the_lengths_asked_for():
    lengths = _transform_lengths()
    # the chirp-z transforms of t_max = 10 and 80 on both grids among them:
    # 82320 is long_window's, on its noise grid
    assert {66825, 67760, 73920, 82320} <= set(lengths)
    rng = np.random.default_rng(26)
    for n in lengths:
        _assert_numpy_fft_gives_scipys_bits(n, rng)


def test_numpy_fft_gives_scipys_bits_at_powers_of_two():
    # the noise grids, and the transform sln_fft stands in for
    rng = np.random.default_rng(27)
    for k in range(1, 18):
        _assert_numpy_fft_gives_scipys_bits(2 ** k, rng)


def test_next_fast_len_is_scipys():
    import scipy.fft

    ns = range(1, 2 ** 18 + 1)
    assert [next_fast_len(n) for n in ns] == [scipy.fft.next_fast_len(n, False)
                                              for n in ns]


class TestCustomKernelTable:
    @pytest.fixture(scope="class")
    @staticmethod
    def table():
        return build_kernel_table(FrequencyGrid(8192, 0.005), CustomKernel(qnd_kernel))

    def test_time_kernels(self, table):
        t = table.grid.times
        i = np.argmin(np.abs(t - 0.5))
        assert table.k_etaeta_t[i] == pytest.approx(
            0.5 * np.exp(-1.0) * np.cos(0.5), rel=1e-12
        )
        assert table.k_etaeta_t[0] == pytest.approx(0.5)
        j = np.argmin(np.abs(t + 0.5))
        assert table.k_etanu_t[j] == 0.0  # causal
        assert table.k_etanu_t[i] == pytest.approx(
            2j * 0.5 * np.exp(-1.0) * np.sin(0.5), rel=1e-12
        )

    def test_autocorrelation_spectrum_matches_lorentzians(self, table):
        # Re[(1/2)e^{-2|t|+it}] transforms to a pair of width-2 Lorentzians
        w = table.grid.omega
        expect = 1.0 / (4.0 + (w - 1.0) ** 2) + 1.0 / (4.0 + (w + 1.0) ** 2)
        assert np.max(np.abs(table.k_etaeta_w - expect)) < 1e-4

    def test_symmetrisation_small(self, table):
        assert table.max_asymmetry < 1e-12

    def test_asymmetric_kernel_rejected(self):
        skew = CustomKernel(lambda t: np.exp(-2 * np.abs(t)) * (1 + 0.5 * np.tanh(t)))
        with pytest.raises(AsymmetryExceeded):
            build_kernel_table(FrequencyGrid(4096, 0.005), skew)
