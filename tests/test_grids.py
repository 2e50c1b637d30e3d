"""Tests for the sampling-grid helpers."""

import numpy as np
import pytest

from slnoise import ConfigError, FrequencyGrid, TimeGrid, flip_freq


def test_frequency_grid_rejects_non_power_of_two():
    with pytest.raises(ConfigError):
        FrequencyGrid(100, 0.01)
    with pytest.raises(ConfigError):
        FrequencyGrid(0, 0.01)


def test_frequency_grid_rejects_bad_dt():
    with pytest.raises(ConfigError):
        FrequencyGrid(64, 0.0)


def test_omega_matches_fft_frequencies():
    g = FrequencyGrid(64, 0.1)
    assert np.allclose(g.omega, 2 * np.pi * np.fft.fftfreq(64, 0.1))
    assert g.domega == pytest.approx(2 * np.pi / (64 * 0.1))


def test_times_fft_ordering():
    g = FrequencyGrid(8, 1.0)
    assert np.allclose(g.times, [0, 1, 2, 3, -4, -3, -2, -1])


def test_flip_freq_maps_omega_to_minus_omega():
    g = FrequencyGrid(16, 0.5)
    flipped = flip_freq(g.omega)
    # every bin except Nyquist maps to its negation; DC maps to itself
    for k in range(16):
        assert flipped[k] == g.omega[(16 - k) % 16]
    assert flipped[0] == g.omega[0]
    assert flipped[8] == g.omega[8]


def test_flip_freq_involution():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    assert np.array_equal(flip_freq(flip_freq(a)), a)


def test_flip_freq_last_axis():
    a = np.arange(12.0).reshape(3, 4)
    out = flip_freq(a)
    for row_in, row_out in zip(a, out):
        assert np.array_equal(row_out, flip_freq(row_in))


def test_time_grid_covers_padded_window():
    tg = TimeGrid(0.01, 5.0)
    assert tg.n * tg.dt >= 2 * tg.t_max
    assert tg.n & (tg.n - 1) == 0
    assert tg.n_phys == 501
    assert tg.times[0] == 0.0
    assert tg.times[-1] == pytest.approx(5.0)


def test_time_grid_pad_factor():
    assert TimeGrid(0.01, 5.0, pad_factor=4).n >= 2 * TimeGrid(0.01, 5.0).n / 2
    with pytest.raises(ConfigError):
        TimeGrid(0.01, 5.0, pad_factor=1)


def test_time_grid_freq_roundtrip():
    tg = TimeGrid(0.02, 3.0)
    fg = tg.freq()
    assert fg.n == tg.n
    assert fg.dt == tg.dt


@pytest.mark.parametrize("dt, t_max", [(np.inf, 1.0), (0.01, np.inf),
                                       (np.nan, 1.0), (0.01, np.nan)])
def test_time_grid_rejects_non_finite(dt, t_max):
    with pytest.raises(ConfigError, match="finite"):
        TimeGrid(dt=dt, t_max=t_max)


@pytest.mark.parametrize("dt, t_max", [(0.01, 0.004), (0.01, 1e-300)])
def test_time_grid_rejects_window_shorter_than_a_step(dt, t_max):
    with pytest.raises(ConfigError, match="shorter than one step"):
        TimeGrid(dt=dt, t_max=t_max)
    assert TimeGrid(dt=dt, t_max=dt).n == 2
