"""Sampling grids shared by the kernel, filter and noise modules.

All spectral quantities live on the discrete Fourier frequencies
``omega_k = 2*pi*k/(n*dt)`` in numpy's fft ordering (non-negative
frequencies first, then negative ones).  Time series are synthesised on a
padded grid of ``n`` samples of which only the physical window
``[0, t_max]`` is exposed, which suppresses circular wrap-around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class FrequencyGrid:
    """DFT frequency grid with ``n`` bins at time spacing ``dt``."""

    n: int
    dt: float

    def __post_init__(self):
        if not _is_pow2(self.n) or self.n < 2:
            raise ConfigError(f"n must be a power of two >= 2, got {self.n}")
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")

    @property
    def domega(self) -> float:
        return 2.0 * np.pi / (self.n * self.dt)

    @property
    def omega(self) -> np.ndarray:
        """Angular frequencies in fft ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dt)

    @property
    def times(self) -> np.ndarray:
        """Time samples in fft ordering (0, dt, ..., then negative times)."""
        t = self.dt * np.arange(self.n, dtype=float)
        half = self.n * self.dt / 2.0
        t[t >= half] -= self.n * self.dt
        return t


def flip_freq(a: np.ndarray) -> np.ndarray:
    """Map an array sampled at omega_k to its values at -omega_k.

    Index 0 (DC) and the Nyquist bin map to themselves.
    """
    return np.roll(a[..., ::-1], 1, axis=-1)


@dataclass(frozen=True)
class TimeGrid:
    """Physical time window plus zero-padding for circular FFT synthesis.

    The total sample count ``n`` covers at least ``pad_factor * t_max``
    and is rounded up to a power of two.
    """

    dt: float
    t_max: float
    pad_factor: int = 2

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not 0 < self.t_max < math.inf:
            raise ConfigError(f"t_max must be positive and finite, got {self.t_max}")
        if self.t_max < self.dt:
            raise ConfigError(f"t_max = {self.t_max:g} is shorter than one step "
                             f"dt = {self.dt:g}")
        if self.pad_factor < 2:
            raise ConfigError(f"pad_factor must be >= 2, got {self.pad_factor}")

    @property
    def n(self) -> int:
        return 2 ** math.ceil(math.log2(self.pad_factor * self.t_max / self.dt))

    @property
    def n_phys(self) -> int:
        """Samples in the exposed window [0, t_max]."""
        return int(round(self.t_max / self.dt)) + 1

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_phys)

    def freq(self) -> FrequencyGrid:
        return FrequencyGrid(self.n, self.dt)
