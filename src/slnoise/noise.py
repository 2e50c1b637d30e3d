"""White-noise sampling, coloured-noise synthesis and correlation checks.

Coloured realizations are built by frequency-domain filtering of real white
Gaussian channels: each component is inverse-DFT(filter * DFT(white)).
With white noise of discrete variance 1/dt and filters defined against the
continuous Fourier convention (forward transform carries dt, inverse
carries 1/(n dt)), the dt factors cancel and the composition reduces to
``fft(filter * ifft(x))`` per channel.  Synthesis runs on a padded grid and
only the physical window [0, t_max] is exposed, which suppresses the
circular wrap-around of DFT convolution.

:class:`Synthesizer` computes the same thing for a chunk of realizations
at once, with fewer transforms than the per-channel form:

* Each realization draws its channels from its own Philox stream as unit
  normals (the stream of :func:`sample_white`); the 1/sqrt(dt) white-noise
  scale is folded into the filters instead of into the draws.
* Two real channels share one complex inverse FFT: for
  ``z = ifft(x_a + i x_b)`` and the conjugate flip ``c(w) = conj(z(-w))``,
  Hermitian symmetry gives ``ifft(x_a) = (z + c)/2`` and
  ``ifft(x_b) = (z - c)/(2i)``.
* The forward FFT is linear, so each output's filtered spectra are summed
  before one forward transform.

Orthogonal wiring packs ``z1 = ifft(x1 + i x4)`` and
``z2 = ifft(x2 + i x3)``; then ``eta = fft(f1 (z1 + c1)/2 + f2 z2)`` and
``nu = fft(i g1 c1 + i g2 c2)``, where ``i c2 = ifft(x3 + i x2)`` is nu's
cross-correlative term, obtained with no transform of its own.  That is 4
FFTs per realization instead of 8.  A rescaled run (``lam`` set) needs the
cross-correlative pair ``fft(f2 z2)``, ``fft(i g2 c2)`` apart from the rest
of eta and nu: 6 FFTs.  Convex wiring packs ``z = ifft(x1 + i x2)``; then
``eta = fft(((f1 + f2) z + (f1 - f2) c)/2)`` and ``nu = fft(g1 z)``: 3
FFTs instead of 6.  The results equal the per-channel form up to rounding.

The ensemble synthesizes each realization's noise once, whatever the
number of rescaling strengths lambda: :meth:`Synthesizer.fill` writes the
noise without the cross-correlative pair, the unscaled pair and a table
of the realization's rescale factors, one per strength.  RK4 applies
the factors block by block, for several strengths in one pass
(:func:`~slnoise.dynamics.integrate_blocks`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np
import scipy.fft
from scipy.signal import fftconvolve

from .exceptions import ConfigError, GridMismatch, InsufficientSample, ZeroComponent
from .grids import TimeGrid
from .schemes import FilterSet, FilterStructure, SchemeId, rescale_factor

__all__ = [
    "NoisePair",
    "CorrelationEstimate",
    "CHUNK_ROWS",
    "Synthesizer",
    "check_memory",
    "sample_white",
    "synthesize",
    "synthesize_batch",
    "synthesize_from_white",
    "estimate_correlations",
]

SeedLike = Union[int, np.random.SeedSequence]

# Realizations coloured together: enough rows for the batched FFTs to pay
# off; one chunk's buffers take about 24 MB at n = 16384.
CHUNK_ROWS = 16


@dataclass(frozen=True)
class NoisePair:
    """One coloured realization on the physical window [0, t_max].

    ``eta0_t``/``nu0_t`` are the cross-correlative components (the ones a
    dynamical rescaling acts on); for schemes without such a component
    pair they are all-zero and ``lambda_applied`` is 1.
    """

    eta_t: np.ndarray
    nu_t: np.ndarray
    eta0_t: np.ndarray
    nu0_t: np.ndarray
    dt: float
    scheme: SchemeId
    seed: object
    lambda_applied: float = 1.0


def _generator(seed: SeedLike) -> np.random.Generator:
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(ss))


def sample_white(grid: TimeGrid, seed: SeedLike, channels: int) -> np.ndarray:
    """Independent real white Gaussian channels, shape (channels, n).

    Discrete variance is 1/dt so that sums over samples approximate
    delta-correlated continuous noise integrals.  Deterministic function
    of the seed (counter-based Philox stream).
    """
    rng = _generator(seed)
    return rng.standard_normal((channels, grid.n)) / np.sqrt(grid.dt)


def check_memory(grid: TimeGrid, rows: int, threads: int = 1,
                 rk4: int = 0) -> None:
    """Refuse a grid whose working set exceeds physical memory.

    ``rows`` counts the pairs of complex series held at once on the
    physical window, one pair per realization: the ensemble loop holds
    two unrescaled batches of two series each (the one being integrated
    and the next), or one rescaled batch of four series.  ``threads`` is
    the number of chunks coloured at once on the padded grid; the kernel
    table and the filters are counted too.  ``rk4`` is the bytes of the
    RK4 state, stage and block buffers of one integration pass, at the
    widest pass the run makes (:func:`~slnoise.dynamics.rk4_bytes`).
    Raises :class:`ConfigError` before any of it is allocated.
    """
    chunk_rows = min(rows, CHUNK_ROWS) * threads
    need = 32 * grid.n_phys * rows + grid.n * (160 * chunk_rows + 320) + rk4
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"the grid dt={grid.dt:g}, t_max={grid.t_max:g} (n={grid.n}) needs "
            f"about {need / 2**30:.3g} GiB for {rows} realizations at once, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


def _conj_flip(z: np.ndarray) -> np.ndarray:
    """conj(z(-w)) along the last axis, in fft ordering."""
    c = np.empty_like(z)
    np.conjugate(z[..., :1], out=c[..., :1])
    np.conjugate(z[..., :0:-1], out=c[..., 1:])
    return c


class Synthesizer:
    """Colours chunks of realizations with one filter set on one grid.

    ``lam`` is the rescaling strength, or for :meth:`fill` an array of
    strengths.  ``scale`` multiplies the white channels; the default
    1/sqrt(dt) turns the unit normals of :meth:`draw` into white noise of
    variance 1/dt, and 1 suits channels drawn by :func:`sample_white`.
    Construction refuses a filter set built on another grid and a
    rescaling request for a scheme without a cross-correlative pair, so
    neither can first surface while noise is drawn.  Afterwards the object
    is only read: several threads may call :meth:`fill` at once, and each
    realization's result does not depend on which thread computed it.
    """

    def __init__(self, fs: FilterSet, grid: TimeGrid, lam=None,
                 scale: Optional[float] = None):
        fg = grid.freq()
        if fg.n != fs.grid.n or fg.dt != fs.grid.dt:
            raise GridMismatch(
                f"filter grid (n={fs.grid.n}, dt={fs.grid.dt}) does not match "
                f"time grid (n={fg.n}, dt={fg.dt})"
            )
        if lam is not None and not fs.has_cross_pair:
            raise ZeroComponent(
                f"the {fs.scheme.value} scheme has no cross-correlative "
                "component pair; lambda rescaling does not apply to it"
            )
        s = 1.0 / np.sqrt(grid.dt) if scale is None else scale
        self.fs = fs
        self.grid = grid
        self.lam = lam
        self.n_phys = grid.n_phys
        if fs.structure is FilterStructure.CONVEX:
            self._taps = (0.5 * s * (fs.f1_w + fs.f2_w),
                          0.5 * s * (fs.f1_w - fs.f2_w),
                          s * fs.g1_w)
        else:
            self._taps = (0.5 * s * fs.f1_w, s * fs.f2_w,
                          1j * s * fs.g1_w, 1j * s * fs.g2_w)

    def draw(self, seeds: Sequence[SeedLike]) -> np.ndarray:
        """Unit-normal channels, shape (len(seeds), channels, n): one
        Philox stream per seed, the numbers of :func:`sample_white`."""
        white = np.empty((len(seeds), self.fs.n_channels, self.grid.n))
        for row, seed in zip(white, seeds):
            _generator(seed).standard_normal(out=row)
        return white

    def colour(self, white: np.ndarray, split: bool = False):
        """Noise on the physical window from white channels (rows, channels, n).

        Returns (eta, nu, eta0, nu0), each of shape (rows, n_phys).  The
        cross-correlative components eta0/nu0 are transformed apart, and
        left out of eta/nu, only when ``split`` is set or ``lam`` is;
        otherwise they are None.  They are never rescaled here.
        """
        n_phys = self.n_phys
        if self.fs.structure is FilterStructure.CONVEX:
            p, q, g = self._taps
            z = np.empty((len(white), white.shape[-1]), dtype=complex)
            z.real, z.imag = white[:, 0], white[:, 1]
            z = scipy.fft.ifft(z, axis=-1, overwrite_x=True)
            spec = np.empty((len(z), 2, z.shape[-1]), dtype=complex)
            np.multiply(_conj_flip(z), q, out=spec[:, 0])
            spec[:, 0] += p * z
            np.multiply(z, g, out=spec[:, 1])
            out = scipy.fft.fft(spec, axis=-1, overwrite_x=True)
            return out[:, 0, :n_phys], out[:, 1, :n_phys], None, None
        a1, b, c1, c2 = self._taps
        z = np.empty((len(white), 2, white.shape[-1]), dtype=complex)
        z[:, 0].real, z[:, 0].imag = white[:, 0], white[:, 3]
        z[:, 1].real, z[:, 1].imag = white[:, 1], white[:, 2]
        z = scipy.fft.ifft(z, axis=-1, overwrite_x=True)
        c = _conj_flip(z)
        z[:, 0] += c[:, 0]
        z[:, 0] *= a1
        z[:, 1] *= b
        if not (split or self.lam is not None):
            # eta's spectrum into z[:, 0], nu's into z[:, 1]
            z[:, 0] += z[:, 1]
            np.multiply(c[:, 0], c1, out=z[:, 1])
            c[:, 1] *= c2
            z[:, 1] += c[:, 1]
            out = scipy.fft.fft(z, axis=-1, overwrite_x=True)
            return out[:, 0, :n_phys], out[:, 1, :n_phys], None, None
        c[:, 0] *= c1
        c[:, 1] *= c2
        eta = scipy.fft.fft(z, axis=-1, overwrite_x=True)[:, :, :n_phys]
        nu = scipy.fft.fft(c, axis=-1, overwrite_x=True)[:, :, :n_phys]
        return eta[:, 0], nu[:, 0], eta[:, 1], nu[:, 1]

    def factors(self, eta0: np.ndarray, nu0: np.ndarray) -> np.ndarray:
        """:func:`rescale_factor` of each row of eta0/nu0 at ``lam``, shape
        (rows,) + shape of ``lam``."""
        return np.array([rescale_factor(e, v, self.lam) for e, v in zip(eta0, nu0)])

    def fill(self, seeds: Sequence[SeedLike], eta_out: np.ndarray,
             nu_out: np.ndarray, cross=None) -> None:
        """Draw and colour one chunk into time-major views of shape
        (n_phys, len(seeds)): column j is the realization of seeds[j].

        With ``lam`` set, ``cross`` is (eta0_out, nu0_out, factors_out):
        eta_out/nu_out then take the noise without the cross-correlative
        pair, eta0_out/nu0_out the unscaled pair, and factors_out, of shape
        (len(lam), len(seeds)), the rescale factor of each column at each
        strength.  The rescaled noise is eta + f eta0 and nu + nu0 / f.
        """
        eta, nu, eta0, nu0 = self.colour(self.draw(seeds))
        eta_out[...] = eta.T
        nu_out[...] = nu.T
        if self.lam is not None:
            eta0_out, nu0_out, factors_out = cross
            eta0_out[...] = eta0.T
            nu0_out[...] = nu0.T
            factors_out[...] = self.factors(eta0, nu0).T

    def pairs(self, white: np.ndarray, seeds: Sequence[object]) -> List[NoisePair]:
        """NoisePairs of white channels (rows, channels, n), one per seed."""
        eta, nu, eta0, nu0 = self.colour(white, split=True)
        if self.fs.structure is FilterStructure.CONVEX:
            eta0, nu0 = np.zeros_like(eta), np.zeros_like(nu)
        lam = 1.0 if self.lam is None else self.lam
        factor = 1.0 if self.lam is None else self.factors(eta0, nu0)[:, None]
        # new arrays, which let the padded transforms go
        eta0 = factor * eta0
        nu0 = nu0 / factor
        return [NoisePair(*rows, self.grid.dt, self.fs.scheme, seed, lam)
                for *rows, seed in zip(eta + eta0, nu + nu0, eta0, nu0, seeds)]


def synthesize_batch(fs: FilterSet, grid: TimeGrid, seeds: Sequence[SeedLike],
                     lam: Optional[float] = None) -> List[NoisePair]:
    """Draw and colour one realization per seed, in chunks of CHUNK_ROWS."""
    synth = Synthesizer(fs, grid, lam)
    pairs: List[NoisePair] = []
    for start in range(0, len(seeds), CHUNK_ROWS):
        chunk = seeds[start:start + CHUNK_ROWS]
        pairs += synth.pairs(synth.draw(chunk), chunk)
    return pairs


def synthesize_from_white(fs: FilterSet, grid: TimeGrid, white: np.ndarray,
                          lam: Optional[float] = None,
                          seed: object = None) -> NoisePair:
    """Assemble a NoisePair from pre-drawn white channels (channels, n) of
    variance 1/dt, such as those of :func:`sample_white`.

    Orthogonal wiring: eta = f1*x1 + f2*(x2 + i x3),
    nu = g1*(i x1 + x4) + g2*(x3 + i x2); the f2/g2 pair is the
    cross-correlative component subject to rescaling.  Convex wiring:
    eta = f1*x1 + i f2*x2, nu = g1*(x1 + i x2); there is no orthogonal
    component pair, so rescaling is undefined.
    """
    return Synthesizer(fs, grid, lam, scale=1.0).pairs(white[None], [seed])[0]


def synthesize(fs: FilterSet, grid: TimeGrid, seed: SeedLike,
               lam: Optional[float] = None) -> NoisePair:
    """Draw white channels for `seed` and colour them with the filter set."""
    return synthesize_batch(fs, grid, [seed], lam)[0]


@dataclass(frozen=True)
class CorrelationEstimate:
    """Empirical two-time correlations averaged over realizations and
    over the stationary time origin."""

    lags: np.ndarray
    est_etaeta: np.ndarray
    est_etanu: np.ndarray
    est_nunu: np.ndarray
    se_etaeta: np.ndarray
    se_etanu: np.ndarray
    se_nunu: np.ndarray
    n_realizations: int


def _lagged_products(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Unbiased estimate of <a(t+tau) b(t)> for tau in [-m*dt, m*dt].

    No complex conjugation: the target correlations are of the bare
    products.  Averages over all admissible time origins at each lag.
    """
    t = a.shape[-1]
    full = fftconvolve(a, b[::-1])
    sums = full[t - 1 - m:t + m]
    counts = t - np.abs(np.arange(-m, m + 1))
    return sums / counts


def estimate_correlations(pairs: Sequence[NoisePair],
                          max_lag: float) -> CorrelationEstimate:
    """Estimate eta-eta, eta-nu and nu-nu correlations from realizations.

    Lag resolution equals the sampling step; both signs of the lag are
    returned (the eta-nu correlation is causal, so its negative-lag values
    measure acausal leakage).  Standard errors are the realization-to-
    realization scatter of the per-realization estimates.
    """
    if len(pairs) < 2:
        raise InsufficientSample("need at least 2 realizations")
    dt = pairs[0].dt
    scheme = pairs[0].scheme
    n = pairs[0].eta_t.shape[-1]
    for p in pairs:
        if p.dt != dt or p.scheme is not scheme or p.eta_t.shape[-1] != n:
            raise GridMismatch("all realizations must share grid and scheme")
    m = int(round(max_lag / dt))
    if m >= n:
        raise ValueError("max_lag exceeds the physical window")
    per = {key: [] for key in ("etaeta", "etanu", "nunu")}
    for p in pairs:
        per["etaeta"].append(_lagged_products(p.eta_t, p.eta_t, m))
        per["etanu"].append(_lagged_products(p.eta_t, p.nu_t, m))
        per["nunu"].append(_lagged_products(p.nu_t, p.nu_t, m))
    est, se = {}, {}
    nreal = len(pairs)
    for key, rows in per.items():
        arr = np.array(rows)
        est[key] = arr.mean(axis=0)
        var = np.sum(np.abs(arr - est[key]) ** 2, axis=0) / (nreal - 1)
        se[key] = np.sqrt(var / nreal)
    lags = dt * np.arange(-m, m + 1)
    return CorrelationEstimate(
        lags=lags,
        est_etaeta=est["etaeta"],
        est_etanu=est["etanu"],
        est_nunu=est["nunu"],
        se_etaeta=se["etaeta"],
        se_etanu=se["etanu"],
        se_nunu=se["nunu"],
        n_realizations=nreal,
    )
