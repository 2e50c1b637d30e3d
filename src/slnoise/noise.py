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
  scale is folded into the filters instead of into the draws.  The draw
  of a chunk is one call of the native library's ``sln_normals``
  (Philox4x64-10 and numpy's ziggurat in C, see ``_native.c``) outside
  the interpreter lock, bitwise numpy's
  ``Generator(Philox(seed)).standard_normal``; numpy's generators, the
  reference, draw instead where the library cannot be built or does not
  reproduce numpy's bits on a probe stream (:func:`_native_normals`).
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

Every thread that colours noise with a :class:`Synthesizer` holds one
workspace for it: the white channels (rows, channels, n), and the two
complex transform buffers z and c, (2, rows, n) each, that every step of
the colouring overwrites in place.  The thread allocates it on its first
chunk and reuses it for every later one, so a run pays the page faults
of its chunk buffers once per thread, not once per chunk.  A chunk is at
most CHUNK_ROWS realizations, and fewer where that many would take more
than CHUNK_BYTES (16 rows at n <= 16384, 8 at n = 32768); the rows of a
chunk do not change any output bit.  :func:`check_memory` charges the
workspaces with :func:`workspace_bytes`, the helper that sizes them.
The correlation estimator's lagged products are one FFT convolution
each, computed with ``scipy.fft`` as ``scipy.signal.fftconvolve``
computes it for complex input.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np
import scipy.fft

from . import _native
from .exceptions import (ConfigError, GridMismatch, InsufficientSample,
                         SlnoiseError, ZeroComponent)
from .grids import TimeGrid
from .schemes import FilterSet, FilterStructure, SchemeId, rescale_factor

__all__ = [
    "NoisePair",
    "CorrelationEstimate",
    "CHUNK_ROWS",
    "CHUNK_BYTES",
    "Synthesizer",
    "chunk_rows",
    "check_memory",
    "workspace_bytes",
    "sample_white",
    "synthesize",
    "synthesize_batch",
    "synthesize_from_white",
    "estimate_correlations",
    "lag_steps",
]

SeedLike = Union[int, np.random.SeedSequence]

# Realizations coloured together: enough rows for the batched FFTs to pay
# off, but no more than CHUNK_BYTES of workspace per thread, the
# 4-channel footprint of CHUNK_ROWS rows at n = 16384 (24 MiB).
CHUNK_ROWS = 16
CHUNK_BYTES = 24 * 2**20


def workspace_bytes(rows: int, channels: int, n: int) -> int:
    """Bytes of one thread's colouring workspace for ``rows`` realizations
    of ``channels`` white channels on ``n`` samples: the channels, and the
    complex (2, rows, n) buffers z and c."""
    return rows * n * (8 * channels + 2 * 2 * 16)


def chunk_rows(n: int, channels: int, rows: int = CHUNK_ROWS) -> int:
    """Realizations coloured together on ``n`` samples, when at most
    ``rows`` are asked for: at most CHUNK_ROWS, and fewer where their
    workspace would exceed CHUNK_BYTES, but at least one."""
    fit = CHUNK_BYTES // workspace_bytes(1, channels, n)
    return max(1, min(rows, CHUNK_ROWS, fit))


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


def _seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def _generator(seed: SeedLike) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_seed_sequence(seed)))


def _philox_key(seed: SeedLike) -> np.ndarray:
    """The key of ``Philox(seed)``: two words of the seed's SeedSequence."""
    return _seed_sequence(seed).generate_state(2, np.uint64)


# The normals probe draws 2**16 normals of this seed, among which are
# wedge and tail samples of the ziggurat.
_PROBE_SEED = 2020
_PROBE_COUNT = 2**16


def _probe(normals) -> bool:
    """Whether ``normals`` gives numpy's bits on the first _PROBE_COUNT
    normals of _PROBE_SEED's stream, compared 4096 at a time, which keeps
    the probe's memory to the one stream."""
    key, got = _philox_key(_PROBE_SEED), np.empty(_PROBE_COUNT)
    normals(key.ctypes.data, 1, _PROBE_COUNT, got.ctypes.data)
    numpy_stream = _generator(_PROBE_SEED)
    return all(np.array_equal(part.view(np.uint64),
                              numpy_stream.standard_normal(len(part)).view(np.uint64))
               for part in np.split(got, _PROBE_COUNT // 4096))


@functools.cache
def _native_normals():
    """The native draw, ``sln_normals`` of :func:`_native.library`, if it
    reproduces numpy's normals bit for bit, or None when it cannot be
    built, loaded or matched; then :meth:`Synthesizer.draw` runs numpy's
    generators, silently."""
    lib = _native.library()
    if lib is None:
        return None
    normals = lib["sln_normals"]
    normals.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                        ctypes.c_void_p]
    normals.restype = None
    return normals if _probe(normals) else None


def sample_white(grid: TimeGrid, seed: SeedLike, channels: int) -> np.ndarray:
    """Independent real white Gaussian channels, shape (channels, n).

    Discrete variance is 1/dt so that sums over samples approximate
    delta-correlated continuous noise integrals.  Deterministic function
    of the seed (counter-based Philox stream).
    """
    rng = _generator(seed)
    return rng.standard_normal((channels, grid.n)) / np.sqrt(grid.dt)


def check_memory(grid: TimeGrid, rows: int, threads: int = 1,
                 extra: int = 0, channels: int = 4) -> None:
    """Refuse a grid whose working set exceeds physical memory.

    ``rows`` is the most realizations synthesized at once, each kept as
    four complex series on the physical window: the ensemble loop holds
    two unrescaled batches of two series each (the one being integrated
    and the next), or one rescaled batch of four series, and a NoisePair
    holds four.  Each of ``threads`` threads holds the colouring
    workspace of a :class:`Synthesizer` asked for ``rows`` realizations of
    ``channels`` white channels (:func:`workspace_bytes` of
    :func:`chunk_rows`); the kernel table and the filters on the padded
    grid are counted too.  ``extra`` is the bytes of the run's other
    buffers: the RK4 state, stage and block buffers of one integration
    pass, at the widest pass the run makes
    (:func:`~slnoise.dynamics.rk4_bytes`), and the statistics the run
    keeps per rescaling strength.
    Raises :class:`ConfigError` before any of it is allocated.
    """
    workspace = workspace_bytes(chunk_rows(grid.n, channels, rows), channels, grid.n)
    need = (64 * grid.n_phys * rows + threads * workspace + 320 * grid.n
            + extra)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"the grid dt={grid.dt:g}, t_max={grid.t_max:g} (n={grid.n}) needs "
            f"about {need / 2**30:.3g} GiB for {rows} realizations at once, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


def _conj_flip(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """conj(z(-w)) along the last axis, in fft ordering, into ``out``."""
    np.conjugate(z[..., :1], out=out[..., :1])
    np.conjugate(z[..., :0:-1], out=out[..., 1:])
    return out


class Synthesizer:
    """Colours chunks of realizations with one filter set on one grid.

    ``lam`` is the rescaling strength, or for :meth:`fill` an array of
    strengths.  ``scale`` multiplies the white channels; the default
    1/sqrt(dt) turns the unit normals of :meth:`draw` into white noise of
    variance 1/dt, and 1 suits channels drawn by :func:`sample_white`.
    ``rows`` is the most realizations a caller asks of one call; with the
    grid and the channel count it fixes :attr:`chunk_rows`, the rows of
    each thread's workspace (:func:`chunk_rows`).
    Construction refuses a filter set built on another grid and a
    rescaling request for a scheme without a cross-correlative pair, so
    neither can first surface while noise is drawn.  Afterwards the object
    is only read, apart from each thread's own workspace: several threads
    may call :meth:`fill` at once, and each realization's result does not
    depend on which thread computed it, nor on the rows of its chunk.
    """

    def __init__(self, fs: FilterSet, grid: TimeGrid, lam=None,
                 scale: Optional[float] = None, rows: int = CHUNK_ROWS):
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
        self.chunk_rows = chunk_rows(grid.n, fs.n_channels, rows)
        self._local = threading.local()
        if fs.structure is FilterStructure.CONVEX:
            self._taps = (0.5 * s * (fs.f1_w + fs.f2_w),
                          0.5 * s * (fs.f1_w - fs.f2_w),
                          s * fs.g1_w)
        else:
            self._taps = (0.5 * s * fs.f1_w, s * fs.f2_w,
                          1j * s * fs.g1_w, 1j * s * fs.g2_w)

    def _workspace(self, rows: int):
        """The calling thread's white (rows, channels, n), z and c
        (2, rows, n) buffers: allocated with :attr:`chunk_rows` rows on the
        thread's first call, then reused, so their pages are touched once
        per thread.  z and c keep their two halves apart in memory, so an
        in-place sum of one half into the other needs no copy."""
        ws = getattr(self._local, "ws", None)
        if ws is None:
            n = self.grid.n
            ws = self._local.ws = (
                np.empty((self.chunk_rows, self.fs.n_channels, n)),
                np.empty((2, self.chunk_rows, n), dtype=complex),
                np.empty((2, self.chunk_rows, n), dtype=complex),
            )
        white, z, c = ws
        return white[:rows], z[:, :rows], c[:, :rows]

    def draw(self, seeds: Sequence[SeedLike], out: np.ndarray) -> np.ndarray:
        """Unit-normal channels into ``out``, shape (len(seeds), channels,
        n): one Philox stream per seed, the numbers of
        :func:`sample_white`, those of
        ``Generator(Philox(seed)).standard_normal``.

        The native draw (:func:`_native_normals`) fills all the rows in
        one call outside the interpreter lock, from each seed's Philox
        key; where it is not available, or ``out`` is not contiguous
        float64, numpy's generators fill the rows one by one.  Both give
        the same bits."""
        normals = _native_normals()
        if (normals is None or out.dtype != np.float64
                or not out.flags.c_contiguous):
            for row, seed in zip(out, seeds):
                _generator(seed).standard_normal(out=row)
            return out
        rows = min(len(seeds), len(out))
        keys = np.empty((rows, 2), dtype=np.uint64)
        for key, seed in zip(keys, seeds):
            key[:] = _philox_key(seed)
        normals(keys.ctypes.data, rows, out[0].size if rows else 0,
                out.ctypes.data)
        return out

    def _colour(self, white: np.ndarray, split: bool = False):
        """Noise on the physical window from white channels (rows, channels, n),
        rows <= :attr:`chunk_rows`.

        Returns (eta, nu, eta0, nu0), each of shape (rows, n_phys), views
        of the thread's workspace that its next call overwrites.  The
        cross-correlative components eta0/nu0 are transformed apart, and
        left out of eta/nu, only when ``split`` is set or ``lam`` is;
        otherwise they are None.  They are never rescaled here.
        """
        n_phys = self.n_phys
        _, z, c = self._workspace(len(white))
        if self.fs.structure is FilterStructure.CONVEX:
            p, q, g = self._taps
            # z's halves: the transform and a scratch for p z; c takes
            # eta's and nu's spectra
            zc, pz = z
            zc.real, zc.imag = white[:, 0], white[:, 1]
            zc = scipy.fft.ifft(zc, axis=-1, overwrite_x=True)
            _conj_flip(zc, out=c[0])
            c[0] *= q
            np.multiply(p, zc, out=pz)
            c[0] += pz
            np.multiply(zc, g, out=c[1])
            out = scipy.fft.fft(c, axis=-1, overwrite_x=True)
            return out[0, :, :n_phys], out[1, :, :n_phys], None, None
        a1, b, c1, c2 = self._taps
        z[0].real, z[0].imag = white[:, 0], white[:, 3]
        z[1].real, z[1].imag = white[:, 1], white[:, 2]
        z = scipy.fft.ifft(z, axis=-1, overwrite_x=True)
        _conj_flip(z, out=c)
        z[0] += c[0]
        z[0] *= a1
        z[1] *= b
        if not (split or self.lam is not None):
            # eta's spectrum into z[0], nu's into z[1]
            z[0] += z[1]
            np.multiply(c[0], c1, out=z[1])
            c[1] *= c2
            z[1] += c[1]
            out = scipy.fft.fft(z, axis=-1, overwrite_x=True)
            return out[0, :, :n_phys], out[1, :, :n_phys], None, None
        c[0] *= c1
        c[1] *= c2
        eta = scipy.fft.fft(z, axis=-1, overwrite_x=True)[..., :n_phys]
        nu = scipy.fft.fft(c, axis=-1, overwrite_x=True)[..., :n_phys]
        return eta[0], nu[0], eta[1], nu[1]

    def factors(self, eta0: np.ndarray, nu0: np.ndarray) -> np.ndarray:
        """:func:`rescale_factor` of each row of eta0/nu0 at ``lam``, shape
        (rows,) + shape of ``lam``."""
        return np.array([rescale_factor(e, v, self.lam) for e, v in zip(eta0, nu0)])

    def fill(self, seeds: Sequence[SeedLike], eta_out: np.ndarray,
             nu_out: np.ndarray, cross=None) -> None:
        """Draw and colour realizations, :attr:`chunk_rows` at a time, into
        time-major views of shape (n_phys, len(seeds)): column j is the
        realization of seeds[j].

        With ``lam`` set, ``cross`` is (eta0_out, nu0_out, factors_out):
        eta_out/nu_out then take the noise without the cross-correlative
        pair, eta0_out/nu0_out the unscaled pair, and factors_out, of shape
        (len(lam), len(seeds)), the rescale factor of each column at each
        strength.  The rescaled noise is eta + f eta0 and nu + nu0 / f.
        """
        for a in range(0, len(seeds), self.chunk_rows):
            cols = slice(a, a + self.chunk_rows)
            chunk = seeds[cols]
            white = self.draw(chunk, self._workspace(len(chunk))[0])
            eta, nu, eta0, nu0 = self._colour(white)
            eta_out[:, cols] = eta.T
            nu_out[:, cols] = nu.T
            if self.lam is not None:
                eta0_out, nu0_out, factors_out = cross
                eta0_out[:, cols] = eta0.T
                nu0_out[:, cols] = nu0.T
                factors_out[:, cols] = self.factors(eta0, nu0).T

    def pairs(self, seeds: Sequence[object],
              white: Optional[np.ndarray] = None) -> List[NoisePair]:
        """NoisePairs, one per seed, coloured :attr:`chunk_rows` at a time:
        of the white channels (len(seeds), channels, n) if given, else of
        those :meth:`draw` gives for the seeds."""
        pairs: List[NoisePair] = []
        for a in range(0, len(seeds), self.chunk_rows):
            chunk = seeds[a:a + self.chunk_rows]
            x = (self.draw(chunk, self._workspace(len(chunk))[0])
                 if white is None else white[a:a + self.chunk_rows])
            eta, nu, eta0, nu0 = self._colour(x, split=True)
            if self.fs.structure is FilterStructure.CONVEX:
                eta0, nu0 = np.zeros_like(eta), np.zeros_like(nu)
            lam = 1.0 if self.lam is None else self.lam
            factor = 1.0 if self.lam is None else self.factors(eta0, nu0)[:, None]
            # new arrays, which leave the workspace to the next chunk
            eta0 = factor * eta0
            nu0 = nu0 / factor
            pairs += [NoisePair(*rows, self.grid.dt, self.fs.scheme, seed, lam)
                      for *rows, seed in zip(eta + eta0, nu + nu0, eta0, nu0, chunk)]
        return pairs


def synthesize_batch(fs: FilterSet, grid: TimeGrid, seeds: Sequence[SeedLike],
                     lam: Optional[float] = None) -> List[NoisePair]:
    """Draw and colour one realization per seed, in chunks of at most
    CHUNK_ROWS."""
    return Synthesizer(fs, grid, lam, rows=len(seeds)).pairs(seeds)


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
    synth = Synthesizer(fs, grid, lam, scale=1.0, rows=1)
    return synth.pairs([seed], white[None])[0]


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
    # the 'full' convolution of a with reversed b, as fftconvolve forms it
    # for complex input: complex FFTs at the next fast length
    size = 2 * t - 1
    fsize = scipy.fft.next_fast_len(size, False)
    full = scipy.fft.ifftn(scipy.fft.fftn(a, [fsize], axes=[0])
                           * scipy.fft.fftn(b[::-1], [fsize], axes=[0]),
                           [fsize], axes=[0])
    sums = full[t - 1 - m:t + m]
    counts = t - np.abs(np.arange(-m, m + 1))
    return sums / counts


def lag_steps(max_lag: float, dt: float, n: int) -> int:
    """Steps round(max_lag/dt) of the longest lag a correlation estimate
    over ``n`` samples of step ``dt`` reaches; refuses a ``max_lag``
    outside [0, t_max] with :class:`ConfigError`."""
    # round(max_lag/dt) < n, written without round() so nan and inf fail
    if not 0 <= max_lag / dt < n - 0.5:
        raise ConfigError(
            f"max_lag {max_lag:g} must lie in [0, t_max = {(n - 1) * dt:g}]")
    return int(round(max_lag / dt))


def estimate_correlations(pairs: Sequence[NoisePair],
                          max_lag: float) -> CorrelationEstimate:
    """Estimate eta-eta, eta-nu and nu-nu correlations from realizations.

    Lag resolution equals the sampling step; both signs of the lag are
    returned (the eta-nu correlation is causal, so its negative-lag values
    measure acausal leakage).  Standard errors are the realization-to-
    realization scatter of the per-realization estimates.  Refuses a
    ``max_lag`` outside [0, t_max] with :class:`ConfigError`, and an
    estimate that is not finite (overflowed noise) with :class:`SlnoiseError`.
    """
    if len(pairs) < 2:
        raise InsufficientSample("need at least 2 realizations")
    dt = pairs[0].dt
    scheme = pairs[0].scheme
    n = pairs[0].eta_t.shape[-1]
    for p in pairs:
        if p.dt != dt or p.scheme is not scheme or p.eta_t.shape[-1] != n:
            raise GridMismatch("all realizations must share grid and scheme")
    m = lag_steps(max_lag, dt, n)
    est, se = {}, {}
    nreal = len(pairs)
    with np.errstate(over="ignore", invalid="ignore"):
        for key, a, b in (("etaeta", "eta_t", "eta_t"), ("etanu", "eta_t", "nu_t"),
                          ("nunu", "nu_t", "nu_t")):
            arr = np.array([_lagged_products(getattr(p, a), getattr(p, b), m)
                            for p in pairs])
            est[key] = arr.mean(axis=0)
            var = np.sum(np.abs(arr - est[key]) ** 2, axis=0) / (nreal - 1)
            se[key] = np.sqrt(var / nreal)
            # a mean that is not finite makes its SE not finite too
            if not np.all(np.isfinite(se[key])):
                raise SlnoiseError(f"the {key} correlation estimate is not "
                                   "finite: the noise overflows its products")
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
