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
FFTs instead of 6.  The results equal the per-channel form,
:func:`synthesize_from_white`, up to rounding.

A chunk is coloured in five steps, each native where the native library
loads:

1. the draw: one call of the native library's ``sln_normals``
   (Philox4x64-10 and numpy's ziggurat in C, see ``_native.c``) outside
   the interpreter lock writes each channel straight into the real or
   imaginary parts of the thread's transform buffer z, as the wiring
   packs it.  Where the library is built for AVX-512, each stream's
   Philox blocks are made sixteen at a time in vector lanes and the
   ziggurat's rectangle test is taken for eight draws at once, a draw
   outside its rectangle falling back to the scalar code, so that the
   stream is consumed as numpy consumes it;
2. the inverse FFT of z, in place, by ``sln_fft``: pocketfft's passes,
   the transform of ``numpy.fft`` (and of scipy.fft, which gives the same
   bits), eight butterflies at a time in vector lanes, with its twiddles
   (:func:`_fft_twiddles`, built once per :class:`Synthesizer`) and a
   scratch row per thread.  The convex wiring transforms z's first half
   only: it draws into that half, and the spectral pass writes every bin
   of the other;
3. one spectral pass, ``sln_mix``: the conjugate flips, the filter taps
   and the sums of the wiring, bins k and n-k together, in place in z
   (and into a second buffer c where the cross-correlative pair is
   transformed apart);
4. the forward FFT, in place, by ``sln_fft``;
5. the write-out, ``sln_transpose``: the physical window of each row into
   the caller's time-major columns.

Each native step gives numpy's bits (for the FFTs ``numpy.fft``'s, which
are scipy's): :func:`slnoise._native.kernel`, the one loader of the
native kernels, hands a kernel out only if its probe here checks it
(:func:`_probe`, :func:`_colour_probe`, :func:`_write_probe`,
:func:`_fft_probe`).  Where it does not, or the library cannot be built,
numpy runs that step, and the loader logs why at INFO on the ``slnoise``
logger: the draw is ``Generator(Philox(seed)).standard_normal`` into a
white-channel buffer that numpy packs into z, the FFTs are
``numpy.fft``'s, the spectral pass is :func:`_mix`, numpy's ufuncs with c
as scratch, and the write-out a numpy copy.  So the output never depends
on which code ran.

:meth:`Synthesizer.fill` is the one colouring loop.  An ensemble's
worker threads call it one chunk at a time, into time-major buffers of
the chunk's width, which RK4 integrates before the next chunk is drawn
(see :mod:`slnoise.ensemble`).  The ensemble synthesizes each
realization's noise once, whatever the number of rescaling strengths
lambda: ``fill`` writes the noise without the cross-correlative pair, the
unscaled pair and a table of the realization's rescale factors, one per
strength, formed over the chunk's rows in one call
(:meth:`Synthesizer.factors`).  RK4 applies the factors block by block,
for several strengths in one pass
(:func:`~slnoise.dynamics.integrate_blocks`).  :meth:`Synthesizer.pairs`
(so :func:`synthesize` and :func:`synthesize_batch`) hands out the columns
of a ``fill``, rescaled at one strength as RK4 rescales them: bitwise the
noise an ensemble integrates.

Every thread that colours noise with a :class:`Synthesizer` holds one
workspace for it, of the buffers its chunks use: the complex transform
buffer z, (2, rows, n); c, of the same shape, where numpy mixes or the
cross-correlative pair is transformed apart; the white channels
(rows, channels, n) where numpy draws them; and the native transform's
scratch row of n samples.  The
thread allocates each on its first chunk that needs it and reuses it
for every later one, so a run pays the page faults of its chunk buffers
once per thread, not once per chunk.  A chunk is at most CHUNK_ROWS
realizations, and fewer where that many would take more than
CHUNK_BYTES (16 rows at n <= 16384, 8 at n = 32768); the rows of a
chunk do not change any output bit.  The callers of :func:`check_memory`
charge the workspaces with :func:`workspace_bytes`, the helper that sizes
numpy's, the largest.
The correlation estimator's lagged products are one FFT convolution
each, computed with ``numpy.fft`` as ``scipy.signal.fftconvolve``
computes it for complex input, bit for bit.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Union

import numpy as np

from . import _native
from .exceptions import (ConfigError, GridMismatch, InsufficientSample,
                         SlnoiseError, ZeroComponent)
from .grids import TimeGrid
from .kernels import next_fast_len
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

# Bytes per sample of the padded grid that the kernel table and the
# filters take, with the transients of their build.
TABLE_BYTES = 320


def workspace_bytes(rows: int, channels: int, n: int) -> int:
    """Bytes of one thread's colouring workspace for ``rows`` realizations
    of ``channels`` white channels on ``n`` samples, as numpy colours
    them: the channels, and the complex (2, rows, n) buffers z and c.  It
    bounds the native colouring's workspace too, which is z and the
    transform's scratch row of n complex samples, with c only where the
    cross-correlative pair is transformed apart and the channels only
    where numpy draws them."""
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

    ``lambda_applied`` is the strength at which the cross-correlative pair
    of eta_t/nu_t is rescaled, 1 where it is not.
    """

    eta_t: np.ndarray
    nu_t: np.ndarray
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


# The normals probe draws _PROBE_COUNT normals of this seed, among which
# are wedge and tail samples of the ziggurat, as two channels into the
# real and imaginary parts of a complex buffer, the way the transform
# buffer is filled.  A channel's length, _PROBE_COUNT // 2, is not a
# multiple of 8: the vector draw's first channel ends in a short group and
# its second starts within a group of eight draws.
_PROBE_SEED = 2020
_PROBE_COUNT = 2**16 + 10


def _probe(normals) -> bool:
    """Whether ``normals`` gives numpy's bits on the first _PROBE_COUNT
    normals of _PROBE_SEED's stream, written as two channels into a
    complex buffer of 0.5 MB and compared about 4096 at a time."""
    n = _PROBE_COUNT // 2
    got = np.empty(n, dtype=complex)
    _draw_native(normals, [_PROBE_SEED], n, got, 2 * n, [0, 1])
    numpy_stream = _generator(_PROBE_SEED)
    return all(np.array_equal(part.view(np.uint64),
                              numpy_stream.standard_normal(len(part)).view(np.uint64))
               for channel in (got.real, got.imag)
               for part in np.array_split(channel, 8))


def _draw_native(normals, seeds: Sequence[SeedLike], n: int, out: np.ndarray,
                 row_stride: int, offsets: Sequence[int]) -> None:
    """One call of the native draw: ``len(offsets)`` channels of ``n``
    unit normals per seed, from the seed's Philox key, the normal t of
    channel ch of row i into float64 ``i*row_stride + offsets[ch] + 2*t``
    of ``out``'s data, the real or the imaginary parts of a complex
    buffer."""
    keys = np.empty((len(seeds), 2), dtype=np.uint64)
    for key, seed in zip(keys, seeds):
        key[:] = _philox_key(seed)
    offsets = np.asarray(offsets, dtype=np.int64)
    normals(keys.ctypes.data, len(seeds), len(offsets), n, out.ctypes.data,
            row_stride, offsets.ctypes.data)


def _colour_probe(mix) -> bool:
    """Whether the spectral pass ``mix`` gives numpy's bits in each wiring
    (orthogonal with the cross-correlative pair summed in or apart,
    convex) on random spectra of 3 rows of 8 bins, in which bins 0 and 4
    are their own mirror, with zero taps and zero spectra among them, and
    with the first tap complex or real (a +0.0 imaginary part, as the
    taps of most schemes have)."""
    rng = np.random.default_rng(2020)
    rows, n = 3, 8

    def spectra():
        z = rng.standard_normal((2, rows, n)) + 1j * rng.standard_normal((2, rows, n))
        z[:, 1, 2] = z[:, 2, 0] = 0.0
        return z

    wirings = ((False, False), (False, True), (True, False))
    for (convex, split), real in itertools.product(wirings, (False, True)):
        shape = (3 if convex else 4, n)
        taps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if real:
            taps[0].imag = 0.0
        taps[0, 1] = taps[-1, 3] = 0.0
        taps[1, 5] = -0.0
        z = spectra()
        # numpy casts a real tap itself
        want = _mix([taps[0].real, *taps[1:]] if real else taps, z.copy(),
                    np.empty_like(z), split, convex)
        got = _mix_native(mix, taps, z,
                          np.full_like(z, np.nan) if split else None, convex)
        if [a.tobytes() for a in want] != [a.tobytes() for a in got]:
            return False
    return True


def _write_probe(transpose) -> bool:
    """Whether the write-out ``transpose`` gives numpy's bits on random
    spectra of 3 rows of 8 bins, written into the time-major columns of a
    wider array, and leaves the columns beside them alone."""
    rng = np.random.default_rng(2020)
    rows, n = 3, 8
    src = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    dst = np.full((n, 2 * rows), np.nan, dtype=complex)
    _write(transpose, src, dst[:, 1:1 + rows])
    return (dst[:, 1:1 + rows].tobytes() == src.T.tobytes()
            and np.isnan(dst[:, 0]).all() and np.isnan(dst[:, 1 + rows:]).all())


# The transform probe compares the native transform with numpy.fft on
# every power of two up to 2^_FFT_PROBE_LOG, which takes every radix and
# every kind of pass: groups of fewer lanes than 8 (n <= 32), columns
# loaded as they lie for one k and for several (ido >= 8), in two runs
# (ido = 4) and transposed (ido = 1, radix 8 and 4), and the radix 2 put
# first (n = 128).
_FFT_PROBE_LOG = 9


def _fft_probe(fft) -> bool:
    """Whether the transform ``fft`` gives numpy.fft's bits (scipy.fft's),
    forward and inverse, on random rows of 2 to 2^_FFT_PROBE_LOG samples
    with signed zeros among them, two rows apart in each half of a
    (2, 3, n) buffer."""
    rng = np.random.default_rng(2020)
    for n in 2 ** np.arange(1, _FFT_PROBE_LOG + 1):
        a = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
        a[0, 0, 0], a[1, 1, -1] = -0.0, complex(0.0, -0.0)
        twiddles, scratch = _fft_twiddles(n), np.empty(n, dtype=complex)
        for inverse, reference in ((False, np.fft.fft), (True, np.fft.ifft)):
            got = a.copy()
            _fft_native(fft, got[:, :2], inverse, twiddles, scratch)
            want = reference(a[:, :2], axis=-1)
            if (got[:, :2].tobytes() != want.tobytes()
                    or got[:, 2].tobytes() != a[:, 2].tobytes()):
                return False
    return True


def _fft_native(fft, a: np.ndarray, inverse: bool, twiddles: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
    """One call of the native transform ``fft``: numpy.fft.fft, or ifft if
    ``inverse``, bitwise scipy.fft's, of every row of the complex128 array
    ``a`` of 1 to 3 dimensions with contiguous rows, in place.
    ``twiddles`` are those of :func:`_fft_twiddles` for a's rows,
    ``scratch`` a row's worth of complex128.  Returns a."""
    n = a.shape[-1]
    if (a.dtype != np.complex128 or not 1 <= a.ndim <= 3 or n < 2 or n & (n - 1)
            or a.strides[-1] != 16 or any(st % 16 for st in a.strides)
            or twiddles.dtype != np.float64 or twiddles.shape != (_twiddle_count(n),)
            or scratch.dtype != np.complex128 or scratch.shape != (n,)
            or not scratch.flags.c_contiguous):
        raise ValueError("sln_fft takes rows of 2^m complex128 samples in "
                         "place, with their twiddles and a scratch row")
    shape = (1,) * (3 - a.ndim) + a.shape
    strides = (0,) * (3 - a.ndim) + a.strides
    fft(int(inverse), shape[2], twiddles.ctypes.data, scratch.ctypes.data,
        a.ctypes.data, shape[0], strides[0] // 16, shape[1], strides[1] // 16)
    return a


def _aligned_empty(shape, dtype=complex) -> np.ndarray:
    """An empty array whose data starts on a 64-byte cache line, so that
    the native transform's 64-byte loads and stores do not straddle two
    lines (numpy aligns large arrays to 16 bytes only), which made it
    about a quarter slower."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype).reshape(shape)


def _fft_radices(n: int) -> List[int]:
    """The radices of pocketfft's passes for n = 2^m, as ``sln_fft`` takes
    them: as many 8s as divide n, then a 4, or a 2 put first."""
    radices = []
    while n % 8 == 0:
        radices.append(8)
        n //= 8
    if n == 4:
        radices.append(4)
    elif n == 2:
        radices.insert(0, 2)
    return radices


def _twiddle_count(n: int) -> int:
    """The length of :func:`_fft_twiddles`(n)."""
    count, l1 = 0, 1
    for ip in _fft_radices(n):
        count += 2 * (ip - 1) * max(n // (l1 * ip), 8)
        l1 *= ip
    return count


def _root(x: int, n: int, ang: float):
    """pocketfft's exp(2 pi i x / n) for x <= n/2, from libm's cos and sin
    of an angle of at most pi/4, ang = pi / (4n), by the octant of x."""
    x *= 8
    conj = x >= 4 * n
    if conj:
        x = 8 * n - x
    quarter = x >= 2 * n
    if quarter:
        x -= 2 * n
    if x < n:
        c, s = math.cos(x * ang), math.sin(x * ang)
    else:
        s, c = math.cos((2 * n - x) * ang), math.sin((2 * n - x) * ang)
    re, im = (-s, c) if quarter else (c, s)
    return (re, -im) if conj else (re, im)


def _fft_twiddles(n: int) -> np.ndarray:
    """The twiddles of ``sln_fft`` for rows of n = 2^m samples, as
    pocketfft's cfftp computes them (its sincos_2pibyn): the root
    w(x) = exp(-2 pi i x / n) of the forward transform is the product of
    v1[x & mask] and v2[x >> shift], two tables of libm's cos and sin at
    most pi/4 from an axis, for x <= n/2, and the conjugate of w(n - x)
    beyond.  For each pass of radix ip after l1 samples' worth of passes,
    with ido = n / (l1 ip), rows j = 1 .. ip-1 of max(ido, 8) real parts
    and as many imaginary parts: entry e is w(j l1 (e mod ido)), which is
    w(0) = 1 in the column e mod ido = 0 that is not twiddled.  Aligned to
    64 bytes."""
    ang = math.pi / (4 * n)  # double(0.25L pi / n), as n is a power of two
    count = (n + 2) // 2
    shift = 1
    while 4 ** shift < count:
        shift += 1
    mask = (1 << shift) - 1
    v1 = np.array([(1.0, 0.0)] + [_root(x, n, ang) for x in range(1, mask + 1)])
    v2 = np.array([(1.0, 0.0)] + [_root(x * (mask + 1), n, ang)
                                  for x in range(1, (count + mask) // (mask + 1))])

    def roots(x):
        flip = 2 * x > n
        x = np.where(flip, n - x, x)
        a, b = v1[x & mask], v2[x >> shift]
        re = a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1]
        im = a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0]
        return re, np.where(flip, -im, im)

    rows, l1 = [], 1
    for ip in _fft_radices(n):
        ido = n // (l1 * ip)
        re, im = roots(np.outer(np.arange(1, ip) * l1, np.arange(max(ido, 8)) % ido))
        rows.append(np.stack((re, im), axis=1).ravel())
        l1 *= ip
    table = np.concatenate(rows)
    aligned = _aligned_empty(table.shape, float)
    aligned[...] = table
    return aligned


def _mix_native(mix, taps: np.ndarray, z: np.ndarray, c: Optional[np.ndarray],
                convex: bool):
    """The spectral pass of :func:`_mix` in one call of the native ``mix``:
    in place on the (2, rows, n) spectra z, and into c where it is given,
    which takes the orthogonal wiring's cross-correlative pair apart.
    ``taps`` are the wiring's taps as one complex128 (taps, n) array; z and
    c are complex128 with contiguous rows.  Returns the spectra as
    :func:`_mix` does."""
    strides = [s // 16 for s in z.strides[:2] + (z if c is None else c).strides[:2]]
    mix(int(convex), z.shape[1], z.shape[2], taps.ctypes.data, z.ctypes.data,
        None if c is None else c.ctypes.data, *strides)
    return (z,) if c is None else (z, c)


def _mix(taps, z: np.ndarray, c: np.ndarray, split: bool, convex: bool):
    """numpy's spectral pass of the colouring, the reference of the native
    one: from the inverse transforms z (2, rows, n) of the packed white
    channels, the spectra that the forward FFT turns into the noise, with
    c as scratch.  Returns them as one array (eta's, nu's) or, with
    ``split``, as two, (eta's, eta0's) and (nu's, nu0's)."""
    if convex:
        p, q, g = taps
        # z's halves: the transform and a scratch for p z; c takes eta's
        # and nu's spectra
        zc, pz = z
        _conj_flip(zc, out=c[0])
        c[0] *= q
        np.multiply(p, zc, out=pz)
        c[0] += pz
        np.multiply(zc, g, out=c[1])
        return (c,)
    a1, b, c1, c2 = taps
    _conj_flip(z, out=c)
    z[0] += c[0]
    z[0] *= a1
    z[1] *= b
    if not split:
        # eta's spectrum into z[0], nu's into z[1]
        z[0] += z[1]
        np.multiply(c[0], c1, out=z[1])
        c[1] *= c2
        z[1] += c[1]
        return (z,)
    c[0] *= c1
    c[1] *= c2
    return z, c


def _write(transpose, src: np.ndarray, dst: np.ndarray) -> None:
    """``dst[...] = src.T``, in one call of the native ``transpose`` where
    both are complex128 with contiguous rows, else by numpy."""
    if (transpose is None or src.dtype != np.complex128
            or dst.dtype != np.complex128 or dst.shape != src.T.shape
            or src.strides[1] != 16 or dst.strides[1] != 16
            or src.strides[0] % 16 or dst.strides[0] % 16):
        dst[...] = src.T
        return
    transpose(src.ctypes.data, src.shape[0], src.shape[1], src.strides[0] // 16,
              dst.ctypes.data, dst.strides[0] // 16)


def sample_white(grid: TimeGrid, seed: SeedLike, channels: int) -> np.ndarray:
    """Independent real white Gaussian channels, shape (channels, n).

    Discrete variance is 1/dt so that sums over samples approximate
    delta-correlated continuous noise integrals.  Deterministic function
    of the seed (counter-based Philox stream).
    """
    rng = _generator(seed)
    return rng.standard_normal((channels, grid.n)) / np.sqrt(grid.dt)


def grid_name(grid: TimeGrid) -> str:
    """The grid as a memory refusal names it."""
    return f"the grid dt={grid.dt:g}, t_max={grid.t_max:g} (n={grid.n})"


def check_memory(parts: Mapping[str, int]) -> None:
    """Refuse a run whose working set exceeds physical memory.

    ``parts`` maps what each part of the run holds to its bytes, each
    sized by the helper that its allocation uses: for a thread's colouring
    workspace :func:`workspace_bytes` of :func:`chunk_rows`, charged at
    numpy's colouring, which bounds the native one's, so that a run is
    refused alike whichever colours it; for the kernel table and the
    filters TABLE_BYTES per sample of the padded grid.  Raises
    :class:`ConfigError` naming the largest part, its size and the total,
    to be called before any of it is allocated.
    """
    need = sum(parts.values())
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        name, largest = max(parts.items(), key=lambda part: part[1])
        raise ConfigError(
            f"{name} would need about {largest / 2**30:.3g} GiB (about "
            f"{need / 2**30:.3g} GiB in all), more than the {have / 2**30:.3g} "
            "GiB of physical memory")


# Where each wiring packs its white channels: channel ch goes to half h of
# the transform buffer z, into its real (part 0) or imaginary (part 1)
# parts.  Orthogonal: z0 = x1 + i x4, z1 = x2 + i x3; convex: z0 = x1 + i x2.
_PACKING = {
    FilterStructure.ORTHOGONAL: ((0, 0), (1, 0), (1, 1), (0, 1)),
    FilterStructure.CONVEX: ((0, 0), (0, 1)),
}


def _conj_flip(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """conj(z(-w)) along the last axis, in fft ordering, into ``out``."""
    np.conjugate(z[..., :1], out=out[..., :1])
    np.conjugate(z[..., :0:-1], out=out[..., 1:])
    return out


class Synthesizer:
    """Colours chunks of realizations with one filter set on one grid.

    ``lam`` is None or a sequence of rescaling strengths, kept as the 1-D
    float array :attr:`lam`.  ``rows`` is the most realizations a caller
    asks of one call; with the grid and the channel count it fixes
    :attr:`chunk_rows`, the rows of each thread's workspace
    (:func:`chunk_rows`).  The unit normals of the draw are scaled to
    white noise of variance 1/dt by the filter taps.
    Construction refuses a filter set built on another grid and a
    rescaling request for a scheme without a cross-correlative pair
    (convex) or whose pair f2 is zero on every bin of the table, so
    neither can first surface while noise is drawn.  Afterwards the object
    is only read, apart from each thread's own workspace: several threads
    may call :meth:`fill` at once, and each realization's result does not
    depend on which thread computed it, nor on the rows of its chunk.
    """

    def __init__(self, fs: FilterSet, grid: TimeGrid, lam=None,
                 rows: int = CHUNK_ROWS):
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
                if fs.structure is FilterStructure.CONVEX else
                f"the {fs.scheme.value} scheme's cross-correlative filter f2 "
                f"is zero on every bin of this kernel table (n={fg.n}, "
                f"dt={fg.dt:g}), so lambda has no pair to rescale"
            )
        # build and probe the native code before any noise exists, so that
        # a compile runs beside a small process and never in a fill thread
        _native.kernel("sln_normals", _probe)
        _native.kernel("sln_mix", _colour_probe)
        _native.kernel("sln_transpose", _write_probe)
        _native.kernel("sln_fft", _fft_probe)
        s = 1.0 / np.sqrt(grid.dt)
        self.fs = fs
        self.grid = grid
        self.lam = None if lam is None else np.array(lam, dtype=float).reshape(-1)
        self.n_phys = grid.n_phys
        self.chunk_rows = chunk_rows(grid.n, fs.n_channels, rows)
        self._local = threading.local()
        if fs.structure is FilterStructure.CONVEX:
            taps = (0.5 * s * (fs.f1_w + fs.f2_w), 0.5 * s * (fs.f1_w - fs.f2_w),
                    s * fs.g1_w)
        else:
            taps = (0.5 * s * fs.f1_w, s * fs.f2_w, 1j * s * fs.g1_w,
                    1j * s * fs.g2_w)
        # one complex128 (taps, n) array: a real tap is cast once, with a
        # +0.0 imaginary part, as numpy would cast it for every multiply
        self._taps = np.array(taps, dtype=complex)
        self._twiddles = _fft_twiddles(grid.n)

    def _buffer(self, name: str, rows: int = 0) -> np.ndarray:
        """The calling thread's buffer ``name``, for ``rows`` realizations:
        the white channels, "white", (rows, channels, n), one of the
        complex transform buffers "z" and "c", (2, rows, n) each, or the
        native transform's scratch row, "row", (n,) complex.  Each is
        allocated with :attr:`chunk_rows` rows on the thread's first use of
        it, then reused, so its pages are touched once per thread.  z and c
        keep their two halves apart in memory, so an in-place sum of one
        half into the other needs no copy."""
        buf = getattr(self._local, name, None)
        if buf is None:
            n = self.grid.n
            if name == "white":
                buf = np.empty((self.chunk_rows, self.fs.n_channels, n))
            elif name == "row":
                buf = _aligned_empty(n)
            else:
                buf = _aligned_empty((2, self.chunk_rows, n))
            setattr(self._local, name, buf)
        if name == "row":
            return buf
        return buf[:rows] if name == "white" else buf[:, :rows]

    def _transform(self, a: np.ndarray, inverse: bool) -> np.ndarray:
        """numpy.fft.fft, or ifft if ``inverse``, of every row of a,
        (halves, rows, n) of the thread's workspace, in place: in one call of
        the native ``sln_fft`` where it is available, else by numpy.fft.
        Both give the same bits, which are scipy.fft's.  Returns a."""
        fft = _native.kernel("sln_fft", _fft_probe)
        if fft is not None:
            return _fft_native(fft, a, inverse, self._twiddles, self._buffer("row"))
        return (np.fft.ifft if inverse else np.fft.fft)(a, axis=-1, out=a)

    def _draw(self, seeds: Sequence[SeedLike]) -> np.ndarray:
        """The calling thread's transform buffer z (2, rows, n), with the
        unit-normal channels of the first :attr:`chunk_rows` seeds in its
        real and imaginary parts, as :data:`_PACKING` wires them: the
        numbers of ``Generator(Philox(seed)).standard_normal``.  The
        native draw (``sln_normals``) fills all the rows in one
        call outside the interpreter lock; without it, numpy's generators
        fill the thread's white channels, which are packed into z.  Both
        give the same bits."""
        z = self._buffer("z", len(seeds))
        seeds = seeds[:z.shape[1]]
        wiring = _PACKING[self.fs.structure]
        normals = _native.kernel("sln_normals", _probe)
        if normals is not None:
            half, row = (stride // 8 for stride in z.strides[:2])
            _draw_native(normals, seeds, z.shape[2], z, row,
                         [h * half + part for h, part in wiring])
            return z
        white = self._buffer("white", len(seeds))
        for row, seed in zip(white, seeds):
            _generator(seed).standard_normal(out=row)
        for ch, (h, part) in enumerate(wiring):
            (z[h].imag if part else z[h].real)[...] = white[:, ch]
        return z

    def _colour(self, seeds: Sequence[SeedLike]):
        """Noise on the physical window of the realizations of ``seeds``,
        at most :attr:`chunk_rows`.

        Returns (eta, nu, eta0, nu0), each of shape (rows, n_phys), views
        of the thread's workspace that its next call overwrites.  The
        cross-correlative components eta0/nu0 are transformed apart, and
        left out of eta/nu, exactly when ``lam`` is set; otherwise they
        are None.  They are never rescaled here.  The spectral pass
        between the two FFTs is the native one (``sln_mix``) where it is
        available, else numpy's (:func:`_mix`); both give the same bits.
        The convex wiring draws into z's first half only, and its second
        half is scratch to the pass, so only the first is transformed.
        """
        rows, n_phys = len(seeds), self.n_phys
        convex = self.fs.structure is FilterStructure.CONVEX
        split = self.lam is not None
        z = self._draw(seeds)
        self._transform(z[:1] if convex else z, inverse=True)
        mix = _native.kernel("sln_mix", _colour_probe)
        if mix is None:
            spectra = _mix(self._taps, z, self._buffer("c", rows), split, convex)
        else:
            c = self._buffer("c", rows) if split else None
            spectra = _mix_native(mix, self._taps, z, c, convex)
        if len(spectra) == 1:
            out = self._transform(spectra[0], inverse=False)
            return out[0, :, :n_phys], out[1, :, :n_phys], None, None
        eta, nu = (self._transform(a, inverse=False)[..., :n_phys] for a in spectra)
        return eta[0], nu[0], eta[1], nu[1]

    def factors(self, eta0: np.ndarray, nu0: np.ndarray) -> np.ndarray:
        """:func:`rescale_factor` of each row of eta0/nu0 at each strength
        of ``lam``, shape (rows, strengths), in one call over the rows, for
        the pair of the chunk this thread coloured last, once its eta is
        written out: the moduli are formed in the first half of the
        thread's transform buffer z, which held the chunk's eta."""
        rows, n_phys = eta0.shape
        scratch = self._buffer("z", rows)[0].view(float)[:, :n_phys]
        return rescale_factor(eta0, nu0, self.lam, scratch)

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
        transpose = _native.kernel("sln_transpose", _write_probe)
        for a in range(0, len(seeds), self.chunk_rows):
            cols = slice(a, a + self.chunk_rows)
            eta, nu, eta0, nu0 = self._colour(seeds[cols])
            _write(transpose, eta, eta_out[:, cols])
            _write(transpose, nu, nu_out[:, cols])
            if self.lam is not None:
                eta0_out, nu0_out, factors_out = cross
                _write(transpose, eta0, eta0_out[:, cols])
                _write(transpose, nu0, nu0_out[:, cols])
                factors_out[:, cols] = self.factors(eta0, nu0).T

    def pairs(self, seeds: Sequence[SeedLike]) -> List[NoisePair]:
        """NoisePairs, one per seed: the noise :meth:`fill` writes, with
        the cross-correlative pair rescaled at the one strength of ``lam``,
        if set, as :func:`~slnoise.dynamics.integrate_blocks` forms it, so
        each is bitwise the noise an ensemble integrates.  Each pair's
        series are columns of two time-major arrays."""
        if self.lam is not None and len(self.lam) != 1:
            raise ValueError("NoisePairs are rescaled at one strength, not "
                             f"at {len(self.lam)}")
        eta, nu, *pair = (np.empty((self.n_phys, len(seeds)), dtype=complex)
                          for _ in range(2 if self.lam is None else 4))
        factors = np.empty((1, len(seeds)))
        self.fill(seeds, eta, nu, (*pair, factors))
        lam = 1.0
        if pair:
            eta0, nu0 = pair
            np.multiply(factors, eta0, out=eta0)
            eta += eta0
            np.divide(nu0, factors, out=nu0)
            nu += nu0
            lam = float(self.lam[0])
        return [NoisePair(eta[:, j], nu[:, j], self.grid.dt, self.fs.scheme, seed, lam)
                for j, seed in enumerate(seeds)]


def synthesize_batch(fs: FilterSet, grid: TimeGrid, seeds: Sequence[SeedLike],
                     lam: Optional[float] = None) -> List[NoisePair]:
    """Draw and colour one realization per seed, in chunks of at most
    CHUNK_ROWS, rescaled at the strength ``lam`` if it is set."""
    return Synthesizer(fs, grid, None if lam is None else [lam],
                       rows=len(seeds)).pairs(seeds)


def synthesize_from_white(fs: FilterSet, grid: TimeGrid, white: np.ndarray,
                          lam: Optional[float] = None,
                          seed: object = None) -> NoisePair:
    """The per-channel reference of the colouring: a NoisePair from
    pre-drawn white channels (channels, n) of variance 1/dt, such as those
    of :func:`sample_white`, filtered one channel at a time as
    ``fft(filter * ifft(x))``.

    Orthogonal wiring: eta = f1*x1 + f2*(x2 + i x3),
    nu = g1*(i x1 + x4) + g2*(x3 + i x2); the f2/g2 pair is the
    cross-correlative component subject to rescaling.  Convex wiring:
    eta = f1*x1 + i f2*x2, nu = g1*(x1 + i x2); there is no orthogonal
    component pair, so rescaling is undefined.
    """
    # refused as the batched colouring refuses it
    Synthesizer(fs, grid, None if lam is None else [lam], rows=1)

    def filt(f, x):
        return np.fft.fft(f * np.fft.ifft(x))[:grid.n_phys]

    if fs.structure is FilterStructure.CONVEX:
        x1, x2 = white
        eta = filt(fs.f1_w, x1) + 1j * filt(fs.f2_w, x2)
        nu = filt(fs.g1_w, x1) + 1j * filt(fs.g1_w, x2)
    else:
        x1, x2, x3, x4 = white
        eta0 = filt(fs.f2_w, x2) + 1j * filt(fs.f2_w, x3)
        nu0 = filt(fs.g2_w, x3) + 1j * filt(fs.g2_w, x2)
        factor = 1.0 if lam is None else rescale_factor(eta0, nu0, lam)
        eta = filt(fs.f1_w, x1) + factor * eta0
        nu = 1j * filt(fs.g1_w, x1) + filt(fs.g1_w, x4) + nu0 / factor
    return NoisePair(eta, nu, grid.dt, fs.scheme, seed, 1.0 if lam is None else lam)


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
    fsize = next_fast_len(size)
    full = np.fft.ifft(np.fft.fft(a, fsize, axis=0)
                       * np.fft.fft(b[::-1], fsize, axis=0), fsize, axis=0)
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
