"""Bath spectral density and noise correlation kernels.

The eta autocorrelation and the causal eta-nu cross-correlation are needed
both in the time domain and on the DFT frequency grid.  A kernel table
samples the Drude kernels at every lag of a padded grid at once: the
Fourier integral over [0, omega_c] is a piecewise-linear Filon quadrature
on a fine uniform frequency grid whose last node is the hard cutoff, and
the sum over its nodes at all lags k*dt is one chirp-z transform, so the
table costs O(n log n).  A user-supplied kernel is sampled directly.  The
frequency arrays of the table are the discrete transform of its time
samples, keeping the table's transform pair exactly self-consistent.

The chirp-z transform is Bluestein's (Bluestein 1968; Rabiner, Schafer &
Rader, Bell Syst. Tech. J. 48, 1249 (1969)): a convolution of the chirped
samples with a chirp, done by FFT on one zero-padded buffer that every
step overwrites in place.  It repeats the operations of
``scipy.signal.czt`` in the same order, less an exact multiply by one, with
``numpy.fft``'s transforms, which are scipy.fft's bits (numpy >= 2.0 and
scipy run the same C++ pocketfft), so the table is bitwise what that
function gives without importing scipy, whose ``scipy.fft`` would add to
every process's start-up time and resident memory (README, Start-up).

``kernel_time`` evaluates the same kernels at arbitrary lags by composite
Gauss-Legendre quadrature; it serves pointwise targets and reference
values.  Pointwise analytic transforms are also provided; the imaginary
part of the cross-correlation transform is a Cauchy principal value
integral evaluated with a singularity-subtraction technique whose
residual integrand is smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from numpy.fft import fft, ifft

from .exceptions import AsymmetryExceeded, ConfigError, SingularPoint
from .grids import FrequencyGrid, flip_freq

__all__ = [
    "BathParams",
    "CustomKernel",
    "KernelTable",
    "spectral_density",
    "k_etaeta_freq",
    "k_etanu_freq",
    "kernel_time",
    "build_kernel_table",
]


@dataclass(frozen=True)
class BathParams:
    """Drude bath with a hard frequency cutoff; hbar = k_B = 1."""

    beta: float
    omega_c: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if not self.omega_c > 0:
            raise ConfigError(f"omega_c must be positive, got {self.omega_c}")


@dataclass(frozen=True)
class CustomKernel:
    """User-supplied complex correlation kernel K(t).

    The convention is ``K_etaeta(t) = Re K(t)`` and
    ``K_etanu(t) = 2i * Theta(t) * Im K(t)`` with ``Theta(0) = 1/2``.
    """

    func: Callable[[np.ndarray], np.ndarray]


KernelSource = Union[BathParams, CustomKernel]


def spectral_density(omega, params: BathParams):
    """Drude spectral density with a hard cutoff at omega_c.

    Returns ``omega * (1 + (omega/omega_c)^2)^-2`` on (0, omega_c],
    exactly zero for omega <= 0 and omega > omega_c.
    """
    w = np.asarray(omega, dtype=float)
    wc = params.omega_c
    inside = (w > 0) & (w <= wc)
    j = np.where(inside, w * (1.0 + (w / wc) ** 2) ** -2, 0.0)
    return j if j.ndim else float(j)


def k_etaeta_freq(omega, params: BathParams):
    """Frequency-domain eta autocorrelation J(|w|) coth(beta |w| / 2).

    Even in omega, zero beyond the hard cutoff, with the finite
    2/beta limit at omega = 0.
    """
    w = np.abs(np.asarray(omega, dtype=float))
    wc, beta = params.omega_c, params.beta
    shape = np.where(w <= wc, (1.0 + (w / wc) ** 2) ** -2, 0.0)
    # w * coth(beta*w/2) -> 2/beta as w -> 0; division below is stable for
    # any w > 0 so only the exact zero needs the limit.
    with np.errstate(divide="ignore", invalid="ignore"):
        wcoth = np.where(w > 0, w / np.tanh(0.5 * beta * w), 2.0 / beta)
    out = shape * wcoth
    return out if out.ndim else float(out)


# Gauss-Legendre panels over [0, omega_c] and nodes per panel: of the
# principal-value integral, and of kernel_time (more panels at long lags).
PV_PANELS, PV_ORDER = 64, 16
KT_MIN_PANELS, KT_ORDER = 40, 12


def _gauss_panels(a: float, b: float, npanels: int, order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, npanels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half * x[None, :]).ravel()
    wts = np.tile(w * half, npanels)
    return nodes, wts


def _pv_cutoff_integral(w: np.ndarray, params: BathParams) -> np.ndarray:
    """PV integral of x^2 f(x) / (x^2 - w^2) over [0, omega_c], w >= 0.

    Subtracts f(w) so the remaining integrand is smooth; the subtracted
    piece integrates to ``omega_c + (w/2) ln|(omega_c-w)/(omega_c+w)|``.
    """
    wc = params.omega_c

    def f(x):
        return (1.0 + (x / wc) ** 2) ** -2

    nodes, wts = _gauss_panels(0.0, wc, PV_PANELS, PV_ORDER)
    x = nodes[None, :]
    smooth = np.empty(w.size)
    chunk = max(1, int(2**21 // max(nodes.size, 1)))
    for s in range(0, w.size, chunk):
        ww = w[s:s + chunk, None]
        fw = f(ww)
        num = f(x) - fw
        den = x * x - ww * ww
        close = np.abs(x - ww) < 1e-9 * wc
        fprime = -4.0 * ww / wc**2 * (1.0 + (ww / wc) ** 2) ** -3
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(close, 0.0, num) / np.where(close, 1.0, den)
            limit = np.where(ww > 0, fprime / (2.0 * np.where(ww > 0, ww, 1.0)), 0.0)
        ratio = np.where(close, limit, ratio)
        smooth[s:s + chunk] = (x * x * ratio) @ wts
    with np.errstate(divide="ignore"):
        log_term = np.log(np.abs((wc - w) / (wc + w)))
    analytic = f(w) * (wc + 0.5 * w * log_term)
    return smooth + analytic


def _check_nyquist(grid: FrequencyGrid, params: BathParams):
    if np.pi / grid.dt <= params.omega_c:
        raise ConfigError(
            f"Nyquist frequency pi/dt = {np.pi / grid.dt:.6g} of the kernel "
            f"grid (dt = {grid.dt:g}) does not exceed the cutoff omega_c = "
            f"{params.omega_c:g}, so the bath would be truncated; lower dt"
        )


def _check_cutoff(w: np.ndarray, params: BathParams):
    hit = np.abs(np.abs(w) - params.omega_c) < 1e-12 * params.omega_c
    if np.any(hit):
        raise SingularPoint(
            "frequency coincides with the hard cutoff omega_c, where the "
            "cross-correlation transform diverges logarithmically; offset "
            "the grid by a fraction of a bin"
        )


def k_etanu_freq(omega, params: BathParams):
    """Frequency-domain eta-nu cross-correlation.

    Transform convention e^{+i w t} (matching the synthesis filters), in
    which causality of the time-domain kernel gives real part
    ``+sgn(w) J(|w|)`` and an imaginary part equal to the principal-value
    transform of the sine kernel, evaluated by singularity subtraction.
    Raises :class:`SingularPoint` at |omega| = omega_c.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    _check_cutoff(w, params)
    real = np.sign(w) * spectral_density(np.abs(w), params)
    imag = -(2.0 / np.pi) * _pv_cutoff_integral(np.abs(w), params)
    out = real + 1j * imag
    return out if np.asarray(omega).ndim else complex(out[0])


def kernel_time(t, params: BathParams, which: str):
    """Time-domain kernels by composite Gauss-Legendre quadrature.

    ``which='etaeta'``: ``(1/pi) int_0^wc J coth(beta w/2) cos(w t) dw``
    (real, even).  ``which='etanu'``:
    ``-2i Theta(t) (1/pi) int_0^wc J sin(w t) dw`` with Theta(0)=1/2, so
    the kernel vanishes exactly for t < 0.  Panel count scales with the
    oscillation period of the largest requested |t|.
    """
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    wc = params.omega_c
    tmax = float(np.max(np.abs(tt))) if tt.size else 0.0
    npanels = max(KT_MIN_PANELS, int(np.ceil(4.0 * wc * tmax / (2.0 * np.pi))))
    nodes, wts = _gauss_panels(0.0, wc, npanels, KT_ORDER)
    j = spectral_density(nodes, params)
    # evaluate in chunks: the (times x nodes) outer product would otherwise
    # grow to gigabytes on long padded grids
    chunk = max(1, int(2**22 // max(nodes.size, 1)))
    if which == "etaeta":
        lam = wts * j / np.tanh(0.5 * params.beta * nodes)
        out = np.empty(tt.size, dtype=complex)
        for s in range(0, tt.size, chunk):
            block = tt[s:s + chunk]
            out[s:s + chunk] = np.cos(np.outer(block, nodes)) @ lam / np.pi
    elif which == "etanu":
        theta = np.where(tt > 0, 1.0, np.where(tt == 0, 0.5, 0.0))
        wj = wts * j
        sine = np.empty(tt.size)
        for s in range(0, tt.size, chunk):
            block = tt[s:s + chunk]
            sine[s:s + chunk] = np.sin(np.outer(block, nodes)) @ wj / np.pi
        out = -2j * theta * sine
    else:
        raise ValueError(f"unknown kernel {which!r}")
    return out if np.asarray(t).ndim else complex(out[0])


# Filon nodes over [0, omega_c] are FILON_NODES + 1.  The quadrature error
# is O((omega_c / FILON_NODES)^2) at every lag, whatever the grid.
FILON_NODES = 2**16


def _half_hat(theta: np.ndarray) -> np.ndarray:
    """int_0^1 (1 - x) e^{i theta x} dx = (1 + i theta - e^{i theta}) / theta^2.

    The closed form cancels catastrophically for small theta, where the
    series sum_k (i theta)^k / (k + 2)! is used instead; 13 terms reach
    double precision for |theta| < 1/4.
    """
    out = np.empty(theta.shape, dtype=complex)
    small = np.abs(theta) < 0.25
    z = 1j * theta[small]
    acc = np.full(z.shape, 1.0 / math.factorial(14), dtype=complex)
    for k in range(11, -1, -1):
        acc = acc * z + 1.0 / math.factorial(k + 2)
    out[small] = acc
    big = theta[~small]
    out[~small] = (1.0 + 1j * big - np.exp(1j * big)) / big**2
    return out


def _chirp(w: complex, size: int) -> np.ndarray:
    """w^(k^2/2) for k = 0..size-1, bit for bit ``w**(k**2 / 2.)``.

    numpy raises a complex base to a power as cexp(e clog(w)), except
    at integer exponents below 100, which it forms by repeated
    multiplication.  So one complex logarithm serves every k, and the
    few entries with e < 100 are taken from the power itself.
    """
    k = np.arange(size, dtype=np.min_scalar_type(-size**2))
    e = k**2 / 2.
    out = np.exp(e * np.log(w))
    small = e < 100
    out[small] = w**e[small]
    return out


def _czt(x: np.ndarray, m: int, w: complex) -> np.ndarray:
    """sum_j x_j w^(j k) for k = 0..m-1 along the last axis.

    Bluestein's algorithm with ``w^(j k) = w^(j^2/2) w^(k^2/2) /
    w^((k-j)^2/2)``, as ``scipy.signal.czt`` computes it with the start
    point a = 1: the same chirp ``w**(k**2 / 2.)`` (from ``_chirp``, which
    is that power bit for bit), the same FFT length ``next_fast_len(n + m
    - 1)``, the spectrum of the chirp's reciprocal, and the forward FFT,
    spectrum product, inverse FFT and final chirp in that order.  scipy
    also multiplies by a^-k, an exact multiply by one that is left out;
    the forward FFT, the product and the inverse FFT are done in one
    buffer.  The transforms are ``numpy.fft``'s, which give scipy.fft's
    bits.
    """
    n = x.shape[-1]
    wk2 = _chirp(w, max(m, n))
    nfft = next_fast_len(n + m - 1)
    fwk2 = fft(1 / np.hstack((wk2[n - 1:0:-1], wk2[:m])), nfft)
    buf = np.zeros(x.shape[:-1] + (nfft,), dtype=complex)
    np.multiply(x, wk2[:n], out=buf[..., :n])
    fft(buf, out=buf)
    np.multiply(fwk2, buf, out=buf)
    ifft(buf, out=buf)
    return buf[..., n - 1:n + m - 1] * wk2[:m]


def next_fast_len(n: int) -> int:
    """The least 11-smooth integer >= n, for n >= 1: the complex transform
    length that ``scipy.fft.next_fast_len(n, False)`` gives, since
    pocketfft has passes for the radices up to 11.

    Each odd 11-smooth factor f below the best length so far is raised by
    the least power of two that takes it to n or above.
    """
    best = 1 << (n - 1).bit_length()
    f11 = 1
    while f11 < best:
        f7 = f11
        while f7 < best:
            f5 = f7
            while f5 < best:
                f3 = f5
                while f3 < best:
                    x = f3 << (-(-n // f3) - 1).bit_length()
                    if x < best:
                        best = x
                    f3 *= 3
                f5 *= 5
            f7 *= 7
        f11 *= 11
    return best


def _filon_fourier(g: np.ndarray, omega_c: float, dt: float, m: int) -> np.ndarray:
    """int_0^omega_c g(w) e^{i w t_k} dw at t_k = k dt, k = 0..m-1.

    ``g`` holds samples on the uniform grid w_j = j omega_c / M,
    j = 0..M, along its last axis.  g is replaced by its piecewise-linear
    interpolant, whose integral against e^{i w t} is exact: an interior
    node carries the hat weight h sinc^2(h t / 2) times e^{i w_j t}, the
    two end nodes the half-hat weights.  The sum over nodes at all lags
    is one chirp-z transform.
    """
    nodes = g.shape[-1]
    h = omega_c / (nodes - 1)
    t = dt * np.arange(m)
    theta = h * t
    hat = h * np.sinc(theta / (2.0 * np.pi)) ** 2
    head = h * _half_hat(theta)
    tail = np.exp(1j * omega_c * t)
    sums = _czt(g, m, np.exp(1j * h * dt))
    return (hat * sums + (head - hat) * g[..., :1]
            + (np.conj(head) - hat) * tail * g[..., -1:])


def _time_samples(grid: FrequencyGrid, source: KernelSource):
    """K_etaeta and K_etanu at the grid times, in fft ordering."""
    if isinstance(source, CustomKernel):
        times = grid.times
        kt = np.asarray(source.func(times), dtype=complex)
        theta = np.where(times > 0, 1.0, np.where(times == 0, 0.5, 0.0))
        return kt.real.astype(float), 2j * theta * kt.imag
    half = grid.n // 2
    omega = np.linspace(0.0, source.omega_c, FILON_NODES + 1)
    g = np.stack([k_etaeta_freq(omega, source),
                  spectral_density(omega, source)])
    cos_int, sin_int = _filon_fourier(g, source.omega_c, grid.dt,
                                      half + 1) / np.pi
    keta_t = np.concatenate([cos_int.real[:half], cos_int.real[half:0:-1]])
    ketanu_t = np.zeros(grid.n, dtype=complex)
    ketanu_t[:half] = -2j * sin_int.imag[:half]
    ketanu_t[0] *= 0.5
    return keta_t, ketanu_t


@dataclass(frozen=True)
class KernelTable:
    """Correlation kernels sampled on a common frequency/time grid.

    Frequency arrays approximate the continuous transforms (DFT scaled by
    dt); ``r_w = -i * k_etanu_w``.  Time arrays are in fft ordering.
    """

    grid: FrequencyGrid
    k_etaeta_w: np.ndarray
    k_etanu_w: np.ndarray
    r_w: np.ndarray
    k_etaeta_t: np.ndarray
    k_etanu_t: np.ndarray
    source: KernelSource
    max_asymmetry: float = 0.0


def build_kernel_table(grid: FrequencyGrid, source: KernelSource) -> KernelTable:
    """Construct a :class:`KernelTable` from a Drude bath or custom kernel.

    For a Drude bath the time samples at t_k = k dt, k = 0..n/2, are
    ``(1/pi) int_0^wc g(w) e^{i w t_k} dw`` with g = J coth(beta w/2)
    (``k_etaeta_freq``, which carries the 2/beta limit at w = 0) and
    g = J, by Filon quadrature on ``FILON_NODES`` intervals summed with
    one chirp-z transform; the real part of the first gives K_etaeta and
    the imaginary part of the second the sine integral of K_etanu.  The
    negative lags follow by symmetry: K_etaeta is even and
    ``K_etanu = -2i Theta(t) (sine integral)`` with Theta(0) = 1/2 vanishes
    for t < 0.  A grid whose Nyquist frequency pi/dt does not exceed
    omega_c raises :class:`ConfigError`; one with a bin on the cutoff
    raises :class:`SingularPoint`, and one whose samples are not finite
    (beta so small that they exceed double precision) raises
    :class:`ConfigError`.  A custom kernel is sampled at the grid times.

    Symmetries (K_etaeta even; Re K_etanu odd, Im K_etanu even) are
    enforced numerically; a correction beyond 1e-6 relative raises
    :class:`AsymmetryExceeded`.
    """
    if isinstance(source, BathParams):
        _check_nyquist(grid, source)
        # the sampled transforms are still singular at the hard cutoff:
        # reject grids whose bins land on it
        _check_cutoff(grid.omega, source)
    elif not isinstance(source, CustomKernel):
        raise TypeError(f"unsupported kernel source {source!r}")
    # a kernel too large for doubles (beta near 0) overflows on the way;
    # it is refused below rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        keta_t, ketanu_t = _time_samples(grid, source)
        # frequency arrays are the DFT approximants of the sampled time
        # kernels (scaled to the continuous transform), so the transform
        # pair in the table is self-consistent; the leakage of the slowly
        # decaying kernel tails is then carried in the spectrum rather than
        # silently broken between the two representations
        scale = grid.n * grid.dt
        keta_w_raw = scale * np.fft.ifft(keta_t)
        ketanu_w_raw = scale * np.fft.ifft(ketanu_t)
    if not all(np.all(np.isfinite(a))
               for a in (keta_t, ketanu_t, keta_w_raw, ketanu_w_raw)):
        raise ConfigError(
            f"the kernel table of {source} is not finite on the grid "
            f"(n={grid.n}, dt={grid.dt:g}): its values exceed double precision"
        )
    # K_etaeta even real; K_etanu(-w) = -conj(K_etanu(w))
    keta_w = 0.5 * (keta_w_raw + flip_freq(keta_w_raw)).real
    ketanu_w = 0.5 * (ketanu_w_raw - np.conj(flip_freq(ketanu_w_raw)))
    ref = max(np.max(np.abs(keta_w_raw)), np.max(np.abs(ketanu_w_raw)))
    asym = max(
        np.max(np.abs(keta_w_raw - keta_w)),
        np.max(np.abs(ketanu_w_raw - ketanu_w)),
    ) / ref
    if asym > 1e-6:
        raise AsymmetryExceeded(
            f"symmetry correction {asym:.2e} relative exceeds 1e-6; "
            "the grid is too coarse for this kernel"
        )
    # DFT leakage can leave tiny negative spectral values
    keta_w = np.maximum(keta_w, 0.0)
    return KernelTable(
        grid=grid,
        k_etaeta_w=keta_w,
        k_etanu_w=ketanu_w,
        r_w=-1j * ketanu_w,
        k_etaeta_t=keta_t,
        k_etanu_t=ketanu_t,
        source=source,
        max_asymmetry=float(asym),
    )
