"""Fourier-domain filter sets for the noise generation schemes.

Every scheme factorises the target correlations into linear filters acting
on white noise.  The eta autocorrelation always fixes the autocorrelative
filter to sqrt(K_etaeta); the cross-correlation leaves freedom which each
scheme resolves differently.

Five schemes resolve it by a real, even mixing function a(w) between the
constrained branch (a = 0: the whole cross-correlation carried by g1, a
spectral division) and the like branch (a = 1: symmetric square-root
filters f2, g2), and are built by :func:`mixed_filters` alone.  A private
table gives each one's mixing rule and whether g1 divides through the
Wiener-regularised inverse, which is what makes gamma matter:

    like             a = 1                         bare sqrt(K)
    constrained      a = 0                         Wiener inverse
    reduced          :func:`mixing_reduced`        Wiener inverse
    nu-optimised     :func:`mixing_optimised`, 1/4 bare sqrt(K)
    etanu-optimised  :func:`mixing_optimised`, 1/2 bare sqrt(K)

The delta scheme (a raw white nu) and the convex scheme (a convex
optimisation without an explicit mixing function) are built apart.
Complex square roots use the principal branch and bins on the branch cut
are recorded, not smoothed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exceptions import DivisionByZeroSpectrum, ZeroComponent
from .grids import FrequencyGrid, flip_freq
from .kernels import KernelTable

__all__ = [
    "SchemeId",
    "FilterStructure",
    "FilterSet",
    "ConstraintReport",
    "wiener_inverse",
    "mixing_reduced",
    "mixing_optimised",
    "convex_c",
    "mixed_filters",
    "make_filters",
    "verify_constraint",
    "expected_nu_power",
    "expected_total_power",
    "rescale_factor",
]


class SchemeId(enum.Enum):
    DELTA = "delta"
    CONSTRAINED = "constrained"
    LIKE = "like"
    REDUCED = "reduced"
    NU_OPTIMISED = "nu-optimised"
    ETANU_OPTIMISED = "etanu-optimised"
    CONVEX = "convex"


class FilterStructure(enum.Enum):
    ORTHOGONAL = "orthogonal"
    CONVEX = "convex"


@dataclass(frozen=True)
class FilterSet:
    """Frequency-domain filters plus their white-noise wiring.

    Orthogonal structure: eta = f1*x1 + f2*(x2 + i x3),
    nu = g1*(i x1 + x4) + g2*(x3 + i x2).
    Convex structure: eta = f1*x1 + i f2*x2, nu = g1*(x1 + i x2).
    """

    scheme: SchemeId
    structure: FilterStructure
    grid: FrequencyGrid
    f1_w: np.ndarray
    f2_w: np.ndarray
    g1_w: np.ndarray
    g2_w: Optional[np.ndarray]
    branch_bins: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def n_channels(self) -> int:
        return 2 if self.structure is FilterStructure.CONVEX else 4

    @property
    def has_cross_pair(self) -> bool:
        """Whether the scheme carries an f2/g2 cross-correlative pair."""
        return (
            self.structure is FilterStructure.ORTHOGONAL
            and bool(np.any(self.f2_w != 0))
        )


def wiener_inverse(k_etaeta_w: np.ndarray, gamma: float) -> np.ndarray:
    """Regularised spectral inverse sqrt(K)/(K + gamma * max sqrt(K)).

    With gamma = 0 this is the bare 1/sqrt(K); any zero bin then raises
    :class:`DivisionByZeroSpectrum` (always the case beyond a hard
    cutoff), signalling that the caller must supply gamma > 0.
    """
    k = np.asarray(k_etaeta_w, dtype=float)
    if np.any(k < 0):
        raise ValueError("spectrum must be non-negative")
    root = np.sqrt(k)
    if gamma == 0:
        if np.any(k == 0):
            raise DivisionByZeroSpectrum(
                "spectrum has zero bins; bare division requires gamma > 0"
            )
        return 1.0 / root
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    return root / (k + gamma * root.max())


def mixing_reduced(k_etaeta_w: np.ndarray, r_w: np.ndarray) -> np.ndarray:
    """Binary per-bin choice: constrained (0) where |R| <= K_etaeta, else
    like (1).  Bins with zero spectrum fall back to the like branch."""
    k = np.asarray(k_etaeta_w, dtype=float)
    rabs = np.abs(r_w)
    a = np.ones_like(k)
    a[(rabs <= k) & (k > 0)] = 0.0
    return a


def mixing_optimised(k_etaeta_w: np.ndarray, r_w: np.ndarray,
                     zeta: float) -> np.ndarray:
    """Optimised mixing function max(0, 1 - zeta * K_etaeta / |R|).

    zeta = 1/4 minimises the mean square nu amplitude, zeta = 1/2 the sum
    of the eta and nu mean squares.  The stationary value 1 - zeta*K/|R|
    is the unconstrained optimum; where it would go negative the power
    functional is minimised at the boundary 0 instead (the |A| term is
    non-differentiable there), so the value is clamped.  Bins with
    |R| = 0 are assigned 0 (the constrained branch contributes nothing
    there anyway since its filter carries a factor R).
    """
    if zeta not in (0.25, 0.5):
        raise ValueError("zeta must be 1/4 or 1/2")
    k = np.asarray(k_etaeta_w, dtype=float)
    rabs = np.abs(r_w)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(rabs > 0, 1.0 - zeta * k / np.where(rabs > 0, rabs, 1.0), 0.0)
    return np.maximum(a, 0.0)


def convex_c(k_etaeta_w: np.ndarray, r_w: np.ndarray) -> np.ndarray:
    """Convex-scheme weight (1/2)[1 - (4|R|^2/K^2 + 1)^(-1/2)] in [0, 1/2).

    Bins with zero spectrum but nonzero |R| take the limiting value
    1/2 - 1e-12 so that 1 - 2C stays positive.
    """
    k = np.asarray(k_etaeta_w, dtype=float)
    rabs = np.abs(r_w)
    c = np.zeros_like(k)
    pos = k > 0
    c[pos] = 0.5 * (1.0 - (4.0 * rabs[pos] ** 2 / k[pos] ** 2 + 1.0) ** -0.5)
    c[(~pos) & (rabs > 0)] = 0.5 - 1e-12
    return c


def _branch_cut(radicand: np.ndarray) -> np.ndarray:
    """Where the radicand lies on the negative real axis, the square
    root's branch cut."""
    z = np.asarray(radicand)
    return (z.real < 0) & (np.abs(z.imag) <= 1e-12 * np.abs(z.real))


def mixed_filters(scheme: SchemeId, kt: KernelTable, a_w: np.ndarray,
                  gamma: float) -> FilterSet:
    """Orthogonal-decomposition filters of a mixing function a(w),
    labelled ``scheme``.

    g1 = R(-w) (1 - a(-w)) divided by sqrt(K) through the Wiener inverse
    for gamma > 0.  With gamma = 0 the division is bare, so it is accepted
    only where no zero-spectrum bin has a nonzero numerator (mixing 1, or
    R = 0, there); those bins get g1 = 0.
    """
    k = kt.k_etaeta_w
    r = np.asarray(kt.r_w, dtype=complex)
    a = np.asarray(a_w, dtype=float)
    rad_f2 = 0.5 * a * r
    rad_g2 = 0.5 * flip_freq(a) * flip_freq(r)
    num = flip_freq(r) * (1.0 - flip_freq(a))
    if gamma == 0:
        if np.any((num != 0) & (k == 0)):
            raise DivisionByZeroSpectrum(
                "gamma=0 would divide by zero-spectrum bins; set gamma > 0"
            )
        pos = k > 0
        g1 = np.where(pos, num / np.sqrt(np.where(pos, k, 1.0)), 0.0)
    else:
        g1 = num * wiener_inverse(k, gamma)
    return FilterSet(
        scheme=scheme,
        structure=FilterStructure.ORTHOGONAL,
        grid=kt.grid,
        f1_w=np.sqrt(k),
        f2_w=np.sqrt(rad_f2),
        g1_w=g1,
        g2_w=np.sqrt(rad_g2),
        branch_bins=np.flatnonzero(_branch_cut(rad_f2) | _branch_cut(rad_g2)),
    )


# The schemes built by mixed_filters: each one's mixing rule a(K, R), and
# whether its g1 divides through the Wiener inverse, i.e. uses gamma.
_MIXING_RULES = {
    SchemeId.LIKE: (lambda k, r: np.ones_like(k), False),
    SchemeId.CONSTRAINED: (lambda k, r: np.zeros_like(k), True),
    SchemeId.REDUCED: (mixing_reduced, True),
    SchemeId.NU_OPTIMISED: (lambda k, r: mixing_optimised(k, r, 0.25), False),
    SchemeId.ETANU_OPTIMISED: (lambda k, r: mixing_optimised(k, r, 0.5), False),
}


def make_filters(scheme: SchemeId, kt: KernelTable,
                 gamma: float = 0.0) -> FilterSet:
    """Build the filter set for a scheme from a kernel table.

    Only the constrained and reduced schemes use gamma; they require
    gamma > 0 whenever the spectrum has zero bins that the mixing rule
    does not avoid (always the case for the constrained scheme with a hard
    cutoff).
    """
    k = kt.k_etaeta_w
    r = kt.r_w
    if scheme in _MIXING_RULES:
        rule, wiener = _MIXING_RULES[scheme]
        return mixed_filters(scheme, kt, rule(k, r), gamma if wiener else 0.0)
    f1 = np.sqrt(k)
    if scheme is SchemeId.DELTA:
        return FilterSet(
            scheme=scheme,
            structure=FilterStructure.ORTHOGONAL,
            grid=kt.grid,
            f1_w=f1,
            f2_w=0.5 * r,
            g1_w=np.zeros(kt.grid.n, dtype=complex),
            g2_w=np.ones(kt.grid.n, dtype=complex),
        )
    if scheme is SchemeId.CONVEX:
        rabs = np.abs(r)
        c = convex_c(k, r)
        den = 1.0 - 2.0 * c
        f1c = (1.0 - c) / np.sqrt(den) * f1
        f2c = c / np.sqrt(den) * f1
        # stable form of sqrt(1-2C)/sqrt(K): the ratio (1-2C)/K tends to
        # 1/(2|R|) as K -> 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(
                k > 0,
                den / np.where(k > 0, k, 1.0),
                np.where(rabs > 0, 0.5 / np.where(rabs > 0, rabs, 1.0), 0.0),
            )
        g1c = (flip_freq(r) * np.sqrt(ratio)).astype(complex)
        return FilterSet(
            scheme=scheme,
            structure=FilterStructure.CONVEX,
            grid=kt.grid,
            f1_w=f1c,
            f2_w=f2c.astype(complex),
            g1_w=g1c,
            g2_w=None,
        )
    raise ValueError(f"unknown scheme {scheme!r}")


@dataclass(frozen=True)
class ConstraintReport:
    """Per-bin residual of the Fourier cross-correlation constraint."""

    residual: np.ndarray
    max_residual: float
    rms_residual: float
    scale: float


def verify_constraint(fs: FilterSet, kt: KernelTable) -> ConstraintReport:
    """Residual of the cross-correlation factorisation at every bin.

    Orthogonal structure: f1(w) g1(-w) + 2 f2(w) g2(-w) - R(w).
    Convex structure (naive reading): (f1(w) - f2(w)) g1(-w) - R(w); the
    convex filters reproduce (1 - 2C) R rather than R, and the report
    quantifies that deviation instead of hiding it.
    """
    r = kt.r_w
    if fs.structure is FilterStructure.ORTHOGONAL:
        res = fs.f1_w * flip_freq(fs.g1_w) + 2.0 * fs.f2_w * flip_freq(fs.g2_w) - r
    else:
        res = (fs.f1_w - fs.f2_w) * flip_freq(fs.g1_w) - r
    mag = np.abs(res)
    return ConstraintReport(
        residual=res,
        max_residual=float(mag.max()),
        rms_residual=float(np.sqrt(np.mean(mag**2))),
        scale=float(np.abs(r).max()),
    )


def _power_sum(grid: FrequencyGrid, *arrays) -> float:
    total = 0.0
    for a in arrays:
        total += float(np.sum(np.abs(a) ** 2))
    return total / (grid.n * grid.dt)


def expected_nu_power(fs: FilterSet) -> float:
    """Stationary mean square amplitude of nu implied by the filters."""
    if fs.structure is FilterStructure.CONVEX:
        return 2.0 * _power_sum(fs.grid, fs.g1_w)
    return 2.0 * _power_sum(fs.grid, fs.g1_w) + 2.0 * _power_sum(fs.grid, fs.g2_w)


def expected_total_power(fs: FilterSet) -> float:
    """Stationary mean square amplitude of eta plus that of nu."""
    if fs.structure is FilterStructure.CONVEX:
        eta = _power_sum(fs.grid, fs.f1_w) + _power_sum(fs.grid, fs.f2_w)
    else:
        eta = _power_sum(fs.grid, fs.f1_w) + 2.0 * _power_sum(fs.grid, fs.f2_w)
    return eta + expected_nu_power(fs)


def rescale_factor(eta0: np.ndarray, nu0: np.ndarray, lam, scratch=None):
    """Per-realization rescaling of the cross-correlative components.

    Returns sqrt(sum|nu0| / sum|eta0|) / sqrt(lam); the caller multiplies
    eta0 by it and divides nu0 by it, which leaves the cross-correlation
    invariant and makes lam the realized amplitude ratio
    sum|nu0| / sum|eta0| after scaling.  ``lam`` may be an array of
    strengths, giving an array of factors with its shape; each equals the
    factor of that strength alone.  ``eta0``/``nu0`` may hold several
    realizations, one per row of shape (rows, n): the factors then have
    shape (rows,) + lam's shape, and each row's equal its own call's.
    ``scratch``, a float array of eta0's shape, takes the moduli instead
    of a new array.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam > 0):
        raise ValueError("lambda must be positive")
    s_eta = np.sum(np.abs(eta0, out=scratch), axis=-1)
    s_nu = np.sum(np.abs(nu0, out=scratch), axis=-1)
    if np.any(s_eta == 0) or np.any(s_nu == 0):
        raise ZeroComponent(
            "scheme has no cross-correlative components; rescaling undefined"
        )
    ratio = np.sqrt(s_nu / s_eta)
    factor = ratio.reshape(ratio.shape + (1,) * lam.ndim) / np.sqrt(lam)
    return float(factor) if factor.ndim == 0 else factor
