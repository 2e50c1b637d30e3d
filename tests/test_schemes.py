"""Tests for the filter-set constructors and scheme algebra."""

import numpy as np
import pytest

from slnoise import (
    BathParams,
    DivisionByZeroSpectrum,
    FrequencyGrid,
    SchemeId,
    ZeroComponent,
    build_kernel_table,
    convex_c,
    expected_nu_power,
    expected_total_power,
    flip_freq,
    make_filters,
    mixed_filters,
    mixing_optimised,
    mixing_reduced,
    rescale_factor,
    verify_constraint,
    wiener_inverse,
)
from slnoise.schemes import FilterStructure


def mixing_power(kt, a_w, total=False):
    """Noise power functional of a mixing function at gamma = 0.

    Evaluates the closed-form spectral integrand of the mean square nu
    amplitude (optionally plus eta's) without building filters, so that
    perturbed mixing functions can be scored directly.  Zero-spectrum bins
    require mixing 1; any other value there makes the constrained branch
    divergent and the result infinite.
    """
    k = kt.k_etaeta_w
    rabs = np.abs(kt.r_w)
    a = np.asarray(a_w, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        constrained = np.where(
            k > 0,
            2.0 * rabs**2 / np.where(k > 0, k, 1.0) * (1.0 - a) ** 2,
            np.where(np.abs(1.0 - a) > 1e-15, np.inf, 0.0),
        )
    integrand = constrained + rabs * np.abs(a)
    if total:
        integrand = integrand + k + rabs * np.abs(a)
    return float(np.sum(integrand)) / (kt.grid.n * kt.grid.dt)


def reality_defect(filter_w):
    """|conj(f(w)) - f(-w)| per bin; zero for the transform of a real
    time-domain filter."""
    return np.abs(np.conj(filter_w) - flip_freq(filter_w))


@pytest.fixture(scope="module")
def table():
    return build_kernel_table(FrequencyGrid(2048, 0.01), BathParams(1.0, 25.0))


@pytest.fixture(scope="module")
def table_hot():
    return build_kernel_table(FrequencyGrid(2048, 0.01), BathParams(0.1, 25.0))


# ---------------------------------------------------------------- wiener


def test_wiener_inverse_plain():
    k = np.full(8, 4.0)
    assert np.allclose(wiener_inverse(k, 0.0), 0.5)


def test_wiener_inverse_zero_bin_with_gamma():
    k = np.array([4.0, 0.0, 1.0])
    out = wiener_inverse(k, 0.01)
    assert out[1] == 0.0


def test_wiener_inverse_half_height_bin():
    gamma = 0.05
    k = np.array([9.0, 0.0])
    m = 3.0  # max sqrt(K)
    k[1] = gamma * m
    out = wiener_inverse(k, gamma)
    assert out[1] == pytest.approx(np.sqrt(gamma * m) / (2 * gamma * m))


def test_wiener_inverse_gamma_zero_rejects_zero_bins():
    with pytest.raises(DivisionByZeroSpectrum):
        wiener_inverse(np.array([1.0, 0.0]), 0.0)


def test_wiener_inverse_monotone_in_gamma():
    k = np.linspace(0.0, 9.0, 64)
    prev = wiener_inverse(k, 0.001)
    for gamma in (0.01, 0.1, 1.0):
        cur = wiener_inverse(k, gamma)
        assert np.all(cur <= prev + 1e-15)
        prev = cur


def test_wiener_inverse_rejects_negative():
    with pytest.raises(ValueError):
        wiener_inverse(np.array([-1.0]), 0.1)
    with pytest.raises(ValueError):
        wiener_inverse(np.array([1.0]), -0.1)


# ---------------------------------------------------------------- mixing


def test_mixing_reduced_binary_rule():
    k = np.array([2.0, 1.0, 0.0])
    r = np.array([1.0, 2.0, 0.5])
    a = mixing_reduced(k, r)
    assert a[0] == 0.0  # |R| <= K
    assert a[1] == 1.0  # |R| > K
    assert a[2] == 1.0  # constrained branch divergent


def test_mixing_optimised_values():
    k = np.array([4.0, 2.0, 1e-12, 40.0])
    r = np.array([1.0, 1.0, 1.0, 1.0])
    a4 = mixing_optimised(k, r, 0.25)
    assert a4[0] == pytest.approx(0.0)
    assert a4[2] == pytest.approx(1.0)
    assert a4[3] == 0.0  # stationary value negative -> clamped at boundary
    a2 = mixing_optimised(k, r, 0.5)
    assert a2[1] == pytest.approx(0.0)


def test_mixing_optimised_zero_r_bins():
    a = mixing_optimised(np.array([1.0]), np.array([0.0]), 0.25)
    assert a[0] == 0.0


def test_mixing_optimised_rejects_other_zeta():
    with pytest.raises(ValueError):
        mixing_optimised(np.array([1.0]), np.array([1.0]), 0.3)


def test_mixing_even(table):
    for build in (
        lambda: mixing_reduced(table.k_etaeta_w, table.r_w),
        lambda: mixing_optimised(table.k_etaeta_w, table.r_w, 0.25),
        lambda: mixing_optimised(table.k_etaeta_w, table.r_w, 0.5),
    ):
        a = build()
        assert np.max(np.abs(a - flip_freq(a))) < 1e-12


# ---------------------------------------------------------------- convex


def test_convex_c_values():
    assert convex_c(np.array([1.0]), np.array([0.0]))[0] == 0.0
    c = convex_c(np.array([2.0]), np.array([np.sqrt(3.0)]))[0]
    assert c == pytest.approx(0.25)  # 4|R|^2/K^2 = 3 -> 1/2(1 - 1/2)
    c = convex_c(np.array([0.0]), np.array([1.0]))[0]
    assert c == pytest.approx(0.5 - 1e-12)


def test_convex_c_range(table):
    c = convex_c(table.k_etaeta_w, table.r_w)
    assert np.all(c >= 0.0)
    assert np.all(c < 0.5)


def test_convex_internal_identity(table):
    fs = make_filters(SchemeId.CONVEX, table)
    lhs = fs.f1_w**2 - fs.f2_w**2
    scale = np.max(np.abs(table.k_etaeta_w))
    assert np.max(np.abs(lhs - table.k_etaeta_w)) < 1e-10 * scale


# ---------------------------------------------------------------- filters


@pytest.mark.parametrize(
    "scheme",
    [SchemeId.LIKE, SchemeId.REDUCED, SchemeId.NU_OPTIMISED, SchemeId.ETANU_OPTIMISED],
)
def test_constraint_identity_gamma_zero(table, scheme):
    fs = make_filters(scheme, table, gamma=0.0)
    rep = verify_constraint(fs, table)
    assert rep.max_residual <= 1e-10 * rep.scale


def test_delta_constraint_exact(table):
    fs = make_filters(SchemeId.DELTA, table)
    rep = verify_constraint(fs, table)
    assert rep.max_residual <= 1e-12 * rep.scale
    assert np.all(fs.g2_w == 1.0)


def test_constrained_requires_gamma(table):
    with pytest.raises(DivisionByZeroSpectrum):
        make_filters(SchemeId.CONSTRAINED, table, gamma=0.0)


def test_constrained_residual_decreases_with_gamma_on_interior(table):
    interior = table.k_etaeta_w > 0
    prev = None
    for gamma in (0.1, 0.01, 0.001):
        fs = make_filters(SchemeId.CONSTRAINED, table, gamma=gamma)
        res = np.abs(verify_constraint(fs, table).residual[interior])
        if prev is not None:
            assert np.all(res <= prev + 1e-12)
        prev = res


def test_reduced_degenerate_cases(table):
    n = table.grid.n
    as_constrained = mixed_filters(SchemeId.CONSTRAINED, table, np.zeros(n),
                                   gamma=0.01)
    constrained = make_filters(SchemeId.CONSTRAINED, table, gamma=0.01)
    assert np.array_equal(as_constrained.g1_w, constrained.g1_w)
    assert np.array_equal(as_constrained.f1_w, constrained.f1_w)
    assert np.all(as_constrained.f2_w == 0.0)
    assert np.all(as_constrained.g2_w == 0.0)

    as_like = mixed_filters(SchemeId.LIKE, table, np.ones(n), gamma=0.0)
    like = make_filters(SchemeId.LIKE, table)
    assert np.array_equal(as_like.f2_w, like.f2_w)
    assert np.array_equal(as_like.g2_w, like.g2_w)
    assert np.all(as_like.g1_w == 0.0)


def test_mixed_filters_gamma_zero_rejected_when_zero_bins_need_division(table):
    n = table.grid.n
    # mixing 0 everywhere forces the constrained branch on the dead bins
    with pytest.raises(DivisionByZeroSpectrum):
        mixed_filters(SchemeId.CONSTRAINED, table, np.zeros(n), gamma=0.0)


def test_reduced_gamma_zero_allowed_by_builtin_mixing(table):
    # the binary rule assigns the like branch to every zero-spectrum bin,
    # so no division is required there
    fs = make_filters(SchemeId.REDUCED, table, gamma=0.0)
    rep = verify_constraint(fs, table)
    assert rep.max_residual <= 1e-10 * rep.scale


def test_filters_carry_their_scheme(table):
    for scheme in SchemeId:
        assert make_filters(scheme, table, gamma=0.01).scheme is scheme


@pytest.mark.parametrize("scheme", [SchemeId.LIKE, SchemeId.NU_OPTIMISED,
                                    SchemeId.ETANU_OPTIMISED])
def test_gamma_ignored_by_schemes_without_wiener_inverse(table, scheme):
    at_zero = make_filters(scheme, table, gamma=0.0)
    at_tenth = make_filters(scheme, table, gamma=0.1)
    for name in ("f1_w", "f2_w", "g1_w", "g2_w", "branch_bins"):
        assert np.array_equal(getattr(at_zero, name), getattr(at_tenth, name)), name


def test_filters_reality(table):
    for scheme in SchemeId:
        gamma = 0.01 if scheme in (SchemeId.CONSTRAINED, SchemeId.REDUCED) else 0.0
        fs = make_filters(scheme, table, gamma=gamma)
        arrays = [fs.f1_w, fs.f2_w, fs.g1_w]
        if fs.g2_w is not None:
            arrays.append(fs.g2_w)
        mask = np.ones(table.grid.n, dtype=bool)
        mask[fs.branch_bins] = False
        scale = max(np.max(np.abs(a)) for a in arrays)
        for a in arrays:
            assert np.max(reality_defect(a)[mask]) < 1e-10 * scale


def test_branch_bins_recorded(table):
    # R is negative real at DC (its real part is the principal-value
    # transform, negative at low frequency; its imaginary part is odd)
    fs = make_filters(SchemeId.LIKE, table)
    assert 0 in fs.branch_bins


def test_channel_counts(table):
    assert make_filters(SchemeId.LIKE, table).n_channels == 4
    assert make_filters(SchemeId.CONVEX, table).n_channels == 2
    assert make_filters(SchemeId.CONVEX, table).structure is FilterStructure.CONVEX


# ---------------------------------------------------------------- power


def test_expected_power_zero_for_zero_filters(table):
    fs = make_filters(SchemeId.CONSTRAINED, table, gamma=0.01)
    zeroed = type(fs)(
        scheme=fs.scheme, structure=fs.structure, grid=fs.grid,
        f1_w=np.zeros_like(fs.f1_w), f2_w=np.zeros_like(fs.f2_w),
        g1_w=np.zeros_like(fs.g1_w), g2_w=np.zeros_like(fs.g2_w),
    )
    assert expected_nu_power(zeroed) == 0.0
    assert expected_total_power(zeroed) == 0.0


def test_nu_optimised_beats_like_on_nu_power(table, table_hot):
    for kt in (table, table_hot):
        like = expected_nu_power(make_filters(SchemeId.LIKE, kt))
        opt = expected_nu_power(make_filters(SchemeId.NU_OPTIMISED, kt))
        assert opt <= like + 1e-12


def test_etanu_optimised_beats_nu_optimised_on_total_power(table, table_hot):
    for kt in (table, table_hot):
        nu = expected_total_power(make_filters(SchemeId.NU_OPTIMISED, kt))
        etanu = expected_total_power(make_filters(SchemeId.ETANU_OPTIMISED, kt))
        assert etanu <= nu + 1e-12


@pytest.mark.parametrize("zeta,total", [(0.25, False), (0.5, True)])
def test_optimised_mixing_is_a_minimum(table_hot, zeta, total):
    kt = table_hot
    a0 = mixing_optimised(kt.k_etaeta_w, kt.r_w, zeta)
    base = mixing_power(kt, a0, total=total)
    rng = np.random.default_rng(7)
    interior = np.flatnonzero((kt.k_etaeta_w > 0) & (np.abs(kt.r_w) > 0))
    bins = rng.choice(interior, size=16, replace=False)
    n = kt.grid.n
    for b in bins:
        for delta in (0.05, -0.05):
            a = a0.copy()
            # keep the perturbation even in frequency
            a[b] += delta
            a[(n - b) % n] += delta if b != 0 else 0.0
            assert mixing_power(kt, a, total=total) > base


def test_mixing_power_matches_filter_power(table):
    a = mixing_reduced(table.k_etaeta_w, table.r_w)
    fs = mixed_filters(SchemeId.REDUCED, table, a, gamma=0.0)
    assert mixing_power(table, a) == pytest.approx(
        expected_nu_power(fs), rel=1e-10
    )
    assert mixing_power(table, a, total=True) == pytest.approx(
        expected_total_power(fs), rel=1e-10
    )


def test_etanu_optimised_nu_power_equals_like(table):
    # algebraic identity of the zeta = 1/2 stationary point: on bins where
    # the optimum is interior, the nu integrand reduces to |R|, the same
    # as the like scheme's
    k, r = table.k_etaeta_w, table.r_w
    a = mixing_optimised(k, r, 0.5)
    interior = (a > 0) & (a < 1)
    rabs = np.abs(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = 2 * rabs**2 / k * (1 - a) ** 2 + rabs * a
    assert np.allclose(integrand[interior], rabs[interior], rtol=1e-10)


# ---------------------------------------------------------------- rescale


def test_rescale_factor_examples():
    ones = np.ones(10)
    assert rescale_factor(ones, ones, 1.0) == pytest.approx(1.0)
    assert rescale_factor(ones, 4.0 * ones, 0.5) == pytest.approx(np.sqrt(8.0))


def test_rescale_factor_zero_component():
    with pytest.raises(ZeroComponent):
        rescale_factor(np.zeros(4), np.ones(4), 1.0)
    with pytest.raises(ZeroComponent):
        rescale_factor(np.ones(4), np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        rescale_factor(np.ones(4), np.ones(4), 0.0)


def test_rescale_preserves_product():
    rng = np.random.default_rng(3)
    eta0 = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    nu0 = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    lam = 0.37
    f = rescale_factor(eta0, nu0, lam)
    assert np.allclose((f * eta0) * (nu0 / f), eta0 * nu0)
    # after rescaling the amplitude ratio equals lambda
    assert np.sum(np.abs(nu0 / f)) / np.sum(np.abs(f * eta0)) == pytest.approx(lam)
