"""Tests for the skew-normal kernel: densities, samplers, moments, helpers."""

import numpy as np
import pytest
from scipy import integrate

from conftest import normal_cdf_quadrature, sn_density_reference
from sncross import (
    RngStream,
    SnRestrictedMultivariate,
    SnUnivariate,
    delta_of_lambda,
    half_normal_sample,
    mills,
    normal_pdf_cdf,
    sn_moments,
    sn_pdf,
    sn_sample,
    sn_sample_vector,
)
from sncross.diagnostics import chi2_cdf, ks_test

SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


# ---------------------------------------------------------------------------
# delta and scalar special functions
# ---------------------------------------------------------------------------


def test_delta_values():
    assert delta_of_lambda(0.0) == 0.0
    assert delta_of_lambda(3.0) == pytest.approx(0.9486832980505138, abs=1e-12)
    assert delta_of_lambda(4.0) == pytest.approx(0.9701425001453319, abs=1e-12)


def test_delta_odd_and_increasing():
    lams = np.linspace(-20.0, 20.0, 81)
    deltas = delta_of_lambda(lams)
    np.testing.assert_array_equal(delta_of_lambda(-lams), -deltas)
    assert np.all(np.diff(deltas) > 0)
    assert np.all(np.abs(deltas) < 1.0)


def test_delta_huge_argument_no_overflow():
    assert delta_of_lambda(1e300) == 1.0
    assert delta_of_lambda(-1e300) == -1.0
    assert delta_of_lambda(1e8) == pytest.approx(1.0, abs=1e-15)


def test_normal_pdf_cdf_basics():
    phi0, Phi0 = normal_pdf_cdf(0.0)
    assert Phi0 == 0.5
    assert phi0 == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), abs=1e-15)


@pytest.mark.parametrize("x", [1.0, 2.0, 3.0, -1.0, -2.0, -3.0])
def test_normal_cdf_against_quadrature(x):
    _, Phi = normal_pdf_cdf(x)
    assert Phi == pytest.approx(normal_cdf_quadrature(x), abs=1e-12)


def test_mills_at_zero():
    assert mills(0.0) == pytest.approx(SQRT_2_OVER_PI, abs=1e-14)


def test_mills_matches_direct_ratio_for_moderate_args():
    x = np.linspace(-7.5, 8.0, 63)
    phi, Phi = normal_pdf_cdf(x)
    np.testing.assert_allclose(mills(x), phi / Phi, rtol=1e-12)


def test_mills_deep_tail_asymptote():
    assert 29.9 <= mills(-30.0) <= 30.1
    # next-order expansion: mills(x) ~ -x - 1/x + 2/x^3 as x -> -inf
    for x in (-15.0, -40.0, -200.0):
        expected = -x - 1.0 / x + 2.0 / x**3
        assert mills(x) == pytest.approx(expected, rel=1e-6)
    assert np.isfinite(mills(-1e6))


# ---------------------------------------------------------------------------
# density and moments
# ---------------------------------------------------------------------------


def test_pdf_standard_normal_reduction():
    assert sn_pdf(0.0, SnUnivariate(0.0, 1.0, 0.0)) == pytest.approx(
        0.3989422804014327, abs=1e-14
    )


def test_pdf_at_zero_independent_of_shape():
    for lam in (-5.0, -1.0, 2.0, 10.0):
        assert sn_pdf(0.0, SnUnivariate(0.0, 1.0, lam)) == pytest.approx(
            0.3989422804014327, abs=1e-14
        )


def test_pdf_value_lambda_three():
    # 2 * phi(1) * Phi(3), cross-checked by quadrature of the density
    assert sn_pdf(1.0, SnUnivariate(0.0, 1.0, 3.0)) == pytest.approx(
        0.4832881774288057, abs=1e-12
    )


def test_pdf_matches_reference_density():
    for lam in (-2.0, 0.5, 3.0):
        for w in (-1.5, 0.3, 2.0):
            assert sn_pdf(w, SnUnivariate(0.0, 1.0, lam)) == pytest.approx(
                sn_density_reference(w, lam), rel=1e-12
            )


@pytest.mark.parametrize("lam", [-5.0, -1.0, 0.0, 1.0, 3.0, 10.0])
def test_pdf_integrates_to_one(lam):
    params = SnUnivariate(0.4, 2.5, lam)
    total, _ = integrate.quad(
        lambda x: sn_pdf(x, params), -40.0, 40.0, epsabs=1e-12, epsrel=1e-12, limit=400
    )
    assert total == pytest.approx(1.0, abs=1e-8)


def test_moments_normal_case():
    assert sn_moments(SnUnivariate(0.0, 1.0, 0.0)) == pytest.approx((0.0, 1.0, 0.0))


def test_moments_lambda_three():
    mean, var, skew = sn_moments(SnUnivariate(0.0, 1.0, 3.0))
    assert mean == pytest.approx(0.7569397566144562, abs=1e-10)
    assert var == pytest.approx(0.4270422048691767, abs=1e-10)
    assert skew == pytest.approx(0.6670235702130639, abs=1e-6)


@pytest.mark.parametrize("lam", [-10.0, -3.0, -0.7, 0.0, 1.0, 4.0, 10.0])
def test_moments_match_numerical_integration(lam):
    params = SnUnivariate(0.3, 1.7, lam)
    kw = dict(epsabs=1e-13, epsrel=1e-13, limit=400)
    m1 = integrate.quad(lambda x: x * sn_pdf(x, params), -40, 40, **kw)[0]
    m2 = integrate.quad(lambda x: x * x * sn_pdf(x, params), -40, 40, **kw)[0]
    m3 = integrate.quad(lambda x: x**3 * sn_pdf(x, params), -40, 40, **kw)[0]
    var_q = m2 - m1 * m1
    skew_q = (m3 - 3 * m1 * var_q - m1**3) / var_q**1.5
    mean, var, skew = sn_moments(params)
    assert mean == pytest.approx(m1, abs=1e-6)
    assert var == pytest.approx(var_q, abs=1e-6)
    assert skew == pytest.approx(skew_q, abs=1e-6)


def test_location_scale_moments():
    mean, var, _ = sn_moments(SnUnivariate(2.0, 4.0, 3.0))
    base_mean, base_var, _ = sn_moments(SnUnivariate(0.0, 1.0, 3.0))
    assert mean == pytest.approx(2.0 + 2.0 * base_mean)
    assert var == pytest.approx(4.0 * base_var)


def test_univariate_validation():
    with pytest.raises(ValueError):
        SnUnivariate(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        SnRestrictedMultivariate(np.zeros(3), -1.0, 2.0)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_rng_stream_determinism():
    a = RngStream(123, 4).normal(10)
    b = RngStream(123, 4).normal(10)
    c = RngStream(123, 5).normal(10)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    np.testing.assert_array_equal(RngStream(123, 0).spawn(4).normal(10), a)


def test_rng_stream_one_draw_equals_series_of_draws():
    # simulate_subjects takes a whole dataset in one draw and relies on this
    sizes = [None, 12, None, None, 12, (3, 4), None, 1, 8]  # 49 draws
    for seed, stream in ((0, 0), (20260808, 3), (2**63, 17)):
        rng = RngStream(seed, stream)
        series = np.concatenate([np.ravel(rng.normal(size)) for size in sizes])
        one = RngStream(seed, stream).normal((len(series) // 7, 7)).ravel()
        np.testing.assert_array_equal(series, one)
        assert rng.normal() == RngStream(seed, stream).normal(len(series) + 1)[-1]


def test_sample_zero_shape_matches_plain_normal_stream():
    draws = sn_sample(SnUnivariate(1.5, 4.0, 0.0), RngStream(42, 0), size=100)
    plain = 1.5 + 2.0 * RngStream(42, 0).normal(100)
    np.testing.assert_array_equal(draws, plain)


def test_sample_mean_lambda_four():
    draws = sn_sample(SnUnivariate(0.0, 1.0, 4.0), RngStream(9, 1), size=1_000_000)
    assert draws.mean() == pytest.approx(0.7740617226446519, abs=2e-3)


def test_sample_variance_lambda_three():
    draws = sn_sample(SnUnivariate(0.0, 1.0, 3.0), RngStream(9, 2), size=1_000_000)
    assert draws.var() == pytest.approx(0.4270422048691767, abs=5e-3)


def test_sample_distribution_ks():
    lam = 3.0
    params = SnUnivariate(0.0, 1.0, lam)
    draws = np.sort(sn_sample(params, RngStream(31, 0), size=100_000))
    grid = np.linspace(-9.0, 9.0, 18_001)
    pdf_vals = sn_pdf(grid, params)
    cdf_grid = np.concatenate([[0.0], np.cumsum((pdf_vals[1:] + pdf_vals[:-1]) / 2.0)]) * (
        grid[1] - grid[0]
    )
    cdf_grid /= cdf_grid[-1]
    cdf = np.interp(draws, grid, cdf_grid)
    n = draws.size
    i = np.arange(1, n + 1)
    stat = np.max(np.maximum(cdf - (i - 1) / n, i / n - cdf))
    from scipy.special import kolmogorov

    assert kolmogorov(np.sqrt(n) * stat) > 0.01


def test_half_normal_sample():
    draws = half_normal_sample(RngStream(5, 0), size=1_000_000)
    assert np.all(draws >= 0.0)
    assert draws.mean() == pytest.approx(SQRT_2_OVER_PI, abs=2e-3)
    assert (draws**2).mean() == pytest.approx(1.0, abs=5e-3)


def test_vector_sampler_zero_shape_matches_normal_stream():
    params = SnRestrictedMultivariate(np.zeros(4), 2.0, 0.0)
    draws = sn_sample_vector(params, RngStream(77, 0), size=3)
    plain = np.sqrt(2.0) * RngStream(77, 0).normal((3, 4))
    np.testing.assert_array_equal(draws, plain)


def test_vector_sampler_dimension_one_agrees_with_univariate():
    params_v = SnRestrictedMultivariate(np.array([0.7]), 2.0, 3.0)
    params_u = SnUnivariate(0.7, 2.0, 3.0)
    vec = sn_sample_vector(params_v, RngStream(13, 0), size=50)
    uni = sn_sample(params_u, RngStream(13, 0), size=50)
    np.testing.assert_allclose(vec[:, 0], uni, rtol=1e-13)


def test_vector_sampler_first_coordinate_mean():
    # sigma * delta * sqrt(2/pi) with sigma^2 = 2, lambda = 3
    params = SnRestrictedMultivariate(np.zeros(12), 2.0, 3.0)
    draws = sn_sample_vector(params, RngStream(21, 0), size=100_000)
    assert draws[:, 0].mean() == pytest.approx(1.0704744696916628, abs=2e-2)
    assert np.abs(draws[:, 1:].mean(axis=0)).max() < 2e-2


def test_vector_sampler_quadratic_form_chi_square():
    n = 6
    params = SnRestrictedMultivariate(np.full(n, 1.0), 1.7, 2.5)
    draws = sn_sample_vector(params, RngStream(55, 0), size=20_000)
    resid = draws - 1.0
    dist = (resid * resid).sum(axis=1) / 1.7
    _, pvalue = ks_test(dist, n)
    assert pvalue > 0.01


def test_vector_sampler_validation():
    with pytest.raises(ValueError):
        SnRestrictedMultivariate(np.zeros((2, 2)), 1.0, 0.0)
