"""Analytic score and observed information of the marginal log-likelihood,
the standard errors built on them, and the design moments behind the GLS step.

The references are central differences: of ``marginal_loglik`` for the
score, and of the analytic score for the information.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import finite_difference_gradient
from sncross import (
    RngStream,
    Scenario,
    ThetaState,
    default_true_theta,
    fit,
    marginal_loglik,
    marginal_score,
    observed_information,
    simulate_subjects,
    standard_errors,
)
from sncross import em
from sncross.simulate import default_layout

SCENARIOS = [Scenario.ERROR_SN, Scenario.EFFECT_SN, Scenario.NORMAL]


@pytest.fixture(scope="module", params=SCENARIOS, ids=lambda s: s.value)
def fitted(request):
    """A 30-subject dataset, its fit in the scenario, and a point off the optimum."""
    scenario = request.param
    truth = Scenario.EFFECT_SN if scenario is Scenario.EFFECT_SN else Scenario.ERROR_SN
    data = simulate_subjects(default_layout(10), default_true_theta(truth), RngStream(1, 0))
    theta = fit(data, scenario, tol=1e-6, max_iter=2000, compute_se=False).theta
    off = replace(
        theta,
        beta=theta.beta + 0.05,
        sigma_e2=1.2 * theta.sigma_e2,
        sigma_s2=0.8 * theta.sigma_s2,
        lam=theta.lam + 0.3 if scenario is not Scenario.NORMAL else 0.0,
    )
    return data, theta, off


def _at(theta, vec):
    q = theta.beta.size
    lam = float(vec[q + 2]) if vec.size > q + 2 else theta.lam
    return replace(theta, beta=vec[:q], sigma_e2=float(vec[q]), sigma_s2=float(vec[q + 1]), lam=lam)


def _free(theta):
    return em._free_vector(theta, theta.scenario is not Scenario.NORMAL)


def test_score_matches_loglik_differences(fitted):
    data, *points = fitted
    for theta in points:
        x0 = _free(theta)
        h = 1e-5 * np.maximum(1.0, np.abs(x0))
        fd = finite_difference_gradient(lambda v: marginal_loglik(_at(theta, v), data), x0, h)
        score = marginal_score(theta, data)
        scale = max(1.0, float(np.abs(fd).max()))
        np.testing.assert_allclose(score, fd, rtol=0, atol=1e-7 * scale)


def test_information_matches_score_differences(fitted):
    data, *points = fitted
    for theta in points:
        x0 = _free(theta)
        h = 1e-5 * np.maximum(1.0, np.abs(x0))
        info = observed_information(theta, data)
        fd = np.array(
            [
                finite_difference_gradient(
                    lambda v: marginal_score(_at(theta, v), data)[i], x0, h
                )
                for i in range(x0.size)
            ]
        )
        np.testing.assert_allclose(info, info.T, rtol=0, atol=1e-12 * np.abs(info).max())
        np.testing.assert_allclose(-fd, info, rtol=0, atol=1e-7 * np.abs(info).max())


def test_standard_errors_invert_the_information_without_likelihood_calls(fitted, monkeypatch):
    data, theta, _ = fitted
    expected = np.sqrt(np.diag(np.linalg.inv(observed_information(theta, data))))

    def forbidden(*args, **kwargs):
        raise AssertionError("standard_errors evaluated the likelihood")

    monkeypatch.setattr(em, "marginal_loglik", forbidden)
    np.testing.assert_allclose(standard_errors(theta, data), expected, rtol=1e-10)


def test_boundary_fit_gives_nan_lambda_se_and_finite_others(boundary_error_sn_data):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = fit(boundary_error_sn_data, Scenario.ERROR_SN)
    assert res.theta.lam > 1e50
    assert any("not positive definite" in str(w.message) for w in caught)
    assert res.param_names[-1] == "lambda"
    assert np.isnan(res.se[-1])
    assert np.all(np.isfinite(res.se[:-1])) and np.all(res.se[:-1] > 0)


@pytest.mark.parametrize("a", [1e-4, 1e4])
def test_standard_errors_follow_the_units_of_y(fitted, a):
    # y -> a y maps the optimum to (a beta, a^2 sigma2, lambda); the SEs must
    # follow with no change in which coordinates count as identified.
    data, theta, _ = fitted
    scaled = replace(
        theta, beta=a * theta.beta, sigma_e2=a**2 * theta.sigma_e2, sigma_s2=a**2 * theta.sigma_s2
    )
    q = theta.beta.size
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        se = standard_errors(theta, data)
        se_scaled = standard_errors(scaled, replace(data, y=a * data.y))
    units = np.ones_like(se)
    units[:q], units[q : q + 2] = a, a**2
    np.testing.assert_allclose(se_scaled, units * se, rtol=1e-8)


def test_standard_errors_follow_the_units_of_a_design_column(fitted):
    # Measuring one column of X in units 1e4 times smaller divides its
    # coefficient, and that coefficient's SE, by 1e4.
    data, theta, _ = fitted
    b, j = 1e4, 1
    X = data.X.copy()
    X[:, :, j] *= b
    beta = theta.beta.copy()
    beta[j] /= b
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        se = standard_errors(theta, data)
        se_scaled = standard_errors(replace(theta, beta=beta), replace(data, X=X))
    units = np.ones_like(se)
    units[j] = 1.0 / b
    np.testing.assert_allclose(se_scaled, units * se, rtol=1e-8)


def test_replaced_data_gets_fresh_design_moments(small_error_sn_data):
    data = small_error_sn_data
    first = data.moments
    assert data.moments is first
    shifted = replace(data, y=data.y + 1.0)
    assert shifted.moments is not first
    np.testing.assert_allclose(
        shifted.moments.XY, np.einsum("naj,nb->ajb", data.X, shifted.y), rtol=1e-12
    )
    np.testing.assert_allclose(
        shifted.moments.XX, np.einsum("naj,nbk->ajbk", data.X, data.X), rtol=1e-12
    )
    theta = ThetaState(np.zeros(data.layout.n_fixed), 1.0, 1.0, 0.0, Scenario.NORMAL)
    beta, beta_shifted = (em._gls(d, em.kernel(theta, d.layout.pm).Vinv) for d in (data, shifted))
    # the intercept column absorbs the shift
    np.testing.assert_allclose(beta_shifted - beta, np.eye(beta.size)[0], atol=1e-10)
