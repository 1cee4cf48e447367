"""Tests for information criteria, Mahalanobis GoF, KS test, residuals."""

import numpy as np
import pytest
from scipy import integrate, special

from sncross import (
    CrossoverLayout,
    RngStream,
    Scenario,
    ThetaState,
    assemble_trial,
    default_true_theta,
    e_step,
    fit,
    marginal_loglik,
    simulate_subjects,
)
from sncross.diagnostics import (
    aic_bic,
    chi2_cdf,
    chi2_quantile,
    gof_report,
    healy_points,
    ks_test,
    mahalanobis,
    plot_data_rows,
    standardized_residuals,
    write_plot_csv,
)
from sncross.em import assemble, kernel
from sncross.simulate import default_layout


def _scalar_data(y_value=0.0):
    layout = CrossoverLayout((1,), ((1,),), 1, 1)
    return assemble_trial(layout, {(1, 1): np.array([y_value])})


# ---------------------------------------------------------------------------
# marginal log-likelihood
# ---------------------------------------------------------------------------


def test_marginal_loglik_scalar_hand_value():
    # V = 1, y = mu = 0, lambda = 0: log(2 phi(0) Phi(0)) = log phi(0)
    data = _scalar_data(0.0)
    theta = ThetaState(np.zeros(1), 0.5, 0.5, 0.0, Scenario.NORMAL)
    assert marginal_loglik(theta, data) == pytest.approx(-0.9189385332046727, abs=1e-12)


def test_marginal_loglik_zero_shape_equals_gaussian(small_error_sn_data):
    data = small_error_sn_data
    theta = ThetaState(np.full(9, 0.3), 1.4, 0.6, 0.0, Scenario.ERROR_SN)
    V, _ = assemble(theta, 12)
    sign, logdet = np.linalg.slogdet(V)
    Vinv = np.linalg.inv(V)
    resid = data.y - data.X @ theta.beta
    quad = np.einsum("np,pq,nq->n", resid, Vinv, resid)
    expected = -0.5 * data.n_subjects * (12 * np.log(2 * np.pi) + logdet) - 0.5 * quad.sum()
    assert marginal_loglik(theta, data) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("scenario", [Scenario.ERROR_SN, Scenario.EFFECT_SN])
def test_marginal_loglik_against_latent_integration(scenario, small_error_sn_data):
    """f(y) must equal the 1-D integral of phi_pm(y | Xb + dt, V) 2 phi(t) over t > 0."""
    data = small_error_sn_data
    theta = ThetaState(
        default_true_theta(Scenario.ERROR_SN).beta, 1.5, 0.9, 2.2, scenario
    )
    pm = data.layout.pm
    k = kernel(theta, pm)
    d, Vinv, logdet = k.d, k.Vinv, k.logdet
    total = 0.0
    for i in range(data.n_subjects):
        u = data.y[i] - data.X[i] @ theta.beta

        def dens(t):
            r = u - d * t
            return (
                np.exp(-0.5 * (r @ Vinv @ r))
                / np.sqrt((2 * np.pi) ** pm * np.exp(logdet))
                * 2.0
                * np.exp(-0.5 * t * t)
                / np.sqrt(2 * np.pi)
            )

        val = integrate.quad(dens, 0.0, 40.0, epsabs=1e-300, epsrel=1e-11, limit=300)[0]
        total += np.log(val)
    assert marginal_loglik(theta, data) == pytest.approx(total, rel=1e-8)


def test_marginal_loglik_local_max_at_fit(medium_error_sn_data):
    data = medium_error_sn_data
    res = fit(data, Scenario.ERROR_SN, tol=1e-6, max_iter=3000, compute_se=False)
    base = res.loglik
    theta = res.theta
    vec = np.concatenate([theta.beta, [theta.sigma_e2, theta.sigma_s2, theta.lam]])
    for k in range(vec.size):
        for sign in (+1.0, -1.0):
            pert = vec.copy()
            pert[k] += sign * 1e-3
            t = ThetaState(pert[:9], pert[9], pert[10], pert[11], Scenario.ERROR_SN)
            assert marginal_loglik(t, data) <= base + 1e-8


# ---------------------------------------------------------------------------
# information criteria
# ---------------------------------------------------------------------------


def test_aic_bic_trivial():
    assert aic_bic(0.0, 0, 10) == (0.0, 0.0)


def test_aic_bic_gene_study_parameter_count():
    # the three-period, ten-gene trial has 14 fixed effects + 2 variances + 1
    # shape = 17 free parameters; inverting the reported AIC gives its loglik
    loglik = 293.82
    aic, bic = aic_bic(loglik, 17, 360)
    assert aic == pytest.approx(-553.64, abs=1e-10)
    assert bic == pytest.approx(17 * np.log(360) - 2 * loglik, rel=1e-12)


def test_aic_bic_monotone_in_k():
    for k in range(1, 6):
        a_lo, b_lo = aic_bic(-10.0, k, 100)
        a_hi, b_hi = aic_bic(-10.0, k + 1, 100)
        assert a_hi > a_lo and b_hi > b_lo


def test_bic_at_least_aic_for_n_at_least_8():
    for n in (8, 20, 360):
        aic, bic = aic_bic(-5.0, 3, n)
        assert bic >= aic
    aic, bic = aic_bic(-5.0, 3, 7)
    assert bic < aic


def test_fit_result_matches_aic_bic_formula(small_error_sn_data):
    res = fit(small_error_sn_data, Scenario.ERROR_SN, compute_se=False)
    aic, bic = aic_bic(res.loglik, res.n_free, res.n_obs)
    assert res.aic == pytest.approx(aic, rel=1e-14)
    assert res.bic == pytest.approx(bic, rel=1e-14)


# ---------------------------------------------------------------------------
# chi-square helpers
# ---------------------------------------------------------------------------


def test_chi2_cdf_exponential_case():
    assert chi2_cdf(2.0, 2) == pytest.approx(1.0 - np.exp(-1.0), abs=1e-10)


def test_chi2_cdf_at_zero():
    for df in (1, 5, 30):
        assert chi2_cdf(0.0, df) == 0.0


def test_chi2_cdf_df30_against_quadrature_constant():
    # 0.5343462910559904 computed by integrating the chi2_30 density
    assert chi2_cdf(30.0, 30) == pytest.approx(0.5343462910559904, abs=1e-9)


def test_chi2_cdf_monotone_and_complement():
    x = np.linspace(0.0, 80.0, 401)
    vals = chi2_cdf(x, 12)
    assert np.all(np.diff(vals) >= 0)
    comp = special.gammaincc(6.0, x / 2.0)
    np.testing.assert_allclose(vals + comp, 1.0, atol=1e-10)


def test_chi2_quantile_roundtrip():
    x = np.array([0.3, 2.0, 7.7, 31.0])
    np.testing.assert_allclose(chi2_quantile(chi2_cdf(x, 12), 12), x, atol=1e-10)


# ---------------------------------------------------------------------------
# Mahalanobis distances
# ---------------------------------------------------------------------------


def test_mahalanobis_zero_at_location():
    layout = CrossoverLayout((1,), ((1, 2),), 2, 2)
    theta = ThetaState(np.zeros(4), 1.0, 1.0, 0.0, Scenario.NORMAL)
    data = assemble_trial(layout, {(1, 1): np.zeros(4)})
    assert mahalanobis(theta, data)[0] == pytest.approx(0.0, abs=1e-12)


def test_mahalanobis_euclidean_case():
    layout = CrossoverLayout((1,), ((1, 2),), 2, 2)
    theta = ThetaState(np.zeros(4), 1.0, 1e-12, 0.0, Scenario.NORMAL)
    data = assemble_trial(layout, {(1, 1): np.array([3.0, 4.0, 0.0, 0.0])})
    assert mahalanobis(theta, data)[0] == pytest.approx(25.0, abs=1e-6)


def test_mahalanobis_chi_square_law_from_fitted_model(medium_error_sn_data):
    res = fit(medium_error_sn_data, Scenario.ERROR_SN, compute_se=False)
    big_layout = CrossoverLayout(
        n_per_seq=(400, 400, 400),
        assignment=((1, 2, 3), (2, 3, 1), (3, 1, 2)),
        n_treatments=3,
        n_responses=4,
        covariates=("w",),
    )
    big = simulate_subjects(big_layout, res.theta, RngStream(321, 0))
    dist = mahalanobis(res.theta, big)
    _, pvalue = ks_test(dist, 12)
    assert pvalue > 0.01


# ---------------------------------------------------------------------------
# KS test
# ---------------------------------------------------------------------------


def test_ks_single_point_at_median():
    d = [chi2_quantile(0.5, 12)]
    stat, _ = ks_test(d, 12)
    assert stat == pytest.approx(0.5, abs=1e-12)


def test_ks_plugin_quantiles():
    n = 25
    probs = (np.arange(1, n + 1) - 0.5) / n
    d = chi2_quantile(probs, 8)
    stat, pvalue = ks_test(d, 8)
    assert stat == pytest.approx(0.5 / n, abs=1e-10)
    assert pvalue > 0.999


def test_ks_pvalue_matches_kolmogorov_series():
    rng = np.random.default_rng(5)
    d = 2.0 * rng.standard_gamma(6.0, size=40)
    stat, pvalue = ks_test(d, 12)
    y = np.sqrt(40) * stat
    series = 2.0 * sum((-1) ** (k - 1) * np.exp(-2.0 * k * k * y * y) for k in range(1, 101))
    assert pvalue == pytest.approx(series, abs=1e-10)


def test_ks_null_coverage_small_sample():
    rng = np.random.default_rng(99)
    hits = 0
    for _ in range(1000):
        d = 2.0 * rng.standard_gamma(15.0, size=12)  # chi-square with 30 df
        _, p = ks_test(d, 30)
        hits += p > 0.05
    assert hits >= 900


def test_ks_probability_integral_transform_invariance():
    rng = np.random.default_rng(12)
    d = 2.0 * rng.standard_gamma(6.0, size=30)
    stat_chi, _ = ks_test(d, 12)
    u = np.sort(chi2_cdf(d, 12))
    i = np.arange(1, 31)
    stat_unif = np.max(np.maximum(u - (i - 1) / 30, i / 30 - u))
    assert stat_chi == pytest.approx(stat_unif, abs=1e-14)


def test_ks_empty_input():
    with pytest.raises(ValueError):
        ks_test([], 4)


# ---------------------------------------------------------------------------
# Healy points
# ---------------------------------------------------------------------------


def test_healy_exact_quantiles_on_identity():
    n = 40
    probs = (np.arange(1, n + 1) - 0.5) / n
    d = chi2_quantile(probs, 12)
    pts = healy_points(d, 12)
    for nominal, empirical in pts:
        assert empirical == pytest.approx(nominal, abs=1e-10)


def test_healy_zero_distances():
    pts = healy_points(np.zeros(5), 12)
    assert all(e == 0.0 for _, e in pts)
    assert [n for n, _ in pts] == pytest.approx([0.1, 0.3, 0.5, 0.7, 0.9])


def test_healy_well_fitted_simulation(medium_error_sn_data):
    res = fit(medium_error_sn_data, Scenario.ERROR_SN, compute_se=False)
    dist = mahalanobis(res.theta, medium_error_sn_data)
    pts = healy_points(dist, 12)
    assert max(abs(n - e) for n, e in pts) < 0.15
    nominal = [n for n, _ in pts]
    assert nominal == sorted(nominal)


# ---------------------------------------------------------------------------
# standardized residuals
# ---------------------------------------------------------------------------


def test_standardized_residuals_zero_shape_are_marginal(small_error_sn_data):
    data = small_error_sn_data
    theta = ThetaState(np.full(9, 0.1), 1.2, 0.8, 0.0, Scenario.ERROR_SN)
    resid = standardized_residuals(theta, data)
    V, _ = assemble(theta, 12)
    expected = (data.y - data.X @ theta.beta) / np.sqrt(np.diag(V))
    np.testing.assert_allclose(resid, expected, atol=1e-12)


def test_standardized_residuals_exact_fit_is_zero():
    # fixed point of y = X beta + d T01(y): iterate to convergence, then
    # the residual function must vanish identically
    layout = default_layout(2)
    theta = ThetaState(
        default_true_theta(Scenario.ERROR_SN).beta, 2.0, 0.6, 3.0, Scenario.ERROR_SN
    )
    data = simulate_subjects(layout, theta, RngStream(14, 0))
    y = data.y.copy()
    for _ in range(200):
        work = assemble_trial_like(data, y)
        cache = e_step(theta, work)
        y_new = data.X @ theta.beta + np.outer(cache.T01, cache.kernel.d)
        if np.abs(y_new - y).max() < 1e-13:
            y = y_new
            break
        y = y_new
    work = assemble_trial_like(data, y)
    resid = standardized_residuals(theta, work)
    np.testing.assert_allclose(resid, 0.0, atol=1e-10)


def assemble_trial_like(data, y):
    from dataclasses import replace

    return replace(data, y=y)


def test_standardized_residuals_pooled_moments(medium_error_sn_data):
    res = fit(medium_error_sn_data, Scenario.ERROR_SN, compute_se=False)
    pooled = standardized_residuals(res.theta, medium_error_sn_data).ravel()
    assert abs(pooled.mean()) < 0.05
    assert 0.85 < pooled.var() < 1.15


# ---------------------------------------------------------------------------
# report bundle and plot data
# ---------------------------------------------------------------------------


def test_gof_report_fields(small_error_sn_data):
    res = fit(small_error_sn_data, Scenario.ERROR_SN, compute_se=False)
    report = gof_report(res.theta, small_error_sn_data)
    assert report.df == 12
    assert report.distances.shape == (12,)
    assert np.all(report.distances >= 0)
    assert 0.0 <= report.ks_statistic <= 1.0
    assert 0.0 <= report.ks_pvalue <= 1.0
    assert len(report.healy_points) == 12


def test_plot_data_rows_and_csv(tmp_path, small_error_sn_data):
    res = fit(small_error_sn_data, Scenario.ERROR_SN, compute_se=False)
    rows = plot_data_rows(res.theta, small_error_sn_data)
    kinds = {r[0] for r in rows}
    assert kinds == {"healy", "qq_chisq", "resid_fitted"}
    n = small_error_sn_data.n_subjects
    assert sum(r[0] == "healy" for r in rows) == n
    assert sum(r[0] == "qq_chisq" for r in rows) == n
    assert sum(r[0] == "resid_fitted" for r in rows) == n * 12
    out = tmp_path / "plots.csv"
    write_plot_csv(out, rows)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kind,index,x,y"
    assert len(lines) == 1 + len(rows)
