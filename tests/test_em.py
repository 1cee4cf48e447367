"""Tests for the EM engine: assembly, E-step, M-step, fitting, SEs."""

import numpy as np
import pytest
from dataclasses import replace
from types import SimpleNamespace

from scipy import integrate

from conftest import truncated_moments_quadrature
from sncross import (
    CrossoverLayout,
    DegenerateResponseError,
    EStepCache,
    Kernel,
    RankDeficiencyError,
    RngStream,
    Scenario,
    ThetaState,
    assemble,
    assemble_trial,
    conditional_t_moments,
    corrected_intercept,
    default_true_theta,
    e_step,
    fit,
    initialize,
    kernel,
    marginal_loglik,
    nr_step,
    q_gradient,
    q_hessian,
    q_value,
    simulate_subjects,
    standard_errors,
    update_beta,
)
from sncross import em
from sncross.design import DesignMoments
from sncross.simulate import default_layout

SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def _random_theta(rs, scenario, beta_dim=9):
    return ThetaState(
        beta=np.asarray(default_true_theta(Scenario.ERROR_SN).beta)[:beta_dim]
        + rs.normal(size=beta_dim) * 0.3,
        sigma_e2=float(rs.uniform(0.5, 3.0)),
        sigma_s2=float(rs.uniform(0.5, 3.0)),
        lam=float(rs.uniform(-2.0, 3.0)),
        scenario=scenario,
    )


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------


def test_assemble_error_sn_zero_shape_is_compound_symmetric():
    theta = ThetaState(np.zeros(2), 1.3, 0.7, 0.0, Scenario.ERROR_SN)
    V, d = assemble(theta, 4)
    np.testing.assert_allclose(V, 0.7 * np.ones((4, 4)) + 1.3 * np.eye(4), atol=1e-14)
    np.testing.assert_array_equal(d, np.zeros(4))


def test_assemble_error_sn_loading():
    theta = ThetaState(np.zeros(2), 2.0, 0.5, 3.0, Scenario.ERROR_SN)
    V, d = assemble(theta, 6)
    expected = np.zeros(6)
    expected[0] = 1.3416407864998738  # sqrt(2) * 3/sqrt(10)
    np.testing.assert_allclose(d, expected, atol=1e-12)
    delta2 = 0.9
    R = np.eye(6)
    R[0, 0] -= delta2
    np.testing.assert_allclose(V, 0.5 * np.ones((6, 6)) + 2.0 * R, atol=1e-12)


def test_assemble_effect_sn_loading():
    theta = ThetaState(np.zeros(2), 0.72, 3.0, 4.0, Scenario.EFFECT_SN)
    V, d = assemble(theta, 12)
    np.testing.assert_allclose(d, np.full(12, 1.6803361008336117), atol=1e-12)
    Rs = 1.0 - 16.0 / 17.0
    np.testing.assert_allclose(
        V, 3.0 * Rs * np.ones((12, 12)) + 0.72 * np.eye(12), atol=1e-12
    )


def test_assemble_positive_definite():
    for scenario in Scenario:
        theta = ThetaState(np.zeros(2), 1.5, 0.8, 2.0, scenario)
        V, _ = assemble(theta, 5)
        np.testing.assert_allclose(V, V.T, atol=1e-15)
        assert np.all(np.linalg.eigvalsh(V) > 0)


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------


def test_conditional_moments_unconditional_case():
    T01, T02 = conditional_t_moments(0.0, 1.0)
    assert T01 == pytest.approx(SQRT_2_OVER_PI, abs=1e-14)
    assert T02 == pytest.approx(1.0, abs=1e-14)


def test_conditional_moments_hand_value():
    # eta = zeta = 1: T01 = 1 + phi(1)/Phi(1), T02 = 2 + phi(1)/Phi(1)
    T01, T02 = conditional_t_moments(1.0, 1.0)
    assert T01 == pytest.approx(1.2875999709391783, abs=1e-12)
    assert T02 == pytest.approx(2.2875999709391783, abs=1e-12)


@pytest.mark.parametrize("ratio", [-10.0, -4.0, -1.0, 0.0, 0.5, 4.0, 10.0])
def test_conditional_moments_match_quadrature(ratio):
    zeta = 1.7
    eta = ratio * zeta
    T01, T02 = conditional_t_moments(eta, zeta)
    q1, q2 = truncated_moments_quadrature(eta, zeta)
    assert T01 == pytest.approx(q1, abs=1e-6 * max(1.0, abs(q1)))
    assert T02 == pytest.approx(q2, abs=1e-6 * max(1.0, abs(q2)))


def test_e_step_zero_loading(small_error_sn_data):
    theta = ThetaState(
        np.zeros(9), 1.0, 0.5, 0.0, Scenario.ERROR_SN
    )
    cache = e_step(theta, small_error_sn_data)
    np.testing.assert_array_equal(cache.eta, np.zeros(small_error_sn_data.n_subjects))
    assert cache.zeta2 == 1.0
    np.testing.assert_allclose(cache.T01, SQRT_2_OVER_PI, atol=1e-14)
    np.testing.assert_allclose(cache.T02, 1.0, atol=1e-14)


def test_e_step_posterior_moment_oracle(small_error_sn_data):
    """T01 must equal E[t | y] for the actual conditional density.

    The oracle integrates t * phi_pm(y - X beta - d t; V) * 2 phi(t) on
    t > 0 numerically, bypassing the eta/zeta closed forms entirely.
    """
    data = small_error_sn_data
    rs = np.random.default_rng(3)
    for scenario in (Scenario.ERROR_SN, Scenario.EFFECT_SN):
        theta = _random_theta(rs, scenario)
        cache = e_step(theta, data)
        k = kernel(theta, data.layout.pm)
        d, Vinv = k.d, k.Vinv
        for i in (0, 5, 11):
            u = data.y[i] - data.X[i] @ theta.beta

            def unnorm(t):
                r = u - d * t
                return np.exp(-0.5 * (r @ Vinv @ r) - 0.5 * t * t)

            kw = dict(epsabs=1e-13, epsrel=1e-13, limit=300)
            z0 = integrate.quad(unnorm, 0.0, 40.0, **kw)[0]
            z1 = integrate.quad(lambda t: t * unnorm(t), 0.0, 40.0, **kw)[0]
            z2 = integrate.quad(lambda t: t * t * unnorm(t), 0.0, 40.0, **kw)[0]
            assert cache.T01[i] == pytest.approx(z1 / z0, rel=1e-8)
            assert cache.T02[i] == pytest.approx(z2 / z0, rel=1e-8)


def test_e_step_invariants_across_fit(small_effect_sn_data):
    data = small_effect_sn_data
    theta = initialize(data, Scenario.EFFECT_SN)
    for _ in range(15):
        cache = e_step(theta, data)
        assert 0.0 < cache.zeta2 <= 1.0
        assert np.all(cache.T02 - cache.T01**2 >= -1e-10)
        assert np.all(cache.T01 > 0)
        beta = update_beta(theta, data, cache)
        xi, _ = nr_step(replace(theta, beta=beta), data, cache)
        theta = replace(theta, beta=beta).with_xi(xi)


# ---------------------------------------------------------------------------
# beta update
# ---------------------------------------------------------------------------


def _manual_cache(theta, data, T01=None, T02=None):
    cache = e_step(theta, data)
    if T01 is not None:
        cache.T01 = np.asarray(T01, dtype=float)
    if T02 is not None:
        cache.T02 = np.asarray(T02, dtype=float)
    return cache


def test_update_beta_reduces_to_gls(small_error_sn_data):
    data = small_error_sn_data
    theta = ThetaState(np.zeros(9), 1.5, 0.9, 2.0, Scenario.ERROR_SN)
    cache = _manual_cache(theta, data, T01=np.zeros(data.n_subjects))
    beta = update_beta(theta, data, cache)
    Xt = data.X.transpose(0, 2, 1)
    XtV = Xt @ cache.kernel.Vinv
    M = np.einsum("nqp,npr->qr", XtV, data.X)
    rhs = np.einsum("nqp,np->q", XtV, data.y)
    np.testing.assert_allclose(beta, np.linalg.solve(M, rhs), rtol=1e-12)


def test_update_beta_ols_case():
    layout = CrossoverLayout((1,), ((1,),), 1, 3)
    y = np.array([1.0, 4.0, 2.5])
    data = assemble_trial(layout, {(1, 1): y})
    theta = ThetaState(np.zeros(3), 0.5, 0.5, 0.0, Scenario.NORMAL)
    cache = e_step(theta, data)
    beta = update_beta(theta, data, cache)
    X = data.X[0]
    expected = np.linalg.lstsq(X, y, rcond=None)[0]
    np.testing.assert_allclose(beta, expected, rtol=1e-10)


def test_update_beta_hand_computation():
    # One subject, a single intercept column, V = I, d*T01 = (0.5, 0.5, 0.5):
    # beta = mean(y - 0.5) = 1.5.  With X all ones, the design moments are
    # XX[a, 0, b, 0] = 1 and XY[a, 0, b] = y[b].
    y = np.array([[1.0, 2.0, 3.0]])
    stub = SimpleNamespace(
        X=np.ones((1, 3, 1)),
        y=y,
        param_names=("intercept",),
        moments=DesignMoments(
            XX=np.ones((3, 1, 3, 1)),
            XY=np.broadcast_to(y, (3, 3)).reshape(3, 1, 3),
        ),
    )
    theta = ThetaState(np.zeros(1), 1.0, 1.0, 0.0, Scenario.NORMAL)
    cache = e_step_stub_cache()
    beta = update_beta(theta, stub, cache)
    assert beta[0] == pytest.approx(1.5, abs=1e-12)


def e_step_stub_cache():
    k = Kernel(
        V=np.eye(3), Vinv=np.eye(3), logdet=0.0,
        d=np.full(3, 0.5), A=np.full(3, 0.5), c=0.75,
    )
    return EStepCache(
        kernel=k, zeta2=1.0 / 1.75,
        eta=np.zeros(1), T01=np.array([1.0]), T02=np.array([1.0]), loglik=0.0,
    )


def test_update_beta_rank_deficiency_names_columns():
    layout = CrossoverLayout(
        (4,), ((1, 2),), 2, 1, covariates=("dose", "dose_copy")
    )
    y = {(1, j): np.array([1.0, 2.0]) for j in range(1, 5)}
    covs = {(1, j): {"dose": 1.0, "dose_copy": 1.0} for j in range(1, 5)}
    data = assemble_trial(layout, y, covs)
    theta = ThetaState(np.zeros(layout.n_fixed), 1.0, 1.0, 0.0, Scenario.NORMAL)
    cache = e_step(theta, data)
    with pytest.raises(RankDeficiencyError, match="dose"):
        update_beta(theta, data, cache)


# ---------------------------------------------------------------------------
# Q-function and derivatives
# ---------------------------------------------------------------------------


def test_q_value_zero_loading_collapse(small_error_sn_data):
    data = small_error_sn_data
    theta = ThetaState(np.zeros(9), 1.2, 0.6, 0.0, Scenario.ERROR_SN)
    cache = _manual_cache(theta, data, T02=np.ones(data.n_subjects))
    q = q_value(theta, data, cache)
    resid = data.y - data.X @ theta.beta
    quad = np.einsum("np,pq,nq->n", resid, cache.kernel.Vinv, resid)
    expected = -0.5 * (data.n_subjects * (cache.kernel.logdet + 1.0) + quad.sum())
    assert q == pytest.approx(expected, rel=1e-12)


def test_q_value_scalar_hand_case():
    layout = CrossoverLayout((1,), ((1,),), 1, 1)
    data = assemble_trial(layout, {(1, 1): np.array([2.0])})
    theta = ThetaState(np.array([2.0]), 0.5, 0.5, 0.0, Scenario.NORMAL)
    cache = _manual_cache(theta, data, T02=np.array([1.0]))
    assert q_value(theta, data, cache) == pytest.approx(-0.5, abs=1e-12)


def test_q_gradient_first_order_consistency(small_error_sn_data):
    data = small_error_sn_data
    theta = ThetaState(
        default_true_theta(Scenario.ERROR_SN).beta, 1.8, 0.7, 2.0, Scenario.ERROR_SN
    )
    cache = e_step(theta, data)
    g = q_gradient(theta, data, cache)
    h = 1e-6
    q0 = q_value(theta, data, cache)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        q_plus = q_value(theta.with_xi(theta.xi + e), data, cache)
        assert q_plus - q0 == pytest.approx(h * g[k], abs=5e-7)


@pytest.mark.parametrize("scenario", [Scenario.ERROR_SN, Scenario.EFFECT_SN])
def test_gradient_hessian_match_finite_differences(scenario, small_error_sn_data):
    data = small_error_sn_data
    rs = np.random.default_rng(17)
    for _ in range(5):
        theta = _random_theta(rs, scenario)
        cache = e_step(theta, data)
        g = q_gradient(theta, data, cache)
        H = q_hessian(theta, data, cache)
        xi0 = theta.xi
        for k in range(3):
            h = 1e-5 * max(1.0, abs(xi0[k]))
            e = np.zeros(3)
            e[k] = h
            g_fd = (
                q_value(theta.with_xi(xi0 + e), data, cache)
                - q_value(theta.with_xi(xi0 - e), data, cache)
            ) / (2 * h)
            assert abs(g[k] - g_fd) <= 1e-4 * max(1.0, abs(g[k]))
            H_fd = (
                q_gradient(theta.with_xi(xi0 + e), data, cache)
                - q_gradient(theta.with_xi(xi0 - e), data, cache)
            ) / (2 * h)
            for a in range(3):
                assert abs(H[a, k] - H_fd[a]) <= 1e-3 * max(1.0, abs(H[a, k]))


def test_hessian_exactly_symmetric(small_effect_sn_data):
    theta = ThetaState(np.zeros(9), 1.0, 2.0, 1.5, Scenario.EFFECT_SN)
    cache = e_step(theta, small_effect_sn_data)
    H = q_hessian(theta, small_effect_sn_data, cache)
    np.testing.assert_array_equal(H, H.T)


def test_normal_scenario_gradient_third_component_zero(small_error_sn_data):
    theta = ThetaState(np.zeros(9), 1.0, 0.5, 0.0, Scenario.NORMAL)
    cache = e_step(theta, small_error_sn_data)
    g = q_gradient(theta, small_error_sn_data, cache)
    assert g[2] == 0.0


def test_second_derivative_structural_pattern():
    # errors-SN: only the (se2, lambda) and (lambda, lambda) blocks of the
    # second derivative of V are structurally nonzero; effect-SN mirrors
    # with (ss2, lambda).
    theta_e = ThetaState(np.zeros(2), 1.0, 1.0, 0.0, Scenario.ERROR_SN)
    V_second = assemble(theta_e, 4, derivatives=True)[4]
    assert set(V_second) == {(0, 2), (2, 2)}
    theta_b = ThetaState(np.zeros(2), 1.0, 1.0, 0.5, Scenario.EFFECT_SN)
    V_second_b = assemble(theta_b, 4, derivatives=True)[4]
    assert set(V_second_b) == {(1, 2), (2, 2)}


# ---------------------------------------------------------------------------
# Newton-Raphson safeguards
# ---------------------------------------------------------------------------


def test_nr_step_increases_q(small_error_sn_data):
    data = small_error_sn_data
    theta = ThetaState(
        default_true_theta(Scenario.ERROR_SN).beta, 1.0, 1.0, 0.5, Scenario.ERROR_SN
    )
    cache = e_step(theta, data)
    q0 = q_value(theta, data, cache)
    xi_new, stalled = nr_step(theta, data, cache)
    assert not stalled
    assert q_value(theta.with_xi(xi_new), data, cache) >= q0 - 1e-12


def test_nr_step_keeps_variances_positive(small_error_sn_data):
    data = small_error_sn_data
    # start at a point whose Newton step wants to slash the tiny variance
    theta = ThetaState(np.zeros(9), 5.0, 1e-6, 0.1, Scenario.ERROR_SN)
    cache = e_step(theta, data)
    xi_new, _ = nr_step(theta, data, cache)
    assert xi_new[0] > 1e-10 and xi_new[1] > 1e-10


def test_nr_step_near_optimum_quadratic_contraction(medium_error_sn_data):
    data = medium_error_sn_data
    res = fit(data, Scenario.ERROR_SN, tol=1e-5, max_iter=2000, compute_se=False)
    theta = res.theta
    cache = e_step(theta, data)
    g0 = np.abs(q_gradient(theta, data, cache)).max()
    xi_new, _ = nr_step(theta, data, cache)
    g1 = np.abs(q_gradient(theta.with_xi(xi_new), data, cache)).max()
    assert g1 <= max(0.1 * g0, 1e-10)


def test_converged_fit_is_stationary(medium_error_sn_data):
    data = medium_error_sn_data
    res = fit(data, Scenario.ERROR_SN, tol=1e-5, max_iter=2000, compute_se=False)
    cache = e_step(res.theta, data)
    grad = q_gradient(res.theta, data, cache)
    assert np.abs(grad).max() < 1e-3


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_initialize_matches_anova_estimators():
    layout = CrossoverLayout((3,), ((1,),), 1, 4)
    vals = {
        (1, 1): np.array([1.0, 2.0, 3.0, 4.0]),
        (1, 2): np.array([5.0, 6.0, 7.0, 8.0]),
        (1, 3): np.array([2.0, 1.0, 0.0, 1.0]),
    }
    data = assemble_trial(layout, vals)
    theta = initialize(data, Scenario.ERROR_SN)
    y = np.array([vals[(1, j)] for j in (1, 2, 3)])
    # intercept-plus-gene OLS residuals, then one-way ANOVA mean squares
    X = data.X.reshape(-1, data.layout.n_fixed)
    beta = np.linalg.lstsq(X, y.ravel(), rcond=None)[0]
    resid = y - (data.X @ beta)
    sm = resid.mean(axis=1)
    msw = ((resid - sm[:, None]) ** 2).sum() / (3 * 3)
    msb = 4 * ((sm - sm.mean()) ** 2).sum() / 2
    assert theta.sigma_e2 == pytest.approx(msw, rel=1e-10)
    assert theta.sigma_s2 == pytest.approx((msb - msw) / 4, rel=1e-10)
    assert theta.lam == 1.0


def test_initialize_lambda_starting_values(small_error_sn_data):
    assert initialize(small_error_sn_data, Scenario.NORMAL).lam == 0.0
    assert initialize(small_error_sn_data, Scenario.ERROR_SN).lam == 1.0
    assert initialize(small_error_sn_data, Scenario.ERROR_SN, freeze_lambda=True).lam == 0.0


def test_initialize_no_subject_effect_floors_and_fit_converges():
    layout = CrossoverLayout((12,), ((1,),), 1, 4)
    rng = RngStream(4, 0)
    vals = {(1, j): 1.0 + rng.normal(4) for j in range(1, 13)}
    data = assemble_trial(layout, vals)
    theta = initialize(data, Scenario.NORMAL)
    assert theta.sigma_s2 <= 0.5  # no subject effect in the data
    res = fit(data, Scenario.NORMAL, compute_se=False)
    assert res.converged


def test_initialize_degenerate_constant_response_warns():
    # near-constant: residual variance 1e-10, under the 1e-6 floor but not exact
    layout = CrossoverLayout((3,), ((1,),), 1, 2)
    wiggle = {1: 1e-5, 2: -1e-5, 3: 0.0}
    vals = {(1, j): np.array([2.0 + wiggle[j], 2.0 - wiggle[j]]) for j in (1, 2, 3)}
    data = assemble_trial(layout, vals)
    with pytest.warns(UserWarning, match="degenerate"):
        theta = initialize(data, Scenario.NORMAL)
    assert theta.sigma_e2 >= 1e-6


def test_initialize_refuses_response_fitted_exactly():
    layout = CrossoverLayout((3,), ((1,),), 1, 2)
    constant = assemble_trial(layout, {(1, j): np.array([2.0, 2.0]) for j in (1, 2, 3)})
    # y = X beta exactly: every subject [1, 3] (intercept 1, gene_2 effect 2)
    exact = assemble_trial(layout, {(1, j): np.array([1.0, 3.0]) for j in (1, 2, 3)})
    for data in (constant, exact, replace(constant, y=np.zeros_like(constant.y))):
        with pytest.raises(DegenerateResponseError, match="exactly"):
            initialize(data, Scenario.NORMAL)
        with pytest.raises(DegenerateResponseError):
            fit(data, Scenario.ERROR_SN)


def test_initialize_accepts_rescaled_response(medium_error_sn_data):
    # the rule compares residual and total mean squares, so units do not matter
    for a in (1e-4, 1e4):
        scaled = replace(medium_error_sn_data, y=a * medium_error_sn_data.y)
        theta = initialize(scaled, Scenario.ERROR_SN)
        assert np.all(np.isfinite(theta.beta))


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_trajectory_non_decreasing(medium_error_sn_data):
    res = fit(medium_error_sn_data, Scenario.ERROR_SN, compute_se=False)
    assert res.converged
    assert np.all(np.diff(res.trajectory) >= -1e-8)


@pytest.mark.parametrize("scenario", [Scenario.ERROR_SN, Scenario.EFFECT_SN, Scenario.NORMAL])
def test_fit_forms_residuals_twice_per_iteration(scenario, small_error_sn_data, monkeypatch):
    """R = y - X beta is formed once in the E-step and once for the M-step's Q
    statistics, plus once in ``initialize`` and once for the final log-likelihood."""
    calls = []
    original = em.residuals

    def counted(data, beta):
        calls.append(1)
        return original(data, beta)

    monkeypatch.setattr(em, "residuals", counted)
    res = fit(small_error_sn_data, scenario, compute_se=False)
    assert res.iterations >= 2
    assert len(res.trajectory) == res.iterations + 1
    assert len(calls) <= 2 * res.iterations + 2


def test_fit_recovers_truth_roughly(medium_error_sn_data):
    res = fit(medium_error_sn_data, Scenario.ERROR_SN, compute_se=False)
    assert res.theta.sigma_e2 == pytest.approx(2.0, abs=0.4)
    assert res.theta.sigma_s2 == pytest.approx(0.64, abs=0.4)
    assert 1.0 < res.theta.lam < 8.0
    np.testing.assert_allclose(
        res.theta.beta, default_true_theta(Scenario.ERROR_SN).beta, atol=0.5
    )


def test_fit_nested_model_loglik_dominates():
    layout = default_layout(10)
    truth = ThetaState(
        default_true_theta(Scenario.ERROR_SN).beta, 2.0, 0.64, 0.0, Scenario.NORMAL
    )
    data = simulate_subjects(layout, truth, RngStream(60, 0))
    res_sn = fit(data, Scenario.ERROR_SN, compute_se=False)
    res_n = fit(data, Scenario.NORMAL, compute_se=False)
    assert res_sn.loglik >= res_n.loglik - 1e-8
    assert res_sn.loglik - res_n.loglik < 5.0


def test_fit_reduction_frozen_lambda_equals_baseline(small_error_sn_data):
    data = small_error_sn_data
    base = fit(data, Scenario.NORMAL, compute_se=False)
    for scenario in (Scenario.ERROR_SN, Scenario.EFFECT_SN):
        frozen = fit(data, scenario, freeze_lambda=True, compute_se=False)
        np.testing.assert_allclose(frozen.theta.beta, base.theta.beta, atol=1e-6)
        assert frozen.theta.sigma_e2 == pytest.approx(base.theta.sigma_e2, abs=1e-6)
        assert frozen.theta.sigma_s2 == pytest.approx(base.theta.sigma_s2, abs=1e-6)
        assert frozen.loglik == pytest.approx(base.loglik, abs=1e-6)
        assert frozen.n_free == base.n_free


def test_fit_scenario_symmetry_single_observation():
    layout = CrossoverLayout((40,), ((1,),), 1, 1)
    truth = ThetaState(np.array([0.5]), 1.0, 0.8, 2.5, Scenario.ERROR_SN)
    data = simulate_subjects(layout, truth, RngStream(9, 0))
    res_err = fit(data, Scenario.ERROR_SN, tol=1e-7, max_iter=5000, compute_se=False)
    res_eff = fit(data, Scenario.EFFECT_SN, tol=1e-7, max_iter=5000, compute_se=False)
    assert res_err.loglik == pytest.approx(res_eff.loglik, abs=1e-6)


def test_fit_non_convergence_flag(small_error_sn_data):
    res = fit(small_error_sn_data, Scenario.ERROR_SN, max_iter=2, compute_se=False)
    assert not res.converged
    assert res.iterations == 2


def test_fit_aic_bic_bookkeeping(medium_error_sn_data):
    res = fit(medium_error_sn_data, Scenario.ERROR_SN, compute_se=False)
    k = 9 + 3
    assert res.n_free == k
    assert res.aic == pytest.approx(2 * k - 2 * res.loglik, rel=1e-12)
    assert res.bic == pytest.approx(k * np.log(1080) - 2 * res.loglik, rel=1e-12)
    assert res.n_obs == 1080


def test_fit_lambda_singularity_warning():
    layout = default_layout(6)
    truth = ThetaState(
        default_true_theta(Scenario.ERROR_SN).beta, 2.0, 0.64, 0.0, Scenario.NORMAL
    )
    data = simulate_subjects(layout, truth, RngStream(61, 0))
    # normal data: the SN fit hugs lambda = 0 on some seeds; force the flag
    # by freezing a hair above zero via a tiny-lambda fit instead of luck.
    res = fit(data, Scenario.ERROR_SN, compute_se=False)
    assert res.lambda_warning == (abs(res.theta.lam) < 0.05)


# ---------------------------------------------------------------------------
# corrected intercept and standard errors
# ---------------------------------------------------------------------------


def test_corrected_intercept_zero_shape():
    theta = ThetaState(np.array([1.7, 0.0]), 1.0, 1.0, 0.0, Scenario.NORMAL)
    assert corrected_intercept(theta) == pytest.approx(1.7)


def test_corrected_intercept_error_sn():
    theta = ThetaState(np.array([2.0]), 2.0, 0.6, 3.0, Scenario.ERROR_SN)
    assert corrected_intercept(theta) == pytest.approx(2.0 + 1.0704744696916628, abs=1e-10)


def test_corrected_intercept_effect_sn():
    theta = ThetaState(np.array([-1.0]), 0.7, 3.0, 4.0, Scenario.EFFECT_SN)
    assert corrected_intercept(theta) == pytest.approx(-1.0 + 1.3407142318148257, abs=1e-10)


def test_standard_errors_match_gls_oracle():
    # Normal baseline: the beta block of the information matrix is exactly
    # sum X' V^{-1} X at the fitted variances.
    layout = default_layout(10)
    truth = ThetaState(
        default_true_theta(Scenario.ERROR_SN).beta, 1.5, 0.5, 0.0, Scenario.NORMAL
    )
    data = simulate_subjects(layout, truth, RngStream(62, 0))
    res = fit(data, Scenario.NORMAL, tol=1e-6, max_iter=2000)
    Vinv = kernel(res.theta, 12).Vinv
    Xt = data.X.transpose(0, 2, 1)
    M = np.einsum("nqp,npr->qr", Xt @ Vinv, data.X)
    gls_se = np.sqrt(np.diag(np.linalg.inv(M)))
    np.testing.assert_allclose(res.se[:9], gls_se, rtol=0.01)


def test_standard_errors_shrink_with_doubled_data(medium_error_sn_data):
    data = medium_error_sn_data
    res = fit(data, Scenario.ERROR_SN, tol=1e-5, max_iter=2000)
    doubled = assemble_trial(
        _doubled_layout(data), _doubled_values(data), _doubled_covs(data)
    )
    res2 = fit(doubled, Scenario.ERROR_SN, tol=1e-5, max_iter=2000)
    ratio = res2.se / res.se
    np.testing.assert_allclose(ratio, 1.0 / np.sqrt(2.0), atol=0.1 / np.sqrt(2.0))


def _doubled_layout(data):
    layout = data.layout
    return CrossoverLayout(
        n_per_seq=tuple(2 * n for n in layout.n_per_seq),
        assignment=layout.assignment,
        n_treatments=layout.n_treatments,
        n_responses=layout.n_responses,
        covariates=layout.covariates,
    )


def _doubled_values(data):
    out = {}
    counters = {}
    for i in range(data.n_subjects):
        seq = int(data.sequences[i])
        for _ in range(2):
            counters[seq] = counters.get(seq, 0) + 1
            out[(seq, counters[seq])] = data.y[i]
    return out


def _doubled_covs(data):
    names = data.layout.covariates
    out = {}
    counters = {}
    for i in range(data.n_subjects):
        seq = int(data.sequences[i])
        vals = {name: float(data.covariate_values[i, j]) for j, name in enumerate(names)}
        for _ in range(2):
            counters[seq] = counters.get(seq, 0) + 1
            out[(seq, counters[seq])] = vals
    return out


def test_standard_errors_one_per_free_parameter(medium_error_sn_data):
    res_sn = fit(medium_error_sn_data, Scenario.ERROR_SN)
    res_n = fit(medium_error_sn_data, Scenario.NORMAL)
    assert res_sn.se.shape == (12,)
    assert res_n.se.shape == (11,)
    assert res_sn.param_names[-1] == "lambda"
    assert "lambda" not in res_n.param_names


def test_standard_error_magnitude_at_study_scale(medium_error_sn_data):
    # at 30 subjects per sequence the treatment-effect SE lands near 0.08;
    # require agreement within a factor of two
    res = fit(medium_error_sn_data, Scenario.ERROR_SN)
    se_t2 = res.se[list(res.param_names).index("treatment_2")]
    assert 0.0793 / 2.0 <= se_t2 <= 0.0793 * 2.0


def test_free_parameter_count_ten_response_trial():
    # p = t = 3, m = 10: 14 fixed effects + 2 variances + 1 shape = 17
    layout = CrossoverLayout(
        n_per_seq=(4, 4, 4),
        assignment=((1, 2, 3), (3, 1, 2), (2, 3, 1)),
        n_treatments=3,
        n_responses=10,
    )
    assert layout.n_fixed == 14
    rng = RngStream(2, 0)
    vals = {(i, j): 1.0 + 0.3 * rng.normal(30) for i in range(1, 4) for j in range(1, 5)}
    data = assemble_trial(layout, vals)
    res = fit(data, Scenario.ERROR_SN, compute_se=False)
    assert res.n_free == 17
    assert fit(data, Scenario.NORMAL, compute_se=False).n_free == 16


def test_normal_baseline_keeps_lambda_at_zero(small_error_sn_data):
    res = fit(small_error_sn_data, Scenario.NORMAL, compute_se=False)
    assert res.theta.lam == 0.0
