"""The covariance-kernel forms of Q, its derivatives, the marginal
log-likelihood and the beta update against per-subject reference formulas,
and the analytic standard errors against the numerical Hessian.

The oracle functions below evaluate every quantity subject by subject with
``einsum``, straight from the model's definition, and factor V on their
own.  The engine instead sums the data into S = R'R, r = R'T01 and sum T02
(and the design into its moments) first.  Both must agree to 1e-10
relative; only the summation order differs.  A loop of twenty EM
iterations built only from the oracle forms (E-step, beta update, a copy of
the safeguarded Newton-Raphson step, log-likelihood at every iterate) must
reproduce ``fit``'s estimates and trajectory.  The oracle standard errors
take central differences of the oracle log-likelihood over all free
parameters (289 evaluations for 12 of them); they carry the rounding error
of a second difference, so they are compared at 1e-4 relative.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import linalg as sla
from scipy import special

from sncross import (
    RngStream,
    Scenario,
    ThetaState,
    assemble,
    default_true_theta,
    e_step,
    fit,
    marginal_loglik,
    q_gradient,
    q_hessian,
    q_value,
    simulate_subjects,
    standard_errors,
    update_beta,
)
from sncross import em
from sncross.simulate import default_layout

SCENARIOS = [Scenario.ERROR_SN, Scenario.EFFECT_SN, Scenario.NORMAL]
RTOL = 1e-10
_LOG_2PI = np.log(2.0 * np.pi)


# ---------------------------------------------------------------------------
# oracle: per-subject forms
# ---------------------------------------------------------------------------


def _oracle_bundle(theta, pm):
    V, d = assemble(theta, pm)
    L = np.linalg.cholesky(V)
    Vinv = sla.cho_solve((L, True), np.eye(pm))
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return Vinv, logdet, d


def oracle_q_value(theta, data, cache):
    Vinv, logdet, d = _oracle_bundle(theta, data.layout.pm)
    A = Vinv @ d
    c = float(d @ A)
    resid = data.y - data.X @ theta.beta
    quad = np.einsum("np,pq,nq->n", resid, Vinv, resid)
    lin = resid @ A
    total = (
        data.n_subjects * logdet
        + (1.0 + c) * float(cache.T02.sum())
        + float(quad.sum())
        - 2.0 * float(cache.T01 @ lin)
    )
    return -0.5 * total


def oracle_q_gradient(theta, data, cache):
    pm = data.layout.pm
    Vinv, _, d = _oracle_bundle(theta, pm)
    V_first, d_first = assemble(theta, pm, derivatives=True)[2:4]
    resid = data.y - data.X @ theta.beta
    sum_T02 = float(cache.T02.sum())
    grad = np.zeros(3)
    for a in range(3):
        Pa = Vinv @ V_first[a]
        Wa = -Pa @ Vinv
        qd = float(d @ Wa @ d) + 2.0 * float(d @ Vinv @ d_first[a])
        quad = np.einsum("np,pq,nq->n", resid, Wa, resid)
        lin = resid @ (Wa @ d + Vinv @ d_first[a])
        grad[a] = -0.5 * (
            data.n_subjects * float(np.trace(Pa))
            + qd * sum_T02
            + float(quad.sum())
            - 2.0 * float(cache.T01 @ lin)
        )
    return grad


def oracle_q_hessian(theta, data, cache):
    pm = data.layout.pm
    Vinv, _, d = _oracle_bundle(theta, pm)
    V_first, d_first, V_second, d_second = assemble(theta, pm, derivatives=True)[2:]
    resid = data.y - data.X @ theta.beta
    sum_T02 = float(cache.T02.sum())
    P = [Vinv @ V_first[a] for a in range(3)]
    W = [-P[a] @ Vinv for a in range(3)]
    H = np.zeros((3, 3))
    for a in range(3):
        for b in range(a, 3):
            V_ab = V_second.get((a, b), np.zeros((pm, pm)))
            d_ab = d_second.get((a, b), np.zeros(pm))
            S_ab = (P[a] @ P[b] + P[b] @ P[a]) @ Vinv - Vinv @ V_ab @ Vinv
            tr_term = -float(np.trace(P[b] @ P[a])) + float(np.trace(Vinv @ V_ab))
            qd = (
                float(d @ S_ab @ d)
                + 2.0 * float(d @ W[a] @ d_first[b])
                + 2.0 * float(d_first[b] @ Vinv @ d_first[a])
                + 2.0 * float(d @ W[b] @ d_first[a])
                + 2.0 * float(d @ Vinv @ d_ab)
            )
            quad = np.einsum("np,pq,nq->n", resid, S_ab, resid)
            w_vec = S_ab @ d + W[a] @ d_first[b] + W[b] @ d_first[a] + Vinv @ d_ab
            lin = resid @ w_vec
            H[a, b] = H[b, a] = -0.5 * (
                data.n_subjects * tr_term
                + qd * sum_T02
                + float(quad.sum())
                - 2.0 * float(cache.T01 @ lin)
            )
    return H


def oracle_marginal_loglik(theta, data):
    pm = data.layout.pm
    Vinv, logdet, d = _oracle_bundle(theta, pm)
    A = Vinv @ d
    c = float(d @ A)
    resid = data.y - data.X @ theta.beta
    quad_v = np.einsum("np,pq,nq->n", resid, Vinv, resid)
    u = resid @ A
    quad_sigma = quad_v - u * u / (1.0 + c)
    eta = u / (1.0 + c)
    zeta = np.sqrt(1.0 / (1.0 + c))
    const = np.log(2.0) - 0.5 * pm * _LOG_2PI - 0.5 * (logdet + np.log1p(c))
    return float(
        data.n_subjects * const - 0.5 * quad_sigma.sum() + special.log_ndtr(eta / zeta).sum()
    )


def oracle_update_beta(theta, data, cache):
    Vinv, _, d = _oracle_bundle(theta, data.layout.pm)
    XtV = data.X.transpose(0, 2, 1) @ Vinv
    M = np.einsum("nqp,npr->qr", XtV, data.X)
    rhs = np.einsum("nqp,np->q", XtV, data.y - np.outer(cache.T01, d))
    return np.linalg.solve(M, rhs)


def oracle_e_step(theta, data):
    """T01 and T02 from eta = d'V^{-1}u / (1 + c), zeta^2 = 1 / (1 + c), subject by subject."""
    Vinv, _, d = _oracle_bundle(theta, data.layout.pm)
    c = float(d @ Vinv @ d)
    resid = data.y - data.X @ theta.beta
    eta = np.einsum("p,pq,nq->n", d, Vinv, resid) / (1.0 + c)
    zeta = np.sqrt(1.0 / (1.0 + c))
    ratio = np.exp(-0.5 * (eta / zeta) ** 2 - 0.5 * _LOG_2PI - special.log_ndtr(eta / zeta))
    T01 = eta + zeta * ratio
    T02 = eta * eta + zeta * zeta + eta * zeta * ratio
    return SimpleNamespace(T01=T01, T02=T02)


def oracle_nr_step(theta, data, cache, active):
    """The safeguarded Newton-Raphson step on the oracle Q, its gradient and Hessian.

    Newton direction if finite and uphill, else grad / (1 + |grad|); at most
    30 halvings until Q does not drop and both variances exceed 1e-10.
    """
    xi0 = theta.xi
    q0 = oracle_q_value(theta, data, cache)
    grad = oracle_q_gradient(theta, data, cache)[active]
    hess = oracle_q_hessian(theta, data, cache)[np.ix_(active, active)]
    step_act = None
    try:
        cand = -np.linalg.solve(hess, grad)
        if np.all(np.isfinite(cand)) and float(grad @ cand) > 0.0:
            step_act = cand
    except np.linalg.LinAlgError:
        pass
    if step_act is None:
        step_act = grad / (1.0 + float(np.linalg.norm(grad)))
    step = np.zeros(3)
    step[active] = step_act
    for halvings in range(31):
        xi_try = xi0 + 0.5**halvings * step
        if xi_try[0] <= 1e-10 or xi_try[1] <= 1e-10:
            continue
        try:
            q_try = oracle_q_value(theta.with_xi(xi_try), data, cache)
        except np.linalg.LinAlgError:
            continue
        if np.isfinite(q_try) and q_try >= q0 - 1e-12:
            return xi_try
    return xi0


def oracle_standard_errors(theta, data, include_lambda):
    """SEs from central differences of the log-likelihood, step 1e-4 * max(1, |x|)."""
    q = data.layout.n_fixed

    def loglik_at(vec):
        lam = float(vec[q + 2]) if include_lambda else theta.lam
        th = ThetaState(vec[:q], float(vec[q]), float(vec[q + 1]), lam, theta.scenario)
        return oracle_marginal_loglik(th, data)

    x0 = np.concatenate(
        [theta.beta, [theta.sigma_e2, theta.sigma_s2], [theta.lam] if include_lambda else []]
    )
    p = x0.size
    h = 1e-4 * np.maximum(1.0, np.abs(x0))
    for k in (q, q + 1):  # keep variance perturbations positive
        if x0[k] - h[k] <= 0:
            h[k] = x0[k] / 2.0
    f0 = loglik_at(x0)
    H = np.zeros((p, p))
    for k in range(p):
        ek = np.zeros(p)
        ek[k] = h[k]
        H[k, k] = (loglik_at(x0 + ek) - 2.0 * f0 + loglik_at(x0 - ek)) / h[k] ** 2
        for l in range(k):
            el = np.zeros(p)
            el[l] = h[l]
            H[k, l] = H[l, k] = (
                loglik_at(x0 + ek + el)
                - loglik_at(x0 + ek - el)
                - loglik_at(x0 - ek + el)
                + loglik_at(x0 - ek - el)
            ) / (4.0 * h[k] * h[l])
    return np.sqrt(np.diag(np.linalg.inv(-H)))


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle_data():
    truth = default_true_theta(Scenario.EFFECT_SN)
    return simulate_subjects(default_layout(5), truth, RngStream(31, 0))


def _points(scenario, count=6):
    rs = np.random.default_rng(2303)
    truth = default_true_theta(Scenario.ERROR_SN)
    for _ in range(count):
        yield ThetaState(
            beta=truth.beta + rs.normal(size=truth.beta.size) * 0.3,
            sigma_e2=float(rs.uniform(0.3, 3.0)),
            sigma_s2=float(rs.uniform(0.3, 3.0)),
            lam=0.0 if scenario is Scenario.NORMAL else float(rs.uniform(-3.0, 4.0)),
            scenario=scenario,
        )


def _assert_close(actual, expected):
    # relative to the largest entry, so that a component near zero is judged
    # on the scale of the quantity it belongs to
    expected = np.atleast_1d(np.asarray(expected, dtype=float))
    scale = np.abs(expected).max()
    np.testing.assert_allclose(actual, expected.reshape(np.shape(actual)), rtol=0, atol=RTOL * scale)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.value)
def test_q_and_derivatives_match_oracle(scenario, oracle_data):
    data = oracle_data
    for theta in _points(scenario):
        cache = e_step(theta, data)
        _assert_close(q_value(theta, data, cache), oracle_q_value(theta, data, cache))
        _assert_close(q_gradient(theta, data, cache), oracle_q_gradient(theta, data, cache))
        H = q_hessian(theta, data, cache)
        for a in range(3):
            _assert_close(H[a], oracle_q_hessian(theta, data, cache)[a])


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.value)
def test_marginal_loglik_and_beta_update_match_oracle(scenario, oracle_data):
    data = oracle_data
    for theta in _points(scenario):
        _assert_close(marginal_loglik(theta, data), oracle_marginal_loglik(theta, data))
        cache = e_step(theta, data)
        _assert_close(update_beta(theta, data, cache), oracle_update_beta(theta, data, cache))


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.value)
def test_fit_matches_oracle_driven_em(scenario, oracle_data):
    """Twenty EM iterations of ``fit`` agree with a loop made of the oracle forms.

    The loop shares only the starting values with the engine; its trajectory
    is the oracle log-likelihood at every iterate.
    """
    data = oracle_data
    fast = fit(data, scenario, tol=0.0, max_iter=20, compute_se=False)
    active = np.array([True, True, scenario is not Scenario.NORMAL])
    theta = em.initialize(data, scenario)
    trajectory = [oracle_marginal_loglik(theta, data)]
    for _ in range(20):
        cache = oracle_e_step(theta, data)
        theta = replace(theta, beta=oracle_update_beta(theta, data, cache))
        theta = theta.with_xi(oracle_nr_step(theta, data, cache, active))
        trajectory.append(oracle_marginal_loglik(theta, data))
    assert fast.iterations == 20
    _assert_close(fast.estimates, em._free_vector(theta, active[2]))
    np.testing.assert_allclose(fast.trajectory, trajectory, rtol=RTOL, atol=0)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.value)
def test_standard_errors_match_numerical_hessian_oracle(scenario):
    truth = Scenario.EFFECT_SN if scenario is Scenario.EFFECT_SN else Scenario.ERROR_SN
    data = simulate_subjects(default_layout(30), default_true_theta(truth), RngStream(3, 0))
    theta = fit(data, scenario, compute_se=False).theta
    include_lambda = scenario is not Scenario.NORMAL
    np.testing.assert_allclose(
        standard_errors(theta, data),
        oracle_standard_errors(theta, data, include_lambda),
        rtol=1e-4,
        atol=0,
    )
