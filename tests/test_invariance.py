"""Invariances of the model, checked on EM iterates at a fixed iteration count.

- Reordering the subjects changes no estimate.
- y -> a y + X c (a > 0) maps beta to a beta + c and each variance to
  a^2 times itself, and leaves lambda unchanged.
- y -> -y maps (beta, lambda) to (-beta, -lambda) for both skew scenarios.

Every step of EM (initialization, E-step, beta update, Newton step and its
halving) respects the first two, so whole ``fit`` runs with ``tol=0`` are
compared.  ``initialize`` starts lambda at +1 whatever the sign of the data,
so the sign flip is checked on the EM iteration itself, from mirrored
starting points.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sncross import (
    RngStream,
    Scenario,
    TrialData,
    default_true_theta,
    e_step,
    fit,
    initialize,
    nr_step,
    simulate_subjects,
    update_beta,
)
from sncross.simulate import default_layout

ITERATIONS = 8
RTOL = 1e-7
SKEW = [Scenario.ERROR_SN, Scenario.EFFECT_SN]

checked = settings(max_examples=10, deadline=None, database=None, derandomize=True)
seeds = st.integers(0, 2**31 - 1)


def _data(truth: Scenario, seed: int) -> TrialData:
    return simulate_subjects(default_layout(4), default_true_theta(truth), RngStream(seed, 0))


def _with_y(data: TrialData, y: np.ndarray, order=slice(None)) -> TrialData:
    return TrialData(
        layout=data.layout,
        y=y[order],
        X=data.X[order],
        sequences=data.sequences[order],
        subjects=data.subjects[order],
        covariate_values=data.covariate_values[order],
    )


def _fit(data: TrialData, scenario: Scenario):
    return fit(data, scenario, tol=0.0, max_iter=ITERATIONS, compute_se=False)


def _assert_close(actual, expected):
    expected = np.asarray(expected, dtype=float)
    np.testing.assert_allclose(actual, expected, rtol=0, atol=RTOL * np.abs(expected).max())


@checked
@given(truth=st.sampled_from(SKEW), scenario=st.sampled_from(list(Scenario)), seed=seeds)
def test_subject_order_does_not_change_the_fit(truth, scenario, seed):
    data = _data(truth, seed)
    order = np.random.default_rng(seed).permutation(data.n_subjects)
    base = _fit(data, scenario)
    permuted = _fit(_with_y(data, data.y, order), scenario)
    assert permuted.iterations == base.iterations == ITERATIONS
    _assert_close(permuted.estimates, base.estimates)
    _assert_close(permuted.loglik, base.loglik)


@checked
@given(
    truth=st.sampled_from(SKEW),
    scenario=st.sampled_from(list(Scenario)),
    seed=seeds,
    a=st.floats(0.25, 4.0),
    shift=st.floats(0.0, 3.0),
)
def test_affine_response_maps_estimates(truth, scenario, seed, a, shift):
    data = _data(truth, seed)
    c = shift * np.random.default_rng(seed).standard_normal(data.layout.n_fixed)
    base = _fit(data, scenario)
    moved = _fit(_with_y(data, a * data.y + data.X @ c), scenario)
    theta, expected = base.theta, moved.theta
    _assert_close(expected.beta, a * theta.beta + c)
    _assert_close(
        [expected.sigma_e2, expected.sigma_s2], [a * a * theta.sigma_e2, a * a * theta.sigma_s2]
    )
    assert abs(expected.lam - theta.lam) <= RTOL * max(1.0, abs(theta.lam))


def _em(theta, data, iterations=ITERATIONS):
    for _ in range(iterations):
        cache = e_step(theta, data)
        theta = replace(theta, beta=update_beta(theta, data, cache))
        xi, _ = nr_step(theta, data, cache)
        theta = theta.with_xi(xi)
    return theta


@checked
@given(truth=st.sampled_from(SKEW), scenario=st.sampled_from(SKEW), seed=seeds)
def test_sign_flip_mirrors_beta_and_lambda(truth, scenario, seed):
    data = _data(truth, seed)
    flipped = _with_y(data, -data.y)
    start = initialize(data, scenario)
    mirrored = initialize(flipped, scenario)
    _assert_close(mirrored.beta, -start.beta)
    theta = _em(start, data)
    theta_f = _em(replace(mirrored, lam=-start.lam), flipped)
    _assert_close(theta_f.beta, -theta.beta)
    _assert_close([theta_f.sigma_e2, theta_f.sigma_s2], [theta.sigma_e2, theta.sigma_s2])
    assert abs(theta_f.lam + theta.lam) <= RTOL * max(1.0, abs(theta.lam))
