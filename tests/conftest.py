"""Shared fixtures and independent numerical oracles.

The oracles deliberately avoid the code paths they check: truncated-normal
moments come from adaptive quadrature of the raw Gaussian kernel, normal
and chi-square probabilities from quadrature of the densities, and finite
differences replace analytic derivatives.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from sncross import (
    CrossoverLayout,
    RngStream,
    Scenario,
    ThetaState,
    default_true_theta,
    simulate_subjects,
)
from sncross.simulate import SimConfig, default_layout, generate_dataset


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def truncated_moments_quadrature(eta, zeta):
    """E[T] and E[T^2] for T ~ N(eta, zeta^2) given T > 0, by quadrature.

    Standardizes to u = (t - eta)/zeta and shifts so the integration
    interval starts at the truncation point, keeping the integrand peak at
    the left endpoint even when the truncation sits 10 sigma in the tail.
    """
    a = -eta / zeta

    def phi(v):
        return np.exp(-0.5 * (a + v) ** 2) / np.sqrt(2.0 * np.pi)

    kw = dict(epsabs=1e-300, epsrel=1e-12, limit=400)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        i0 = integrate.quad(phi, 0.0, 45.0, **kw)[0]
        i1 = integrate.quad(lambda v: (a + v) * phi(v), 0.0, 45.0, **kw)[0]
        i2 = integrate.quad(lambda v: (a + v) ** 2 * phi(v), 0.0, 45.0, **kw)[0]
    m1 = eta + zeta * i1 / i0
    m2 = eta * eta + 2.0 * eta * zeta * i1 / i0 + zeta * zeta * i2 / i0
    return m1, m2


def normal_cdf_quadrature(x):
    """Phi(x) by quadrature of the density (independent of scipy.special.ndtr)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            lambda t: np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi),
            -40.0, x, epsabs=5e-14, epsrel=5e-14, limit=400,
        )
    return val


def sn_density_reference(w, lam):
    """Standard skew-normal density from first principles for oracle use."""
    w = float(w)
    phi = np.exp(-0.5 * w * w) / np.sqrt(2.0 * np.pi)
    cdf = 0.5 * (1.0 + math.erf(lam * w / np.sqrt(2.0)))
    return 2.0 * phi * cdf


def finite_difference_gradient(f, x0, h):
    """Central-difference gradient with per-coordinate steps h."""
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    for k in range(x0.size):
        e = np.zeros_like(x0)
        e[k] = h[k]
        g[k] = (f(x0 + e) - f(x0 - e)) / (2.0 * h[k])
    return g


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def small_error_sn_data():
    """12-subject dataset generated under the skew-error truths."""
    layout = default_layout(4)
    return simulate_subjects(layout, default_true_theta(Scenario.ERROR_SN), RngStream(7, 0))


@pytest.fixture(scope="session")
def small_effect_sn_data():
    """12-subject dataset generated under the skew-effect truths."""
    layout = default_layout(4)
    return simulate_subjects(layout, default_true_theta(Scenario.EFFECT_SN), RngStream(8, 0))


@pytest.fixture(scope="session")
def medium_error_sn_data():
    """Full-size (90-subject) skew-error dataset for fitting tests."""
    layout = default_layout(30)
    return simulate_subjects(layout, default_true_theta(Scenario.ERROR_SN), RngStream(11, 0))


@pytest.fixture(scope="session")
def boundary_error_sn_data():
    """Desk replicate 1 (seed 20260808) whose error-sn fit runs lambda to about 4e58."""
    return generate_dataset(SimConfig(Scenario.ERROR_SN, seed=20260808), 1)


@pytest.fixture
def twobytwo_layout():
    """The two-sequence AB/BA design with two responses per period."""
    return CrossoverLayout(
        n_per_seq=(5, 5),
        assignment=((1, 2), (2, 1)),
        n_treatments=2,
        n_responses=2,
    )
