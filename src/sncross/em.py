"""EM engine for skew-normal crossover mixed models.

Fits the random-intercept model y_ij = X_ij beta + Z b_ij + e_ij by maximum
likelihood for three scenarios: skew-normal errors with a normal random
effect, a skew-normal random effect with normal errors, and the all-normal
baseline.  The skewed component is rewritten through its additive
representation, which puts the model in the conditional form

    y_ij | t_ij ~ N(X_ij beta + d t_ij, V),   t_ij ~ half normal,

so the E-step reduces to the first two conditional moments of a truncated
normal (closed form via the Mills ratio) and the M-step to a generalized
least squares update of beta plus a safeguarded Newton-Raphson update of
the variance/skewness components xi = (sigma_e2, sigma_s2, lambda) with
analytic gradient and Hessian of the Q-function.

Scenario-specific structure (pm observations per subject, Z = 1_pm,
delta = lambda / sqrt(1 + lambda^2), J the all-ones matrix, E11 the
first-coordinate projector):

    errors SN:  V = sigma_s2 J + sigma_e2 (I - delta^2 E11),
                d = sigma_e * delta * e1
    effect SN:  V = sigma_s2 (1 - delta^2) J + sigma_e2 I,
                d = sigma_s * delta * 1_pm
    normal:     V = sigma_s2 J + sigma_e2 I, d = 0, lambda pinned at 0

Every subject shares V and d, so one ``Kernel`` per theta holds them with
V^{-1}, log|V|, A = V^{-1} d and c = d'A.  With R = y - X beta stacked one
row per subject, Q and its xi-derivatives depend on the data only through
S = R'R (pm x pm), r = R'T01 and sum T02.  One routine, ``_q_terms``, gives Q
and its gradient and Hessian from them; the NR step forms them once for all
its line-search trials.  The E-step also returns the marginal log-likelihood
at its theta from the same R, so an EM iteration forms R twice.
The GLS update of beta works on the design moments sum X_i' [.] X_i and
sum X_i' [.] y_i, formed once per dataset (``TrialData.moments``), so it
touches no per-subject array.

Standard errors come from the analytic observed information of the marginal
log-likelihood.  Like Q, it uses the data only through sufficient
statistics: R'R, the projections of R on the skew direction alpha and its
xi-derivatives, and the design moments.

Every M-step increases the Q-function (beta update exactly, the NR step by
step halving), so the observed-data log-likelihood trajectory is
non-decreasing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy import linalg as sla
from scipy import special

from .design import TrialData
from .skewnormal import SQRT_2_OVER_PI, delta_of_lambda, mills

_LOG_2PI = float(np.log(2.0 * np.pi))
_VARIANCE_FLOOR = 1e-10
_MAX_HALVINGS = 30
_SINGULAR_RATIO = 1e-12
_LOST_LOADING = 1e-6
_DEGENERATE_RATIO = 1e-20  # residual over total mean square at which y counts as fitted exactly
LAMBDA_SINGULARITY_THRESHOLD = 0.05


class Scenario(Enum):
    """Which model component carries the skewness."""

    ERROR_SN = "error-sn"
    EFFECT_SN = "effect-sn"
    NORMAL = "normal"


@dataclass(frozen=True)
class ThetaState:
    """Full parameter state: fixed effects, variance components, shape."""

    beta: np.ndarray
    sigma_e2: float
    sigma_s2: float
    lam: float
    scenario: Scenario

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if not (self.sigma_e2 > 0 and self.sigma_s2 > 0):
            raise ValueError("variance components must be positive")

    @property
    def xi(self) -> np.ndarray:
        """Variance/shape subvector ordered (sigma_e2, sigma_s2, lambda)."""
        return np.array([self.sigma_e2, self.sigma_s2, self.lam])

    def with_xi(self, xi) -> "ThetaState":
        return replace(self, sigma_e2=float(xi[0]), sigma_s2=float(xi[1]), lam=float(xi[2]))


@dataclass(frozen=True)
class Kernel:
    """Covariance structure at one theta, shared by all subjects.

    V and d as assembled, V^{-1} and log|V| from the Cholesky factor of V,
    A = V^{-1} d and c = d' V^{-1} d.
    """

    V: np.ndarray
    Vinv: np.ndarray
    logdet: float
    d: np.ndarray
    A: np.ndarray
    c: float


@dataclass
class EStepCache:
    """Covariance kernel, conditional moments and log-likelihood from one E-step.

    eta, T01 and T02 are per-subject vectors; T01/T02 stay frozen while the
    M-step moves the parameters.  loglik is the marginal log-likelihood at
    the E-step's theta.
    """

    kernel: Kernel
    zeta2: float
    eta: np.ndarray
    T01: np.ndarray
    T02: np.ndarray
    loglik: float


@dataclass
class FitResult:
    """Converged estimates and fit summary."""

    theta: ThetaState
    param_names: tuple[str, ...]
    se: np.ndarray | None
    corrected_intercept: float
    loglik: float
    aic: float
    bic: float
    iterations: int
    converged: bool
    trajectory: list[float]
    n_free: int
    n_obs: int
    lambda_warning: bool = False

    @property
    def estimates(self) -> np.ndarray:
        """Free-parameter estimates in ``param_names`` order."""
        return _free_vector(self.theta, "lambda" in self.param_names)


class RankDeficiencyError(np.linalg.LinAlgError):
    """Normal equations for the fixed effects are singular."""


class DegenerateResponseError(ValueError):
    """The design fits the response exactly, so the likelihood is unbounded."""


# ---------------------------------------------------------------------------
# Covariance assembly and scenario derivatives
# ---------------------------------------------------------------------------


def assemble(theta: ThetaState, pm: int, derivatives: bool = False):
    """Conditional covariance V and skew loading d for one subject of pm observations.

    Returns (V, d) with V symmetric positive definite for admissible
    parameters.  Positive definiteness is not checked here; ``kernel``
    raises LinAlgError on parameter escapes, which the NR safeguards catch.
    With ``derivatives`` it returns (V, d, V_first, d_first, V_second,
    d_second), the derivatives in xi = (se2, ss2, lambda): the firsts are
    length-3 lists, the seconds dicts keyed by upper-triangle index pairs,
    where an absent key means a zero derivative.
    """
    lam = theta.lam
    delta = delta_of_lambda(lam)
    if derivatives:
        one_p = 1.0 + lam * lam
        ddelta = one_p**-1.5
        d2delta = -3.0 * lam * one_p**-2.5
    J = np.ones((pm, pm))
    eye = np.eye(pm)
    if theta.scenario is Scenario.ERROR_SN:
        se = np.sqrt(theta.sigma_e2)
        e1 = eye[0]
        E11 = np.outer(e1, e1)
        R = eye - delta * delta * E11
        V = theta.sigma_s2 * J + theta.sigma_e2 * R
        d = se * delta * e1
        if not derivatives:
            return V, d
        Rl = -2.0 * delta * ddelta * E11
        Rll = -2.0 * (delta * d2delta + ddelta * ddelta) * E11
        V_first = [R, J, theta.sigma_e2 * Rl]
        d_first = [delta / (2.0 * se) * e1, np.zeros(pm), se * ddelta * e1]
        V_second = {(0, 2): Rl, (2, 2): theta.sigma_e2 * Rll}
        d_second = {
            (0, 0): -delta / (4.0 * se**3) * e1,
            (0, 2): ddelta / (2.0 * se) * e1,
            (2, 2): se * d2delta * e1,
        }
    elif theta.scenario is Scenario.EFFECT_SN:
        ss = np.sqrt(theta.sigma_s2)
        ones = np.ones(pm)
        Rs = 1.0 - delta * delta
        V = theta.sigma_s2 * Rs * J + theta.sigma_e2 * eye
        d = np.full(pm, ss * delta)
        if not derivatives:
            return V, d
        Rl = -2.0 * delta * ddelta
        Rll = -2.0 * (delta * d2delta + ddelta * ddelta)
        V_first = [eye, Rs * J, theta.sigma_s2 * Rl * J]
        d_first = [np.zeros(pm), delta / (2.0 * ss) * ones, ss * ddelta * ones]
        V_second = {(1, 2): Rl * J, (2, 2): theta.sigma_s2 * Rll * J}
        d_second = {
            (1, 1): -delta / (4.0 * ss**3) * ones,
            (1, 2): ddelta / (2.0 * ss) * ones,
            (2, 2): ss * d2delta * ones,
        }
    else:
        V = theta.sigma_s2 * J + theta.sigma_e2 * eye
        d = np.zeros(pm)
        if not derivatives:
            return V, d
        V_first = [eye, J, np.zeros((pm, pm))]
        d_first = [np.zeros(pm)] * 3
        V_second = {}
        d_second = {}
    return V, d, V_first, d_first, V_second, d_second


def kernel(theta: ThetaState, pm: int) -> Kernel:
    """Assemble V and d and factor V; raises LinAlgError if V is not PD."""
    V, d = assemble(theta, pm)
    L = np.linalg.cholesky(V)
    Vinv = sla.cho_solve((L, True), np.eye(pm))
    A = Vinv @ d
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return Kernel(V=V, Vinv=Vinv, logdet=logdet, d=d, A=A, c=float(d @ A))


def residuals(data: TrialData, beta: np.ndarray) -> np.ndarray:
    """R = y - X beta, one row per subject, as one matrix-vector product."""
    n, pm, q = data.X.shape
    return data.y - (data.X.reshape(-1, q) @ beta).reshape(n, pm)


# ---------------------------------------------------------------------------
# E-step and M-step pieces
# ---------------------------------------------------------------------------


def conditional_t_moments(eta, zeta):
    """First two moments of N(eta, zeta^2) truncated to the positive axis.

    T01 = eta + zeta * mills(eta/zeta),
    T02 = eta^2 + zeta^2 + eta * zeta * mills(eta/zeta).
    """
    eta = np.asarray(eta, dtype=float)
    ratio = mills(eta / zeta)
    T01 = eta + zeta * ratio
    T02 = eta * eta + zeta * zeta + eta * zeta * ratio
    return T01, T02


def e_step(theta: ThetaState, data: TrialData) -> EStepCache:
    """Conditional moments of the latent half-normal given the data.

    For each subject, with u = y - X beta,

        eta  = d' V^{-1} u / (1 + d' V^{-1} d),
        zeta^2 = 1 / (1 + d' V^{-1} d),

    and (T01, T02) are the positive-truncated N(eta, zeta^2) moments.  The
    marginal log-likelihood at theta comes from the same R and R A.
    """
    k = kernel(theta, data.layout.pm)
    zeta2 = 1.0 / (1.0 + k.c)
    R = residuals(data, theta.beta)
    u = R @ k.A
    eta = u * zeta2
    T01, T02 = conditional_t_moments(eta, np.sqrt(zeta2))
    return EStepCache(kernel=k, zeta2=zeta2, eta=eta, T01=T01, T02=T02, loglik=_loglik(k, R, u))


def update_beta(theta: ThetaState, data: TrialData, cache: EStepCache) -> np.ndarray:
    """Closed-form Q maximizer over the fixed effects.

    beta = (sum X' V^{-1} X)^{-1} sum X' V^{-1} (y - d T01), where the skew
    term sums to (sum_i T01_i X_i)' A.
    """
    k = cache.kernel
    return _gls(data, k.Vinv, _xt_sum(data, cache.T01) @ k.A)


def _xt_sum(data: TrialData, v: np.ndarray) -> np.ndarray:
    """sum_i v_i X_i' (q x pm) for per-subject weights v, one vector-matrix product."""
    n, pm, q = data.X.shape
    return (v @ data.X.reshape(n, pm * q)).reshape(pm, q).T


def _xtwx(data: TrialData, W: np.ndarray) -> np.ndarray:
    """sum_i X_i' W X_i for a pm x pm weight W, from the design moments."""
    return np.tensordot(W, data.moments.XX, axes=([0, 1], [0, 2]))


def _xtwy(data: TrialData, W: np.ndarray) -> np.ndarray:
    """sum_i X_i' W y_i for a pm x pm weight W, from the design moments."""
    return np.tensordot(W, data.moments.XY, axes=([0, 1], [0, 2]))


def _gls(data: TrialData, Vinv: np.ndarray, offset=0.0) -> np.ndarray:
    """Solve (sum X' V^{-1} X) beta = sum X' V^{-1} y - offset over all subjects.

    Both sides come from the design moments, as does the standard errors'
    beta-beta block (with Sigma^{-1}).  Raises RankDeficiencyError naming
    the dependent columns when the pooled normal equations are singular.
    """
    M = _xtwx(data, Vinv)
    rhs = _xtwy(data, Vinv) - offset
    try:
        L = np.linalg.cholesky(M)
        return sla.cho_solve((L, True), rhs)
    except np.linalg.LinAlgError:
        names = np.asarray(data.param_names)
        rank = np.linalg.matrix_rank(M)
        _, _, piv = sla.qr(M, pivoting=True)
        dependent = sorted(names[piv[rank:]])
        raise RankDeficiencyError(
            "fixed-effects normal equations are singular; "
            f"dependent columns: {', '.join(dependent)}"
        ) from None


def _q_statistics(theta: ThetaState, data: TrialData, cache: EStepCache):
    """All that Q and its xi-derivatives use of the data.

    Returns (S, r, sum T02) with S = R'R and r = R'T01, R = y - X beta.
    """
    R = residuals(data, theta.beta)
    return R.T @ R, cache.T01 @ R, float(cache.T02.sum())


def _q_terms(theta: ThetaState, n: int, stats, order: int):
    """Q at theta and, for ``order`` 1 or 2, its xi-gradient and xi-Hessian.

    ``stats`` is (S, r, sum T02) from ``_q_statistics``; returns (Q, gradient,
    Hessian) with None for the orders not asked for.  Q and every derivative
    have the form -1/2 [ n t + q sum T02 + tr(M S) - 2 w'r ]:

        Q:          t = log|V|, q = 1 + c, M = V^{-1}, w = A;
        dQ/dxi_a:   t = tr P_a, M = W_a = -P_a V^{-1}, w = W_a d + V^{-1} d_a,
                    with P_a = V^{-1} V_a;
        Hessian:    M = S_ab = (P_a P_b + P_b P_a) V^{-1} - V^{-1} V_ab V^{-1},
                    the exact second derivative of V^{-1}.

    For the normal baseline the lambda components are identically zero.
    """
    S, r, sum_T02 = stats
    pm = S.shape[0]
    k = kernel(theta, pm)
    Vinv, d = k.Vinv, k.d

    def term(t, q, M, w):
        return -0.5 * (n * t + q * sum_T02 + float(np.vdot(M, S)) - 2.0 * float(w @ r))

    value = term(k.logdet, 1.0 + k.c, Vinv, k.A)
    if order == 0:
        return value, None, None
    _, _, V_first, d_first, V_second, d_second = assemble(theta, pm, derivatives=True)
    P = [Vinv @ V_first[a] for a in range(3)]
    W = [-P[a] @ Vinv for a in range(3)]
    grad = np.zeros(3)
    for a in range(3):
        qd = float(d @ W[a] @ d) + 2.0 * float(k.A @ d_first[a])
        grad[a] = term(float(np.trace(P[a])), qd, W[a], W[a] @ d + Vinv @ d_first[a])
    if order == 1:
        return value, grad, None
    H = np.zeros((3, 3))
    for a in range(3):
        for b in range(a, 3):
            V_ab = V_second.get((a, b), np.zeros((pm, pm)))
            d_ab = d_second.get((a, b), np.zeros(pm))
            S_ab = (P[a] @ P[b] + P[b] @ P[a]) @ Vinv - Vinv @ V_ab @ Vinv
            qd = (
                float(d @ S_ab @ d)
                + 2.0 * float(d @ W[a] @ d_first[b])
                + 2.0 * float(d_first[b] @ Vinv @ d_first[a])
                + 2.0 * float(d @ W[b] @ d_first[a])
                + 2.0 * float(k.A @ d_ab)
            )
            H[a, b] = H[b, a] = term(
                -float(np.trace(P[b] @ P[a])) + float(np.trace(Vinv @ V_ab)),
                qd,
                S_ab,
                S_ab @ d + W[a] @ d_first[b] + W[b] @ d_first[a] + Vinv @ d_ab,
            )
    return value, grad, H


def q_value(theta: ThetaState, data: TrialData, cache: EStepCache) -> float:
    """Expected complete-data log-likelihood at theta, T01/T02 frozen."""
    return _q_terms(theta, data.n_subjects, _q_statistics(theta, data, cache), 0)[0]


def q_gradient(theta: ThetaState, data: TrialData, cache: EStepCache) -> np.ndarray:
    """Analytic gradient of Q in xi = (sigma_e2, sigma_s2, lambda), T01/T02 frozen."""
    return _q_terms(theta, data.n_subjects, _q_statistics(theta, data, cache), 1)[1]


def q_hessian(theta: ThetaState, data: TrialData, cache: EStepCache) -> np.ndarray:
    """Analytic Hessian of Q in xi, symmetric by construction."""
    return _q_terms(theta, data.n_subjects, _q_statistics(theta, data, cache), 2)[2]


def nr_step(
    theta: ThetaState,
    data: TrialData,
    cache: EStepCache,
    active: np.ndarray | None = None,
):
    """One safeguarded Newton-Raphson update of the active xi components.

    Starts from xi - H^{-1} grad; falls back to a scaled gradient-ascent
    direction when H is singular or the Newton direction is not an ascent
    direction; halves the step (at most 30 times) until Q does not decrease
    and the variance components stay above 1e-10.  The Q statistics are
    formed once, since beta and T01/T02 stay fixed.  Returns (xi_new,
    stalled); a stalled step returns the current xi unchanged.
    """
    if active is None:
        active = np.array([True, True, theta.scenario is not Scenario.NORMAL])
    n = data.n_subjects
    stats = _q_statistics(theta, data, cache)
    xi0 = theta.xi
    q0, grad, hess = _q_terms(theta, n, stats, 2)
    grad = grad[active]
    hess = hess[np.ix_(active, active)]
    step_act = None
    try:
        cand = -np.linalg.solve(hess, grad)
        if np.all(np.isfinite(cand)) and float(grad @ cand) > 0.0:
            step_act = cand
    except np.linalg.LinAlgError:
        pass
    if step_act is None:
        gnorm = float(np.linalg.norm(grad))
        step_act = grad / (1.0 + gnorm)
    step = np.zeros(3)
    step[active] = step_act

    scale = 1.0
    for _ in range(_MAX_HALVINGS + 1):
        xi_try = xi0 + scale * step
        scale *= 0.5
        if xi_try[0] <= _VARIANCE_FLOOR or xi_try[1] <= _VARIANCE_FLOOR:
            continue
        try:
            q_try = _q_terms(theta.with_xi(xi_try), n, stats, 0)[0]
        except np.linalg.LinAlgError:
            continue
        if np.isfinite(q_try) and q_try >= q0 - 1e-12:
            return xi_try, False
    return xi0, True


# ---------------------------------------------------------------------------
# Likelihood, initialization, standard errors
# ---------------------------------------------------------------------------


def marginal_loglik(theta: ThetaState, data: TrialData) -> float:
    """Observed-data log-likelihood, latent half-normal integrated out.

    Per subject, f(y) = 2 phi_pm(y | X beta, Sigma) Phi(eta / zeta) with
    Sigma = V + d d'; the rank-one structure gives
    log|Sigma| = log|V| + log(1 + d'V^{-1}d) and the Sherman-Morrison
    quadratic form, summed over subjects as tr(V^{-1} S) - u'u / (1 + c)
    with u = R A.
    """
    k = kernel(theta, data.layout.pm)
    R = residuals(data, theta.beta)
    return _loglik(k, R, R @ k.A)


def _loglik(k: Kernel, R: np.ndarray, u: np.ndarray) -> float:
    """``marginal_loglik`` from the kernel, the residuals R and u = R A at one theta."""
    n, pm = R.shape
    quad = float(np.vdot(k.Vinv, R.T @ R)) - float(u @ u) / (1.0 + k.c)
    eta = u / (1.0 + k.c)
    zeta = np.sqrt(1.0 / (1.0 + k.c))
    const = np.log(2.0) - 0.5 * pm * _LOG_2PI - 0.5 * (k.logdet + np.log1p(k.c))
    return float(n * const - 0.5 * quad + special.log_ndtr(eta / zeta).sum())


def initialize(
    data: TrialData, scenario: Scenario, freeze_lambda: bool = False
) -> ThetaState:
    """Starting values: normal-model moments for beta and the variances.

    beta comes from GLS under moment-estimated variance components; the
    components themselves come from the between/within subject mean squares
    of OLS residuals (the one-way ANOVA estimators), floored at 1e-6.
    lambda starts at 1 for skew scenarios (away from the lambda = 0
    information singularity) and at 0 for the baseline or when frozen.

    Raises DegenerateResponseError when the OLS residual mean square is at
    most 1e-20 times the mean of y^2 (a constant response, or one the design
    fits exactly): there the likelihood grows without bound as the error
    variance shrinks.  The rule is free of the units of y.
    """
    n, pm, q = data.n_subjects, data.layout.pm, data.layout.n_fixed
    beta_ols, *_ = np.linalg.lstsq(data.X.reshape(-1, q), data.y.ravel(), rcond=None)
    resid = residuals(data, beta_ols)
    if float(np.mean(resid**2)) <= _DEGENERATE_RATIO * float(np.mean(data.y**2)):
        raise DegenerateResponseError(
            "the fixed effects fit the response exactly (no residual variation); "
            "the likelihood is unbounded"
        )
    if pm > 1:
        subj_mean = resid.mean(axis=1)
        msw = float(((resid - subj_mean[:, None]) ** 2).sum()) / (n * (pm - 1))
        if n > 1:
            msb = pm * float(((subj_mean - subj_mean.mean()) ** 2).sum()) / (n - 1)
        else:
            msb = msw
        sigma_e2 = msw
        sigma_s2 = (msb - msw) / pm
    else:
        total = float(resid.var())
        sigma_e2 = sigma_s2 = total / 2.0
    if sigma_e2 < 1e-6:
        warnings.warn("degenerate (near-constant) response; flooring error variance")
        sigma_e2 = 1e-6
    sigma_s2 = max(sigma_s2, 1e-6)

    normal = ThetaState(np.zeros(q), sigma_e2, sigma_s2, 0.0, Scenario.NORMAL)
    beta0 = _gls(data, kernel(normal, pm).Vinv)
    lam0 = 0.0 if (scenario is Scenario.NORMAL or freeze_lambda) else 1.0
    return ThetaState(
        beta=beta0, sigma_e2=sigma_e2, sigma_s2=sigma_s2, lam=lam0, scenario=scenario
    )


def aic_bic(loglik: float, k: int, n_obs: int) -> tuple[float, float]:
    """Akaike and Bayesian information criteria (lower is better)."""
    aic = 2.0 * k - 2.0 * loglik
    bic = k * float(np.log(n_obs)) - 2.0 * loglik
    return aic, bic


def corrected_intercept(theta: ThetaState) -> float:
    """Intercept shifted by the mean of the skew term, d_1 * sqrt(2/pi).

    Reported alongside the raw intercept, never substituted for it.  For
    the baseline (or lambda = 0) it equals the raw intercept.
    """
    _, d = assemble(theta, 1)
    return float(theta.beta[0] + d[0] * SQRT_2_OVER_PI)


def _free_vector(theta: ThetaState, include_lambda: bool) -> np.ndarray:
    parts = [theta.beta, [theta.sigma_e2, theta.sigma_s2]]
    if include_lambda:
        parts.append([theta.lam])
    return np.concatenate([np.atleast_1d(np.asarray(p, dtype=float)) for p in parts])


def _loglik_derivatives(
    theta: ThetaState, data: TrialData, include_lambda: bool | None, second: bool
):
    """Analytic score and Hessian of ``marginal_loglik`` in the free parameters.

    Free parameters are (beta, sigma_e2, sigma_s2[, lambda]).  Per subject
    the log-density is log 2 - 1/2 log|Sigma| - 1/2 r'Sigma^{-1} r +
    log Phi(w) + const, with r = y - X beta, Sigma = V + dd',
    Sigma^{-1} = V^{-1} - AA'/(1 + c) and w = alpha'r, alpha = A/sqrt(1 + c).
    With zeta1 = phi(w)/Phi(w) and zeta2 = -zeta1 (w + zeta1), and subscripts
    a, b for derivatives in xi,

        d/dbeta   = sum X'(Sigma^{-1} r - zeta1 alpha)
        d/dxi_a   = -n/2 tr(Sigma^{-1} Sigma_a) - 1/2 tr((Sigma^{-1})_a R'R)
                    + sum zeta1 alpha_a'r
        beta beta = -sum X'Sigma^{-1}X + sum zeta2 (X'alpha)(X'alpha)'
        beta xi_a = sum X'((Sigma^{-1})_a r - zeta2 (alpha_a'r) alpha - zeta1 alpha_a)
        xi_a xi_b = -n/2 [tr(Sigma^{-1} Sigma_ab) - tr(Sigma^{-1} Sigma_a Sigma^{-1} Sigma_b)]
                    - 1/2 tr((Sigma^{-1})_ab R'R)
                    + sum zeta2 (alpha_a'r)(alpha_b'r) + sum zeta1 alpha_ab'r.

    The derivatives of Sigma, A, c and alpha follow from ``assemble``.
    The data enter through R'R, R [alpha, alpha_a, alpha_ab], the design
    moments and two products with the flattened design; nothing per subject
    is formed beyond n-vectors.  Returns (score, Hessian), the Hessian None
    unless ``second``.
    """
    if include_lambda is None:
        include_lambda = theta.scenario is not Scenario.NORMAL
    pm = data.layout.pm
    n, q = data.n_subjects, data.layout.n_fixed
    m = 3 if include_lambda else 2
    k = kernel(theta, pm)
    _, _, V1, d1, V2, d2 = assemble(theta, pm, derivatives=True)
    Vinv, d, A = k.Vinv, k.d, k.A
    s = np.sqrt(1.0 + k.c)
    Sinv = Vinv - np.outer(A, A) / (1.0 + k.c)
    alpha = A / s

    A1 = [Vinv @ (d1[a] - V1[a] @ A) for a in range(m)]
    c1 = [float(d1[a] @ A + d @ A1[a]) for a in range(m)]
    alpha1 = [A1[a] / s - A * c1[a] / (2.0 * s**3) for a in range(m)]
    P = [Sinv @ (V1[a] + np.outer(d1[a], d) + np.outer(d, d1[a])) for a in range(m)]
    Sinv1 = [-P[a] @ Sinv for a in range(m)]
    pairs = [(a, b) for a in range(m) for b in range(a, m)] if second else []
    alpha2, Sig2 = [], []
    for a, b in pairs:
        V_ab = V2.get((a, b), np.zeros((pm, pm)))
        d_ab = d2.get((a, b), np.zeros(pm))
        A_ab = Vinv @ (d_ab - V_ab @ A - V1[a] @ A1[b] - V1[b] @ A1[a])
        c_ab = float(d_ab @ A + d1[a] @ A1[b] + d1[b] @ A1[a] + d @ A_ab)
        alpha2.append(
            A_ab / s
            - (A1[a] * c1[b] + A1[b] * c1[a] + A * c_ab) / (2.0 * s**3)
            + 0.75 * A * c1[a] * c1[b] / s**5
        )
        D = np.outer(d_ab, d) + np.outer(d1[a], d1[b])
        Sig2.append(V_ab + D + D.T)

    R = residuals(data, theta.beta)
    S = R.T @ R
    proj = R @ np.column_stack([alpha] + alpha1 + alpha2)
    w = proj[:, 0]
    zeta1 = mills(w)
    Z1 = _xt_sum(data, zeta1)

    XSX = _xtwx(data, Sinv)
    score = np.empty(q + m)
    score[:q] = _xtwy(data, Sinv) - XSX @ theta.beta - Z1 @ alpha
    for a in range(m):
        score[q + a] = (
            -0.5 * n * float(np.trace(P[a]))
            - 0.5 * float(np.vdot(Sinv1[a], S))
            + float(zeta1 @ proj[:, 1 + a])
        )
    if not second:
        return score, None

    zeta2 = -zeta1 * (w + zeta1)
    G = alpha @ data.X  # row i: X_i' alpha
    H = np.empty((q + m, q + m))
    H[:q, :q] = -XSX + G.T @ (zeta2[:, None] * G)
    for a in range(m):
        H[:q, q + a] = H[q + a, :q] = (
            _xtwy(data, Sinv1[a])
            - _xtwx(data, Sinv1[a]) @ theta.beta
            - G.T @ (zeta2 * proj[:, 1 + a])
            - Z1 @ alpha1[a]
        )
    for j, (a, b) in enumerate(pairs):
        Sinv_ab = (P[a] @ P[b] + P[b] @ P[a]) @ Sinv - Sinv @ Sig2[j] @ Sinv
        tr = float(np.vdot(Sinv, Sig2[j])) - float(np.vdot(P[a], P[b].T))
        H[q + a, q + b] = H[q + b, q + a] = (
            -0.5 * n * tr
            - 0.5 * float(np.vdot(Sinv_ab, S))
            + float(zeta2 @ (proj[:, 1 + a] * proj[:, 1 + b]))
            + float(zeta1 @ proj[:, 1 + m + j])
        )
    return score, H


def marginal_score(
    theta: ThetaState, data: TrialData, include_lambda: bool | None = None
) -> np.ndarray:
    """Analytic gradient of ``marginal_loglik`` in (beta, sigma_e2, sigma_s2[, lambda]).

    ``include_lambda`` defaults to True for the skew scenarios.
    """
    return _loglik_derivatives(theta, data, include_lambda, second=False)[0]


def observed_information(
    theta: ThetaState, data: TrialData, include_lambda: bool | None = None
) -> np.ndarray:
    """Negated analytic Hessian of ``marginal_loglik`` in the free parameters."""
    return -_loglik_derivatives(theta, data, include_lambda, second=True)[1]


def standard_errors(
    theta: ThetaState, data: TrialData, include_lambda: bool | None = None
) -> np.ndarray:
    """SEs from the analytic observed information of the marginal log-likelihood.

    SE_k is the square root of the k-th diagonal entry of the inverse
    information; no likelihood is evaluated.

    Singularity is judged on D I D, where D holds each parameter's natural
    size, so the verdict does not depend on the units of y or of a design
    column: sqrt(sigma_e2 + sigma_s2) / rms(X column) for beta,
    sigma_e2 + sigma_s2 for each variance and max(1, |lambda|) for lambda.
    D I D counts as singular when its smallest eigenvalue is at most 1e-12
    times its largest; the SEs then come from its pseudo-inverse over the
    kept eigenvalues, mapped back through D, and a coordinate whose squared
    loading on the discarded eigenvectors exceeds 1e-6 gets NaN, with a
    warning.
    """
    info = observed_information(theta, data, include_lambda)
    total = theta.sigma_e2 + theta.sigma_s2
    x_rms = np.sqrt(np.einsum("ajaj->j", data.moments.XX) / data.n_obs)
    D = np.concatenate([np.sqrt(total) / x_rms, [total, total, max(1.0, abs(theta.lam))]])
    D = D[: info.shape[0]]
    eig, U = np.linalg.eigh(D[:, None] * info * D)
    keep = eig > _SINGULAR_RATIO * max(eig[-1], 0.0)
    var = D**2 * (U[:, keep] ** 2 / eig[keep]).sum(axis=1)
    if not keep.all():
        warnings.warn("information matrix not positive definite; some SEs set to NaN")
        var[(U[:, ~keep] ** 2).sum(axis=1) > _LOST_LOADING] = np.nan
    return np.sqrt(var)


# ---------------------------------------------------------------------------
# Main fitting loop
# ---------------------------------------------------------------------------


def fit(
    data: TrialData,
    scenario: Scenario,
    *,
    tol: float = 5e-3,
    max_iter: int = 500,
    freeze_lambda: bool = False,
    compute_se: bool = True,
) -> FitResult:
    """Maximum-likelihood fit by EM.

    Alternates the closed-form E-step with the beta update and the
    safeguarded NR update of the variance components until the largest
    absolute change over all free parameters drops below ``tol`` (default
    5e-3) or ``max_iter`` is reached.  Non-convergence is reported through
    the ``converged`` flag, not an exception.
    """
    lambda_free = scenario is not Scenario.NORMAL and not freeze_lambda
    active = np.array([True, True, lambda_free])
    theta = initialize(data, scenario, freeze_lambda=freeze_lambda)
    trajectory = []
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        cache = e_step(theta, data)
        trajectory.append(cache.loglik)
        beta_new = update_beta(theta, data, cache)
        theta_b = replace(theta, beta=beta_new)
        xi_new, _ = nr_step(theta_b, data, cache, active)
        theta_new = theta_b.with_xi(xi_new)
        delta = max(
            float(np.max(np.abs(beta_new - theta.beta))),
            float(np.max(np.abs((xi_new - theta.xi)[active]), initial=0.0)),
        )
        theta = theta_new
        iterations = it
        if delta < tol:
            converged = True
            break

    trajectory.append(marginal_loglik(theta, data))
    loglik = trajectory[-1]
    names = list(data.param_names) + ["sigma_e2", "sigma_s2"]
    if lambda_free:
        names.append("lambda")
    aic, bic = aic_bic(loglik, len(names), data.n_obs)
    se = standard_errors(theta, data, include_lambda=lambda_free) if compute_se else None
    lambda_warning = lambda_free and abs(theta.lam) < LAMBDA_SINGULARITY_THRESHOLD
    if lambda_warning:
        warnings.warn(
            f"|lambda| = {abs(theta.lam):.4f} < {LAMBDA_SINGULARITY_THRESHOLD}: "
            "information matrix is near-singular at lambda = 0; "
            "standard errors may be unreliable"
        )
    return FitResult(
        theta=theta,
        param_names=tuple(names),
        se=se,
        corrected_intercept=corrected_intercept(theta),
        loglik=loglik,
        aic=aic,
        bic=bic,
        iterations=iterations,
        converged=converged,
        trajectory=trajectory,
        n_free=len(names),
        n_obs=data.n_obs,
        lambda_warning=lambda_warning,
    )
