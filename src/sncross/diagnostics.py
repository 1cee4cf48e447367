"""Goodness-of-fit diagnostics and information criteria.

Mahalanobis distances of fitted subjects against their chi-square reference,
Healy-type plot coordinates, a one-sample Kolmogorov-Smirnov test,
standardized residuals, and AIC/BIC.  The observed-data log-likelihood and
AIC/BIC live in the engine (re-exported here) because every fit reports
them; the E-step returns the log-likelihood that makes the EM trajectory.

Plot data is emitted as rows of a ``kind,index,x,y`` CSV; rendering is left
to external tooling.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy import special

from .design import TrialData
from .em import ThetaState, aic_bic, e_step, kernel, marginal_loglik, residuals

__all__ = [
    "GofReport",
    "aic_bic",
    "chi2_cdf",
    "chi2_quantile",
    "gof_report",
    "healy_points",
    "ks_test",
    "mahalanobis",
    "marginal_loglik",
    "plot_data_rows",
    "standardized_residuals",
    "write_plot_csv",
]

PLOT_KINDS = ("healy", "qq_chisq", "resid_fitted")


@dataclass
class GofReport:
    """Mahalanobis-distance goodness-of-fit summary for one fitted model."""

    distances: np.ndarray
    df: int
    ks_statistic: float
    ks_pvalue: float
    healy_points: list[tuple[float, float]]


def chi2_cdf(x, df: int):
    """Chi-square distribution function via the regularized incomplete gamma."""
    x = np.asarray(x, dtype=float)
    out = special.gammainc(df / 2.0, x / 2.0)
    return float(out) if out.ndim == 0 else out


def chi2_quantile(p, df: int):
    """Inverse of chi2_cdf."""
    p = np.asarray(p, dtype=float)
    out = 2.0 * special.gammaincinv(df / 2.0, p)
    return float(out) if out.ndim == 0 else out


def mahalanobis(theta: ThetaState, data: TrialData) -> np.ndarray:
    """Per-subject distances (y - X beta)' Sigma^{-1} (y - X beta).

    Sigma = V + d d' is the fitted dispersion about the location X beta
    (the raw, not mean-corrected, intercept); under the model the distances
    follow a chi-square law with pm degrees of freedom.
    """
    k = kernel(theta, data.layout.pm)
    resid = residuals(data, theta.beta)
    u = resid @ k.A
    return np.einsum("np,pq,nq->n", resid, k.Vinv, resid) - u * u / (1.0 + k.c)


def ks_test(distances, df: int) -> tuple[float, float]:
    """One-sample KS test of the distances against chi-square with ``df``.

    D is the supremum gap between the empirical step function and the
    reference CDF; the p-value uses the asymptotic Kolmogorov series at
    sqrt(n) * D.
    """
    d = np.sort(np.asarray(distances, dtype=float))
    n = d.size
    if n == 0:
        raise ValueError("need at least one distance")
    cdf = chi2_cdf(d, df)
    i = np.arange(1, n + 1)
    stat = float(np.max(np.maximum(cdf - (i - 1) / n, i / n - cdf)))
    pvalue = float(np.clip(special.kolmogorov(np.sqrt(n) * stat), 0.0, 1.0))
    return stat, pvalue


def healy_points(distances, df: int) -> list[tuple[float, float]]:
    """Healy-type plot coordinates.

    Sorted pairs ((i - 0.5)/n, chi2_cdf(d_(i), df)); a well-fitted model
    puts them on the identity line.
    """
    d = np.sort(np.asarray(distances, dtype=float))
    n = d.size
    if n == 0:
        raise ValueError("need at least one distance")
    nominal = (np.arange(1, n + 1) - 0.5) / n
    empirical = chi2_cdf(d, df)
    return list(zip(nominal.tolist(), empirical.tolist()))


def standardized_residuals(theta: ThetaState, data: TrialData) -> np.ndarray:
    """(y - X beta - d T01) scaled by the square roots of diag(V).

    T01 comes from an E-step at theta; at lambda = 0 these are the ordinary
    marginal residuals.
    """
    cache = e_step(theta, data)
    k = cache.kernel
    return (residuals(data, theta.beta) - np.outer(cache.T01, k.d)) / np.sqrt(np.diag(k.V))


def gof_report(theta: ThetaState, data: TrialData) -> GofReport:
    """Mahalanobis distances, KS test and Healy coordinates in one bundle."""
    dist = mahalanobis(theta, data)
    df = data.layout.pm
    stat, pvalue = ks_test(dist, df)
    return GofReport(
        distances=dist,
        df=df,
        ks_statistic=stat,
        ks_pvalue=pvalue,
        healy_points=healy_points(dist, df),
    )


def plot_data_rows(theta: ThetaState, data: TrialData) -> list[tuple[str, int, float, float]]:
    """Plot-data rows (kind, index, x, y) for the three diagnostic plots.

    healy: nominal vs empirical cumulative probability;
    qq_chisq: theoretical chi-square quantile vs ordered distance;
    resid_fitted: fitted value vs standardized residual.
    """
    dist = mahalanobis(theta, data)
    df = data.layout.pm
    rows: list[tuple[str, int, float, float]] = []
    for idx, (nominal, empirical) in enumerate(healy_points(dist, df)):
        rows.append(("healy", idx, nominal, empirical))
    d_sorted = np.sort(dist)
    n = d_sorted.size
    theo = chi2_quantile((np.arange(1, n + 1) - 0.5) / n, df)
    for idx in range(n):
        rows.append(("qq_chisq", idx, float(theo[idx]), float(d_sorted[idx])))
    std_resid = standardized_residuals(theta, data)
    # fitted = X beta + d T01, the response minus the unscaled residual
    fitted = data.y - std_resid * np.sqrt(np.diag(kernel(theta, data.layout.pm).V))
    flat_f = fitted.ravel()
    flat_r = std_resid.ravel()
    for idx in range(flat_f.size):
        rows.append(("resid_fitted", idx, float(flat_f[idx]), float(flat_r[idx])))
    return rows


def write_plot_csv(path, rows) -> None:
    """Write plot-data rows to a ``kind,index,x,y`` CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "index", "x", "y"])
        for kind, index, x, y in rows:
            writer.writerow([kind, index, repr(float(x)), repr(float(y))])
