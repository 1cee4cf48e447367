"""Monte Carlo study machinery.

Generates crossover datasets under the skew-error or skew-effect scenario,
fits both the matching skew-normal model and the normal baseline to each
replicate, and aggregates estimates, standard errors, absolute bias and the
AIC selection rate into a Table-style summary.

The default design is the three-sequence (ABC / BCA / CAB), three-period
trial with four responses per period and the three-level subject-block
covariate ``w``; default truths:

    errors SN:  beta = (2.1, 2.4, 1.1, 0.9, 2.1, 1.5, 2.0, 3.4, 1.8),
                sigma_e2 = 2.0, sigma_s2 = 0.64, lambda = 3.0
    effect SN:  beta = (3.3, 2.4, 1.1, 0.9, 2.1, 1.5, 2.0, 3.4, 1.8),
                sigma_e2 = 0.72, sigma_s2 = 3.0, lambda = 4.0

Replicate r draws from the sub-stream (seed, r), so replicates reproduce
bit-identically in any order and under any worker count; aggregation is an
ordered reduction keyed by replicate index.
"""

from __future__ import annotations

import csv
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .design import (
    CrossoverLayout,
    TrialData,
    assemble_trial,
    build_design,
    covariate_w,
    fixed_effect_index,
    per_pattern,
)
from .em import FitResult, Scenario, ThetaState, _free_vector, fit
from .skewnormal import RngStream, SnRestrictedMultivariate, SnUnivariate, sn_sample, sn_sample_vector

DEFAULT_REPLICATES = 50  # desk scale; the full study uses 200

_TRUE_BETA = {
    Scenario.ERROR_SN: (2.1, 2.4, 1.1, 0.9, 2.1, 1.5, 2.0, 3.4, 1.8),
    Scenario.EFFECT_SN: (3.3, 2.4, 1.1, 0.9, 2.1, 1.5, 2.0, 3.4, 1.8),
}
_TRUE_VARIANCE = {
    Scenario.ERROR_SN: (2.0, 0.64, 3.0),
    Scenario.EFFECT_SN: (0.72, 3.0, 4.0),
}


def default_layout(n_per_seq: int = 30) -> CrossoverLayout:
    """Three sequences ABC/BCA/CAB, p = 3, m = 4, covariate w."""
    return CrossoverLayout(
        n_per_seq=(n_per_seq,) * 3,
        assignment=((1, 2, 3), (2, 3, 1), (3, 1, 2)),
        n_treatments=3,
        n_responses=4,
        covariates=("w",),
    )


def default_true_theta(scenario: Scenario) -> ThetaState:
    """The study's true parameter values for a skew scenario."""
    if scenario not in _TRUE_BETA:
        raise ValueError(f"no default truths for scenario {scenario}")
    se2, ss2, lam = _TRUE_VARIANCE[scenario]
    return ThetaState(
        beta=np.array(_TRUE_BETA[scenario]),
        sigma_e2=se2,
        sigma_s2=ss2,
        lam=lam,
        scenario=scenario,
    )


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo study: scenario, scale, truths, seed."""

    scenario: Scenario
    n_per_seq: int = 30
    replicates: int = DEFAULT_REPLICATES
    seed: int = 0
    true_theta: ThetaState | None = None
    layout: CrossoverLayout | None = None

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.layout is None:
            object.__setattr__(self, "layout", default_layout(self.n_per_seq))
        if self.true_theta is None:
            object.__setattr__(self, "true_theta", default_true_theta(self.scenario))


@dataclass
class ModelSummary:
    """Across-replicate aggregates for one fitted model."""

    names: tuple[str, ...]
    mean_estimate: np.ndarray
    mean_se: np.ndarray
    mean_abs_bias: np.ndarray
    sd_estimate: np.ndarray


@dataclass
class McSummary:
    """Monte Carlo study output: one summary per model plus selection rate."""

    config: SimConfig
    sn: ModelSummary
    normal: ModelSummary
    sn_selected_rate: float
    replicates_converged: int
    replicates_requested: int
    failed_replicates: tuple[int, ...] = ()


@dataclass
class ReplicateFits:
    """Raw per-replicate results kept for the replicate-level CSV."""

    index: int
    sn: FitResult
    normal: FitResult


class _Columns:
    """``RngStream.normal`` over one (n, k) block of draws, one row per subject.

    ``normal(n)`` hands out the next column and ``normal((n, w))`` the next w.
    """

    def __init__(self, draws: np.ndarray):
        self.draws, self.used = draws, 0

    def normal(self, shape):
        width = 1 if np.ndim(shape) == 0 else shape[1]
        self.used += width
        block = self.draws[:, self.used - width : self.used]
        return block if np.ndim(shape) else block[:, 0]


def simulate_subjects(
    layout: CrossoverLayout, theta: ThetaState, rng: RngStream
) -> TrialData:
    """Draw one dataset from the model at ``theta`` over the given layout.

    Subjects run over sequences, then subjects, in order.  The dataset is one
    ``rng.normal((n, k))`` draw whose row r holds subject r's draws: the
    random effect's (error-sn and normal: b; effect-sn: its two), then the
    error vector's (error-sn: the block, then its folded draw).  One Philox
    draw equals the series of smaller draws, so the data are those of
    drawing subject by subject.  The covariate ``w``, when declared, follows
    the subject-block rule for the sequence size; any other covariate is 0.
    Designs and X beta are computed once per design pattern.
    """
    pm, n = layout.pm, layout.n_subjects
    keys = [(i, j) for i, n_i in enumerate(layout.n_per_seq, 1) for j in range(1, n_i + 1)]
    covs = {
        (i, j): {c: float(covariate_w(layout.n_per_seq[i - 1], j)) if c == "w" else 0.0
                 for c in layout.covariates}
        for i, j in keys
    }
    mean = per_pattern(
        keys, covs, lambda i, j, c: build_design(layout, i, j, c).X @ theta.beta
    )
    k = pm + 1 if theta.scenario is Scenario.NORMAL else pm + 2  # draws per subject
    draws = _Columns(rng.normal((n, k)))
    if theta.scenario is Scenario.EFFECT_SN:
        b = sn_sample(SnUnivariate(0.0, theta.sigma_s2, theta.lam), draws, size=n)
    else:
        b = np.sqrt(theta.sigma_s2) * draws.normal(n)
    if theta.scenario is Scenario.ERROR_SN:
        sn_errors = SnRestrictedMultivariate(np.zeros(pm), theta.sigma_e2, theta.lam)
        e = sn_sample_vector(sn_errors, draws, size=n)
    else:
        e = np.sqrt(theta.sigma_e2) * draws.normal((n, pm))
    return assemble_trial(layout, dict(zip(keys, mean + b[:, None] + e)), covs)


def generate_dataset(config: SimConfig, replicate_index: int) -> TrialData:
    """Dataset for one replicate, deterministic in (seed, replicate_index)."""
    rng = RngStream(config.seed, stream=replicate_index)
    return simulate_subjects(config.layout, config.true_theta, rng)


def run_replicate(config: SimConfig, replicate_index: int) -> ReplicateFits:
    """Generate replicate data and fit both the SN model and the baseline."""
    data = generate_dataset(config, replicate_index)
    sn = fit(data, config.scenario)
    normal = fit(data, Scenario.NORMAL)
    return ReplicateFits(index=replicate_index, sn=sn, normal=normal)


def selection_rate(sn_aic, normal_aic) -> float:
    """Fraction of replicates where the SN model's AIC is strictly smaller."""
    sn_aic = np.asarray(sn_aic, dtype=float)
    normal_aic = np.asarray(normal_aic, dtype=float)
    if sn_aic.size == 0:
        raise ValueError("need at least one replicate")
    return float(np.mean(sn_aic < normal_aic))


def _truths(config: SimConfig) -> dict[str, float]:
    """True value of every parameter, beta first, then sigma_e2, sigma_s2, lambda."""
    names = tuple(fixed_effect_index(config.layout)) + ("sigma_e2", "sigma_s2", "lambda")
    return dict(zip(names, _free_vector(config.true_theta, True)))


def _summarize(
    names: tuple[str, ...],
    estimates: np.ndarray,
    ses: np.ndarray,
    truths: np.ndarray,
) -> ModelSummary:
    # nanmean: a converged fit can still report NaN SEs for coordinates
    # where the information matrix is numerically singular
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean_se = np.nanmean(ses, axis=0)
    return ModelSummary(
        names=names,
        mean_estimate=estimates.mean(axis=0),
        mean_se=mean_se,
        mean_abs_bias=np.abs(estimates - truths).mean(axis=0),
        sd_estimate=estimates.std(axis=0, ddof=1) if estimates.shape[0] > 1 else np.zeros(estimates.shape[1]),
    )


def run_replicates(config: SimConfig, workers: int = 1) -> list[ReplicateFits]:
    """Fit every replicate; results come back in replicate order.

    With ``workers > 1`` the replicates run in a process pool; the output
    is identical to a sequential run because every replicate draws from its
    own (seed, index) sub-stream.
    """
    indices = range(config.replicates)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_replicate, [config] * len(indices), indices))
    return [run_replicate(config, r) for r in indices]


def run_monte_carlo(config: SimConfig, workers: int = 1) -> McSummary:
    """Run the study: fit every replicate, aggregate over converged ones.

    Replicates where either fit fails to converge are excluded from the
    means and reported in ``failed_replicates``.  Output is independent of
    ``workers``; parallel runs reduce in replicate order.
    """
    return aggregate(config, run_replicates(config, workers))


def aggregate(config: SimConfig, results: list[ReplicateFits]) -> McSummary:
    """Ordered reduction of per-replicate fits into an McSummary."""
    results = sorted(results, key=lambda r: r.index)
    ok = [r for r in results if r.sn.converged and r.normal.converged]
    failed = tuple(r.index for r in results if not (r.sn.converged and r.normal.converged))
    if not ok:
        raise RuntimeError("no replicate produced two converged fits")
    sn_names = ok[0].sn.param_names
    n_names = ok[0].normal.param_names
    truth_all = _truths(config)
    sn_truth = np.array([truth_all[n] for n in sn_names])
    n_truth = np.array([truth_all[n] for n in n_names])
    sn_est = np.array([r.sn.estimates for r in ok])
    sn_se = np.array([r.sn.se for r in ok])
    n_est = np.array([r.normal.estimates for r in ok])
    n_se = np.array([r.normal.se for r in ok])
    rate = selection_rate([r.sn.aic for r in ok], [r.normal.aic for r in ok])
    return McSummary(
        config=config,
        sn=_summarize(sn_names, sn_est, sn_se, sn_truth),
        normal=_summarize(n_names, n_est, n_se, n_truth),
        sn_selected_rate=rate,
        replicates_converged=len(ok),
        replicates_requested=config.replicates,
        failed_replicates=failed,
    )


def summary_rows(summary: McSummary) -> list[list[str]]:
    """Summary CSV rows: parameter, truth, then per-model aggregates.

    The sd_estimate columns (spread of the estimates across replicates) sit
    beside the mean reported SEs for comparison.
    """
    header = [
        "parameter", "true",
        "sn_estimate", "sn_se", "sn_abs_bias", "sn_sd_estimate",
        "normal_estimate", "normal_se", "normal_abs_bias", "normal_sd_estimate",
    ]
    rows = [header]
    for name, truth in _truths(summary.config).items():
        row = [name, repr(float(truth))]
        for model in (summary.sn, summary.normal):
            if name in model.names:
                i = model.names.index(name)
                stats = (model.mean_estimate, model.mean_se, model.mean_abs_bias, model.sd_estimate)
                row += [repr(float(v[i])) for v in stats]
            else:
                row += [""] * 4
        rows.append(row)
    return rows


def write_summary_csv(path, summary: McSummary) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(summary_rows(summary))


def write_replicates_csv(path, config: SimConfig, results: list[ReplicateFits]) -> None:
    """Raw per-replicate estimates, logliks and AICs."""
    results = sorted(results, key=lambda r: r.index)
    sn_names = results[0].sn.param_names
    header = ["replicate", "model", "converged", "iterations", "loglik", "aic", "bic"]
    header += list(sn_names)
    rows = [header]
    for r in results:
        for label, res in (("sn", r.sn), ("normal", r.normal)):
            est = dict(zip(res.param_names, res.estimates))
            rows.append(
                [r.index, label, int(res.converged), res.iterations,
                 repr(res.loglik), repr(res.aic), repr(res.bic)]
                + [repr(float(est[n])) if n in est else "" for n in sn_names]
            )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
