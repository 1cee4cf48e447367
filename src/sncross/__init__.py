"""Skew-normal linear mixed models for multivariate crossover trials.

Maximum-likelihood fitting by EM with a closed-form E-step and a
safeguarded Newton-Raphson M-step, for trials where either the random
error vector or the subject random effect is skew normal, plus the
accompanying Monte Carlo study harness and goodness-of-fit diagnostics.
"""

__version__ = "0.1.0"

from .design import (
    CrossoverLayout,
    DesignPair,
    TrialData,
    assemble_trial,
    build_design,
    covariate_w,
    fixed_effect_index,
    response_order,
)
from .diagnostics import (
    GofReport,
    aic_bic,
    chi2_cdf,
    gof_report,
    healy_points,
    ks_test,
    mahalanobis,
    standardized_residuals,
)
from .em import (
    DegenerateResponseError,
    EStepCache,
    FitResult,
    Kernel,
    RankDeficiencyError,
    Scenario,
    ThetaState,
    assemble,
    conditional_t_moments,
    corrected_intercept,
    e_step,
    fit,
    initialize,
    kernel,
    marginal_loglik,
    marginal_score,
    nr_step,
    observed_information,
    q_gradient,
    q_hessian,
    q_value,
    standard_errors,
    update_beta,
)
from .io import DataFormatError, read_long_csv, write_long_csv
from .simulate import (
    McSummary,
    SimConfig,
    default_layout,
    default_true_theta,
    generate_dataset,
    run_monte_carlo,
    selection_rate,
    simulate_subjects,
)
from .skewnormal import (
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

__all__ = [name for name in dir() if not name.startswith("_")]
