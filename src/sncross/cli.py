"""Command-line interface: fit, simulate, diagnose.

Exit codes: 0 on success, 2 on input/data errors, 3 when every requested
fit failed to converge.  All commands are deterministic for fixed flags;
randomness enters only through --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .design import TrialData, fixed_effect_index
from .diagnostics import gof_report, marginal_loglik, plot_data_rows, write_plot_csv
from .em import DegenerateResponseError, FitResult, RankDeficiencyError, Scenario, ThetaState, fit
from .io import DataFormatError, read_long_csv
from .simulate import (
    SimConfig,
    aggregate,
    run_replicates,
    write_replicates_csv,
    write_summary_csv,
)
from .skewnormal import delta_of_lambda

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3

_SCENARIOS = {
    "normal": Scenario.NORMAL,
    "error-sn": Scenario.ERROR_SN,
    "effect-sn": Scenario.EFFECT_SN,
}


def _result_payload(result: FitResult, scenario_name: str) -> dict:
    theta = result.theta
    estimates = dict(zip(result.param_names, map(float, result.estimates)))
    # a NaN SE (singular information) is written as null: bare NaN is not JSON
    ses = (
        {
            name: float(v) if np.isfinite(v) else None
            for name, v in zip(result.param_names, result.se)
        }
        if result.se is not None
        else None
    )
    payload = {
        "scenario": scenario_name,
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "loglik": float(result.loglik),
        "aic": float(result.aic),
        "bic": float(result.bic),
        "n_free_parameters": int(result.n_free),
        "n_obs": int(result.n_obs),
        "estimates": estimates,
        "se": ses,
        "intercept_raw": float(theta.beta[0]),
        "intercept_corrected": float(result.corrected_intercept),
        "delta": float(delta_of_lambda(theta.lam)),
        "mean_offset": float(result.corrected_intercept - theta.beta[0]),
        "lambda_singularity_warning": bool(result.lambda_warning),
    }
    return payload


def _write_json(path: Path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def cmd_fit(args) -> int:
    try:
        data = read_long_csv(args.data)
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wanted = list(_SCENARIOS) if args.scenario == "all" else [args.scenario]
    results = {}
    for name in wanted:
        try:
            results[name] = fit(
                data, _SCENARIOS[name], tol=args.tol, max_iter=args.max_iter
            )
        except (RankDeficiencyError, DegenerateResponseError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    for name, result in results.items():
        tag = name.replace("-", "_")
        _write_json(out_dir / f"fit_{tag}.json", _result_payload(result, name))
        write_plot_csv(out_dir / f"diag_{tag}.csv", plot_data_rows(result.theta, data))
    if args.scenario == "all":
        print(f"{'case':<12}{'loglik':>12}{'AIC':>12}{'BIC':>12}{'iters':>7}  converged")
        for name in wanted:
            r = results[name]
            print(
                f"{name:<12}{r.loglik:>12.4f}{r.aic:>12.4f}{r.bic:>12.4f}"
                f"{r.iterations:>7}  {r.converged}"
            )
        best = min(wanted, key=lambda nm: results[nm].aic)
        print(f"best by AIC: {best}")
    else:
        r = results[args.scenario]
        print(
            f"{args.scenario}: loglik={r.loglik:.4f} aic={r.aic:.4f} "
            f"bic={r.bic:.4f} iterations={r.iterations} converged={r.converged}"
        )
    if not any(r.converged for r in results.values()):
        print("error: no fit converged", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_simulate(args) -> int:
    name = args.scenario
    if name not in ("error-sn", "effect-sn"):
        print(f"error: simulate needs --scenario error-sn or effect-sn, got {name!r}",
              file=sys.stderr)
        return EXIT_INPUT
    try:
        config = SimConfig(
            scenario=_SCENARIOS[name],
            n_per_seq=args.n,
            replicates=args.reps,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = run_replicates(config, workers=args.workers)
    write_replicates_csv(out_dir / "mc_replicates.csv", config, results)
    try:
        summary = aggregate(config, results)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    write_summary_csv(out_dir / "mc_summary.csv", summary)
    print(
        f"{summary.replicates_converged}/{summary.replicates_requested} replicates "
        f"converged; SN selected by AIC in {100 * summary.sn_selected_rate:.1f}%"
    )
    return EXIT_OK


def cmd_diagnose(args) -> int:
    try:
        data = read_long_csv(args.data)
        payload = json.loads(Path(args.fit).read_text(encoding="utf-8"))
    except (DataFormatError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        theta = _theta_from_payload(payload, data)
    except (KeyError, ValueError) as exc:
        print(f"error: fit file does not match the data: {exc}", file=sys.stderr)
        return EXIT_INPUT
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = gof_report(theta, data)
    _write_json(
        out_dir / "gof.json",
        {
            "df": int(report.df),
            "n_subjects": int(report.distances.size),
            "ks_statistic": float(report.ks_statistic),
            "ks_pvalue": float(report.ks_pvalue),
            "loglik": float(marginal_loglik(theta, data)),
        },
    )
    write_plot_csv(out_dir / "gof_plots.csv", plot_data_rows(theta, data))
    print(
        f"KS statistic {report.ks_statistic:.4f}, p-value {report.ks_pvalue:.4f} "
        f"against chi-square({report.df})"
    )
    return EXIT_OK


def _theta_from_payload(payload: dict, data: TrialData) -> ThetaState:
    scenario = _SCENARIOS[payload["scenario"]]
    estimates = payload["estimates"]
    names = list(fixed_effect_index(data.layout))
    stored = [n for n in estimates if n not in ("sigma_e2", "sigma_s2", "lambda")]
    if sorted(stored) != sorted(names):
        raise ValueError(
            f"fit carries fixed effects {sorted(stored)} but the data needs {sorted(names)}"
        )
    beta = np.array([float(estimates[n]) for n in names])
    lam = float(estimates.get("lambda", 0.0))
    return ThetaState(
        beta=beta,
        sigma_e2=float(estimates["sigma_e2"]),
        sigma_s2=float(estimates["sigma_s2"]),
        lam=lam,
        scenario=scenario,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sncross",
        description="Skew-normal mixed models for multivariate crossover trials",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one scenario (or all three) to a dataset")
    p_fit.add_argument("--data", required=True, help="long-format CSV")
    p_fit.add_argument(
        "--scenario", default="all", choices=[*_SCENARIOS, "all"],
        help="model to fit (default: all)",
    )
    p_fit.add_argument("--tol", type=float, default=5e-3, help="convergence tolerance")
    p_fit.add_argument("--max-iter", type=int, default=500, help="EM iteration cap")
    p_fit.add_argument("--out-dir", default=".", help="where to write JSON/CSV outputs")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_sim.add_argument("--scenario", required=True, choices=["error-sn", "effect-sn"])
    p_sim.add_argument("--n", type=int, default=30, help="subjects per sequence")
    p_sim.add_argument("--reps", type=int, default=50, help="Monte Carlo replicates")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--out-dir", default=".")
    p_sim.set_defaults(func=cmd_simulate)

    p_diag = sub.add_parser("diagnose", help="goodness-of-fit for a stored fit")
    p_diag.add_argument("--fit", required=True, help="fit JSON from the fit command")
    p_diag.add_argument("--data", required=True, help="the dataset the fit used")
    p_diag.add_argument("--out-dir", default=".")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
