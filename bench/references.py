"""Tight-tolerance optima for every benchmark dataset, kept in ``bench/references.json``.

Run from the repository root after a change to the datasets or the data
generator (not after a change to the fitting code, which the references
exist to check):

    python3 bench/references.py

Each dataset is refitted with every model its workload fits, at
``tol=1e-9`` and at most 5000 EM iterations, without standard errors.  The
file stores, per dataset, its order-independent fingerprint and, per model,
the log-likelihood reached, the iterations used, the final lambda, whether
the refit converged and whether it ended on the boundary (``1 - |delta| <
1e-8``: lambda ran off towards infinity, where the lambda derivatives
vanish and EM can "converge").  A refit that did not converge or ended on
the boundary has no interior optimum: its fit counts as failed in every
benchmark run and stays out of ``loglik_gap``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

import run

TOL = 1e-9
MAX_ITER = 5000
BOUNDARY = 1e-8


def compute(p, workloads, sizes: run.Sizes = run.FULL, max_iter: int = MAX_ITER, log=None) -> dict:
    """Reference entries for every dataset of the given workloads."""
    from sncross.skewnormal import delta_of_lambda

    warnings.simplefilter("ignore")
    table = {}
    for workload in workloads:
        for name, config, r, models in run.dataset_specs(p, workload, sizes):
            data = p.simulate.generate_dataset(config, r)
            fits = {}
            for model in models:
                start = time.perf_counter()
                res = p.em.fit(data, model, tol=TOL, max_iter=max_iter, compute_se=False)
                lam = res.theta.lam
                fits[model.value] = {
                    "loglik": res.loglik, "iterations": res.iterations, "converged": res.converged,
                    "lambda": lam, "boundary": bool(1.0 - abs(delta_of_lambda(lam)) < BOUNDARY),
                }
                if log:
                    log(f"{name}:{model.value} {res.iterations} iterations, converged {res.converged}, "
                        f"loglik {res.loglik!r}, {time.perf_counter() - start:.1f} s")
            table[name] = {"fingerprint": run.fingerprint(p, data), "fits": fits}
    return table


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    table = compute(run.load_program(), run.WORKLOADS, log=lambda line: print(line, file=sys.stderr, flush=True))
    payload = {"tol": TOL, "max_iter": MAX_ITER, "boundary": BOUNDARY, "datasets": dict(sorted(table.items()))}
    run.REFERENCES.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
