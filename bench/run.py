"""sncross benchmark: the desk Monte Carlo study, a large trial and the CLI path.

Run from the repository root:

    python3 bench/run.py --workload desk-mc --seed 1 --seconds 30 --trace 0

The package is treated as a black box and imported from ``src/``.  One run
sets the workload up, then repeats the workload's pass -- a fixed amount of
work on fixed datasets -- until ``--seconds`` of pass time is used up, in
one process with ``workers=1``, and sets up again after every pass
(``setup_s`` is the median of the set-ups).  ``--seed``
orders the work and the subjects: it permutes the order of the studies,
fits and files in a pass, the subject rows of the large trials and the rows
of the CLI's CSV files, none of which changes a maximum-likelihood estimate.
The datasets themselves are fixed so that iteration counts, failures and
log-likelihood gaps repeat exactly and can be checked against the
tight-tolerance optima in ``bench/references.json``.  Times are calibrated
against a fixed numpy kernel timed between operations (see ``Calibrator``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run (see ``bench/spans.py``).  The lines before it are a
readable report and the machine/library fingerprint.  A set-up failure
(no package, a dataset that does not match its reference) exits 2 without
a result.  ``bench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import SimpleNamespace

from spans import SPAN_NAMES, Tracer, patch, unpatch

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"
WORK_DIR = ROOT / ".bench_work"

WORKLOADS = ("desk-mc", "large-trial", "cli-fit-all")
DESK_SEED = 20260808  # the acceptance suite's Monte Carlo seed
ASCENT_RTOL = 1e-8  # allowed relative drop between successive trajectory entries
LOGLIK_SLACK = 1e-6  # allowed excess of a reported log-likelihood over its reference
FIT_TAGS = ("normal", "error_sn", "effect_sn")  # CLI output names of the three models
CALIBRATION_S = 0.0045  # the calibration kernel's time on the reference machine (bench/README.md)
COVERED_FLOOR = 0.9  # least share of fit() time inside the wrapped em.* functions (traced runs)

END_TO_END = {  # name: unit
    "wall_s": "s",
    "fit_s_p50": "s",
    "em_iterations": "count",
    "fits_ok_ratio": "ratio",
    "loglik_gap": "nats/fit",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Layers that every workload exercises report calls and self time; the
# CLI-only layers report calls (their self times are in the readable report).
TIMED_LAYERS = (
    "em.fit", "em.initialize", "em.e_step", "em.update_beta", "em.nr_step",
    "em.q_value", "em.q_gradient", "em.q_hessian", "em.marginal_loglik",
    "em.standard_errors", "simulate.generate_dataset", "skewnormal.sn_sample",
    "skewnormal.sn_sample_vector", "design.build_design",
)
COUNTED_LAYERS = (
    "io.write_long_csv", "io.read_long_csv", "diagnostics.gof_report",
    "diagnostics.plot_data_rows", "diagnostics.write_plot_csv", "cli.cmd_fit",
    "cli.cmd_diagnose",
)
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in TIMED_LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{name}.calls": "count" for name in COUNTED_LAYERS},
    "em.nr_step.evals_per_step": "calls/step",
    "em.nr_step.stalls": "count",
    "em.iterations_per_fit": "iters/fit",
    "em.fits_at_max_iter": "count",
    "em.fit.covered_share": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The run cannot be set up; it prints no result and exits 2."""


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the three workloads and the repetition counts of a run."""

    desk_replicates: int = 10  # per skew scenario; the full desk study has 50
    desk_n_per_seq: int = 30
    large_n_per_seq: int = 1000
    cli_files: int = 6
    cli_n_per_seq: int = 30
    setup_repeats: int = 5  # least number of set-ups in an untraced run
    min_passes: int = 3


FULL = Sizes()


# ---------------------------------------------------------------------------
# Program, datasets and references
# ---------------------------------------------------------------------------


def load_program() -> SimpleNamespace:
    """Import sncross from the checkout's ``src/`` (never from site-packages).

    BLAS runs one thread unless the caller's environment says otherwise: at
    the package's pm x pm (12 x 12) matrix sizes a second OpenBLAS thread
    adds CPU time but no speed, and on a small machine it competes with the
    process it should serve.
    """
    src = ROOT / "src"
    if not (src / "sncross" / "__init__.py").is_file():
        raise BenchError(f"no sncross package under {src}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import sncross
    from sncross import cli, em, simulate
    from sncross import io as sn_io

    if not Path(sncross.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"imported sncross from {sncross.__file__}, not from {src}")
    return SimpleNamespace(np=numpy, scipy=scipy, em=em, simulate=simulate, cli=cli, io=sn_io)


def dataset_specs(p, workload: str, sizes: Sizes) -> list[tuple]:
    """(name, SimConfig, replicate index, models fitted) for each dataset of a workload."""
    S, SimConfig = p.em.Scenario, p.simulate.SimConfig
    skew = (S.ERROR_SN, S.EFFECT_SN)
    if workload == "desk-mc":
        return [
            (f"desk-mc/{s.value}/r{r:02d}",
             SimConfig(s, n_per_seq=sizes.desk_n_per_seq, replicates=sizes.desk_replicates, seed=DESK_SEED),
             r, (s, S.NORMAL))
            for s in skew for r in range(sizes.desk_replicates)
        ]
    if workload == "large-trial":
        return [
            (f"large-trial/{s.value}",
             SimConfig(s, n_per_seq=sizes.large_n_per_seq, replicates=1, seed=DESK_SEED),
             0, (s, S.NORMAL))
            for s in skew
        ]
    # The replicates after the desk study's, alternating the skew truth.
    specs = []
    for k in range(sizes.cli_files):
        s, r = skew[k % 2], p.simulate.DEFAULT_REPLICATES + k // 2
        specs.append((f"cli-fit-all/{s.value}/r{r:02d}",
                      SimConfig(s, n_per_seq=sizes.cli_n_per_seq, seed=DESK_SEED),
                      r, (S.NORMAL, S.ERROR_SN, S.EFFECT_SN)))
    return specs


def fingerprint(p, data) -> str:
    """Digest of the responses and designs, independent of the subjects' order."""
    rows = p.np.concatenate([data.y, data.X.reshape(data.n_subjects, -1)], axis=1)
    digest = hashlib.sha256(f"{data.layout.pm}x{data.layout.n_fixed}".encode())
    for row in sorted(r.tobytes() for r in p.np.ascontiguousarray(rows, dtype=float)):
        digest.update(row)
    return digest.hexdigest()[:24]


def load_references(path: Path, names) -> dict:
    """References for the named datasets; a missing one is a set-up failure."""
    try:
        table = json.loads(Path(path).read_text(encoding="utf-8"))["datasets"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read references {path}: {exc}") from None
    missing = [n for n in names if n not in table]
    if missing:
        raise BenchError(f"no reference for {missing}; run bench/references.py")
    return {n: table[n] for n in names}


def shuffle_subjects(p, data, rng):
    """The same trial with its subject rows in a random order."""
    perm = rng.permutation(data.n_subjects)
    return p.simulate.TrialData(
        layout=data.layout, y=data.y[perm], X=data.X[perm],
        sequences=data.sequences[perm], subjects=data.subjects[perm],
        covariate_values=data.covariate_values[perm],
    )


# ---------------------------------------------------------------------------
# Calibrated clock and fit recording
# ---------------------------------------------------------------------------


class Calibrator:
    """A work clock, calibrated by a fixed numpy kernel timed every 0.2 s.

    On a shared machine one core's speed drifts by tens of percent within
    seconds: on the reference machine a 35 ms fit took 18-36 ms from one
    2 s window to the next, while its ratio to this kernel stayed between
    4.4 and 5.8.  The kernel mixes what sncross spends its time on: 12 x 12
    Cholesky factorizations, a per-subject quadratic-form ``einsum`` and
    small matrix products, each a call with Python overhead.

    While the calibrator is entered, ``SIGALRM`` runs the kernel every
    ``INTERVAL_S`` seconds.  ``now()`` is a clock that stands still while
    the kernel runs, so every interval timed with it (operations, passes,
    spans) excludes the kernel.  ``calibrate(t0, t1)`` converts such an
    interval to the time it would take on a machine where the kernel takes
    ``CALIBRATION_S``, using the kernel samples taken during it and on
    either side of it.
    """

    INTERVAL_S = 0.2
    WINDOW_S = 1.0

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self._np = np
        self._m = rng.standard_normal((12, 12))
        self._s = self._m @ self._m.T + 12.0 * np.eye(12)
        self._r = rng.standard_normal((90, 12))
        self.stamps: list[float] = []  # work-clock time of each sample
        self.samples: list[float] = []  # kernel time of each sample
        self.spent = 0.0
        self._busy = False
        self._previous = None
        self.sample()

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        np, m, s, r = self._np, self._m, self._s, self._r
        start = time.perf_counter()
        for i in range(120):  # the first 20 refill the caches the interrupted work evicted
            if i == 20:
                timed = time.perf_counter()
            np.linalg.cholesky(s)
            np.einsum("np,pq,nq->n", r, s, r)
            (r @ m).sum()
        end = time.perf_counter()
        self.stamps.append(start - self.spent)
        self.samples.append(end - timed)
        self.spent += end - start
        self._busy = False

    def now(self) -> float:
        """Seconds on a clock that stops while the kernel runs."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:
                return t - spent

    def calibrate(self, t0: float, t1: float) -> float:
        """The work-clock interval [t0, t1] in seconds of the reference machine.

        Uses the median kernel time over the interval widened by
        ``WINDOW_S`` on each side (at least the nearest sample on each side):
        wide enough to smooth single samples, narrow enough to follow the
        machine's speed changes, which last seconds.
        """
        i0 = max(min(bisect.bisect_left(self.stamps, t0 - self.WINDOW_S),
                     bisect.bisect_right(self.stamps, t0) - 1), 0)
        i1 = max(bisect.bisect_right(self.stamps, t1 + self.WINDOW_S), bisect.bisect_left(self.stamps, t1) + 1)
        return (t1 - t0) * CALIBRATION_S / statistics.median(self.samples[i0:i1])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()  # closes the last interval


@dataclass
class FitRecord:
    data: object
    scenario: object
    t0: float  # work clock
    t1: float
    result: object = None
    error: BaseException | None = None


class FitLog:
    """Times every ``fit()`` call through the bindings the workloads use."""

    BINDINGS = (("sncross.em", "fit"), ("sncross.simulate", "fit"), ("sncross.cli", "fit"))

    def __init__(self, clock):
        self.records: list[FitRecord] = []
        self.clock = clock

    def wrap(self, fn):
        records, clock = self.records, self.clock

        def recorded(data, scenario, *args, **kwargs):
            t0 = clock()
            try:
                result = fn(data, scenario, *args, **kwargs)
            except Exception as exc:
                records.append(FitRecord(data, scenario, t0, clock(), error=exc))
                raise
            records.append(FitRecord(data, scenario, t0, clock(), result))
            return result

        return recorded

    def take(self) -> list[FitRecord]:
        out = list(self.records)
        self.records.clear()
        return out


# ---------------------------------------------------------------------------
# Workloads: set-up and one pass
# ---------------------------------------------------------------------------


@dataclass
class Plan:
    """A set-up workload.

    ``run()`` performs one pass and returns (operations, failed, problems),
    where operations are the calls other than ``fit()``: ``aggregate`` for
    desk-mc and the CLI commands for cli-fit-all, which count the fits they
    make themselves.
    """

    run: object
    names: dict  # fingerprint -> dataset name
    files: list = field(default_factory=list)  # cli-fit-all: (dataset name, csv, output dir)


def set_up(p, workload: str, sizes: Sizes, seed: int, refs: dict, work: Path) -> Plan:
    rng = p.np.random.default_rng(seed)
    specs = dataset_specs(p, workload, sizes)
    names = {refs[name]["fingerprint"]: name for name, *_ in specs}
    if workload == "desk-mc":
        configs = list({spec[1].scenario: spec[1] for spec in specs}.values())
        configs = [configs[i] for i in rng.permutation(len(configs))]
        return Plan(lambda: desk_pass(p, configs), names)

    datasets = []
    for name, config, r, models in specs:
        data = p.simulate.generate_dataset(config, r)
        if fingerprint(p, data) != refs[name]["fingerprint"]:
            raise BenchError(f"dataset {name} does not match its reference fingerprint")
        datasets.append((name, shuffle_subjects(p, data, rng), models))
    if workload == "large-trial":
        jobs = [(data, model) for _, data, models in datasets for model in models]
        jobs = [jobs[i] for i in rng.permutation(len(jobs))]
        return Plan(lambda: large_pass(p, jobs), names)

    files = []
    for i in rng.permutation(len(datasets)):
        name, data, _ = datasets[i]
        csv_path = work / f"trial_{i}.csv"
        p.io.write_long_csv(csv_path, data)
        files.append((name, csv_path, work / f"out_{i}"))
    return Plan(lambda: cli_pass(p, files), names, files)


def desk_pass(p, configs):
    ops = failed = 0
    problems = []
    for config in configs:
        try:
            results = p.simulate.run_replicates(config, workers=1)
        except Exception as exc:  # the fit that raised is counted by the FitLog
            problems.append(f"run_replicates({config.scenario.value}) raised {exc!r}")
            continue
        ops += 1
        try:
            p.simulate.aggregate(config, results)
        except Exception as exc:
            failed += 1
            problems.append(f"aggregate({config.scenario.value}) raised {exc!r}")
    return ops, failed, problems


def large_pass(p, jobs):
    for data, model in jobs:
        try:
            p.em.fit(data, model)
        except Exception:
            pass  # counted by the FitLog
    return 0, 0, []


def cli_pass(p, files):
    ops = failed = 0
    problems = []
    commands = []
    for _, csv_path, out in files:
        commands.append(["fit", "--data", str(csv_path), "--scenario", "all", "--out-dir", str(out)])
        commands += [
            ["diagnose", "--fit", str(out / f"fit_{tag}.json"), "--data", str(csv_path),
             "--out-dir", str(out / f"gof_{tag}")]
            for tag in FIT_TAGS
        ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            ops += 1
            try:
                code = p.cli.main(argv)
            except Exception as exc:
                code = repr(exc)
            if code != 0:
                failed += 1
                problems.append(f"sncross {' '.join(argv[:3])} returned {code}")
    return ops, failed, problems


# ---------------------------------------------------------------------------
# Outcome of one pass
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """One fit's result as the workload reports it."""

    key: str  # "<dataset>:<model>"
    iterations: int
    converged: bool
    loglik: float


@dataclass
class PassStats:
    wall: float  # raw seconds, calibration excluded
    calibrated: float
    ops: int
    failed_ops: int
    fit_times: dict  # fit key -> calibrated seconds
    outcomes: list
    problems: list
    layers: dict  # per-layer counts and calibrated times


def check_record(rec: FitRecord, key: str, ref: dict, problems: list) -> None:
    """Output checks on one returned fit."""
    res = rec.result
    traj = res.trajectory
    for a, b in zip(traj, traj[1:]):
        if b < a - ASCENT_RTOL * max(1.0, abs(a)):
            problems.append(f"{key}: log-likelihood fell from {a!r} to {b!r}")
            break
    theta = res.theta
    values = list(theta.beta) + [theta.sigma_e2, theta.sigma_s2, theta.lam, res.loglik]
    if not all(map(math.isfinite, values)):
        problems.append(f"{key}: non-finite estimate or log-likelihood")
    if res.loglik > ref["loglik"] + LOGLIK_SLACK:
        problems.append(f"{key}: log-likelihood {res.loglik!r} exceeds its reference {ref['loglik']!r}")


def cli_outcomes(plan: Plan, problems: list) -> list[Outcome]:
    """Read the CLI's written fits; check that every promised file exists."""
    outcomes = []
    for name, _, out in plan.files:
        for tag in FIT_TAGS:
            paths = (out / f"fit_{tag}.json", out / f"diag_{tag}.csv", out / f"gof_{tag}" / "gof.json")
            absent = [str(q.relative_to(out)) for q in paths if not q.is_file()]
            if absent:
                problems.append(f"{name}: CLI did not write {absent}")
                continue
            try:
                payload = json.loads(paths[0].read_text(encoding="utf-8"))
                outcomes.append(Outcome(f"{name}:{payload['scenario']}", int(payload["iterations"]),
                                        bool(payload["converged"]), float(payload["loglik"])))
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"{name}: unreadable fit_{tag}.json ({exc!r})")
        shutil.rmtree(out, ignore_errors=True)
    return outcomes


def scale_times(layers: dict, factor: float) -> dict:
    return {k: v * factor if k.endswith("_s") else v for k, v in layers.items()}


def evaluate(p, plan: Plan, refs: dict, cal: Calibrator, t0: float, t1: float,
             ops, records, layers) -> PassStats:
    """Checks and timings of one pass that ran from ``t0`` to ``t1`` on the work clock."""
    n_ops, failed_ops, problems = ops
    if not plan.files:
        n_ops += len(records)
        failed_ops += sum(rec.error is not None for rec in records)
    fit_times, outcomes = {}, []
    fingerprints: dict[int, str] = {}
    for rec in records:
        fp = fingerprints.setdefault(id(rec.data), fingerprint(p, rec.data))
        if fp not in plan.names:
            raise BenchError(f"a {rec.scenario.value} fit ran on a dataset with unknown fingerprint {fp}")
        name = plan.names[fp]
        key = f"{name}:{rec.scenario.value}"
        fit_times[key] = cal.calibrate(rec.t0, rec.t1)
        if rec.error is not None:
            problems.append(f"{key}: fit raised {rec.error!r}")
            outcomes.append(Outcome(key, 0, False, float("nan")))
            continue
        check_record(rec, key, refs[name]["fits"][rec.scenario.value], problems)
        res = rec.result
        outcomes.append(Outcome(key, res.iterations, res.converged, res.loglik))
    if plan.files:
        written = cli_outcomes(plan, problems)
        by_key = {o.key: o for o in outcomes}
        for o in written:
            if o.key not in by_key or by_key[o.key].loglik != o.loglik:
                problems.append(f"{o.key}: written fit differs from the returned one")
        outcomes = written
    expected = {f"{name}:{model}" for name, ref in refs.items() for model in ref["fits"]}
    seen = {o.key for o in outcomes}
    if seen != expected:
        problems.append(f"fits missing from the pass: {sorted(expected - seen)}")
    calibrated = cal.calibrate(t0, t1)
    layers = scale_times(layers, calibrated / (t1 - t0))
    return PassStats(t1 - t0, calibrated, n_ops, failed_ops, fit_times, outcomes, problems, layers)


def interior(ref: dict) -> bool:
    """Whether a tight refit reached an optimum away from the lambda boundary."""
    return ref["converged"] and not ref["boundary"]


def failed_fits(outcomes, refs) -> list[str]:
    """Fits that raised or did not converge, or whose reference has no interior optimum."""
    out = []
    for o in outcomes:
        name, model = o.key.split(":")
        if not (o.converged and interior(refs[name]["fits"][model])):
            out.append(o.key)
    return sorted(out)


def loglik_gaps(outcomes, refs) -> list[float]:
    """Per fit, reference log-likelihood minus the reported one (floored at 0).

    Fits whose reference has no interior optimum are left out.
    """
    gaps = []
    for o in outcomes:
        name, model = o.key.split(":")
        ref = refs[name]["fits"][model]
        if interior(ref) and math.isfinite(o.loglik):
            gaps.append(max(ref["loglik"] - o.loglik, 0.0))
    return gaps


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------


def environment(p, workload: str, seed: int, sizes: Sizes) -> dict:
    """Machine, library and code fingerprint recorded with every result."""
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args],
                                  capture_output=True, text=True, timeout=30).stdout.strip()
        try:
            sha, dirty = git("rev-parse", "HEAD") or "unknown", bool(git("status", "--porcelain"))
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = p.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(), "numpy": p.np.__version__, "scipy": p.scipy.__version__,
        "blas": blas, "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(), "workers": 1,
        "workload": workload, "seed": seed, "sizes": asdict(sizes),
    }


IMPORT_PROBE = "import time; t = time.perf_counter(); import sncross.cli; print(time.perf_counter() - t)"


def import_time() -> float:
    """Seconds a fresh interpreter takes to import the package, as timed by that interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    try:
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        return float(proc.stdout)
    except (OSError, subprocess.SubprocessError, ValueError) as exc:
        raise BenchError(f"importing sncross in a fresh interpreter failed: {exc}") from None


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = FULL, references: Path = REFERENCES) -> dict:
    """One benchmark run; returns the result object plus a ``report`` of readable lines."""
    p = load_program()
    cal = Calibrator(p.np)
    clock = cal.now
    warnings.simplefilter("ignore")
    names = [spec[0] for spec in dataset_specs(p, workload, sizes)]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    fitlog, tracer = FitLog(clock), Tracer(clock)

    def set_up_once():
        """(calibrated seconds, calibration factor, references, plan) of one full set-up."""
        t0 = clock()
        imported = import_time()
        t1 = clock()
        refs = load_references(references, names)
        plan = set_up(p, workload, sizes, seed, refs, work)
        t2 = clock()
        cal.sample()  # closes the interval
        factor = cal.calibrate(t0, t2) / (t2 - t0)
        return (imported + t2 - t1) * factor, factor, refs, plan

    try:
        with cal:
            if trace:
                tracer.install()
            first_setup, factor, refs, plan = set_up_once()
            setup_s = [first_setup]
            setup_layers = scale_times(tracer.take(), factor) if trace else {}
            tracer.uninstall()

            def one_pass(traced: bool) -> PassStats:
                if traced:
                    tracer.install()
                undo = [patch(module, attr, fitlog.wrap) for module, attr in FitLog.BINDINGS]
                try:
                    t0 = clock()
                    ops = plan.run()
                    t1 = clock()
                finally:
                    unpatch(undo)
                    tracer.uninstall()
                cal.sample()  # closes the interval
                layers = tracer.take() if traced else {}
                return evaluate(p, plan, refs, cal, t0, t1, ops, fitlog.take(), layers)

            # A traced run alternates untraced and traced passes; the
            # untraced ones are the baseline of ``trace.overhead_s``.  An
            # untraced run sets up again after every pass (the plan is not
            # used), so that the set-ups ``setup_s`` takes the median of are
            # spread over the run rather than caught in one slow phase of
            # the machine.  ``--seconds`` counts pass time only.
            passes: list[PassStats] = []
            untraced: list[PassStats] = []
            while True:
                if trace:
                    untraced.append(one_pass(False))
                passes.append(one_pass(trace))
                if not trace:
                    setup_s.append(set_up_once()[0])
                elapsed = sum(s.wall for s in passes + untraced)
                if len(passes) >= sizes.min_passes and elapsed * (1 + 1 / len(passes)) > seconds:
                    break
            while not trace and len(setup_s) < sizes.setup_repeats:
                setup_s.append(set_up_once()[0])
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    problems = [f"{kind} {i}: {msg}" for kind, group in (("untraced pass", untraced), ("pass", passes))
                for i, s in enumerate(group) for msg in s.problems]
    first = passes[0]
    signature = [(sorted((o.key, o.iterations, o.converged) for o in s.outcomes)) for s in passes + untraced]
    if any(sig != signature[0] for sig in signature):
        problems.append("iteration counts or convergence differ between passes")
    failures = failed_fits(first.outcomes, refs)
    gaps = loglik_gaps(first.outcomes, refs)
    iterations = sum(o.iterations for o in first.outcomes)
    n_fits = len(first.outcomes)
    failed_ratio = len(failures) / n_fits if n_fits else 1.0
    if not gaps:
        problems.append("no fit returned a log-likelihood to compare with an interior reference")
    keys = sorted(first.fit_times)
    per_fit = [statistics.median(s.fit_times[k] for s in passes if k in s.fit_times) for k in keys]
    all_times = sorted(t for s in passes for t in s.fit_times.values())

    e2e = {
        "wall_s": pass_time(passes),
        "fit_s_p50": central(per_fit) if per_fit else 0.0,
        "em_iterations": iterations,
        "fits_ok_ratio": 1.0 - failed_ratio,
        "loglik_gap": statistics.fmean(gaps) if gaps else 0.0,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    walls = [s.wall for s in passes]
    report = [
        f"workload {workload}  seed {seed}  passes {len(passes)}  trace {int(trace)}",
        f"fits per pass {n_fits} ({len(keys)} distinct), fit() calls in the run {len(all_times)}",
        f"raw pass time: median {statistics.median(walls):.6g} s, min {min(walls):.6g} s, "
        f"max {max(walls):.6g} s; calibrated: median {statistics.median(s.calibrated for s in passes):.6g} s",
        f"calibration kernel: median {1e3 * statistics.median(cal.samples):.4g} ms, "
        f"min {1e3 * min(cal.samples):.4g} ms, max {1e3 * max(cal.samples):.4g} ms, "
        f"{len(cal.samples)} samples; reference {1e3 * CALIBRATION_S:.4g} ms",
        f"set-ups {len(setup_s)}: calibrated " + ", ".join(f"{t:.4g}" for t in setup_s) + " s",
        f"fits_failed_ratio {failed_ratio:.6g} ratio  "
        f"({len(failures)}/{n_fits}: {', '.join(failures) or 'none'})",
    ]
    beyond = len(all_times) // 10
    if beyond >= 10:
        p90 = statistics.quantiles(all_times, n=10, method="inclusive")[-1]
        report.append(f"fit_s_p90 {p90:.6g} s  ({len(all_times)} calls of {len(keys)} distinct fits, "
                      f"{beyond} beyond)")
    else:
        report.append(f"fit_s_p90 not reported: {len(all_times)} fit() calls leave {beyond} beyond it, "
                      "fewer than 10")

    metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    if trace:
        per_layer, layer_report = layer_metrics(passes, setup_layers, untraced, iterations, first.outcomes)
        if per_layer["em.fit.covered_share"] < COVERED_FLOOR:
            problems.append(f"em.fit.covered_share {per_layer['em.fit.covered_share']:.4g} is below "
                            f"{COVERED_FLOOR}: part of fit() runs outside the wrapped em.* functions")
        if any(s.layers.get(k) != first.layers.get(k) for s in passes
               for k in first.layers if k.endswith((".calls", ".line_search_evals", ".stalls"))):
            problems.append("per-layer call counts differ between passes")
        report += ["per-layer (traced; set-up once plus the median pass):"] + layer_report
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        report += [f"{k} {v:.6g} {END_TO_END[k]}" for k, v in e2e.items()]
    report += [f"check failed: {msg}" for msg in problems] or ["checks: all passed"]
    return {
        "correct": not problems,
        "attempted": sum(s.ops for s in passes + untraced),
        "failed": sum(s.failed_ops for s in passes + untraced),
        "metrics": metrics,
        "report": report,
        "environment": environment(p, workload, seed, sizes),
    }


def central(values) -> float:
    """The median, estimated as the mean of the central 20% of the values.

    desk-mc's fit times are bimodal (normal fits about 35 ms, SN fits from
    about 45 ms), so the plain median of its 40 fits sits in the gap between
    the slowest normal fit and the fastest SN fit and jumps whenever their
    order flips.  With four values this is the plain median.
    """
    ordered = sorted(values)
    cut = int(0.4 * len(ordered))
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def pass_time(passes) -> float:
    """Calibrated time of one pass: each fit's median over the passes, plus the rest's median.

    A median per fit discards the passes in which that fit's calibration
    went wrong, which a median over whole passes cannot do.  Fits missing
    from some pass (a failed check) count in the rest.
    """
    keys = set.intersection(*(set(s.fit_times) for s in passes))
    rest = statistics.median(s.calibrated - sum(s.fit_times.values()) for s in passes)
    return rest + sum(statistics.median(s.fit_times[k] for s in passes) for k in keys)


def layer_metrics(passes, setup_layers, untraced, iterations, outcomes):
    """Per-layer metrics: the set-up's spans plus the median pass's."""
    first = passes[0].layers

    def per_pass(key):
        return setup_layers.get(key, 0) + statistics.median(s.layers.get(key, 0) for s in passes)

    out, lines = {}, []
    for name in SPAN_NAMES:
        calls, self_s = int(per_pass(f"{name}.calls")), per_pass(f"{name}.self_s")
        out[f"{name}.calls"], out[f"{name}.self_s"] = calls, self_s
        lines.append(f"  {name:<30}{calls:>10} calls {self_s:>12.6f} s self")
    steps = first.get("em.nr_step.calls", 0)
    out["em.nr_step.evals_per_step"] = first.get("em.nr_step.line_search_evals", 0) / steps if steps else 0.0
    out["em.nr_step.stalls"] = first.get("em.nr_step.stalls", 0)
    out["em.iterations_per_fit"] = iterations / len(outcomes) if outcomes else 0.0
    out["em.fits_at_max_iter"] = sum(not o.converged for o in outcomes)
    out["em.fit.covered_share"] = statistics.median(
        1.0 - s.layers["em.fit.self_s"] / s.layers["em.fit.total_s"] if s.layers.get("em.fit.total_s") else 0.0
        for s in passes)
    traced, plain = pass_time(passes), pass_time(untraced)
    out["trace.overhead_s"] = traced - plain
    lines += [f"  {k} {out[k]:.6g} {PER_LAYER[k]}" for k in (
        "em.nr_step.evals_per_step", "em.nr_step.stalls", "em.iterations_per_fit",
        "em.fits_at_max_iter", "em.fit.covered_share", "trace.overhead_s")]
    lines.append(f"  untraced pass {plain:.6f} s, traced pass {traced:.6f} s ({len(untraced)} of each)")
    return out, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="measurement time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in result.pop("report"):
        print(f"# {line}")
    print("# fingerprint " + json.dumps(result.pop("environment"), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
