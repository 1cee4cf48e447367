"""Vectorised data generation and assembly against the per-subject loop.

The oracle functions below are frozen copies of ``simulate_subjects`` and
``assemble_trial`` as they were written subject by subject: one RNG call
per draw and one ``build_design`` per subject.  The package draws a whole
dataset at once and builds one design per (sequence, covariate values)
pattern.  Both must give bit-identical datasets.
"""

import csv
from dataclasses import replace

import numpy as np
import pytest

from sncross import (
    CrossoverLayout,
    RngStream,
    Scenario,
    TrialData,
    assemble_trial,
    build_design,
    covariate_w,
    default_true_theta,
    read_long_csv,
    simulate_subjects,
)
from sncross import io as sn_io
from sncross.simulate import default_layout
from sncross.skewnormal import (
    SnRestrictedMultivariate,
    SnUnivariate,
    sn_sample,
    sn_sample_vector,
)

FIELDS = ("y", "X", "sequences", "subjects", "covariate_values")


# ---------------------------------------------------------------------------
# oracle: the per-subject loop
# ---------------------------------------------------------------------------


def oracle_simulate_subjects(layout, theta, rng):
    pm = layout.pm
    y_by_subject = {}
    cov_by_subject = {}
    for i in range(1, layout.n_sequences + 1):
        n_i = layout.n_per_seq[i - 1]
        for j in range(1, n_i + 1):
            cvals = {}
            if "w" in layout.covariates:
                cvals["w"] = float(covariate_w(n_i, j))
            for name in layout.covariates:
                if name not in cvals:
                    cvals[name] = 0.0
            X = build_design(layout, i, j, cvals).X
            mean = X @ theta.beta
            if theta.scenario is Scenario.ERROR_SN:
                b = np.sqrt(theta.sigma_s2) * rng.normal()
                e = sn_sample_vector(
                    SnRestrictedMultivariate(np.zeros(pm), theta.sigma_e2, theta.lam), rng
                )
            elif theta.scenario is Scenario.EFFECT_SN:
                b = sn_sample(SnUnivariate(0.0, theta.sigma_s2, theta.lam), rng)
                e = np.sqrt(theta.sigma_e2) * rng.normal(pm)
            else:
                b = np.sqrt(theta.sigma_s2) * rng.normal()
                e = np.sqrt(theta.sigma_e2) * rng.normal(pm)
            y_by_subject[(i, j)] = mean + b + e
            cov_by_subject[(i, j)] = cvals
    return oracle_assemble_trial(layout, y_by_subject, cov_by_subject)


def oracle_assemble_trial(layout, y_by_subject, covariates_by_subject=None):
    covariates_by_subject = covariates_by_subject or {}
    keys = sorted(y_by_subject)
    ys, Xs, seqs, subs, covs = [], [], [], [], []
    for i, j in keys:
        vec = np.asarray(y_by_subject[(i, j)], dtype=float)
        if vec.shape != (layout.pm,):
            raise ValueError(f"subject ({i},{j}) vector has length {vec.size}, need {layout.pm}")
        cvals = covariates_by_subject.get((i, j), {})
        pair = build_design(layout, i, j, cvals)
        ys.append(vec)
        Xs.append(pair.X)
        seqs.append(i)
        subs.append(j)
        covs.append([float(cvals[name]) for name in layout.covariates])
    return TrialData(
        layout=layout,
        y=np.array(ys),
        X=np.array(Xs),
        sequences=np.array(seqs, dtype=int),
        subjects=np.array(subs, dtype=int),
        covariate_values=np.array(covs) if layout.covariates else np.zeros((len(keys), 0)),
    )


def assert_identical(got, want):
    assert got.layout == want.layout
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def _theta(scenario):
    if scenario is Scenario.NORMAL:
        return replace(default_true_theta(Scenario.ERROR_SN), lam=0.0, scenario=scenario)
    return default_true_theta(scenario)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
@pytest.mark.parametrize("n_per_seq", [30, 50, 7])  # the three covariate_w cut rules
def test_simulate_subjects_matches_per_subject_loop(scenario, n_per_seq):
    layout = default_layout(n_per_seq)
    for seed, stream in ((0, 0), (20260808, 3)):
        got = simulate_subjects(layout, _theta(scenario), RngStream(seed, stream))
        want = oracle_simulate_subjects(layout, _theta(scenario), RngStream(seed, stream))
        assert_identical(got, want)


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_layout_without_covariates(scenario):
    layout = CrossoverLayout((4, 5), ((1, 2), (2, 1)), 2, 3)
    theta = replace(_theta(scenario), beta=np.array([1.0, -0.5, 0.7, 2.0, 0.3]))
    got = simulate_subjects(layout, theta, RngStream(11, 2))
    want = oracle_simulate_subjects(layout, theta, RngStream(11, 2))
    assert got.covariate_values.shape == (9, 0)
    assert_identical(got, want)


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_layout_with_extra_covariate(scenario):
    layout = replace(default_layout(12), covariates=("w", "age"))
    theta = replace(_theta(scenario), beta=np.append(_theta(scenario).beta, 0.25))
    got = simulate_subjects(layout, theta, RngStream(5, 1))
    want = oracle_simulate_subjects(layout, theta, RngStream(5, 1))
    np.testing.assert_array_equal(got.covariate_values[:, 1], 0.0)
    assert_identical(got, want)


def test_stream_left_where_the_loop_leaves_it():
    layout = default_layout(7)
    for scenario in Scenario:
        rng, oracle_rng = RngStream(3, 0), RngStream(3, 0)
        simulate_subjects(layout, _theta(scenario), rng)
        oracle_simulate_subjects(layout, _theta(scenario), oracle_rng)
        assert rng.normal() == oracle_rng.normal()


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_read_long_csv_with_continuous_covariate(tmp_path, monkeypatch):
    # every subject has its own dose, so every subject is its own pattern
    layout = CrossoverLayout((5, 4, 6), ((1, 2, 3), (2, 3, 1), (3, 1, 2)), 3, 2)
    rng = RngStream(9, 0)
    path = tmp_path / "dose.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(sn_io.REQUIRED_COLUMNS) + ["dose", "site"])
        for i, n_i in enumerate(layout.n_per_seq, 1):
            for j in range(1, n_i + 1):
                dose, site = repr(float(rng.normal())), (i + j) % 2
                for u in range(1, 4):
                    for k in range(1, 3):
                        value = repr(float(rng.normal()))
                        writer.writerow([i, j, u, layout.assignment[i - 1][u - 1], k, value, dose, site])
    got = read_long_csv(path)
    monkeypatch.setattr(sn_io, "assemble_trial", oracle_assemble_trial)
    want = read_long_csv(path)
    assert len(np.unique(got.covariate_values[:, 0])) == got.n_subjects
    assert_identical(got, want)


def test_assemble_trial_shares_designs_but_copies_rows():
    layout = default_layout(6)
    rng = RngStream(1, 0)
    y = {(i, j): rng.normal(layout.pm) for i in (1, 2, 3) for j in range(1, 7)}
    covs = {(i, j): {"w": float(j % 2)} for i, j in y}
    data = assemble_trial(layout, y, covs)
    assert_identical(data, oracle_assemble_trial(layout, y, covs))
    data.X[0, 0, 0] = 5.0  # one subject's design is its own array
    assert data.X[1, 0, 0] == 1.0


@pytest.mark.parametrize("key", [(1, 6), (1, 0), (3, 1), (0, 1)])
def test_assemble_trial_out_of_range_key(twobytwo_layout, key):
    # (1, 6) and (1, 0) share their pattern with (1, 1): the range check must not rely on build_design
    y = {(1, 1): np.zeros(4), (2, 1): np.zeros(4), key: np.zeros(4)}
    with pytest.raises(IndexError):
        oracle_assemble_trial(twobytwo_layout, y)
    with pytest.raises(IndexError):
        assemble_trial(twobytwo_layout, y)


def test_assemble_trial_covariate_errors_for_any_subject():
    layout = default_layout(4)
    y = {(1, j): np.zeros(layout.pm) for j in (1, 2)}
    for bad in ({}, {"w": 0.0, "age": 1.0}):
        covs = {(1, 1): {"w": 0.0}, (1, 2): bad}
        with pytest.raises(KeyError):
            assemble_trial(layout, y, covs)


def test_assemble_trial_keeps_signed_zero_covariate():
    layout = replace(default_layout(2), covariates=("age",))
    y = {(i, j): np.zeros(layout.pm) for i in (1, 2, 3) for j in (1, 2)}
    covs = {(i, j): {"age": 0.0 if j == 1 else -0.0} for i, j in y}
    data = assemble_trial(layout, y, covs)
    assert_identical(data, oracle_assemble_trial(layout, y, covs))
    # array_equal counts -0.0 == 0.0, so check the sign bits themselves
    assert list(np.signbit(data.X[:, -1, -1])) == [False, True] * 3
    assert list(np.signbit(data.covariate_values[:, 0])) == [False, True] * 3
