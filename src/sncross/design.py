"""Crossover-trial geometry and design matrices.

Builds the response-vector ordering and the fixed/random design matrices
for an s-sequence, p-period, t-treatment trial with m responses measured
per period, plus optional subject-level covariate columns.  Per subject
the response vector has length p*m, stacked period-major (all m responses
of period 1, then period 2, ...).

The fixed-effects matrix X carries, in order: an intercept column, p-1
period indicators, t-1 treatment indicators driven by the sequence's
assignment row, m-1 response indicators, and one constant column per
covariate.  Level 1 of period, treatment and response is the reference
level and is dropped.  The random-effect design is the all-ones column
(random subject intercept), implicit in the engine's covariance structure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class CrossoverLayout:
    """Trial geometry: who gets what, when, and how many responses.

    Attributes:
        n_per_seq: subjects in each sequence (length s).
        assignment: s x p table of treatment labels in 1..n_treatments;
            row i gives the treatment administered in each period of
            sequence i.
        n_treatments: number of distinct treatments t.
        n_responses: responses measured per period (m).
        covariates: names of subject-level covariates, possibly empty.
    """

    n_per_seq: tuple[int, ...]
    assignment: tuple[tuple[int, ...], ...]
    n_treatments: int
    n_responses: int
    covariates: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n_per_seq", tuple(int(v) for v in self.n_per_seq))
        object.__setattr__(
            self, "assignment", tuple(tuple(int(v) for v in row) for row in self.assignment)
        )
        object.__setattr__(self, "covariates", tuple(self.covariates))
        if not self.n_per_seq or any(v <= 0 for v in self.n_per_seq):
            raise ValueError("n_per_seq must be positive integers")
        if len(self.assignment) != len(self.n_per_seq):
            raise ValueError("assignment needs one row per sequence")
        p = len(self.assignment[0])
        if p == 0 or any(len(row) != p for row in self.assignment):
            raise ValueError("assignment rows must share a positive period count")
        if self.n_treatments <= 0 or self.n_responses <= 0:
            raise ValueError("n_treatments and n_responses must be positive")
        for row in self.assignment:
            for lab in row:
                if not 1 <= lab <= self.n_treatments:
                    raise ValueError(f"treatment label {lab} outside 1..{self.n_treatments}")
        # Crossover convention: with p <= t each row should use a treatment at
        # most once.  Irregular tables are allowed (dropouts happen) but flagged.
        if p <= self.n_treatments and self.has_repeated_treatments:
            warnings.warn(
                "assignment repeats a treatment within a sequence; "
                "accepting non-Latin crossover table",
                stacklevel=2,
            )

    @property
    def n_sequences(self) -> int:
        return len(self.n_per_seq)

    @property
    def n_periods(self) -> int:
        return len(self.assignment[0])

    @property
    def n_subjects(self) -> int:
        return sum(self.n_per_seq)

    @property
    def pm(self) -> int:
        """Observations per subject."""
        return self.n_periods * self.n_responses

    @property
    def n_fixed(self) -> int:
        """Columns of X: p + t + m - 2 plus one per covariate."""
        return (
            self.n_periods
            + self.n_treatments
            + self.n_responses
            - 2
            + len(self.covariates)
        )

    @property
    def has_repeated_treatments(self) -> bool:
        return any(len(set(row)) < len(row) for row in self.assignment)


@dataclass(frozen=True)
class DesignPair:
    """Fixed-effects matrix X (pm x q) of one subject."""

    X: np.ndarray


def response_order(layout: CrossoverLayout) -> list[tuple[int, int]]:
    """(period, response) index pairs in stacking order, period varying slowest."""
    return [
        (t, k)
        for t in range(1, layout.n_periods + 1)
        for k in range(1, layout.n_responses + 1)
    ]


def fixed_effect_index(layout: CrossoverLayout) -> dict[str, int]:
    """Map semantic coefficient names to 0-based columns of X.

    Order: intercept, period_2..period_p, treatment_2..treatment_t,
    gene_2..gene_m, then covariates in declaration order.
    """
    names = ["intercept"]
    names += [f"period_{u}" for u in range(2, layout.n_periods + 1)]
    names += [f"treatment_{l}" for l in range(2, layout.n_treatments + 1)]
    names += [f"gene_{v}" for v in range(2, layout.n_responses + 1)]
    names += list(layout.covariates)
    return {name: j for j, name in enumerate(names)}


def _check_subject(layout: CrossoverLayout, sequence: int, subject: int) -> None:
    if not 1 <= sequence <= layout.n_sequences:
        raise IndexError(f"sequence {sequence} outside 1..{layout.n_sequences}")
    if not 1 <= subject <= layout.n_per_seq[sequence - 1]:
        raise IndexError(
            f"subject {subject} outside 1..{layout.n_per_seq[sequence - 1]} "
            f"for sequence {sequence}"
        )


def build_design(
    layout: CrossoverLayout,
    sequence: int,
    subject: int,
    covariate_values: dict[str, float] | None = None,
) -> DesignPair:
    """Design matrices for one subject (1-based sequence and subject).

    Covariate columns repeat the subject-level value down all pm rows.
    Raises KeyError for an undeclared or missing covariate, IndexError for
    a sequence or subject out of range.
    """
    _check_subject(layout, sequence, subject)
    covariate_values = covariate_values or {}
    for name in covariate_values:
        if name not in layout.covariates:
            raise KeyError(f"unknown covariate {name!r}")
    for name in layout.covariates:
        if name not in covariate_values:
            raise KeyError(f"covariate {name!r} not supplied")

    p, t, m = layout.n_periods, layout.n_treatments, layout.n_responses
    q = layout.n_fixed
    row_assign = layout.assignment[sequence - 1]
    X = np.zeros((layout.pm, q))
    X[:, 0] = 1.0
    for r, (per, resp) in enumerate(response_order(layout)):
        if per >= 2:
            X[r, 1 + (per - 2)] = 1.0
        treat = row_assign[per - 1]
        if treat >= 2:
            X[r, 1 + (p - 1) + (treat - 2)] = 1.0
        if resp >= 2:
            X[r, 1 + (p - 1) + (t - 1) + (resp - 2)] = 1.0
    base = 1 + (p - 1) + (t - 1) + (m - 1)
    for j, name in enumerate(layout.covariates):
        X[:, base + j] = float(covariate_values[name])
    return DesignPair(X=X)


def covariate_w(sequence_size: int, subject: int) -> int:
    """Three-level subject-block covariate in {0, 1, 2}.

    Sequences of 30 split as 10/10/10 and sequences of 50 as 18/16/16;
    any other size falls back to equal thirds (first third 0, second 1,
    rest 2).
    """
    if not 1 <= subject <= sequence_size:
        raise IndexError(f"subject {subject} outside 1..{sequence_size}")
    if sequence_size == 30:
        cuts = (10, 20)
    elif sequence_size == 50:
        cuts = (18, 34)
    else:
        cuts = (sequence_size // 3, (2 * sequence_size) // 3)
    if subject <= cuts[0]:
        return 0
    if subject <= cuts[1]:
        return 1
    return 2


@dataclass(frozen=True)
class DesignMoments:
    """Cross products of the stacked design with itself and with y.

    XX[a, j, b, k] = sum_i X_i[a, j] X_i[b, k] and
    XY[a, j, b] = sum_i X_i[a, j] y_i[b].  Every sum over subjects of
    X_i' W X_i or X_i' W y_i for a shared pm x pm weight W is a contraction
    of these with W.
    """

    XX: np.ndarray
    XY: np.ndarray


@dataclass(frozen=True)
class TrialData:
    """Per-subject responses and designs, stacked for the engine.

    Attributes:
        layout: the trial geometry.
        y: (n, pm) responses, one row per subject.
        X: (n, pm, q) fixed-effects designs.
        sequences: (n,) 1-based sequence of each subject.
        subjects: (n,) 1-based within-sequence subject number.
        covariate_values: (n, c) covariate values per subject.
        param_names: fixed-effect coefficient names in column order.
    """

    layout: CrossoverLayout
    y: np.ndarray
    X: np.ndarray
    sequences: np.ndarray
    subjects: np.ndarray
    covariate_values: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        n = self.y.shape[0]
        if self.y.shape != (n, self.layout.pm):
            raise ValueError("y must be (n_subjects, pm)")
        if self.X.shape != (n, self.layout.pm, self.layout.n_fixed):
            raise ValueError("X must be (n_subjects, pm, q)")

    @property
    def n_subjects(self) -> int:
        return self.y.shape[0]

    @property
    def n_obs(self) -> int:
        """Total scalar observations."""
        return self.y.size

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(fixed_effect_index(self.layout))

    @cached_property
    def moments(self) -> DesignMoments:
        """Design moments, computed on first use and kept for the object's life.

        The arrays of a TrialData are never modified in place;
        ``dataclasses.replace`` builds a new object with its own moments.
        """
        n, pm, q = self.X.shape
        X2 = self.X.reshape(n, pm * q)
        return DesignMoments(
            XX=(X2.T @ X2).reshape(pm, q, pm, q),
            XY=(X2.T @ self.y).reshape(pm, q, pm),
        )


def per_pattern(
    keys: list[tuple[int, int]],
    covariates_by_subject: dict[tuple[int, int], dict[str, float]],
    build,
) -> np.ndarray:
    """``build(sequence, subject, covariate_values)`` once per design pattern, one row per key.

    A subject's design depends only on its sequence and its covariate
    values, so ``build`` runs for the first subject of each distinct
    (sequence, covariate values) pattern and the other subjects share its
    result.
    """
    first: dict[tuple, int] = {}
    results, index = [], []
    for i, j in keys:
        cvals = covariates_by_subject.get((i, j), {})
        # values by repr: equal reprs are equal floats, and -0.0 stays apart from 0.0
        pattern = (i, tuple(cvals), tuple(map(repr, cvals.values())))
        if pattern not in first:
            first[pattern] = len(results)
            results.append(build(i, j, cvals))
        index.append(first[pattern])
    return np.array(results)[index]


def assemble_trial(
    layout: CrossoverLayout,
    y_by_subject: dict[tuple[int, int], np.ndarray],
    covariates_by_subject: dict[tuple[int, int], dict[str, float]] | None = None,
) -> TrialData:
    """Stack per-subject response vectors and designs into a TrialData.

    Keys of ``y_by_subject`` are (sequence, subject) pairs; every vector
    must have length pm.  Subjects are ordered by sequence, then subject.
    ``build_design`` runs once per (sequence, covariate values) pattern.
    """
    keys = sorted(y_by_subject)
    if not keys:
        raise ValueError("no subjects to assemble")
    y = [np.asarray(y_by_subject[key], dtype=float) for key in keys]
    for (i, j), vec in zip(keys, y):
        if vec.shape != (layout.pm,):
            raise ValueError(f"subject ({i},{j}) vector has length {vec.size}, need {layout.pm}")
    # build_design checks only the first subject of each pattern; check them all
    seq, sub = np.array(keys, dtype=int).T.copy()
    known = (seq >= 1) & (seq <= layout.n_sequences)
    n_in_seq = np.array((0,) + layout.n_per_seq)[np.where(known, seq, 0)]
    bad = np.flatnonzero((sub < 1) | (sub > n_in_seq))
    if bad.size:
        _check_subject(layout, *keys[bad[0]])
    X = per_pattern(
        keys, covariates_by_subject or {},
        lambda i, j, cvals: build_design(layout, i, j, cvals).X,
    )
    return TrialData(
        layout=layout,
        y=np.array(y),
        X=X,
        sequences=seq,
        subjects=sub,
        # the trailing columns of X repeat each subject's covariate values
        covariate_values=X[:, 0, layout.n_fixed - len(layout.covariates):].copy(),
    )
