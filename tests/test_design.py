"""Tests for the crossover design-matrix builder."""

from dataclasses import fields

import numpy as np
import pytest

from sncross import (
    CrossoverLayout,
    assemble_trial,
    build_design,
    covariate_w,
    fixed_effect_index,
    response_order,
)
from sncross.simulate import default_layout


def test_response_order_two_by_two(twobytwo_layout):
    assert response_order(twobytwo_layout) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_response_order_single_observation():
    layout = CrossoverLayout((3,), ((1,),), 1, 1)
    assert response_order(layout) == [(1, 1)]


def test_response_order_period_major():
    layout = default_layout(4)
    order = response_order(layout)
    assert len(order) == 12
    assert all(per == 1 for per, _ in order[:4])
    assert [k for _, k in order[:4]] == [1, 2, 3, 4]


def test_two_by_two_worked_matrices(twobytwo_layout):
    pair1 = build_design(twobytwo_layout, 1, 1)
    pair2 = build_design(twobytwo_layout, 2, 3)
    expected1 = np.array(
        [[1, 0, 0, 0],
         [1, 0, 0, 1],
         [1, 1, 1, 0],
         [1, 1, 1, 1]], dtype=float)
    expected2 = np.array(
        [[1, 0, 1, 0],
         [1, 0, 1, 1],
         [1, 1, 0, 0],
         [1, 1, 0, 1]], dtype=float)
    np.testing.assert_array_equal(pair1.X, expected1)
    np.testing.assert_array_equal(pair2.X, expected2)
    # the random-intercept design Z = 1 lives in the engine's covariance, not here
    assert [f.name for f in fields(pair1)] == ["X"]


def test_intercept_only_design():
    layout = CrossoverLayout((2,), ((1,),), 1, 1)
    pair = build_design(layout, 1, 1)
    np.testing.assert_array_equal(pair.X, np.ones((1, 1)))


def test_simulation_layout_design_by_hand():
    # Sequence 1 of the ABC/BCA/CAB design: periods get treatments 1, 2, 3.
    layout = default_layout(30)
    pair = build_design(layout, 1, 2, {"w": 2.0})
    assert pair.X.shape == (12, 9)
    expected = np.zeros((12, 9))
    expected[:, 0] = 1.0
    for r, (per, resp) in enumerate(response_order(layout)):
        if per >= 2:
            expected[r, per - 1] = 1.0          # period_2 -> col 1, period_3 -> col 2
        treat = (1, 2, 3)[per - 1]
        if treat >= 2:
            expected[r, 2 + treat - 1] = 1.0    # treatment_2 -> col 3, treatment_3 -> col 4
        if resp >= 2:
            expected[r, 4 + resp - 1] = 1.0     # gene_2..gene_4 -> cols 5..7
    expected[:, 8] = 2.0
    np.testing.assert_array_equal(pair.X, expected)


def test_covariate_column_constant():
    layout = default_layout(30)
    pair = build_design(layout, 3, 17, {"w": 1.0})
    assert np.all(pair.X[:, 8] == 1.0)


@pytest.mark.parametrize(
    "size,subject,expected",
    [
        (30, 1, 0), (30, 10, 0), (30, 11, 1), (30, 20, 1), (30, 21, 2), (30, 30, 2),
        (50, 1, 0), (50, 18, 0), (50, 19, 1), (50, 34, 1), (50, 35, 2), (50, 50, 2),
    ],
)
def test_covariate_w_paper_blocks(size, subject, expected):
    assert covariate_w(size, subject) == expected


def test_covariate_w_fallback_equal_thirds():
    values = [covariate_w(12, j) for j in range(1, 13)]
    assert values == [0] * 4 + [1] * 4 + [2] * 4


def test_covariate_w_out_of_range():
    with pytest.raises(IndexError):
        covariate_w(30, 31)
    with pytest.raises(IndexError):
        covariate_w(30, 0)


def test_fixed_effect_index_bijection():
    layout = default_layout(30)
    index = fixed_effect_index(layout)
    assert index["intercept"] == 0
    assert sorted(index.values()) == list(range(layout.n_fixed))
    assert list(index) == [
        "intercept", "period_2", "period_3", "treatment_2", "treatment_3",
        "gene_2", "gene_3", "gene_4", "w",
    ]


def test_design_errors(twobytwo_layout):
    with pytest.raises(IndexError):
        build_design(twobytwo_layout, 3, 1)
    with pytest.raises(IndexError):
        build_design(twobytwo_layout, 1, 6)
    with pytest.raises(KeyError):
        build_design(twobytwo_layout, 1, 1, {"age": 1.0})
    layout = default_layout(30)
    with pytest.raises(KeyError):
        build_design(layout, 1, 1, {})


def test_treatment_block_structure():
    layout = default_layout(30)
    p, t = layout.n_periods, layout.n_treatments
    for seq in range(1, 4):
        X = build_design(layout, seq, 1, {"w": 0.0}).X
        block = X[:, p : p + t - 1]
        assert np.all(block.sum(axis=1) <= 1.0)
        for r, (per, _) in enumerate(response_order(layout)):
            if layout.assignment[seq - 1][per - 1] == 1:
                assert np.all(block[r] == 0.0)


def test_gene_block_column_sums():
    layout = default_layout(30)
    X = build_design(layout, 1, 1, {"w": 1.0}).X
    gene_block = X[:, 5:8]
    np.testing.assert_array_equal(gene_block.sum(axis=0), [3.0, 3.0, 3.0])


def test_binary_entries_outside_covariates():
    layout = default_layout(30)
    X = build_design(layout, 2, 1, {"w": 2.0}).X
    assert set(np.unique(X[:, :8])) <= {0.0, 1.0}


def test_pooled_design_full_rank():
    layout = default_layout(30)
    pooled = np.zeros((layout.n_fixed, layout.n_fixed))
    for seq in range(1, 4):
        for w in (0.0, 1.0, 2.0):
            X = build_design(layout, seq, 1, {"w": w}).X
            pooled += X.T @ X
    assert np.linalg.matrix_rank(pooled) == layout.n_fixed


def test_non_latin_assignment_warns_but_builds():
    with pytest.warns(UserWarning, match="non-Latin"):
        layout = CrossoverLayout((2, 2), ((1, 1), (2, 1)), 2, 1)
    assert layout.has_repeated_treatments
    pair = build_design(layout, 1, 1)
    assert pair.X.shape == (2, 3)


def test_layout_validation_errors():
    with pytest.raises(ValueError):
        CrossoverLayout((0,), ((1,),), 1, 1)
    with pytest.raises(ValueError):
        CrossoverLayout((2,), ((3,),), 2, 1)
    with pytest.raises(ValueError):
        CrossoverLayout((2, 2), ((1, 2),), 2, 1)


def test_assemble_trial_checks_vector_length(twobytwo_layout):
    with pytest.raises(ValueError, match="length"):
        assemble_trial(twobytwo_layout, {(1, 1): np.zeros(3)})


def test_assemble_trial_orders_subjects(twobytwo_layout):
    data = assemble_trial(
        twobytwo_layout,
        {(2, 1): np.full(4, 2.0), (1, 2): np.full(4, 1.0), (1, 1): np.zeros(4)},
    )
    assert data.n_subjects == 3
    np.testing.assert_array_equal(data.sequences, [1, 1, 2])
    np.testing.assert_array_equal(data.subjects, [1, 2, 1])
    np.testing.assert_array_equal(data.y[2], np.full(4, 2.0))
