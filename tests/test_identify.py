"""Scaling-vector layout, the signed transform, and exact recovery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlinear import (
    ValidationError,
    build_transform,
    coefficients_from_squares,
    index_pairs,
    random_standardized_model,
    scaling_vector,
    squared_coefficients,
    squared_coefficients_recursive,
    subset_at,
    vector_index,
    vector_length,
)

from golden import GOLDEN_T4
from reference import naive_scaling_vector, naive_vector_index

# ---------------------------------------------------------------------------
# layout


def test_vector_length_values():
    assert [vector_length(d) for d in (1, 2, 3, 4, 10)] == [1, 3, 6, 10, 55]


def test_vector_index_table_d4():
    table = {
        (1, 1): 1,
        (1, 2): 2,
        (1, 3): 3,
        (1, 4): 4,
        (2, 2): 5,
        (2, 3): 6,
        (2, 4): 7,
        (3, 3): 8,
        (3, 4): 9,
        (4, 4): 10,
    }
    for (i, j), pos in table.items():
        assert vector_index(i, j, 4) == pos
        assert naive_vector_index(i, j, 4) == pos


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 10))
def test_vector_index_is_bijection(d):
    seen = [vector_index(i, j, d) for i in range(1, d + 1) for j in range(i, d + 1)]
    assert sorted(seen) == list(range(1, vector_length(d) + 1))
    assert [(i, j) for i in range(1, d + 1) for j in range(i, d + 1)] == index_pairs(d)


def test_vector_index_rejects_bad_pairs():
    with pytest.raises(ValidationError):
        vector_index(2, 1, 3)
    with pytest.raises(ValidationError):
        vector_index(0, 1, 3)
    with pytest.raises(ValidationError):
        vector_index(1, 4, 3)


def test_subset_at_values():
    assert subset_at(2, 3, 5) == (2, 4, 5)
    assert subset_at(1, 1, 3) == (1, 2, 3)
    assert subset_at(3, 3, 3) == (3,)
    assert subset_at(1, 3, 3) == (1,)


def test_scaling_vector_two_node(two_node_model):
    # blocks: (sigma^2 of max(X1, X2), sigma_1^2), then (sigma_2^2)
    assert np.allclose(scaling_vector(two_node_model), [1.5, 1.0, 1.0])


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 6), seed=st.integers(0, 10_000))
def test_scaling_vector_matches_naive(d, seed):
    coef = random_standardized_model(d, np.random.default_rng(seed))
    got = scaling_vector(coef)
    assert np.allclose(got, naive_scaling_vector(coef.tolist()), atol=1e-13)


# ---------------------------------------------------------------------------
# the signed transform


def test_transform_golden_d4():
    assert np.array_equal(build_transform(4).dense(), GOLDEN_T4)


def test_transform_d2_rows():
    dense = build_transform(2).dense()
    assert np.array_equal(
        dense, np.array([[1.0, 0.0, -1.0], [-1.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    )


@settings(max_examples=20, deadline=None)
@given(d=st.integers(2, 10))
def test_transform_sparsity_and_last_column(d):
    t = build_transform(d)
    dense = t.dense()
    assert dense.shape == (vector_length(d), vector_length(d))
    # every row touches at most four scalings
    assert int(np.max((dense != 0).sum(axis=1))) <= 4
    last = vector_index(d, d, d) - 1
    rows_for_last_col = [
        idx for idx, (i, j) in enumerate(index_pairs(d)) if j == d and i < d
    ]
    for r in rows_for_last_col:
        assert dense[r, last] == 1.0
    if d >= 3 and rows_for_last_col:
        # no other scaling position receives +1 from every one of those rows
        for col in range(dense.shape[1]):
            if col == last:
                continue
            assert not all(dense[r, col] == 1.0 for r in rows_for_last_col)


@settings(max_examples=20, deadline=None)
@given(d=st.integers(2, 10))
def test_transform_invertible(d):
    dense = build_transform(d).dense()
    assert abs(np.linalg.det(dense)) > 0.5


def test_transform_apply_matches_dense():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5, 8):
        t = build_transform(d)
        s = rng.uniform(0.5, 3.0, size=vector_length(d))
        assert np.allclose(t.apply(s), t.dense() @ s, atol=1e-12)


def test_transform_apply_rejects_wrong_length():
    with pytest.raises(ValidationError):
        build_transform(3).apply(np.ones(5))


# ---------------------------------------------------------------------------
# exact recovery round-trip


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 10), seed=st.integers(0, 100_000))
def test_recovery_round_trip(d, seed):
    coef = random_standardized_model(d, np.random.default_rng(seed))
    s = scaling_vector(coef)
    a2 = squared_coefficients(s, d)
    want = np.array([coef[i - 1, j - 1] ** 2 for i, j in index_pairs(d)])
    assert float(np.max(np.abs(a2 - want))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 10), seed=st.integers(0, 100_000))
def test_recursive_recovery_agrees_with_transform(d, seed):
    # also on non-exact (noisy) inputs: the two derivations are the same map
    rng = np.random.default_rng(seed)
    coef = random_standardized_model(d, rng)
    s = scaling_vector(coef) + rng.normal(0, 0.05, size=vector_length(d))
    a = squared_coefficients(s, d)
    b = squared_coefficients_recursive(s, d)
    assert float(np.max(np.abs(a - b))) <= 1e-14


def test_squared_coefficients_two_node_hand_value():
    s = np.array([1.5, 1.0, 1.0])
    assert np.allclose(squared_coefficients(s, 2), [0.5, 0.5, 1.0])


# ---------------------------------------------------------------------------
# clipping and matrix reshaping


def test_coefficients_from_squares_clips_and_reshapes():
    a2 = np.array([0.5, -0.01, 1.0])  # small negative from noise
    rec = coefficients_from_squares(a2, 2)
    assert rec.diagonal_positive
    assert np.allclose(
        rec.matrix, [[np.sqrt(0.5), 0.0], [0.0, 1.0]]
    )
    # upper-triangular layout: entry (1,2) sits above the diagonal
    assert rec.matrix[1, 0] == 0.0


def test_coefficients_from_squares_reports_nonpositive_diagonal():
    a2 = np.array([-0.2, 0.5, 1.0])  # (1,1) slot non-positive
    rec = coefficients_from_squares(a2, 2)
    assert not rec.diagonal_positive
    assert rec.matrix[0, 0] == 0.0


def test_coefficients_from_squares_validates_length():
    with pytest.raises(ValidationError):
        coefficients_from_squares(np.ones(4), 2)
