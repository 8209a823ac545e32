"""Limit-law covariance machinery for the scaling estimators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlinear import (
    DagStructure,
    ValidationError,
    build_transform,
    path_coefficients,
    random_standardized_model,
    random_weights,
    standardize,
    ten_node_model,
    vector_length,
)
from maxlinear.asymptotics import (
    index_pairs,
    recovery_variance_positive,
    scaling_covariance,
    scaling_covariance_entry,
    singleton_direction,
    transform_covariance,
)
from reference import naive_covariance_entry


def _full_support_model(d: int, seed: int) -> np.ndarray:
    edges = [(j, i) for j in range(2, d + 1) for i in range(1, j)]
    dag = DagStructure(d, edges)
    rng = np.random.default_rng(seed)
    return standardize(path_coefficients(dag, random_weights(dag, rng)))


# ---------------------------------------------------------------------------
# hand values


def test_two_node_covariance_matrix(two_node_model):
    got = scaling_covariance(two_node_model)
    want = np.array(
        [
            [1 / 12, 1 / 6, -1 / 6],
            [1 / 6, 1 / 3, -1 / 3],
            [-1 / 6, -1 / 3, 1 / 3],
        ]
    )
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_two_node_entry_values(two_node_model):
    assert scaling_covariance_entry(two_node_model, [1], [1]) == pytest.approx(1 / 3)
    assert scaling_covariance_entry(two_node_model, [2], [2]) == pytest.approx(1 / 3)
    assert scaling_covariance_entry(two_node_model, [1, 2], [1, 2]) == pytest.approx(
        1 / 12
    )
    assert scaling_covariance_entry(two_node_model, [1], [1, 2]) == pytest.approx(1 / 6)


def test_single_node_variance_is_zero():
    got = scaling_covariance(np.array([[1.0]]))
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_index_pairs_layout():
    assert index_pairs(2) == [(1, 1), (1, 2), (2, 2)]
    assert index_pairs(3) == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    assert len(index_pairs(10)) == vector_length(10)


# ---------------------------------------------------------------------------
# structural properties


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_covariance_symmetric_and_psd(d, seed):
    coef = random_standardized_model(d, np.random.default_rng(seed))
    w = scaling_covariance(coef)
    assert w.shape == (vector_length(d), vector_length(d))
    np.testing.assert_allclose(w, w.T, atol=1e-10)
    assert np.linalg.eigvalsh(w).min() >= -1e-8


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 6), seed=st.integers(0, 10_000))
def test_entry_matches_naive_product_form(d, seed):
    rng = np.random.default_rng(seed)
    coef = random_standardized_model(d, rng)
    nodes = sorted(rng.choice(np.arange(1, d + 1), size=2, replace=False).tolist())
    got = scaling_covariance_entry(coef, [nodes[0]], nodes)
    want = naive_covariance_entry(coef, [nodes[0]], nodes)
    assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 6), seed=st.integers(0, 10_000))
def test_covariance_matrix_agrees_with_entry_function(d, seed):
    from maxlinear import subset_at

    coef = random_standardized_model(d, np.random.default_rng(seed))
    w = scaling_covariance(coef)
    pairs = index_pairs(d)
    rng = np.random.default_rng(seed + 1)
    for _ in range(5):
        r = int(rng.integers(len(pairs)))
        c = int(rng.integers(len(pairs)))
        si = subset_at(*pairs[r], d)
        sj = subset_at(*pairs[c], d)
        assert w[r, c] == pytest.approx(
            scaling_covariance_entry(coef, si, sj), abs=1e-12
        )


def test_covariance_rejects_unstandardized_and_zero_column():
    unstandardized = np.array([[1.0, 1.0], [0.0, 1.0]])
    # column 1 has mass 1e-400, which underflows to zero
    zero_column = np.array([[1e-200, 1.0], [0.0, 1.0]])
    for coef in (unstandardized, zero_column):
        with pytest.raises(ValidationError):
            scaling_covariance(coef)
        with pytest.raises(ValidationError):
            scaling_covariance_entry(coef, [1], [2])


# ---------------------------------------------------------------------------
# the degenerate direction: full-set scalings have no fluctuation


def test_singleton_direction_marks_last_column():
    np.testing.assert_array_equal(
        singleton_direction(3), np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0])
    )
    t = singleton_direction(10)
    assert t.shape == (vector_length(10),)
    assert t.sum() == 10.0


@settings(max_examples=50, deadline=None)
@given(d=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_degenerate_direction_has_zero_variance(d, seed):
    coef = random_standardized_model(d, np.random.default_rng(seed))
    w = scaling_covariance(coef)
    t = singleton_direction(d)
    assert abs(t @ w @ t) <= 1e-10


# ---------------------------------------------------------------------------
# pushing the covariance through the linear identification map


def test_transform_covariance_zero_in_zero_out():
    d = 4
    n = vector_length(d)
    got = transform_covariance(build_transform(d), np.zeros((n, n)))
    np.testing.assert_array_equal(got, np.zeros((n, n)))


@settings(max_examples=20, deadline=None)
@given(d=st.integers(2, 7), seed=st.integers(0, 10_000))
def test_transform_covariance_matches_dense_congruence(d, seed):
    rng = np.random.default_rng(seed)
    n = vector_length(d)
    m = rng.normal(size=(n, n))
    w = m @ m.T
    transform = build_transform(d)
    got = transform_covariance(transform, w)
    dense = transform.dense()
    np.testing.assert_allclose(got, dense @ w @ dense.T, atol=1e-10)
    np.testing.assert_allclose(got, got.T, atol=1e-10)
    assert np.linalg.eigvalsh(got).min() >= -1e-8


def test_transform_covariance_of_model_is_psd(preset_model):
    w = scaling_covariance(preset_model)
    out = transform_covariance(build_transform(10), w)
    np.testing.assert_allclose(out, out.T, atol=1e-10)
    assert np.linalg.eigvalsh(out).min() >= -1e-8


# ---------------------------------------------------------------------------
# per-entry variance positivity screening


def test_full_support_models_have_positive_recovery_variance():
    for d, seed in [(3, 0), (4, 1), (5, 2)]:
        assert recovery_variance_positive(_full_support_model(d, seed)) == []


def test_ten_node_degenerate_entries_frozen(preset_model):
    # exactly the structural zeros of the upper triangle have zero
    # variance; they come out as rounding residues of either sign
    zeros = [(i, j) for i, j in index_pairs(10) if preset_model[i - 1, j - 1] == 0.0]
    assert len(zeros) == 20
    assert recovery_variance_positive(preset_model) == zeros
