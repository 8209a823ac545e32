"""Coefficient matrices, simulation and exact scalings."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlinear import (
    ValidationError,
    as_coefficient_matrix,
    is_standardized,
    max_scaling,
    path_coefficients,
    random_standardized_model,
    random_weights,
    random_well_ordered_dag,
    rescaled_max_scaling,
    simulate,
    standardize,
    ten_node_model,
)
from maxlinear.model import SIMULATION_BLOCK, _frechet2_block
from maxlinear.ordering import _varying_columns

from reference import (
    dense_max_times_product,
    naive_max_scaling,
    naive_rescaled_max_scaling,
)

# ---------------------------------------------------------------------------
# validation and standardization


def test_as_coefficient_matrix_rejects_bad_input():
    with pytest.raises(ValidationError):
        as_coefficient_matrix(np.array([[1.0, 0.0]]))  # not square
    with pytest.raises(ValidationError):
        as_coefficient_matrix(np.array([[1.0, -0.1], [0.0, 1.0]]))  # negative
    with pytest.raises(ValidationError):
        as_coefficient_matrix(np.array([[1.0, np.inf], [0.0, 1.0]]))  # non-finite
    with pytest.raises(ValidationError):
        as_coefficient_matrix(np.array([[0.0, 1.0], [0.0, 1.0]]))  # zero diagonal


def test_standardize_rows_unit_norm(two_node_model):
    raw = np.array([[1.0, 1.0], [0.0, 2.0]])
    std = standardize(raw)
    assert np.allclose(np.linalg.norm(std, axis=1), 1.0, atol=1e-15)
    assert np.allclose(std, two_node_model)
    assert is_standardized(std)
    assert not is_standardized(raw)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_standardize_idempotent_and_scale_free(d, seed):
    rng = np.random.default_rng(seed)
    dag = random_well_ordered_dag(d, rng)
    coef = path_coefficients(dag, random_weights(dag, rng))
    std = standardize(coef)
    assert np.allclose(standardize(std), std, atol=1e-15)
    # standardization removes any per-row positive rescaling
    scales = rng.uniform(0.5, 3.0, size=d)
    assert np.allclose(standardize(coef * scales[:, None]), std, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 7), seed=st.integers(0, 10_000))
def test_total_mass_is_d_for_standardized(d, seed):
    # the spectral atoms carry the squared column norms of A, so their
    # total mass is the sum of the squared row norms: d once standardized
    coef = random_standardized_model(d, np.random.default_rng(seed))
    assert float((coef**2).sum()) == pytest.approx(d)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_diagonal_dominates_ancestor_entries_after_standardize(d, seed):
    # For any path model: the diagonal entry of an ancestor column exceeds
    # every off-diagonal entry in that column once rows are standardized.
    rng = np.random.default_rng(seed)
    dag = random_well_ordered_dag(d, rng)
    coef = standardize(path_coefficients(dag, random_weights(dag, rng)))
    for i in range(1, d + 1):
        for j in dag.ancestors(i):
            assert coef[j - 1, j - 1] > coef[i - 1, j - 1]


# ---------------------------------------------------------------------------
# simulation


def test_simulate_deterministic_given_seed(two_node_model):
    a = simulate(two_node_model, 7, 100)
    b = simulate(two_node_model, 7, 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, simulate(two_node_model, 8, 100))


def test_simulate_frozen_regression(two_node_model):
    got = simulate(two_node_model, 0, 3)
    want = np.array(
        [
            [1.23684482, 0.52597424],
            [1.59191461, 2.25130723],
            [0.57016128, 0.80632981],
        ]
    )
    assert np.allclose(got, want, atol=1e-8)


def test_simulate_worker_count_invariant():
    # three blocks, the last one short, so workers=2 runs the thread pool
    coef = ten_node_model()
    n = 2 * SIMULATION_BLOCK + 5
    serial = simulate(coef, 3, n, workers=1)
    assert np.array_equal(serial, simulate(coef, 3, n, workers=2))
    # and block by block, the dense product of the same innovations
    children = np.random.SeedSequence(3).spawn(3)
    at = np.ascontiguousarray(coef.T)
    for b, child in enumerate(children):
        rows = slice(b * SIMULATION_BLOCK, min((b + 1) * SIMULATION_BLOCK, n))
        rng = np.random.Generator(np.random.Philox(child))
        z = _frechet2_block(rng, rows.stop - rows.start, 10)
        assert np.array_equal(serial[rows], dense_max_times_product(z, at))


class _ZeroFirstDraw:
    """A generator stand-in whose first draw holds zeros, so the redraw
    loop of ``_frechet2_block`` runs; it keeps a copy of every draw."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.draws: list[np.ndarray] = []

    def random(self, size):
        u = self._rng.random(size)
        if not self.draws:
            u.flat[::7] = 0.0
        self.draws.append(u.copy())
        return u


def test_frechet2_block_in_place_equals_the_allocating_transform():
    rng = _ZeroFirstDraw(4)
    z = _frechet2_block(rng, 1000, 10)
    first, *redraws = rng.draws
    assert len(redraws) == 1 and not np.any(redraws[0] == 0.0)
    u = first.copy()
    u[u == 0.0] = redraws[0]
    np.testing.assert_array_equal(z, (-np.log(u)) ** -0.5)
    # a generator at the block's real size: the same bits as the allocating form
    u = np.random.Generator(np.random.Philox(9)).random((SIMULATION_BLOCK, 10))
    z = _frechet2_block(np.random.Generator(np.random.Philox(9)), SIMULATION_BLOCK, 10)
    np.testing.assert_array_equal(z, (-np.log(u)) ** -0.5)


@pytest.mark.parametrize("n", [SIMULATION_BLOCK, SIMULATION_BLOCK + 1])
@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_column_buffer_equals_row_major_reference(n, workers):
    coef = ten_node_model()
    x = simulate(coef, 21, n, workers=workers)
    at = np.ascontiguousarray(coef.T)
    blocks = []
    for b, child in enumerate(np.random.SeedSequence(21).spawn(-(-n // SIMULATION_BLOCK))):
        rows = min(SIMULATION_BLOCK, n - b * SIMULATION_BLOCK)
        z = _frechet2_block(np.random.Generator(np.random.Philox(child)), rows, 10)
        blocks.append(dense_max_times_product(z, at))
    want = np.concatenate(blocks)  # row-major
    assert want.flags.c_contiguous and x.shape == want.shape
    np.testing.assert_array_equal(x, want)
    # the sample is the transposed view of one (d, n) column buffer, which
    # the column-wise providers take without a copy
    assert x.T.flags.c_contiguous
    assert np.shares_memory(_varying_columns(x), x)


def test_simulate_prefix_stable_within_block(two_node_model):
    long = simulate(two_node_model, 5, 128)
    short = simulate(two_node_model, 5, 64)
    assert np.array_equal(long[:64], short)


def test_simulate_validates_inputs(two_node_model):
    with pytest.raises(ValidationError):
        simulate(two_node_model, 0, 0)
    bad_matrices = (
        np.zeros((0, 0)),
        np.ones(3),
        np.ones((2, 3)),
        [[1.0, np.nan], [0.0, 1.0]],
        [[1.0, -0.1], [0.0, 1.0]],
    )
    for bad in bad_matrices:
        with pytest.raises(ValidationError):
            simulate(bad, 0, 10)


def test_simulate_accepts_zero_diagonal():
    # a clipped estimate may lose a diagonal entry; sampling needs none
    x = simulate([[0.0, 1.0], [0.0, 1.0]], 2, 50)
    assert np.array_equal(x[:, 0], x[:, 1])


def test_simulate_rows_are_max_combinations(two_node_model):
    # every observed row must be attainable as A x_max z for a positive z;
    # for this model x2 = z2 and x1 = max(z1, z2)/sqrt2 >= x2/sqrt2.
    x = simulate(two_node_model, 11, 5000)
    assert np.all(x > 0)
    assert np.all(x[:, 0] >= x[:, 1] / np.sqrt(2.0) - 1e-12)


def test_simulated_tail_matches_scaling(two_node_model):
    # mean exceedance count of X_1 over z*sqrt(n) across replicates should
    # approach z^-2 * sigma_1^2 = z^-2 (standardized rows).
    n = 100_000
    counts_z1 = []
    counts_z2 = []
    for s in range(150):
        x = simulate(two_node_model, s, n)
        counts_z1.append(np.sum(x[:, 0] > np.sqrt(n)))
        counts_z2.append(np.sum(x[:, 0] > 2.0 * np.sqrt(n)))
    assert abs(float(np.mean(counts_z1)) - 1.0) < 0.25
    assert abs(float(np.mean(counts_z2)) - 0.25) < 0.12


# ---------------------------------------------------------------------------
# theoretical scalings


def test_max_scaling_hand_values(two_node_model):
    assert max_scaling(two_node_model, [1]) == pytest.approx(1.0)
    assert max_scaling(two_node_model, [1, 2]) == pytest.approx(1.5)


def test_max_scaling_validates_nodes(two_node_model):
    with pytest.raises(ValidationError):
        max_scaling(two_node_model, [])
    with pytest.raises(ValidationError):
        max_scaling(two_node_model, [3])


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 7), seed=st.integers(0, 10_000))
def test_max_scaling_matches_naive_and_full_set_identity(d, seed):
    coef = random_standardized_model(d, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    nodes = sorted(rng.choice(d, size=rng.integers(1, d + 1), replace=False) + 1)
    got = max_scaling(coef, nodes)
    assert got == pytest.approx(naive_max_scaling(coef.tolist(), list(nodes)))
    # full-set scaling of a well-ordered standardized model: diagonal rules
    # its own column, so the sum collapses to the squared diagonal
    full = max_scaling(coef, list(range(1, d + 1)))
    assert full == pytest.approx(float((np.diag(coef) ** 2).sum()), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 7), seed=st.integers(0, 10_000))
def test_max_scaling_column_permutation_invariant(d, seed):
    # use a dense positive matrix so every column permutation keeps the
    # diagonal positive and remains a valid coefficient matrix
    rng = np.random.default_rng(seed)
    coef = rng.uniform(0.1, 2.0, size=(d, d))
    perm = rng.permutation(d)
    nodes = [1, d]
    assert max_scaling(coef, nodes) == pytest.approx(
        max_scaling(np.ascontiguousarray(coef[:, perm]), nodes)
    )


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 7), seed=st.integers(0, 10_000))
def test_max_scaling_monotone_in_subset(d, seed):
    coef = random_standardized_model(d, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    small = set((rng.choice(d, size=rng.integers(1, d), replace=False) + 1).tolist())
    big = small | {int(rng.integers(1, d + 1))}
    assert max_scaling(coef, sorted(small)) <= max_scaling(coef, sorted(big)) + 1e-15


def test_rescaled_max_scaling_hand_value(two_node_model):
    # scale node 2 by a: column 1 keeps 0.5; column 2 becomes a^2 * 1
    a = np.sqrt(2.0)
    got = rescaled_max_scaling(two_node_model, [], 2, a)
    assert got == pytest.approx(0.5 + 2.0)
    # scaling node 1 instead: both columns ruled by a^2 * row-1 entries
    got1 = rescaled_max_scaling(two_node_model, [], 1, a)
    assert got1 == pytest.approx(max(2 * 0.5, 0.0) + max(2 * 0.5, 1.0))


def test_rescaled_max_scaling_validates(two_node_model):
    with pytest.raises(ValidationError):
        rescaled_max_scaling(two_node_model, [2], 2, 2.0)  # node already ordered
    with pytest.raises(ValidationError):
        rescaled_max_scaling(two_node_model, [], 2, 1.0)  # factor must exceed 1
    with pytest.raises(ValidationError):
        rescaled_max_scaling(two_node_model, [1], 3, 2.0)  # node outside 1..d
    with pytest.raises(ValidationError):
        rescaled_max_scaling(two_node_model, [1, 1], 2, 2.0)  # repeated head


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 7), seed=st.integers(0, 10_000))
def test_rescaled_max_scaling_matches_naive(d, seed):
    coef = random_standardized_model(d, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    node = int(rng.integers(1, d + 1))
    others = [v for v in range(1, d + 1) if v != node]
    hs = sorted(rng.choice(others, size=rng.integers(0, d - 1), replace=False).tolist())
    factor = float(rng.uniform(1.01, 3.0))
    got = rescaled_max_scaling(coef, hs, node, factor)
    want = naive_rescaled_max_scaling(coef.tolist(), hs + [node], factor)
    assert got == pytest.approx(want)
