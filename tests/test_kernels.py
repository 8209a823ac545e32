"""Numeric kernels: hand values and agreement with plain-loop oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlinear import _kernels as kern
from reference import (
    column_order_scaling_sum,
    dense_max_times_product,
    naive_max_matrix_product,
    naive_rowmax_invsq_mean,
    naive_scaling_sum,
)


def _random_sample(seed: int, n: int, q: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.pareto(2.0, size=(n, q)) + 1.0
    x[rng.random(size=(n, q)) < 0.2] = 0.0
    return x


def _squared_columns(x: np.ndarray) -> list[np.ndarray]:
    return [c * c for c in np.asarray(x, dtype=np.float64).T]


# ---------------------------------------------------------------------------
# hand values and degenerate inputs


def test_max_times_product_numpy_hand_value():
    left = np.array([[1.0, 2.0], [3.0, 0.5]])
    right = np.array([[4.0, 1.0], [1.0, 5.0]])
    got = kern.max_times_product(left, right)
    np.testing.assert_allclose(got, [[4.0, 10.0], [12.0, 3.0]])


def test_scaling_sum_numpy_hand_value():
    x = np.array([[3.0, 4.0], [6.0, 8.0], [1.0, 0.0], [0.0, 1.0]])
    acc, n_exc, n_pos = kern.scaling_sum(_squared_columns(x), 2)
    assert acc == pytest.approx(2 * (16.0 / 25.0))
    assert n_exc == 2
    assert n_pos == 4


def test_scaling_sum_nan_when_too_few_positive_rows():
    x = np.zeros((5, 3))
    x[0, 0] = 1.0
    got = kern.scaling_sum(_squared_columns(x), 2)
    for acc, n_exc, n_pos in (got, naive_scaling_sum(x.tolist(), 2)):
        assert math.isnan(acc)
        assert n_exc == 0
        assert n_pos == 1


def test_rowmax_invsq_mean_numpy_hand_value():
    x = np.array([[1.0, 2.0], [4.0, 1.0]])
    w = np.array([1.0, 1.5])
    # row maxima of scaled columns: max(1, 3) = 3 and max(4, 1.5) = 4
    want = 0.5 * (3.0**-2 + 4.0**-2)
    assert kern.scaled_rowmax_invsq_mean(x, w) == pytest.approx(want)


def test_rowmax_invsq_mean_nan_on_nonpositive_row():
    x = np.array([[1.0, 2.0], [0.0, 0.0]])
    w = np.array([1.0, 1.0])
    assert math.isnan(kern.scaled_rowmax_invsq_mean(x, w))
    assert math.isnan(naive_rowmax_invsq_mean(x.tolist(), w.tolist()))


def _adjacent_doubles() -> np.ndarray:
    """Sorted doubles: runs of neighbours at every power of two, so across
    each binade edge, through the subnormals and near where ``x ** -2``
    overflows or underflows, with 0, the largest double and inf."""
    rng = np.random.default_rng(0)
    seeds = np.concatenate(
        [2.0 ** np.arange(-1074, 1024), 2.0 ** rng.uniform(-1074, 1024, size=2000)]
    )
    runs = [seeds]
    down, up = seeds.copy(), seeds.copy()
    for _ in range(3):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
        runs += [down, up]
    return np.unique(np.concatenate([*runs, [0.0, np.finfo(float).max, np.inf]]))


def test_inverse_square_of_a_maximum_is_the_minimum_of_inverse_squares():
    # the identity pass_invsq_means rests on: power(., -2.0) is monotone
    # non-increasing on [0, inf], so max and min commute with it
    x = _adjacent_doubles()
    with np.errstate(divide="ignore", over="ignore"):
        inv = x**-2.0
        assert np.all(inv[1:] <= inv[:-1])
        for u, v in ((x[1:], x[:-1]), (x, np.random.default_rng(1).permutation(x))):
            np.testing.assert_array_equal(
                np.maximum(u, v) ** -2.0, np.minimum(u**-2.0, v**-2.0)
            )
    assert inv[0] == np.inf and inv[-1] == 0.0


def test_pass_invsq_means_hand_values():
    x = np.array([[1.0, 2.0, 0.0], [4.0, -1.0, 0.5]])  # (d, n) columns
    with np.errstate(divide="ignore"):
        inv, top = kern.inverse_squares(x), kern.inverse_squares(x.max(axis=0))
        inflated = kern.inverse_squares(2.0 * x)
    np.testing.assert_array_equal(inv, [[1.0, 0.25, np.nan], [1 / 16, np.nan, 4.0]])
    got = kern.pass_invsq_means(inv, inflated, top, [])
    # column 0 alone has a row with no positive entry; column 1 alone
    # does too; together every row has one
    assert math.isnan(got[0][0]) and math.isnan(got[1][0])
    [(group, rescaled)] = kern.pass_invsq_means(inv, inflated, top, [0]).values()
    assert group == (4.0**-2 + 2.0**-2 + 0.5**-2) / 3
    assert rescaled == (8.0**-2 + 4.0**-2 + 1.0**-2) / 3


# ---------------------------------------------------------------------------
# agreement with the plain-loop oracles in tests/reference.py


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 200), q=st.integers(1, 6))
def test_max_times_product_matches_oracle(seed, n, q):
    rng = np.random.default_rng(seed)
    left = rng.uniform(0.0, 3.0, size=(n, q))
    right = rng.uniform(0.0, 3.0, size=(q, q))
    got = kern.max_times_product(left, right)
    want = naive_max_matrix_product(left.tolist(), right.tolist())
    np.testing.assert_array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 500), q=st.integers(1, 6))
def test_scaling_sum_matches_oracle(seed, n, q):
    x = _random_sample(seed, n, q)
    k = max(1, n // 3)
    acc, n_exc, n_pos = kern.scaling_sum(_squared_columns(x), k)
    want_acc, want_exc, want_pos = naive_scaling_sum(x.tolist(), k)
    if math.isnan(want_acc):
        assert math.isnan(acc)
    else:
        assert acc == pytest.approx(want_acc, rel=1e-12)
    assert (n_exc, n_pos) == (want_exc, want_pos)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 500), q=st.integers(1, 6))
def test_rowmax_invsq_mean_matches_oracle(seed, n, q):
    rng = np.random.default_rng(seed)
    x = rng.pareto(2.0, size=(n, q)) + 0.5
    w = rng.uniform(0.5, 2.0, size=q)
    want = naive_rowmax_invsq_mean(x.tolist(), w.tolist())
    assert kern.scaled_rowmax_invsq_mean(x, w) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# bit identity of the sparse max-times sweep with the dense broadcast


def _sparse_factors(kind: str, seed: int, n: int, q: int, m: int):
    rng = np.random.default_rng(seed)
    # magnitudes wide enough that products underflow to 0 or overflow to inf
    left = rng.uniform(0.5, 2.0, size=(n, q)) * 10.0 ** rng.integers(-160, 160, size=(n, q))
    left[rng.random(size=(n, q)) < 0.2] = 0.0
    right = rng.uniform(0.0, 3.0, size=(q, m)) * 10.0 ** rng.integers(-160, 160, size=(q, m))
    right[rng.random(size=(q, m)) < 0.5] = 0.0
    if kind == "zero-columns":
        right[:, rng.random(size=m) < 0.5] = 0.0
    elif kind == "clipped":  # an estimate with its diagonal clipped to 0
        np.fill_diagonal(right, 0.0)
    return left, right


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["sparse", "zero-columns", "clipped"]),
    seed=st.integers(0, 10_000),
    n=st.one_of(st.integers(1, 300), st.integers(16_380, 16_400)),
    q=st.integers(1, 12),
    m=st.integers(1, 12),
)
def test_max_times_product_equals_dense_reference(kind, seed, n, q, m):
    left, right = _sparse_factors(kind, seed, n, q, m)
    with np.errstate(over="ignore", under="ignore"):
        got = kern.max_times_product(left, right)
        want = dense_max_times_product(left, right)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["sparse", "zero-columns", "clipped"]),
    seed=st.integers(0, 10_000),
    n=st.integers(1, 300),
    q=st.integers(1, 12),
    m=st.integers(1, 12),
)
def test_max_times_product_into_a_column_slice_equals_the_allocating_form(
    kind, seed, n, q, m
):
    # out= takes a column slice of a wider buffer holding stale values, as
    # model.simulate passes it; the columns outside the slice stay as they were
    left, right = _sparse_factors(kind, seed, n, q, m)
    buf = np.full((m, n + 7), np.nan)
    with np.errstate(over="ignore", under="ignore"):
        want = kern.max_times_product(left, right)
        got = kern.max_times_product(left, right, out=buf[:, 3 : 3 + n])
    assert np.array_equal(got, want)
    assert np.shares_memory(got, buf)
    assert np.isnan(buf[:, :3]).all() and np.isnan(buf[:, 3 + n :]).all()


def test_inverse_squares_in_place_equals_the_allocating_form():
    # zeros, negatives, subnormals and the values whose inverse square
    # overflows to inf, in a contiguous table as the providers hold them
    x = _adjacent_doubles()
    x = np.concatenate([x, -x[::3]])
    x = np.random.default_rng(2).permutation(x)[: 10 * (x.size // 10)].reshape(10, -1)
    with np.errstate(divide="ignore", over="ignore"):
        want = kern.inverse_squares(x)
        table = x.copy()
        got = kern.inverse_squares(table, out=table)
    assert got is table
    np.testing.assert_array_equal(got, want)
    assert np.array_equal(np.isnan(got), x <= 0.0)
    assert np.isinf(got).any() and (got == 0.0).any()


# ---------------------------------------------------------------------------
# bit identity of scaling_sum with its column-order definition


def _hard_sample(kind: str, seed: int, n: int, q: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "ties":
        # few distinct values: many rows share their radius exactly
        x = rng.choice([0.0, 1.0, 2.0, 3.0], size=(n, q))
    elif kind == "permuted":
        # every row permutes one set of magnitudes, so the exact radii tie
        # and only the rounding of each column-order sum separates them
        base = rng.uniform(1.0, 2.0, size=q) * 10.0 ** rng.integers(-8, 9, size=q)
        x = np.array([rng.permutation(base) for _ in range(n)]).reshape(n, q)
    else:  # "wide": squares that are subnormal, flush to zero or overflow
        x = rng.uniform(1.0, 10.0, size=(n, q)) * 10.0 ** rng.integers(-170, 170, size=(n, q))
    x[rng.random(size=n) < 0.2] = 0.0  # zero rows
    return x


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["ties", "permuted", "wide"]),
    seed=st.integers(0, 10_000),
    n=st.integers(1, 300),
    q=st.integers(1, 14),
    frac=st.floats(0.0, 1.0),
)
def test_scaling_sum_equals_column_order_reference(kind, seed, n, q, frac):
    x = _hard_sample(kind, seed, n, q)
    k = 1 + int(frac * (n - 1))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        acc, n_exc, n_pos = kern.scaling_sum(_squared_columns(x), k)
        want_acc, want_exc, want_pos = column_order_scaling_sum(x, k)
    assert (n_exc, n_pos) == (want_exc, want_pos)
    assert acc == want_acc or (math.isnan(acc) and math.isnan(want_acc))

