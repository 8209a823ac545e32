"""Empirical spectral estimators, MLE scaling, marginal transforms."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxlinear import (
    FrechetMleScalings,
    ReorderConfig,
    SpectralScalings,
    ThresholdError,
    ValidationError,
    default_threshold_count,
    empirical_frechet_transform,
    estimate_max_scaling,
    estimate_rescaled_max_scaling,
    learn_order,
    max_scaling,
    negative_part,
    polar_decompose,
    random_standardized_model,
    scaling_from_polar,
    scaling_vector,
    simulate,
)
from maxlinear.identify import index_pairs, subset_at

from reference import (
    naive_frechet_mle,
    naive_polar_scaling,
    naive_rank_transform,
    searchsorted_frechet_transform,
)

# ---------------------------------------------------------------------------
# threshold policy


def test_default_threshold_count_values():
    assert default_threshold_count(10_000) == 100
    assert default_threshold_count(2285) == 48
    assert default_threshold_count(9544) == 98
    assert default_threshold_count(1) == 1
    with pytest.raises(ValidationError):
        default_threshold_count(0)


# ---------------------------------------------------------------------------
# polar decomposition: frozen hand example


TINY = np.array([[3.0, 4.0], [6.0, 8.0], [1.0, 0.0], [0.0, 1.0]])


def test_polar_decompose_tiny_hand_example():
    polar = polar_decompose(TINY, [1, 2], k=2)
    assert polar.threshold_value == 5.0
    assert polar.n_exceedances == 2
    # rows (3, 4) and (6, 8), radii 5 and 10; rows of radius 1 are not kept
    assert np.allclose(polar.exceedance_squares, [[0.36, 0.64], [0.36, 0.64]])


def test_scaling_from_polar_tiny_values():
    polar = polar_decompose(TINY, [1, 2], k=2)
    assert scaling_from_polar(polar) == pytest.approx(1.28)
    assert scaling_from_polar(polar, over=[1]) == pytest.approx(0.72)
    assert scaling_from_polar(polar, over=[2]) == pytest.approx(1.28)
    assert naive_polar_scaling(TINY.tolist(), 2) == pytest.approx(1.28)
    with pytest.raises(ValidationError):
        scaling_from_polar(polar, over=[3])


def test_estimate_max_scaling_matches_polar_path():
    got = estimate_max_scaling(TINY, [1, 2], k=2)
    assert got == pytest.approx(1.28)


def _bits_or_error(compute):
    try:
        return np.float64(compute()).tobytes()
    except ThresholdError as exc:
        return f"ThresholdError: {exc}"


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 10),
    n=st.integers(1, 400),
    rounded=st.booleans(),
    zero_share=st.sampled_from([0.0, 0.2, 0.9]),
    data=st.data(),
)
def test_polar_path_is_the_fused_estimate_bit_for_bit(seed, d, n, rounded, zero_share, data):
    # rounded margins tie radii, also at the threshold, where a radius
    # summed in another order would select other rows; zero rows have no
    # radius, so a large k leaves too few positive ones
    rng = np.random.default_rng(seed)
    x = rng.pareto(2.0, size=(n, d)) + 0.1
    if rounded:
        x = np.round(x, 1)
    x[rng.random(n) < zero_share] = 0.0
    cols = data.draw(st.lists(st.integers(1, d), min_size=1, unique=True))
    k = data.draw(st.integers(1, n))
    got = _bits_or_error(lambda: scaling_from_polar(polar_decompose(x, cols, k)))
    assert got == _bits_or_error(lambda: estimate_max_scaling(x, cols, k))


_SAMPLE = np.random.default_rng(0).pareto(2.0, size=(500, 3)) + 0.1


@pytest.mark.parametrize(
    "call",
    [
        lambda k: estimate_max_scaling(_SAMPLE, [1, 2], k),
        lambda k: estimate_rescaled_max_scaling(_SAMPLE, [1], 2, 2.0, k),
        lambda k: polar_decompose(_SAMPLE, [1, 2], k),
        lambda k: learn_order(SpectralScalings(_SAMPLE, k), ReorderConfig.data_preset()),
    ],
    ids=["estimate", "rescaled", "polar", "provider"],
)
@pytest.mark.parametrize(
    "k", [0, -3, 2.5, "2", True], ids=["zero", "negative", "fraction", "string", "bool"]
)
def test_threshold_count_must_be_an_integer_of_at_least_one(call, k):
    with pytest.raises(ValidationError, match=f"threshold count k .* got {k!r}$"):
        call(k)


def test_threshold_count_accepts_numpy_integers():
    k = np.int64(20)
    want = estimate_max_scaling(_SAMPLE, [1, 2], 20)
    assert estimate_max_scaling(_SAMPLE, [1, 2], k) == want
    assert SpectralScalings(_SAMPLE, k).threshold_count == 20


def test_scaling_from_polar_needs_a_column():
    polar = polar_decompose(TINY, [1, 2], k=2)
    with pytest.raises(ValidationError, match="over must name at least one column"):
        scaling_from_polar(polar, over=[])


def test_polar_drop_zero_radius_rows_and_fail_loudly():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    polar = polar_decompose(x, [1, 2], k=1)
    assert polar.n_exceedances == 1
    with pytest.raises(ThresholdError):
        polar_decompose(x, [1, 2], k=2)
    with pytest.raises(ThresholdError):
        estimate_max_scaling(np.zeros((5, 2)), [1, 2], k=1)


@pytest.mark.filterwarnings("error")  # the overflowing sum must not warn either
@pytest.mark.parametrize("k", [1, 4])
def test_a_radius_that_overflows_from_finite_squares_is_refused(k):
    # 1e154**2 is finite and the sum of two such squares is not; the row
    # of the largest radius is an exceedance row whatever k is
    x = np.array([[1e154, 1e154], [1.0, 2.0], [3.0, 1.0], [2.0, 2.0]])
    message = re.escape("squared radii on columns (1, 2) overflow")
    with pytest.raises(ThresholdError, match=message):
        estimate_max_scaling(x, [1, 2], k)
    with pytest.raises(ThresholdError, match=message):
        polar_decompose(x, [1, 2], k)
    # (1.01 * 1e154)**2 is finite too; the message names the inflated column
    inflated = re.escape("squared radii on all columns with columns (2,) inflated overflow")
    with pytest.raises(ThresholdError, match=inflated):
        estimate_rescaled_max_scaling(x, [], 2, 1.01, k)


@pytest.mark.filterwarnings("error")
def test_a_square_that_overflows_is_refused_without_a_warning():
    # 1e200**2 is inf, and so is (2 * 1e154)**2: the public estimators
    # raise the polar decomposition's text, not numpy's overflow warning
    with pytest.raises(ThresholdError, match=re.escape("columns (1, 2) overflow")):
        estimate_max_scaling([[1e200, 1], [1, 2], [3, 1]], [1, 2], 1)
    inflated = re.escape("squared radii on all columns with columns (1,) inflated overflow")
    with pytest.raises(ThresholdError, match=inflated):
        estimate_rescaled_max_scaling([[1e154, 1], [1, 2], [3, 1]], [], 1, 2.0, 1)


def test_threshold_ties_kept_divisor_fixed():
    # five rows all at radius 5 with k=2: every row is an exceedance
    rows = np.array([[3.0, 4.0], [4.0, 3.0], [5.0, 0.0], [0.0, 5.0], [3.0, 4.0]])
    polar = polar_decompose(rows, [1, 2], k=2)
    assert polar.n_exceedances == 5
    got = scaling_from_polar(polar)
    assert got == pytest.approx(3.92)  # (2/2) * (0.64+0.64+1+1+0.64)
    # tie-aware upper bound |q| * n_exc / k
    assert got <= 2 * 5 / 2 + 1e-12


def test_rescaled_estimate_tiny_hand_example():
    rows = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    got = estimate_rescaled_max_scaling(rows, [], 2, 2.0, k=1)
    assert got == pytest.approx(5.0)


def test_rescaled_estimate_validates():
    rows = np.array([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ValidationError):
        estimate_rescaled_max_scaling(rows, [2], 2, 2.0, k=1)
    with pytest.raises(ValidationError):
        estimate_rescaled_max_scaling(rows, [], 2, 0.9, k=1)
    with pytest.raises(ValidationError):
        estimate_rescaled_max_scaling(rows, [1], 3, 2.0, k=1)  # node outside 1..d
    with pytest.raises(ValidationError):
        estimate_rescaled_max_scaling(rows, [1, 1], 2, 2.0, k=1)  # repeated head


# ---------------------------------------------------------------------------
# estimator-range and monotonicity properties


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), q_size=st.integers(1, 4))
def test_estimator_range_no_ties(seed, q_size):
    rng = np.random.default_rng(seed)
    x = rng.pareto(2.0, size=(200, 4)) + 0.1
    cols = sorted(rng.choice(4, size=q_size, replace=False) + 1)
    k = int(rng.integers(1, 50))
    polar = polar_decompose(x, cols, k)
    got = scaling_from_polar(polar)
    assert got >= 1.0 - 1e-12
    assert got <= q_size * polar.n_exceedances / k + 1e-12


def test_singleton_estimate_is_one_without_ties():
    rng = np.random.default_rng(3)
    x = rng.pareto(2.0, size=(500, 3)) + 0.1
    assert estimate_max_scaling(x, [2], k=30) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_monotone_in_subset_on_shared_polar(seed):
    rng = np.random.default_rng(seed)
    x = rng.pareto(2.0, size=(300, 4)) + 0.1
    polar = polar_decompose(x, [1, 2, 3, 4], k=20)
    small = sorted(rng.choice(4, size=2, replace=False) + 1)
    big = sorted(set(small) | {int(rng.integers(1, 5))})
    assert (
        scaling_from_polar(polar, over=small)
        <= scaling_from_polar(polar, over=big) + 1e-12
    )


# ---------------------------------------------------------------------------
# consistency on simulated models (smoke scale; the full criterion runs in
# the acceptance module)


def test_spectral_estimates_approach_truth():
    coef = random_standardized_model(3, np.random.default_rng(42))
    n, k = 100_000, 316
    worst = 0.0
    for seed in range(5):
        x = simulate(coef, seed, n)
        for i, j in index_pairs(3):
            q = subset_at(i, j, 3)
            got = estimate_max_scaling(x, q, k)
            want = max_scaling(coef, q)
            worst = max(worst, abs(got - want))
    assert worst < 0.1


def test_rescaled_estimate_approaches_truth(two_node_model):
    from maxlinear import rescaled_max_scaling

    x = simulate(two_node_model, 9, 100_000)
    got = estimate_rescaled_max_scaling(x, [], 2, np.sqrt(2.0), k=316)
    want = rescaled_max_scaling(two_node_model, [], 2, np.sqrt(2.0))
    assert got == pytest.approx(want, abs=0.1)


# ---------------------------------------------------------------------------
# Frechet(2) MLE


def _mle(maxima) -> float:
    """The provider's MLE fit of one column of maxima."""
    return FrechetMleScalings(np.reshape(maxima, (-1, 1))).max_scaling([1])


def test_frechet_mle_hand_value():
    assert _mle([1.0, 2.0]) == pytest.approx(1.6)
    assert _mle([1.0, 2.0]) == pytest.approx(naive_frechet_mle([1.0, 2.0]))


def test_frechet_mle_validates():
    with pytest.raises(ValidationError):
        _mle([])
    with pytest.raises(ThresholdError):
        _mle([1.0, 0.0])
    with pytest.raises(ValidationError):
        _mle([1.0, np.inf])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), c=st.floats(0.2, 5.0))
def test_frechet_mle_scale_equivariant(seed, c):
    rng = np.random.default_rng(seed)
    m = rng.pareto(2.0, size=50) + 0.2
    assert _mle(c * m) == pytest.approx(c * c * _mle(m))


def test_frechet_mle_consistent_for_true_frechet(two_node_model):
    x = simulate(two_node_model, 1, 200_000)
    # X_1 and X_2 are standard Frechet(2): squared scale 1
    assert _mle(x[:, 0]) == pytest.approx(1.0, abs=0.02)
    assert _mle(x.max(axis=1)) == pytest.approx(
        max_scaling(two_node_model, [1, 2]), abs=0.03
    )


# ---------------------------------------------------------------------------
# marginal transforms


def test_negative_part_values():
    x = np.array([[1.5, -2.0], [0.0, 3.0]])
    assert np.array_equal(negative_part(x), [[0.0, 2.0], [0.0, 0.0]])


def test_rank_transform_matches_naive_and_max_literal():
    rng = np.random.default_rng(0)
    col = rng.normal(size=40)
    got = empirical_frechet_transform(col.reshape(-1, 1))[:, 0]
    assert np.allclose(got, naive_rank_transform(col.tolist()), atol=1e-12)
    # frozen literal: the maximum of any 2285-point column maps to
    # (-log(2285/2286))^(-1/2)
    long_col = np.arange(1, 2286, dtype=float).reshape(-1, 1)
    out = empirical_frechet_transform(long_col)
    assert float(out.max()) == pytest.approx(47.80690288586145, rel=1e-12)


def _rank_sample(kind: str, seed: int, n: int, d: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.standard_exponential((n, d)) ** -0.5
    if kind == "rounded":  # few distinct values, long tie runs
        x = np.round(x, 0)
    elif kind == "tie-ends":  # tie runs at each column's minimum and maximum
        lo, hi = x.min(axis=0), x.max(axis=0)
        x = np.where(rng.random((n, d)) < 0.25, lo, x)
        x = np.where(rng.random((n, d)) < 0.25, hi, x)
    elif kind == "signed":  # -0.0 beside +0.0, negatives, subnormals
        pool = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.5, 1.0, -1e300])
        x = np.where(rng.random((n, d)) < 0.6, rng.choice(pool, size=(n, d)), -x)
    elif kind == "constant":  # some columns tied throughout
        x[:, rng.random(d) < 0.3] = rng.choice([-0.0, 0.0, 1.5])
    return x


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["draw", "rounded", "tie-ends", "signed", "constant"]),
    seed=st.integers(0, 10_000),
    n=st.integers(2, 300),
    d=st.integers(1, 12),
)
@example(kind="draw", seed=0, n=10_000, d=10)
@example(kind="rounded", seed=1, n=10_000, d=10)
def test_rank_transform_equals_searchsorted_reference(kind, seed, n, d):
    x = _rank_sample(kind, seed, n, d)
    try:
        want = searchsorted_frechet_transform(x)
    except ThresholdError as exc:
        with pytest.raises(ThresholdError) as info:
            empirical_frechet_transform(x)
        assert str(info.value) == str(exc)  # the same first constant column
        return
    got = empirical_frechet_transform(x)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["draw", "rounded"])
def test_rank_transform_fills_one_column_buffer_the_provider_shares(kind):
    # the transposed view of one C-contiguous (d, n) array, as simulate
    # returns, so the MLE provider holds no second copy of the sample
    x = _rank_sample(kind, 3, 500, 4)
    got = empirical_frechet_transform(x)
    assert got.shape == (500, 4)
    assert got.T.flags.c_contiguous and got.base is not None and got.base.shape == (4, 500)
    assert np.shares_memory(FrechetMleScalings(got)._cols, got)
    assert got.tobytes() == searchsorted_frechet_transform(x).tobytes()


def test_rank_transform_monotone_and_tie_stable():
    col = np.array([3.0, 1.0, 3.0, 2.0]).reshape(-1, 1)
    out = empirical_frechet_transform(col)[:, 0]
    assert out[0] == out[2]  # ties share a value
    assert out[1] < out[3] < out[0]
    # a column tied throughout would map to a constant: no tail information
    with pytest.raises(ThresholdError, match="column 2 is constant"):
        empirical_frechet_transform(np.column_stack([col[:, 0], np.ones(4)]))


def test_rank_transform_margins_near_frechet():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50_000, 2))
    out = empirical_frechet_transform(x)
    # transformed margins should carry squared scale about 1
    assert _mle(out[:, 0]) == pytest.approx(1.0, abs=0.05)
    assert _mle(out[:, 1]) == pytest.approx(1.0, abs=0.05)
