"""Causal-order learning: initial nodes, generations, argmax ordering."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maxlinear import (
    DagStructure,
    EmptyGenerationError,
    ExactScalings,
    FrechetMleScalings,
    NoInitialNodeError,
    ReorderConfig,
    SpectralScalings,
    ThresholdError,
    ValidationError,
    empirical_frechet_transform,
    estimate_max_scaling,
    learn_generations,
    learn_order,
    max_scaling,
    path_coefficients,
    random_standardized_model,
    random_weights,
    random_well_ordered_dag,
    rescaled_max_scaling,
    simulate,
    standardize,
    ten_node_dag,
    ten_node_model,
)
from maxlinear import _kernels
from maxlinear.pipeline import scaling_vector_from_provider
from maxlinear.presets import TEN_NODE_GENERATIONS

# a float-noise-only band: exact-scaling deltas of eligible nodes carry
# ~1e-16 arithmetic residue, while structural margins sit orders above
EXACT = ReorderConfig(eps1=1e-9, eps2=1e-9, eps3=1e-9)

# ---------------------------------------------------------------------------
# configuration


def test_reorder_config_validation():
    for bad in (
        {"a": 1.0},
        {"a": math.nan},
        {"a": math.inf},
        {"a": 1e200},  # a * a overflows
        {"eps1": -0.1},
        {"eps3": -1e-9},
        {"eps1": math.nan},
        {"eps2": math.inf},
        {"eps3": math.nan},
    ):
        with pytest.raises(ValidationError):
            ReorderConfig(**bad)


def test_preset_values():
    sim = ReorderConfig.simulation_preset()
    assert (sim.a, sim.eps1, sim.eps2, sim.eps3) == (np.sqrt(2.0), 0.1, 0.05, 0.1)
    data = ReorderConfig.data_preset()
    assert (data.a, data.eps1, data.eps2, data.eps3) == (1.01, 0.0045, 0.0045, 0.1)


# ---------------------------------------------------------------------------
# providers


def test_exact_scalings_match_model_functions(diamond_model):
    prov = ExactScalings(diamond_model)
    assert prov.node_count == 4
    assert prov.max_scaling([1, 3]) == pytest.approx(
        max_scaling(diamond_model, [1, 3])
    )
    assert prov.rescaled_scaling((4,), 2, 1.3) == pytest.approx(
        rescaled_max_scaling(diamond_model, (4,), 2, 1.3)
    )


def test_spectral_scalings_match_direct_estimates(two_node_model):
    x = simulate(two_node_model, 1, 5000)
    prov = SpectralScalings(x, k=70)
    assert prov.node_count == 2
    assert prov.threshold_count == 70
    direct = estimate_max_scaling(x, [1, 2], 70)
    assert prov.max_scaling([1, 2]) == pytest.approx(direct)
    # the order the nodes are named in does not matter
    assert prov.max_scaling([1, 2]) == prov.max_scaling([2, 1])


def test_frechet_mle_scalings_basics(two_node_model):
    x = simulate(two_node_model, 2, 50_000)
    prov = FrechetMleScalings(x)
    assert prov.node_count == 2
    assert prov.max_scaling([1]) == pytest.approx(1.0, abs=0.05)
    assert prov.max_scaling([1, 2]) == pytest.approx(1.5, abs=0.05)
    # singleton scale equivariance through the provider
    scaled = FrechetMleScalings(np.column_stack([3.0 * x[:, 0], x[:, 1]]))
    assert scaled.max_scaling([1]) == pytest.approx(9.0 * prov.max_scaling([1]))
    with pytest.raises(ValidationError, match="must exceed 1"):
        prov.pass_scalings((), 1.0)


def test_frechet_mle_scalings_zero_row_is_threshold_error():
    x = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 1.0]])
    with pytest.raises(ThresholdError):
        FrechetMleScalings(x).max_scaling([1, 2])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_frechet_mle_scalings_reject_non_finite_sample(bad):
    x = np.ones((4, 3))
    x[2, 1] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        FrechetMleScalings(x)


def _outcome(compute):
    try:
        return compute()
    except ThresholdError as exc:
        return f"ThresholdError: {exc}"


# few distinct values, so rows tie within themselves and against the
# inflated maxima (1.01 * 1.0 == 1.01); some rows have no positive entry
_ELEMENTS = {
    "tied": st.sampled_from((-1.5, -0.0, 0.0, 0.25, 1.0, 1.01, 2.0)),
    "positive": st.floats(0.05, 50.0),
    "signed": st.floats(-5.0, 5.0),
}


@pytest.mark.parametrize("kind", sorted(_ELEMENTS))
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    d=st.sampled_from([1, 2, 3, 10]),
    n=st.integers(1, 30),
    factor=st.sampled_from([1.01, math.sqrt(2.0), 3.0]),
)
def test_mle_pass_scalings_equal_per_subset_fits(kind, data, d, n, factor):
    x = data.draw(hnp.arrays(np.float64, (n, d), elements=_ELEMENTS[kind]))
    order = data.draw(st.permutations(range(1, d + 1)))
    _assert_mle_passes_equal_per_subset_fits(x, order, factor)


def _assert_mle_passes_equal_per_subset_fits(x, order, factor):
    d = x.shape[1]
    outcomes = []
    for head in {(), tuple(order[: d // 2]), tuple(order[: d - 1])}:

        def per_subset():
            prov = FrechetMleScalings(x)
            return {
                m: (prov.max_scaling((*head, m)), prov.rescaled_scaling(head, m, factor))
                for m in range(1, d + 1)
                if m not in head
            }

        with np.errstate(over="ignore"):  # m**-2 of a tiny maximum, on both paths
            want = _outcome(per_subset)
            got = _outcome(lambda: FrechetMleScalings(x).pass_scalings(head, factor))
        assert got == want
        outcomes.append(got)
    return outcomes


@pytest.mark.parametrize("kind", ["wide", "overflow", "signed"])
@pytest.mark.parametrize("factor", [1.01, math.sqrt(2.0)])
def test_mle_pass_scalings_equal_per_subset_fits_at_wide_magnitudes(kind, factor):
    # n is no multiple of the SIMD width; magnitudes 10^+-150 meet tiny row
    # maxima, and 10^+-160 ones whose inverse square overflows to inf
    rng = np.random.default_rng(["wide", "overflow", "signed"].index(kind))
    n, d = 1003, 10
    top = 160 if kind == "overflow" else 150
    x = rng.uniform(0.5, 2.0, size=(n, d)) * 10.0 ** rng.integers(-top, top + 1, size=(n, d))
    if kind == "signed":
        # zeros of both signs and negative entries, but no row without a
        # positive entry in the deepest heads
        spots = rng.random(size=(n, d)) < 0.1
        x[spots] = rng.choice([0.0, -0.0, -1.0, -1e150], size=int(spots.sum()))
    outcomes = _assert_mle_passes_equal_per_subset_fits(x, list(rng.permutation(d) + 1), factor)
    if kind != "overflow":
        # some pass fits finitely, so values are compared, not only errors
        assert any(isinstance(o, dict) for o in outcomes)


def test_mle_fits_keep_their_error_texts():
    positive = "row maxima must be strictly positive for the MLE"
    in_range = "row maxima must be in floating-point range for the MLE"
    x = np.random.default_rng(0).standard_exponential((500, 3)) ** -0.5
    # the constructor's all-node fit: a row with no positive entry, and
    # maxima whose inverse squares overflow
    bare = x.copy()
    bare[7] = [0.0, -0.0, -2.0]
    for sample, text in ((bare, positive), (x * 1e-170, in_range)):
        with pytest.raises(ThresholdError, match=text):
            FrechetMleScalings(sample)
    # a pass: the row is non-positive on the first two columns only, or
    # the first column alone is out of range; a head on the third column
    # lifts both
    part = x.copy()
    part[7, :2] = [0.0, -1.0]
    small = x * [1e-170, 1.0, 1.0]
    for sample, text in ((part, positive), (small, in_range)):
        prov = FrechetMleScalings(sample)
        with pytest.raises(ThresholdError, match=text):
            prov.pass_scalings((), 1.01)
        assert sorted(prov.pass_scalings((3,), 1.01)) == [1, 2]


@pytest.mark.parametrize("kind", sorted(_ELEMENTS))
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    d=st.sampled_from([1, 2, 3, 10, 12]),
    n=st.integers(1, 30),
    factor=st.sampled_from([1.01, math.sqrt(2.0), 3.0]),
)
def test_spectral_pass_scalings_equal_per_subset_estimates(kind, data, d, n, factor):
    # d = 10 and 12 add as many columns into each radius as the ten-node
    # preset and more; both paths add them in the same column order
    x = data.draw(hnp.arrays(np.float64, (n, d), elements=_ELEMENTS[kind]))
    k = data.draw(st.integers(1, n))
    order = data.draw(st.permutations(range(1, d + 1)))
    for head in {(), tuple(order[: d // 2]), tuple(order[: d - 1])}:

        def per_subset():
            prov = SpectralScalings(x, k)
            return {
                m: (prov.max_scaling((*head, m)), prov.rescaled_scaling(head, m, factor))
                for m in range(1, d + 1)
                if m not in head
            }

        want = _outcome(per_subset)
        got = _outcome(lambda: SpectralScalings(x, k).pass_scalings(head, factor))
        assert got == want


# ---------------------------------------------------------------------------
# exact-mode delta criteria (both directions, strictness)


def test_initial_deltas_two_node_hand_values(two_node_model):
    a = np.sqrt(2.0)
    base = max_scaling(two_node_model, [1, 2])
    d2 = rescaled_max_scaling(two_node_model, [], 2, a) - base - (a * a - 1.0)
    d1 = rescaled_max_scaling(two_node_model, [], 1, a) - base - (a * a - 1.0)
    assert d2 == pytest.approx(0.0, abs=1e-14)
    assert d1 == pytest.approx(-0.5, abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 100_000))
def test_initial_delta_zero_iff_parentless(d, seed):
    rng = np.random.default_rng(seed)
    dag = random_well_ordered_dag(d, rng)
    coef = standardize(path_coefficients(dag, random_weights(dag, rng)))
    a = np.sqrt(2.0)
    base = max_scaling(coef, list(range(1, d + 1)))
    for m in range(1, d + 1):
        delta = rescaled_max_scaling(coef, [], m, a) - base - (a * a - 1.0)
        if not dag.parents(m):
            assert abs(delta) <= 1e-12
        else:
            assert delta < -1e-9


@settings(max_examples=50, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 100_000))
def test_generation_delta_zero_iff_no_unordered_ancestors(d, seed):
    rng = np.random.default_rng(seed)
    dag = random_well_ordered_dag(d, rng)
    coef = standardize(path_coefficients(dag, random_weights(dag, rng)))
    a = np.sqrt(2.0)
    base = max_scaling(coef, list(range(1, d + 1)))
    gens = dag.generations()
    head: list[int] = []
    for g in range(len(gens) - 1):
        head.extend(sorted(gens[g]))
        for m in range(1, d + 1):
            if m in head:
                continue
            delta = (
                rescaled_max_scaling(coef, head, m, a)
                - base
                - (a * a - 1.0) * max_scaling(coef, sorted(set(head) | {m}))
            )
            if dag.ancestors(m) <= set(head):
                assert abs(delta) <= 1e-12
            else:
                assert delta < -1e-9


def test_initial_nodes_threshold_two_node(two_node_model):
    res = learn_generations(ExactScalings(two_node_model), EXACT)
    assert res.passes[0].kind == "initial"
    assert res.passes[0].accepted == (2,)


def test_next_generation_threshold_diamond(diamond_model):
    res = learn_generations(ExactScalings(diamond_model), EXACT)
    assert res.generations == ((4,), (2, 3), (1,))
    assert [(p.ordered_before, p.accepted) for p in res.passes[1:]] == [
        ((4,), (2, 3)),
        ((4, 2, 3), (1,)),
    ]


def test_unrelated_pair_diamond(diamond_model):
    # two nodes accepted by the same generation pass are mutually
    # non-ancestral: 2 and 3 pass given head (4,), their descendant 1 fails
    res = learn_generations(
        ExactScalings(diamond_model), ReorderConfig.simulation_preset()
    )
    step = res.passes[1]
    assert step.ordered_before == (4,)
    assert step.accepted == (2, 3)
    assert abs(step.deltas[1]) > ReorderConfig.simulation_preset().eps3


# ---------------------------------------------------------------------------
# threshold-mode generation learning


def test_learn_generations_ten_node_exact(preset_model):
    res = learn_generations(ExactScalings(preset_model), ReorderConfig.simulation_preset())
    assert res.generations == tuple(tuple(sorted(g)) for g in TEN_NODE_GENERATIONS)
    assert res.discovery == (10, 8, 9, 5, 6, 7, 1, 2, 3, 4)
    kinds = [p.kind for p in res.passes]
    assert kinds == ["initial", "generation", "generation", "generation"]
    # position/column_order mechanics: first discovery gets position d
    assert res.position(10) == 10
    assert res.position(4) == 1
    assert res.column_order() == tuple(reversed(res.discovery))
    assert res.label_at_position(10) == 10


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 100_000))
def test_learn_generations_recovers_true_generations_exact(d, seed):
    rng = np.random.default_rng(seed)
    dag = random_well_ordered_dag(d, rng)
    coef = standardize(path_coefficients(dag, random_weights(dag, rng)))
    res = learn_generations(ExactScalings(coef), EXACT)
    truth = tuple(tuple(sorted(g)) for g in dag.generations())
    assert res.generations == truth


def test_learn_generations_strict_failure_paths(two_node_model):
    # estimated data with zero-width bands: nothing can pass the initial test
    x = simulate(two_node_model, 0, 2000)
    prov = FrechetMleScalings(x)
    impossible = ReorderConfig(eps1=0.0, eps2=0.0)
    with pytest.raises(NoInitialNodeError):
        learn_generations(prov, impossible)
    # initial band wide enough for node 2 only, zero-width generation band:
    # pass one succeeds, pass two finds nothing
    gen_block = ReorderConfig(eps1=0.1, eps2=0.1, eps3=0.0)
    with pytest.raises(EmptyGenerationError):
        learn_generations(prov, gen_block)


# ---------------------------------------------------------------------------
# argmax-mode ordering


def test_learn_order_star_tie_breaks_to_smallest_label():
    dag = DagStructure(3, [(3, 1), (3, 2)])
    w = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.8], [0.0, 0.0, 1.0]])
    coef = standardize(path_coefficients(dag, w))
    res = learn_order(ExactScalings(coef), EXACT)
    assert res.discovery == (3, 1, 2)
    assert res.column_order() == (2, 1, 3)


def test_learn_order_exact_precedes_descendants_200_dags():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        d = int(rng.integers(2, 11))
        dag = random_well_ordered_dag(d, rng)
        coef = standardize(path_coefficients(dag, random_weights(dag, rng)))
        res = learn_order(ExactScalings(coef), EXACT)
        pos = {lab: i for i, lab in enumerate(res.discovery)}
        for v in range(1, d + 1):
            for anc in dag.ancestors(v):
                assert pos[anc] < pos[v]


def test_learn_order_reads_no_tolerance(two_node_model):
    # zero-width bands on a sample where no initial band holds a node: the
    # largest delta of every pass reads only a, on every provider
    xt = empirical_frechet_transform(simulate(two_node_model, 0, 2000))
    preset = ReorderConfig.data_preset()
    zero = ReorderConfig(a=preset.a, eps1=0.0, eps2=0.0, eps3=0.0)
    providers = ExactScalings(two_node_model), FrechetMleScalings(xt), SpectralScalings(xt, 40)
    for prov in providers:
        want = learn_order(prov, preset)
        got = learn_order(prov, zero)
        assert got.discovery == want.discovery == (2, 1)
        assert got.passes == want.passes


def test_learn_order_ten_node_data_frozen_seed(preset_model):
    xt = empirical_frechet_transform(simulate(preset_model, 0, 10_000))
    res = learn_order(SpectralScalings(xt, 100), ReorderConfig.data_preset())
    assert res.discovery == (10, 9, 8, 6, 5, 7, 1, 4, 2, 3)
    # topologically consistent with the generating DAG
    dag = ten_node_dag()
    pos = {lab: i for i, lab in enumerate(res.discovery)}
    for v in range(1, 11):
        for anc in dag.ancestors(v):
            assert pos[anc] < pos[v]
    # one pass per node, each taking the largest delta
    assert [p.kind for p in res.passes] == ["initial"] + ["argmax"] * 9


def test_learn_order_ten_node_mle_provider_frozen_seed(preset_model, monkeypatch):
    xt = empirical_frechet_transform(simulate(preset_model, 0, 10_000))
    fitted = []
    per_subset = _kernels.scaled_rowmax_invsq_mean
    monkeypatch.setattr(
        _kernels,
        "scaled_rowmax_invsq_mean",
        lambda x, w: fitted.append(w.copy()) or per_subset(x, w),
    )
    prov = FrechetMleScalings(xt)
    res = learn_order(prov, ReorderConfig.data_preset())
    # the passes fit their subsets in one sweep each, and the all-node
    # scaling and the scaling vector come from the provider's row maximum
    # and the recorded passes: nothing is fitted subset by subset
    scaling_vector_from_provider(prov, res)
    assert fitted == []
    dag = ten_node_dag()
    pos = {lab: i for i, lab in enumerate(res.discovery)}
    for v in range(1, 11):
        for anc in dag.ancestors(v):
            assert pos[anc] < pos[v]
    # the largest delta from the first pass on: node 10, then one argmax per node
    assert res.passes[0].kind == "initial"
    assert res.passes[0].accepted == (10,)
    assert [p.kind for p in res.passes[1:]] == ["argmax"] * 9
