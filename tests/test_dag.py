"""DAG structure, generations, well-ordering, and path coefficients."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlinear import (
    CyclicGraphError,
    DagStructure,
    ValidationError,
    path_coefficients,
    random_weights,
    random_well_ordered_dag,
    ten_node_dag,
    unit_weights,
    validate_edge_weights,
)
from maxlinear.presets import TEN_NODE_EDGES, TEN_NODE_GENERATIONS

from reference import (
    naive_ancestors,
    naive_generations,
    naive_path_coefficients,
)

# ---------------------------------------------------------------------------
# construction and validation


def test_rejects_self_loop():
    with pytest.raises(ValidationError):
        DagStructure(3, [(2, 2)])


def test_rejects_out_of_range_labels():
    with pytest.raises(ValidationError):
        DagStructure(3, [(4, 1)])
    with pytest.raises(ValidationError):
        DagStructure(3, [(0, 1)])


def test_rejects_cycle():
    with pytest.raises(CyclicGraphError):
        DagStructure(3, [(1, 2), (2, 3), (3, 1)])


def test_rejects_nonpositive_node_count():
    with pytest.raises(ValidationError):
        DagStructure(0, [])


@pytest.mark.parametrize(
    "node_count, edges, named",
    [
        (3.7, [(2, 1)], "3.7"),
        (3, [(2.5, 1)], "2.5"),
        (3, [(True, 3)], "True"),
        (3, [(3, "1")], "'1'"),
        ("3", [], "'3'"),
        (3.0, [], "3.0"),
    ],
    ids=["float-count", "float-label", "bool", "string-label", "string-count", "whole-float"],
)
def test_rejects_labels_that_are_not_integers(node_count, edges, named):
    with pytest.raises(ValidationError, match=f"label {named} is not an integer"):
        DagStructure(node_count, edges)


def test_numpy_integer_labels_are_integers():
    dag = DagStructure(np.int64(3), [(np.int32(3), np.uint8(1))])
    assert dag.node_count == 3 and dag.edges == frozenset({(3, 1)})
    assert all(type(v) is int for e in dag.edges for v in e)


def test_duplicate_edges_collapse():
    dag = DagStructure(2, [(2, 1), (2, 1)])
    assert dag.edges == frozenset({(2, 1)})


def test_equality_and_hash():
    a = DagStructure(3, [(3, 1), (2, 1)])
    b = DagStructure(3, [(2, 1), (3, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != DagStructure(3, [(3, 1)])


# ---------------------------------------------------------------------------
# ordering, ancestry, generations


def test_topological_order_parents_first():
    dag = DagStructure(4, [(4, 2), (4, 3), (2, 1), (3, 1)])
    order = dag.topological_order()
    pos = {n: i for i, n in enumerate(order)}
    for p, c in dag.edges:
        assert pos[p] < pos[c]


def test_initial_nodes_diamond():
    dag = DagStructure(4, [(4, 2), (4, 3), (2, 1), (3, 1)])
    assert dag.initial_nodes() == frozenset({4})


def test_ancestors_descendants_diamond():
    dag = DagStructure(4, [(4, 2), (4, 3), (2, 1), (3, 1)])
    assert dag.ancestors(1) == frozenset({2, 3, 4})
    assert dag.descendants(4) == frozenset({1, 2, 3})
    assert dag.parents(1) == frozenset({2, 3})
    assert dag.children(4) == frozenset({2, 3})


def test_ten_node_generations_frozen():
    gens = ten_node_dag().generations()
    assert gens == TEN_NODE_GENERATIONS
    assert [sorted(g) for g in gens] == [[10], [8, 9], [5, 6, 7], [1, 2, 3, 4]]


def test_ten_node_is_well_ordered():
    assert ten_node_dag().is_well_ordered()
    assert not DagStructure(2, [(1, 2)]).is_well_ordered()


def test_ten_node_edge_list_frozen():
    assert frozenset(TEN_NODE_EDGES) == frozenset(
        {
            (5, 1),
            (5, 2),
            (6, 2),
            (6, 3),
            (7, 3),
            (7, 4),
            (8, 5),
            (8, 6),
            (9, 6),
            (9, 7),
            (10, 8),
            (10, 9),
        }
    )


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_generations_match_naive_longest_path(d, seed):
    dag = random_well_ordered_dag(d, np.random.default_rng(seed))
    got = [set(g) for g in dag.generations()]
    assert got == naive_generations(d, sorted(dag.edges))


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_ancestors_match_naive_reachability(d, seed):
    dag = random_well_ordered_dag(d, np.random.default_rng(seed))
    edges = sorted(dag.edges)
    for v in range(1, d + 1):
        assert set(dag.ancestors(v)) == naive_ancestors(edges, v)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_no_directed_path_within_a_generation(d, seed):
    dag = random_well_ordered_dag(d, np.random.default_rng(seed))
    for group in dag.generations():
        for v in group:
            assert not (dag.ancestors(v) & group)
            assert not (dag.descendants(v) & group)


# ---------------------------------------------------------------------------
# edge weights and path coefficients


def test_validate_edge_weights_positive_on_support_only():
    dag = DagStructure(2, [(2, 1)])
    good = np.array([[1.0, 0.5], [0.0, 1.0]])
    validate_edge_weights(dag, good)
    with pytest.raises(ValidationError):
        validate_edge_weights(dag, np.array([[1.0, 0.0], [0.0, 1.0]]))  # missing edge
    with pytest.raises(ValidationError):
        validate_edge_weights(dag, np.array([[1.0, 0.5], [0.3, 1.0]]))  # off support
    with pytest.raises(ValidationError):
        validate_edge_weights(dag, np.array([[0.0, 0.5], [0.0, 1.0]]))  # zero diagonal


def test_path_coefficients_chain_hand_example():
    # 3 -> 2 -> 1 plus direct 3 -> 1: best path wins the max.
    dag = DagStructure(3, [(3, 2), (2, 1), (3, 1)])
    w = np.array(
        [
            [1.0, 0.5, 0.1],
            [0.0, 2.0, 0.7],
            [0.0, 0.0, 3.0],
        ]
    )
    coef = path_coefficients(dag, w)
    assert coef[0, 0] == 1.0 and coef[1, 1] == 2.0 and coef[2, 2] == 3.0
    assert coef[1, 2] == pytest.approx(3.0 * 0.7)  # c_33 * c_23
    # direct 3->1: 3.0*0.1 = 0.3; via 2: 3.0*0.7*0.5 = 1.05 -> max wins
    assert coef[0, 2] == pytest.approx(1.05)
    assert coef[0, 1] == pytest.approx(2.0 * 0.5)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 7), seed=st.integers(0, 10_000))
def test_path_coefficients_match_naive_path_enumeration(d, seed):
    rng = np.random.default_rng(seed)
    dag = random_well_ordered_dag(d, rng)
    w = random_weights(dag, rng)
    got = path_coefficients(dag, w)
    want = naive_path_coefficients(d, sorted(dag.edges), w.tolist())
    assert np.allclose(got, np.asarray(want), rtol=0, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_support_equals_ancestry_and_triangular(d, seed):
    rng = np.random.default_rng(seed)
    dag = random_well_ordered_dag(d, rng)
    coef = path_coefficients(dag, random_weights(dag, rng))
    assert np.all(np.diag(coef) > 0)
    # well-ordered labels: support is upper-triangular as-is
    assert np.allclose(coef, np.triu(coef))
    for i in range(1, d + 1):
        support = {j for j in range(1, d + 1) if j != i and coef[i - 1, j - 1] > 0}
        assert support == set(dag.ancestors(i))


def test_path_coefficients_unit_weights_ten_node():
    dag = ten_node_dag()
    coef = path_coefficients(dag, unit_weights(dag))
    # with all weights one, a_ij = 1 exactly on {i} u ancestors(i)
    for i in range(1, 11):
        for j in range(1, 11):
            expect = 1.0 if (j == i or j in dag.ancestors(i)) else 0.0
            assert coef[i - 1, j - 1] == expect
