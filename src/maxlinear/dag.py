"""Directed acyclic graphs with numbered nodes and weighted edges.

Nodes are labelled 1..d.  An edge ``(j, i)`` is read "j is a parent of
i"; influence propagates from parents to children.  Two structural
notions from this module drive everything downstream:

* *Generations*: node i belongs to generation g when the longest
  directed path reaching i from any parentless node has g edges.  No
  directed path connects two nodes of the same generation, so a
  generation may be ordered arbitrarily within itself.
* *Well-ordered labelling*: every edge points from a larger label to a
  smaller one.  Under such a labelling the path-coefficient matrix is
  upper triangular, which the identification routines rely on.

``path_coefficients`` turns an edge-weight matrix into the matrix of
maximal path products: entry (i, j) is the largest weight product over
all directed paths from j down to i, where a path's weight is the
innovation weight at its source times the weights of its edges.
"""

from __future__ import annotations

import numpy as np

from .errors import CyclicGraphError, ValidationError

NodeId = int
Edge = tuple[NodeId, NodeId]


class DagStructure:
    """Immutable DAG on nodes 1..d given as a set of (parent, child) edges.

    Args:
        node_count: number of nodes d >= 1.  It and every label must be
            an integer, a numpy one included, and not a bool.
        edges: iterable of (parent, child) pairs with distinct labels in
            1..d.  Duplicates collapse; self-loops are rejected; a
            directed cycle raises ``CyclicGraphError``.
    """

    def __init__(self, node_count: int, edges) -> None:
        edges = [tuple(e) for e in edges]
        for v in (node_count, *(label for e in edges for label in e)):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValidationError(f"node count or label {v!r} is not an integer")
        if node_count < 1:
            raise ValidationError(f"node_count must be >= 1, got {node_count}")
        edge_set = set()
        for e in edges:
            j, i = e
            if not (1 <= j <= node_count and 1 <= i <= node_count):
                raise ValidationError(f"edge {e!r} outside node range 1..{node_count}")
            if j == i:
                raise ValidationError(f"self-loop on node {j}")
            edge_set.add((int(j), int(i)))
        self._d = int(node_count)
        self._edges = frozenset(edge_set)
        self._parents = [frozenset(j for j, i in edge_set if i == n) for n in self._labels()]
        self._children = [frozenset(i for j, i in edge_set if j == n) for n in self._labels()]
        self._topo = self._topological_sort()

    def _labels(self):
        return range(1, self._d + 1)

    def _topological_sort(self) -> tuple[NodeId, ...]:
        # Kahn's algorithm, parents before children; smallest label first
        # among the ready nodes so the order is deterministic.
        indeg = {n: len(self._parents[n - 1]) for n in self._labels()}
        ready = sorted(n for n, k in indeg.items() if k == 0)
        order: list[NodeId] = []
        while ready:
            n = ready.pop(0)
            order.append(n)
            changed = False
            for c in self._children[n - 1]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
                    changed = True
            if changed:
                ready.sort()
        if len(order) != self._d:
            raise CyclicGraphError("edge set contains a directed cycle")
        return tuple(order)

    @property
    def node_count(self) -> int:
        return self._d

    @property
    def edges(self) -> frozenset[Edge]:
        return self._edges

    def parents(self, node: NodeId) -> frozenset[NodeId]:
        self._check(node)
        return self._parents[node - 1]

    def children(self, node: NodeId) -> frozenset[NodeId]:
        self._check(node)
        return self._children[node - 1]

    def ancestors(self, node: NodeId) -> frozenset[NodeId]:
        """All nodes with a directed path down to ``node`` (exclusive)."""
        return self._reach(node, self._parents)

    def descendants(self, node: NodeId) -> frozenset[NodeId]:
        return self._reach(node, self._children)

    def _reach(self, node: NodeId, links: list[frozenset[NodeId]]) -> frozenset[NodeId]:
        """Nodes reachable from ``node`` (exclusive) along ``links``, the
        parent or the child sets indexed by label - 1."""
        self._check(node)
        seen: set[NodeId] = set()
        stack = list(links[node - 1])
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                stack.extend(links[n - 1])
        return frozenset(seen)

    def initial_nodes(self) -> frozenset[NodeId]:
        """Nodes without parents."""
        return frozenset(n for n in self._labels() if not self._parents[n - 1])

    def topological_order(self) -> tuple[NodeId, ...]:
        return self._topo

    def generations(self) -> tuple[frozenset[NodeId], ...]:
        """Partition nodes by longest-path distance from the initial nodes.

        Returns:
            One group per generation: group g holds exactly the nodes
            whose longest incoming path from any parentless node has g
            edges.  Group 0 is ``initial_nodes()``; every node appears
            exactly once.
        """
        depth = {}
        for n in self._topo:
            ps = self._parents[n - 1]
            depth[n] = 1 + max(depth[p] for p in ps) if ps else 0
        top = max(depth.values())
        return tuple(
            frozenset(n for n in self._labels() if depth[n] == g) for g in range(top + 1)
        )

    def is_well_ordered(self) -> bool:
        """True when every edge points from a larger label to a smaller one."""
        return all(j > i for j, i in self._edges)

    def _check(self, node: NodeId) -> None:
        if not 1 <= node <= self._d:
            raise ValidationError(f"node {node} outside 1..{self._d}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DagStructure)
            and self._d == other._d
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self._d, self._edges))

    def __repr__(self) -> str:
        return f"DagStructure(node_count={self._d}, edges={sorted(self._edges)})"


def validate_edge_weights(dag: DagStructure, weights: np.ndarray) -> np.ndarray:
    """Check that a weight matrix matches the DAG support.

    Entry (i, k), zero-based (i-1, k-1), must be positive exactly when
    k is a parent of i or k == i (the innovation weight), and zero
    elsewhere.

    Returns:
        The validated matrix as a float64 array.
    """
    w = np.asarray(weights, dtype=np.float64)
    d = dag.node_count
    if w.shape != (d, d):
        raise ValidationError(f"weight matrix shape {w.shape} does not match d={d}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("weight matrix has non-finite entries")
    for i in range(1, d + 1):
        support = set(dag.parents(i)) | {i}
        for k in range(1, d + 1):
            v = w[i - 1, k - 1]
            if k in support and v <= 0.0:
                raise ValidationError(
                    f"weight ({i},{k}) must be positive on the DAG support"
                )
            if k not in support and v != 0.0:
                raise ValidationError(
                    f"weight ({i},{k}) must be zero off the DAG support"
                )
    return w


def path_coefficients(dag: DagStructure, weights: np.ndarray) -> np.ndarray:
    """Maximal path products for every (descendant, ancestor) pair.

    Entry (i, j) of the result is the maximum over directed paths from j
    to i of the source innovation weight ``weights[j, j]`` times the edge
    weights along the path; the diagonal carries the innovation weights
    themselves, and entries for non-ancestors are zero.

    A single dynamic-programming sweep in topological order suffices:
    when node i is processed all its parents already carry their own
    maximal path products, so taking the elementwise maximum of
    parent rows scaled by the connecting edge weight extends every
    maximal path by one edge.  Products are formed directly; the
    weights in scope are O(1) and chains are short, so no log-space
    rewrite is needed.  A product that overflows, or underflows to 0 and
    so drops an ancestor, is a ``ValidationError`` naming the first node,
    in topological order, that it reaches.

    Returns:
        A (d, d) float64 matrix, upper triangular whenever the DAG is
        well-ordered.
    """
    w = validate_edge_weights(dag, weights)
    d = dag.node_count
    coef = np.zeros((d, d), dtype=np.float64)
    for n in dag.topological_order():
        i = n - 1
        ps = [p - 1 for p in dag.parents(n)]
        for p in ps:
            with np.errstate(over="ignore"):
                np.maximum(coef[i], w[i, p] * coef[p], out=coef[i])
        if not np.isfinite(coef[i]).all():
            raise ValidationError(f"path products into node {n} overflow")
        if ((coef[ps] > 0.0).any(axis=0) & (coef[i] == 0.0)).any():  # a lost ancestor
            raise ValidationError(f"path products into node {n} underflow to 0")
        coef[i, i] = w[i, i]
    return coef
