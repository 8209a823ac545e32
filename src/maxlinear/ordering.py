"""Causal-order recovery for recursive max-linear models.

Every decision here compares scalings of maxima before and after
inflating a candidate group of components by a factor ``a > 1``.  The
inflating trick separates ancestors from non-ancestors: if the
candidate node has no unordered ancestors the inflated and plain
scalings differ by exactly ``(a^2 - 1)`` times the scaling of the
inflated group, otherwise by strictly less.  The gap, written
``delta`` throughout, drives one discovery loop: each pass computes the
deltas of the unordered nodes given the ordered head and extends the
head.  The pass with the empty head keeps the kind ``"initial"``.

``learn_order`` takes the single largest delta in every pass, from the
empty head on: eligible nodes sit at the top, so the rule is
noise-robust and reads no tolerance, and only an exact tie falls back
to the smaller label.  Two runs start from a band instead:

* ``learn_generations`` starts with the threshold pass, which accepts
  the nodes whose delta lies in [-eps2, eps1] (parentless nodes have
  delta exactly zero), and then accepts every node with |delta| within
  eps3, whole generations at a time;
* ``learn_order`` on ``SpectralScalings`` starts with the pairwise
  screen, the data-frugal variant on a sample, which tests each node
  against every single partner instead of all nodes at once.  It
  appends its band in label order until a tail-based first step
  replaces it.

Scalings are supplied by a provider object so the loop runs
identically on exact model scalings (``ExactScalings``) and on data
estimates (``SpectralScalings`` for the angular estimators,
``FrechetMleScalings`` for the parametric ones).  Each pass subtracts
``all_node_scaling()`` and makes one call, ``pass_scalings(ordered,
factor)``, which returns for every unordered candidate m the scaling of
head ∪ {m} and the scaling of the maximum with that group inflated;
the data providers answer it from tables they form once.  Each
``DeltaPass`` keeps its answer, which is where the scaling vector is
read from.  No pass calls the per-subset methods ``max_scaling`` and
``rescaled_scaling``; they are the references the tests hold it to.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from . import _kernels
from .errors import (
    EmptyGenerationError,
    NoInitialNodeError,
    ThresholdError,
    ValidationError,
)
from .estimation import (
    _as_sample,
    _check_threshold_count,
    _inflated_columns,
    _max_scaling_of_squares,
    _rescaled_scaling_of_squares,
    estimate_max_scaling,
    estimate_rescaled_max_scaling,
)
from .model import (
    _check_factor,
    as_coefficient_matrix,
    max_scaling,
    rescaled_max_scaling,
)

# Data providers run under this: an estimate pushed out of floating-point
# range fails a finiteness check and raises, so numpy's warnings about
# the same overflow would only repeat it.
_quiet = np.errstate(over="ignore", divide="ignore", invalid="ignore")


@dataclass(frozen=True)
class ReorderConfig:
    """Tuning constants of the ordering procedure; the scaling source is
    the provider's, not a field here.

    ``a`` is the inflation factor; ``eps1``/``eps2`` bound the initial
    band of ``learn_generations`` and of the pairwise screen from
    above/below; ``eps3`` bounds |delta| in the generation passes.  The
    defaults are the simulation preset; ``data_preset`` returns the
    configuration used for raw heavy-tailed data where a barely-inflating
    factor keeps the deltas comparable across dependent estimates.
    """

    a: float = math.sqrt(2.0)
    eps1: float = 0.1
    eps2: float = 0.05
    eps3: float = 0.1

    def __post_init__(self) -> None:
        _check_factor(self.a)
        if not all(0.0 <= e < math.inf for e in (self.eps1, self.eps2, self.eps3)):
            raise ValidationError("tolerances must be finite and non-negative")

    @staticmethod
    def simulation_preset() -> "ReorderConfig":
        return ReorderConfig()

    @staticmethod
    def data_preset() -> "ReorderConfig":
        return ReorderConfig(a=1.01, eps1=0.0045, eps2=0.0045, eps3=0.1)


class ScalingProvider(Protocol):
    """Source of squared scalings over node subsets, exact or estimated.

    ``all_node_scaling()`` is the squared scaling of the maximum of all
    components.  ``pass_scalings(ordered, factor)`` maps every node m
    outside ``ordered`` to ``(g, r)``: g is the squared scaling of the
    maximum over ``ordered`` and m, and r that of the maximum of all
    components with ``ordered`` and m inflated by ``factor``.
    """

    @property
    def node_count(self) -> int: ...

    def all_node_scaling(self) -> float: ...

    def pass_scalings(
        self, ordered: Sequence[int], factor: float
    ) -> dict[int, tuple[float, float]]: ...


class ExactScalings:
    """Theoretical scalings of a known (standardized) coefficient matrix."""

    def __init__(self, coef: np.ndarray) -> None:
        self._coef = as_coefficient_matrix(coef)

    @property
    def node_count(self) -> int:
        return self._coef.shape[0]

    def max_scaling(self, nodes: Sequence[int]) -> float:
        return max_scaling(self._coef, nodes)

    def rescaled_scaling(self, ordered: Sequence[int], node: int, factor: float) -> float:
        return rescaled_max_scaling(self._coef, ordered, node, factor)

    def all_node_scaling(self) -> float:
        return max_scaling(self._coef, _all_nodes(self.node_count))

    def pass_scalings(
        self, ordered: Sequence[int], factor: float
    ) -> dict[int, tuple[float, float]]:
        hs, c = tuple(ordered), self._coef
        return {
            m: (max_scaling(c, (*hs, m)), rescaled_max_scaling(c, hs, m, factor))
            for m in _all_nodes(self.node_count)
            if m not in hs
        }


def _varying_columns(x: np.ndarray) -> np.ndarray:
    """A finite sample as a contiguous (d, n) array of its columns, none
    of which is constant; the transposed view ``simulate`` returns is
    taken as it is, without a copy."""
    cols = np.ascontiguousarray(_as_sample(x).T)
    top = cols.max(axis=1)
    const = np.flatnonzero(top == cols.min(axis=1))
    if const.size:
        c = const[0]
        what = "all zero" if top[c] == 0.0 else "constant"
        raise ThresholdError(f"column {c + 1} is {what} and carries no tail information")
    return cols


class SpectralScalings:
    """Angular-measure estimates from one sample with a fixed threshold.

    The sample is validated once and its squares are held column by
    column, with the squares of the inflated columns for each factor a
    pass has used.  ``pass_scalings`` and ``pair_scalings`` hand views of
    these columns to ``_kernels.scaling_sum``.  Group estimates are
    memoized: the pairwise screen reads each plain pair twice and every
    pass the all-node scaling.  The per-subset methods go through the
    public estimators ``estimate_max_scaling`` and
    ``estimate_rescaled_max_scaling``; both paths give the same bits.

    Raises:
        ValidationError: k is not an integer of at least 1, or the
            sample is not a non-empty, finite 2-D matrix.
        ThresholdError: a column is constant (all zero included), so
            no estimate that involves it carries tail information.
    """

    @_quiet
    def __init__(self, x: np.ndarray, k: int) -> None:
        self._k = _check_threshold_count(k)
        self._cols = _varying_columns(x)
        self._sq = self._cols * self._cols
        self._inflated_sq: dict[float, np.ndarray] = {}
        self._groups: dict[frozenset[int], float] = {}

    @property
    def node_count(self) -> int:
        return self._cols.shape[0]

    @property
    def threshold_count(self) -> int:
        return self._k

    def max_scaling(self, nodes: Sequence[int]) -> float:
        return estimate_max_scaling(self._cols.T, sorted(nodes), self._k)

    def rescaled_scaling(self, ordered: Sequence[int], node: int, factor: float) -> float:
        return estimate_rescaled_max_scaling(
            self._cols.T, sorted(ordered), node, factor, self._k
        )

    def _inflated(self, factor: float) -> np.ndarray:
        if factor not in self._inflated_sq:
            _check_factor(factor)
            scaled = factor * self._cols
            self._inflated_sq[factor] = np.multiply(scaled, scaled, out=scaled)
        return self._inflated_sq[factor]

    def _group(self, key: frozenset[int]) -> float:
        if key not in self._groups:
            subset = tuple(sorted(key))
            sq = [self._sq[v - 1] for v in subset]
            self._groups[key] = _max_scaling_of_squares(sq, subset, self._k)
        return self._groups[key]

    @_quiet
    def all_node_scaling(self) -> float:
        return self._group(frozenset(_all_nodes(self.node_count)))

    @_quiet
    def pass_scalings(
        self, ordered: Sequence[int], factor: float
    ) -> dict[int, tuple[float, float]]:
        factor = float(factor)
        inflated = self._inflated(factor)
        d = self.node_count
        hs = frozenset(int(v) for v in ordered)
        out: dict[int, tuple[float, float]] = {}
        for m in _all_nodes(d):
            if m in hs:
                continue
            grown = hs | {m}
            group = self._group(grown)
            sq = [inflated[j] if j + 1 in grown else self._sq[j] for j in range(d)]
            where = _inflated_columns(grown)
            rescaled = _rescaled_scaling_of_squares(sq, len(grown), factor, self._k, where)
            out[m] = (group, rescaled)
        return out

    @_quiet
    def pair_scalings(self, i: int, m: int, factor: float) -> tuple[float, float]:
        """Scalings of ``max(X_i, X_m)`` and of ``max(X_i, factor X_m)``,
        each estimated on the two columns alone."""
        factor = float(factor)
        sq = [self._sq[i - 1], self._inflated(factor)[m - 1]]
        where = f"columns ({i}, {m}) with column {m} inflated"
        inflated = _rescaled_scaling_of_squares(sq, 1, factor, self._k, where)
        return self._group(frozenset((i, m))), inflated


class FrechetMleScalings:
    """Parametric scaling estimates: componentwise maxima are treated as
    Frechet(2) and their squared scale fitted by maximum likelihood.

    Used by the simulation-study harness and by default in ``learn`` on
    data; unlike the angular estimates these use every observation, not
    only the radial exceedances.  The sample must be finite.  It is held
    column by column, and with it the inverse squares the fits average
    (``_kernels.inverse_squares``): of every column, of the row maximum,
    whose table also gives the all-node fit, and of the inflated columns
    for each factor a pass has used.  ``pass_scalings`` then fits all
    candidates of a pass from these tables with row minima and sums
    (``_kernels.pass_invsq_means``), takes no power and keeps no buffer.

    Raises:
        ValidationError: the sample is not a non-empty, finite 2-D matrix.
        ThresholdError: a column is constant (all zero included), so
            no fit that involves it carries tail information, or the
            all-node fit is not finite.
    """

    @_quiet
    def __init__(self, x: np.ndarray) -> None:
        self._cols = _varying_columns(x)
        self._inv = _kernels.inverse_squares(self._cols)
        top = self._cols.max(axis=0)
        self._top_inv = _kernels.inverse_squares(top, out=top)
        self._inflated_inv: dict[float, np.ndarray] = {}
        self._all_node = self._fit(float(self._top_inv.sum() / self._top_inv.shape[0]))

    @property
    def node_count(self) -> int:
        return self._cols.shape[0]

    @staticmethod
    def _fit(mean: float) -> float:
        # nan marks a non-positive row maximum; 1 / mean must be finite
        if not sys.float_info.min <= mean < math.inf:
            what = "strictly positive" if math.isnan(mean) else "in floating-point range"
            raise ThresholdError(f"row maxima must be {what} for the MLE")
        return float(1.0 / mean)

    def _mle(self, weights: np.ndarray) -> float:
        return self._fit(_kernels.scaled_rowmax_invsq_mean(self._cols.T, weights))

    def max_scaling(self, nodes: Sequence[int]) -> float:
        w = np.zeros(self.node_count)
        w[[v - 1 for v in nodes]] = 1.0
        return self._mle(w)

    def rescaled_scaling(self, ordered: Sequence[int], node: int, factor: float) -> float:
        w = np.ones(self.node_count)
        w[[v - 1 for v in (*ordered, node)]] = factor
        return self._mle(w)

    def all_node_scaling(self) -> float:
        return self._all_node

    def _inflated(self, factor: float) -> np.ndarray:
        if factor not in self._inflated_inv:
            _check_factor(factor)
            scaled = factor * self._cols
            self._inflated_inv[factor] = _kernels.inverse_squares(scaled, out=scaled)
        return self._inflated_inv[factor]

    @_quiet
    def pass_scalings(
        self, ordered: Sequence[int], factor: float
    ) -> dict[int, tuple[float, float]]:
        inflated = self._inflated(float(factor))
        head = [int(v) - 1 for v in ordered]
        means = _kernels.pass_invsq_means(self._inv, inflated, self._top_inv, head)
        return {
            j + 1: (self._fit(group), self._fit(rescaled))
            for j, (group, rescaled) in means.items()
        }


# ---------------------------------------------------------------------------
# delta computations


def _all_nodes(d: int) -> tuple[int, ...]:
    return tuple(range(1, d + 1))


def _pass_deltas(
    provider: ScalingProvider, ordered: Sequence[int], cfg: ReorderConfig
) -> tuple[dict[int, float], dict[int, tuple[float, float]]]:
    """The deltas of the pass with head ``ordered``, and the provider's
    answer they come from."""
    base = provider.all_node_scaling()
    scalings = provider.pass_scalings(ordered, cfg.a)
    offset = cfg.a**2 - 1.0
    # a standardized model has unit singleton scalings, so in the initial
    # pass (empty head) the offset stands in for the group scaling
    deltas = {
        m: rescaled - base - (offset * group if ordered else offset)
        for m, (group, rescaled) in scalings.items()
    }
    return deltas, scalings


# ---------------------------------------------------------------------------
# passes and results


@dataclass(frozen=True)
class DeltaPass:
    """Record of one decision pass.

    ``deltas`` maps each candidate to its (min, max) delta; the two
    coincide except in the pairwise pass, where they summarize the
    sweep over partners.  ``scalings`` is the provider's answer for the
    pass, ``pass_scalings(ordered_before, a)``; the pairwise pass leaves
    it empty.
    """

    kind: str  # "initial" | "initial-pairwise" | "generation" | "argmax"
    ordered_before: tuple[int, ...]
    deltas: Mapping[int, tuple[float, float]]
    accepted: tuple[int, ...]
    scalings: Mapping[int, tuple[float, float]]


@dataclass(frozen=True)
class LearnResult:
    """Outcome of a complete ordering run.

    ``discovery`` lists every original node label from first found (most
    upstream) to last; ``generations`` holds the accepted sets of a
    ``learn_generations`` run and is None after ``learn_order``.  The
    implied causal relabelling gives position ``d`` to the first
    discovery and ``1`` to the last, so parents end up with larger
    positions than their children and the reindexed coefficient matrix
    is upper triangular.
    """

    discovery: tuple[int, ...]
    generations: tuple[tuple[int, ...], ...] | None
    passes: tuple[DeltaPass, ...]
    config: ReorderConfig

    @property
    def node_count(self) -> int:
        return len(self.discovery)

    def position(self, label: int) -> int:
        """Causal position of an original label (parents get larger)."""
        return self.node_count - self.discovery.index(label)

    def label_at_position(self, position: int) -> int:
        return self.discovery[self.node_count - position]

    def column_order(self) -> tuple[int, ...]:
        """Original labels arranged by causal position 1..d; reindexing
        sample columns in this order makes the data well-ordered."""
        return tuple(self.label_at_position(p) for p in range(1, self.node_count + 1))


def _single(deltas: Mapping[int, float]) -> dict[int, tuple[float, float]]:
    return {m: (v, v) for m, v in deltas.items()}


def _in_band(bounds: Mapping[int, tuple[float, float]], cfg: ReorderConfig) -> tuple:
    """The nodes whose delta range (lo, hi) lies in [-eps2, eps1], in
    label order, as both bands append them."""
    inside = (m for m, (lo, hi) in bounds.items() if -cfg.eps2 <= lo and hi <= cfg.eps1)
    return tuple(sorted(inside))


def _pairwise_pass(provider: SpectralScalings, cfg: ReorderConfig) -> DeltaPass:
    """Initial pass on a sample, screening each node against every partner.

    For each candidate m the delta is computed on the two columns (i, m)
    alone; m passes when the largest delta stays below eps1 and the
    smallest above -eps2.  The self-pair's delta is exactly zero by
    construction.  The plain scaling of a pair {i, m} does not depend on
    the column order, so it comes from the provider's cache; the inflated
    one does (only m is inflated) and is estimated for each ordered pair.
    """
    offset = cfg.a**2 - 1.0
    bounds: dict[int, tuple[float, float]] = {}
    for m in _all_nodes(provider.node_count):
        lo = hi = 0.0
        for i in _all_nodes(provider.node_count):
            if i != m:
                plain, inflated = provider.pair_scalings(i, m, cfg.a)
                delta = inflated - plain - offset
                lo, hi = min(lo, delta), max(hi, delta)
        bounds[m] = (lo, hi)
    return DeltaPass("initial-pairwise", (), bounds, _in_band(bounds, cfg), {})


def _argmax_node(deltas: Mapping[int, float]) -> int:
    # ties broken by smallest label
    best = max(deltas.values())
    return min(m for m, v in deltas.items() if v == best)


def _discover(
    provider: ScalingProvider, cfg: ReorderConfig, step: str, first: DeltaPass | None
) -> LearnResult:
    """The discovery loop shared by both entry points.

    Starts from the nodes ``first`` accepted, or else from the empty head
    with an ``"initial"`` pass of rule ``step``, and extends the ordered
    head one pass at a time: ``"generation"`` accepts all nodes with
    |delta| <= eps3, ``"argmax"`` the single largest delta.  A run either
    orders every node or raises at the first empty pass.
    """
    passes = [] if first is None else [first]
    discovery = [m for p in passes for m in p.accepted]
    if passes and not discovery:
        test = "pairwise initial" if first.kind == "initial-pairwise" else "initial"
        raise NoInitialNodeError(
            f"no node passed the {test} test; consider relaxing eps1/eps2"
        )

    while len(discovery) < provider.node_count:
        deltas, scalings = _pass_deltas(provider, discovery, cfg)
        if step == "argmax":
            accepted = (_argmax_node(deltas),)
        else:
            accepted = tuple(sorted(m for m, v in deltas.items() if abs(v) <= cfg.eps3))
        if not accepted:
            raise EmptyGenerationError(
                f"no node passed the generation test with head {tuple(discovery)}"
            )
        kind = step if discovery else "initial"
        passes.append(DeltaPass(kind, tuple(discovery), _single(deltas), accepted, scalings))
        discovery.extend(accepted)

    kept = tuple(p.accepted for p in passes) if step == "generation" else None
    return LearnResult(tuple(discovery), kept, tuple(passes), cfg)


def learn_generations(provider: ScalingProvider, cfg: ReorderConfig) -> LearnResult:
    """Threshold-mode ordering: the initial nodes whose delta lies in
    [-eps2, eps1], then one generation per pass.

    Exact scalings put parentless nodes at delta zero and all others
    strictly below; the band absorbs estimation noise.  Each accepted set
    is canonicalized in ascending label order before joining the discovery
    sequence.  The simulation-study harness counts the runs that raise.

    Raises:
        NoInitialNodeError: the initial band caught nothing.
        EmptyGenerationError: a generation pass caught nothing.
    """
    deltas, scalings = _pass_deltas(provider, (), cfg)
    bounds = _single(deltas)
    first = DeltaPass("initial", (), bounds, _in_band(bounds, cfg), scalings)
    return _discover(provider, cfg, "generation", first)


def learn_order(provider: ScalingProvider, cfg: ReorderConfig) -> LearnResult:
    """One-node-at-a-time ordering: the largest delta of every pass.

    Any provider but ``SpectralScalings`` starts from the empty head and
    reads only ``a``: noise-free with ``ExactScalings`` (how the procedure
    is validated against known models), or from all observations with
    ``FrechetMleScalings``.  ``SpectralScalings`` starts with the pairwise
    screen at its threshold count and appends its band in label order.

    Raises:
        NoInitialNodeError: the pairwise screen accepted nothing.
    """
    first = _pairwise_pass(provider, cfg) if isinstance(provider, SpectralScalings) else None
    return _discover(provider, cfg, "argmax", first)
