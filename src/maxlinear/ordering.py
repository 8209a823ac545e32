"""Causal-order recovery for recursive max-linear models.

Every decision here compares scalings of maxima before and after
inflating a candidate group of components by a factor ``a > 1``.  The
inflating trick separates ancestors from non-ancestors: if the
candidate node has no unordered ancestors the inflated and plain
scalings differ by exactly ``(a^2 - 1)`` times the scaling of the
inflated group, otherwise by strictly less.  The gap, written
``delta`` throughout, drives one discovery loop: an initial pass picks
the first nodes, then each step computes the deltas of the unordered
nodes given the ordered head and extends the head.

There are two initial passes:

* the threshold pass accepts nodes whose delta sits inside a small band
  around zero (parentless nodes have delta exactly zero);
* the pairwise screen, the data-frugal variant on a sample, tests each
  node against every single partner instead of all nodes at once.

and two step policies:

* ``learn_generations`` accepts every node with |delta| within the band,
  yielding whole generations at a time;
* ``learn_order`` takes the single largest delta, which is noise-robust
  since eligible nodes sit at the top.

Scalings are supplied by a provider object so the loop runs
identically on exact model scalings (``ExactScalings``) and on data
estimates (``SpectralScalings`` for the angular estimators,
``FrechetMleScalings`` for the parametric ones).  Each pass makes one
provider call, ``pass_scalings(ordered, factor)``, which returns for
every unordered candidate m the scaling of head ∪ {m} and the scaling
of the maximum with that group inflated.  ``FrechetMleScalings``
answers it in one sweep over the sample, O(n) per candidate;
``SpectralScalings`` from squared columns it caches once, so each
estimate of a pass, and of the pairwise screen, is one banded row sum
(``_kernels.scaling_sum``); ``ExactScalings`` asks its per-subset
methods.
"""

from __future__ import annotations

import math
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

MODES = ("exact-scalings", "estimated")


@dataclass(frozen=True)
class ReorderConfig:
    """Tuning constants of the ordering procedure.

    ``a`` is the inflation factor; ``eps1``/``eps2`` bound the accepted
    delta band for initial nodes from above/below; ``eps3`` bounds
    |delta| in the generation passes.  The defaults are the simulation
    preset; ``data_preset`` returns the configuration used for raw
    heavy-tailed data where a barely-inflating factor keeps the deltas
    comparable across dependent estimates.
    """

    a: float = math.sqrt(2.0)
    eps1: float = 0.1
    eps2: float = 0.05
    eps3: float = 0.1
    mode: str = "exact-scalings"

    def __post_init__(self) -> None:
        _check_factor(self.a)
        if min(self.eps1, self.eps2, self.eps3) < 0.0:
            raise ValidationError("tolerances must be non-negative")
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")

    @staticmethod
    def simulation_preset() -> "ReorderConfig":
        return ReorderConfig()

    @staticmethod
    def data_preset() -> "ReorderConfig":
        return ReorderConfig(a=1.01, eps1=0.0045, eps2=0.0045, eps3=0.1, mode="estimated")


class ScalingProvider(Protocol):
    """Source of squared scalings over node subsets, exact or estimated.

    ``pass_scalings(ordered, factor)`` maps every node m outside
    ``ordered`` to ``(max_scaling((*ordered, m)), r)``, where r is the
    squared scaling of the maximum of all components with ``ordered``
    and m inflated by ``factor``.
    """

    @property
    def node_count(self) -> int: ...

    def max_scaling(self, nodes: Sequence[int]) -> float: ...

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

    def pass_scalings(
        self, ordered: Sequence[int], factor: float
    ) -> dict[int, tuple[float, float]]:
        hs = tuple(ordered)
        return {
            m: (self.max_scaling((*hs, m)), self.rescaled_scaling(hs, m, factor))
            for m in _all_nodes(self.node_count)
            if m not in hs
        }


class SpectralScalings:
    """Angular-measure estimates from one sample with a fixed threshold.

    Subset estimates are memoized; two queries of the same subset hit
    the same exceedance rows, which keeps the deltas of one pass on a
    common footing.  The sample is validated once and its squares are
    held column by column, with the squares of the inflated columns for
    each factor a pass has used.  ``pass_scalings`` and ``pair_scalings``
    hand views of these columns to ``_kernels.scaling_sum`` and cache
    their results under the keys of the per-subset methods, which keep
    going through the public estimators ``estimate_max_scaling`` and
    ``estimate_rescaled_max_scaling``; both paths give the same bits.

    Raises:
        ValidationError: the sample is not a non-empty, finite 2-D matrix.
        ThresholdError: a column is all zero, so no estimate that
            involves it carries tail information.
    """

    def __init__(self, x: np.ndarray, k: int) -> None:
        self._cols = np.ascontiguousarray(_as_sample(x).T)
        zero = np.flatnonzero(~self._cols.any(axis=1))
        if zero.size:
            raise ThresholdError(
                f"column {zero[0] + 1} is all zero and carries no tail information"
            )
        self._k = int(k)
        self._sq = self._cols * self._cols
        self._inflated_sq: dict[float, np.ndarray] = {}
        self._max_cache: dict[frozenset[int], float] = {}
        self._resc_cache: dict[tuple[frozenset[int], int, float], float] = {}

    @property
    def node_count(self) -> int:
        return self._cols.shape[0]

    @property
    def threshold_count(self) -> int:
        return self._k

    def max_scaling(self, nodes: Sequence[int]) -> float:
        key = frozenset(int(v) for v in nodes)
        if key not in self._max_cache:
            self._max_cache[key] = estimate_max_scaling(self._cols.T, sorted(key), self._k)
        return self._max_cache[key]

    def rescaled_scaling(self, ordered: Sequence[int], node: int, factor: float) -> float:
        key = (frozenset(int(v) for v in ordered), int(node), float(factor))
        if key not in self._resc_cache:
            self._resc_cache[key] = estimate_rescaled_max_scaling(
                self._cols.T, sorted(key[0]), node, factor, self._k
            )
        return self._resc_cache[key]

    def _inflated(self, factor: float) -> np.ndarray:
        if factor not in self._inflated_sq:
            _check_factor(factor)
            scaled = factor * self._cols
            self._inflated_sq[factor] = scaled * scaled
        return self._inflated_sq[factor]

    def _group(self, key: frozenset[int]) -> float:
        if key not in self._max_cache:
            subset = tuple(sorted(key))
            sq = [self._sq[v - 1] for v in subset]
            self._max_cache[key] = _max_scaling_of_squares(sq, subset, self._k)
        return self._max_cache[key]

    def pass_scalings(
        self, ordered: Sequence[int], factor: float
    ) -> dict[int, tuple[float, float]]:
        factor = float(factor)
        inflated = self._inflated(factor)
        d = self.node_count
        # the all-node scaling first: every delta subtracts it, so the
        # loop reads it back from the cache
        self._group(frozenset(_all_nodes(d)))
        hs = frozenset(int(v) for v in ordered)
        out: dict[int, tuple[float, float]] = {}
        for m in _all_nodes(d):
            if m in hs:
                continue
            grown = hs | {m}
            group = self._group(grown)
            key = (hs, m, factor)
            if key not in self._resc_cache:
                sq = [inflated[j] if j + 1 in grown else self._sq[j] for j in range(d)]
                self._resc_cache[key] = _rescaled_scaling_of_squares(
                    sq, len(grown), factor, self._k
                )
            out[m] = (group, self._resc_cache[key])
        return out

    def pair_scalings(self, i: int, m: int, factor: float) -> tuple[float, float]:
        """Scalings of ``max(X_i, X_m)`` and of ``max(X_i, factor X_m)``,
        each estimated on the two columns alone."""
        factor = float(factor)
        sq = [self._sq[i - 1], self._inflated(factor)[m - 1]]
        inflated = _rescaled_scaling_of_squares(sq, 1, factor, self._k)
        return self._group(frozenset((i, m))), inflated


class FrechetMleScalings:
    """Parametric scaling estimates: componentwise maxima are treated as
    Frechet(2) and their squared scale fitted by maximum likelihood.

    Used by the simulation-study harness and by default in ``learn`` on
    data; unlike the angular estimates these use every observation, not
    only the radial exceedances.  The sample must be finite.  It is held
    column by column, so that ``pass_scalings`` can fit all candidates of
    a pass in one sweep (``_kernels.rowmax_pass_invsq_means``); its
    results are cached under the same keys as the per-subset methods,
    which then answer the scaling vector's nested subsets from the cache.

    Raises:
        ValidationError: the sample is not a non-empty, finite 2-D matrix.
    """

    def __init__(self, x: np.ndarray) -> None:
        self._cols = np.ascontiguousarray(_as_sample(x).T)
        self._max_cache: dict[frozenset[int], float] = {}
        self._resc_cache: dict[tuple[frozenset[int], int, float], float] = {}

    @property
    def node_count(self) -> int:
        return self._cols.shape[0]

    @staticmethod
    def _fit(mean: float) -> float:
        if not np.isfinite(mean):
            raise ThresholdError("row maxima must be strictly positive for the MLE")
        return float(1.0 / mean)

    def _mle(self, weights: np.ndarray) -> float:
        return self._fit(_kernels.scaled_rowmax_invsq_mean(self._cols.T, weights))

    def max_scaling(self, nodes: Sequence[int]) -> float:
        key = frozenset(int(v) for v in nodes)
        if key not in self._max_cache:
            w = np.zeros(self.node_count)
            w[[v - 1 for v in key]] = 1.0
            self._max_cache[key] = self._mle(w)
        return self._max_cache[key]

    def rescaled_scaling(self, ordered: Sequence[int], node: int, factor: float) -> float:
        key = (frozenset(int(v) for v in ordered), int(node), float(factor))
        if key not in self._resc_cache:
            w = np.ones(self.node_count)
            w[[v - 1 for v in (*key[0], node)]] = factor
            self._resc_cache[key] = self._mle(w)
        return self._resc_cache[key]

    def pass_scalings(
        self, ordered: Sequence[int], factor: float
    ) -> dict[int, tuple[float, float]]:
        factor = float(factor)
        _check_factor(factor)
        hs = frozenset(int(v) for v in ordered)
        means = _kernels.rowmax_pass_invsq_means(self._cols, sorted(v - 1 for v in hs), factor)
        out: dict[int, tuple[float, float]] = {}
        for j, (group, rescaled) in means.items():
            m = j + 1
            out[m] = (self._fit(group), self._fit(rescaled))
            self._max_cache[hs | {m}], self._resc_cache[(hs, m, factor)] = out[m]
        return out


# ---------------------------------------------------------------------------
# delta computations


def _all_nodes(d: int) -> tuple[int, ...]:
    return tuple(range(1, d + 1))


def _initial_deltas(provider: ScalingProvider, cfg: ReorderConfig) -> dict[int, float]:
    # a standardized model has unit singleton scalings, so the offset
    # stands in for the group scaling
    scalings = provider.pass_scalings((), cfg.a)
    base = provider.max_scaling(_all_nodes(provider.node_count))
    offset = cfg.a**2 - 1.0
    return {m: rescaled - base - offset for m, (_, rescaled) in scalings.items()}


def _generation_deltas(
    provider: ScalingProvider, ordered: Sequence[int], cfg: ReorderConfig
) -> dict[int, float]:
    # the pass goes first, since a provider may cache the base on the way
    scalings = provider.pass_scalings(ordered, cfg.a)
    base = provider.max_scaling(_all_nodes(provider.node_count))
    return {
        m: rescaled - base - (cfg.a**2 - 1.0) * group
        for m, (group, rescaled) in scalings.items()
    }


def _pairwise_delta_bounds(
    provider: SpectralScalings, cfg: ReorderConfig
) -> dict[int, tuple[float, float]]:
    # The plain scaling of a pair {i, m} does not depend on the column
    # order, so it comes from the provider's cache; the inflated one
    # does (only m is inflated) and is estimated for each ordered pair.
    offset = cfg.a**2 - 1.0
    bounds: dict[int, tuple[float, float]] = {}
    for m in _all_nodes(provider.node_count):
        lo, hi = math.inf, -math.inf
        for i in _all_nodes(provider.node_count):
            if i == m:
                delta = 0.0  # self-pair is exactly zero by construction
            else:
                plain, inflated = provider.pair_scalings(i, m, cfg.a)
                delta = inflated - plain - offset
            lo, hi = min(lo, delta), max(hi, delta)
        bounds[m] = (lo, hi)
    return bounds


# ---------------------------------------------------------------------------
# passes and results


@dataclass(frozen=True)
class DeltaPass:
    """Record of one decision pass.

    ``deltas`` maps each candidate to its (min, max) delta; the two
    coincide except in the pairwise pass, where they summarize the
    sweep over partners.
    """

    kind: str  # "initial" | "initial-pairwise" | "generation" | "argmax"
    ordered_before: tuple[int, ...]
    deltas: Mapping[int, tuple[float, float]]
    accepted: tuple[int, ...]


@dataclass(frozen=True)
class LearnResult:
    """Outcome of an ordering run.

    ``discovery`` lists original node labels from first found (most
    upstream) to last.  The implied causal relabelling gives position
    ``d`` to the first discovery and ``1`` to the last, so parents end
    up with larger positions than their children and the reindexed
    coefficient matrix is upper triangular.
    """

    discovery: tuple[int, ...]
    generations: tuple[tuple[int, ...], ...] | None
    passes: tuple[DeltaPass, ...]
    valid: bool
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


def _threshold_pass(provider: ScalingProvider, cfg: ReorderConfig) -> DeltaPass:
    """Initial pass: nodes whose inflation delta lies in [-eps2, eps1].

    Exact scalings put parentless nodes at delta zero and all others
    strictly below; the band absorbs estimation noise.
    """
    deltas = _initial_deltas(provider, cfg)
    accepted = sorted(m for m, v in deltas.items() if -cfg.eps2 <= v <= cfg.eps1)
    return DeltaPass("initial", (), _single(deltas), tuple(accepted))


def _pairwise_pass(provider: SpectralScalings, cfg: ReorderConfig) -> DeltaPass:
    """Initial pass on a sample, screening each node against every partner.

    For each candidate m the delta is computed on the two columns (i, m)
    alone; m passes when the largest delta stays below eps1 and the
    smallest above -eps2.
    """
    bounds = _pairwise_delta_bounds(provider, cfg)
    accepted = sorted(
        m for m, (lo, hi) in bounds.items() if hi <= cfg.eps1 and lo >= -cfg.eps2
    )
    return DeltaPass("initial-pairwise", (), bounds, tuple(accepted))


def _argmax_node(deltas: Mapping[int, float]) -> int:
    # ties broken by smallest label
    best = max(deltas.values())
    return min(m for m, v in deltas.items() if v == best)


def _discover(
    provider: ScalingProvider,
    first: DeltaPass,
    cfg: ReorderConfig,
    step: str,
    strict: bool = True,
) -> LearnResult:
    """The discovery loop shared by both entry points.

    Starts from the nodes ``first`` accepted and extends the ordered head
    by one pass of kind ``step`` at a time: ``"generation"`` accepts all
    nodes with |delta| <= eps3, ``"argmax"`` the single largest delta.
    An empty pass raises with ``strict``, else ends the run with
    ``valid=False`` and whatever was ordered so far.
    """
    passes = [first]
    if not first.accepted:
        if strict:
            test = "pairwise initial" if first.kind == "initial-pairwise" else "initial"
            raise NoInitialNodeError(
                f"no node passed the {test} test; consider relaxing eps1/eps2"
            )
        return LearnResult((), None, tuple(passes), False, cfg)
    discovery = list(first.accepted)
    generations = [first.accepted]

    while len(discovery) < provider.node_count:
        deltas = _generation_deltas(provider, discovery, cfg)
        if step == "argmax":
            accepted = (_argmax_node(deltas),)
        else:
            accepted = tuple(sorted(m for m, v in deltas.items() if abs(v) <= cfg.eps3))
        passes.append(DeltaPass(step, tuple(discovery), _single(deltas), accepted))
        if not accepted:
            if strict:
                raise EmptyGenerationError(
                    f"no node passed the generation test with head {tuple(discovery)}"
                )
            return LearnResult(
                tuple(discovery), tuple(generations), tuple(passes), False, cfg
            )
        discovery.extend(accepted)
        generations.append(accepted)

    kept = tuple(generations) if step == "generation" else None
    return LearnResult(tuple(discovery), kept, tuple(passes), True, cfg)


def learn_generations(
    provider: ScalingProvider, cfg: ReorderConfig, strict: bool = True
) -> LearnResult:
    """Threshold-mode ordering: initial nodes, then one generation per pass.

    Each accepted set is canonicalized in ascending label order before
    joining the discovery sequence.  With ``strict`` (default) an empty
    pass raises; with ``strict=False`` the run stops and is returned
    with ``valid=False`` and whatever was ordered so far, which is what
    the simulation-study harness tallies.

    Raises:
        NoInitialNodeError: the initial band caught nothing (``strict``).
        EmptyGenerationError: a generation pass caught nothing (``strict``).
    """
    first = _threshold_pass(provider, cfg)
    return _discover(provider, first, cfg, "generation", strict)


def learn_order(
    x: np.ndarray | ScalingProvider, cfg: ReorderConfig, k: int | None = None
) -> LearnResult:
    """One-node-at-a-time ordering of a full sample.

    On a sample: pairwise initial-node screen, then repeated argmax
    steps with the angular estimators, all at threshold count ``k``.
    Passing a provider instead runs the threshold initial pass, then
    argmax steps on that provider's scalings: noise-free with
    ``ExactScalings`` (how the procedure is validated against known
    models), or from all observations with ``FrechetMleScalings``.

    Raises:
        NoInitialNodeError: the initial pass accepted nothing.
    """
    if isinstance(x, np.ndarray):
        if k is None:
            raise ValidationError("k is required when learning from data")
        provider = SpectralScalings(x, k)
        return _discover(provider, _pairwise_pass(provider, cfg), cfg, "argmax")
    return _discover(x, _threshold_pass(x, cfg), cfg, "argmax")
