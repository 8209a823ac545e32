"""Estimation of scalings from data via the empirical spectral measure.

Observations are decomposed into a radius over a chosen coordinate
subset and a unit-sphere angle.  The rows whose radii reach the k-th
largest radius carry the empirical spectral mass and are the only rows
whose angles are formed; scalings of componentwise maxima average the
largest squared angular component over them, times the subset's mass.

Two estimator variants exist side by side:

* the reduced-subset estimator restricts both radius and angle to the
  subset of interest, with prefactor ``|q| / k``;
* the rescaled estimator inflates an ordered group plus one candidate
  column by a factor ``a`` and decomposes the full vector, with the
  prefactor adjusted for the inflated total mass.

Both reduce to one kernel over squared columns, ``_kernels.scaling_sum``,
whose radius (squared columns added in column order) and threshold (the
k-th largest squared radius, ties included) ``polar_decompose`` shares:
``scaling_from_polar`` of a decomposition is ``estimate_max_scaling``
bit for bit, and both refuse the same inputs with the same message.
The public estimators validate and square their sample on every call;
``ordering.SpectralScalings`` validates its sample once and asks them
for every scaling.

Marginal standardization helpers (negative part, empirical rank
transform to Frechet(2) margins) prepare raw data for these estimators
and for the parametric alternative, the Frechet(2) maximum-likelihood
scalings of ``ordering.FrechetMleScalings``.

The threshold count k defaults to ``ceil(sqrt(n))``.  Documented
presets for the shipped analyses: k=50 at n=2285 and k=100 at n=9544.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import ThresholdError, ValidationError
from .model import _check_nodes, _inflated_nodes


def default_threshold_count(n: int) -> int:
    """The rule-of-thumb exceedance count ceil(sqrt(n))."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    return int(math.ceil(math.sqrt(n)))


def _check_threshold_count(k: int) -> int:
    """The exceedance count k as an int: an integer of at least 1."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValidationError(f"threshold count k must be an integer >= 1, got {k!r}")
    return int(k)


def _as_sample(x: np.ndarray) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1:
        raise ValidationError(f"sample must be a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("sample has non-finite entries")
    return a


@dataclass(frozen=True)
class PolarSample:
    """Exceedances of a sample's polar decomposition over a coordinate subset.

    The exceedance rows reach the k-th largest squared radius on the
    subset, which is positive; on ties that is more than k rows.
    ``threshold_value`` is its square root.  ``exceedance_squares`` holds
    their squared angles, squared coordinate / squared radius, one row
    each in observation order, so every estimate read off one
    decomposition shares them.
    """

    subset: tuple[int, ...]
    threshold_count: int
    threshold_value: float
    exceedance_squares: np.ndarray

    @property
    def n_exceedances(self) -> int:
        return self.exceedance_squares.shape[0]


def polar_decompose(x: np.ndarray, cols: Sequence[int], k: int) -> PolarSample:
    """Radius/angle decomposition of selected columns with a k-threshold.

    Its radii and exceedance rows are those of ``_kernels.scaling_sum``,
    so ``scaling_from_polar`` of it is ``estimate_max_scaling`` bit for bit.

    Args:
        x: (n, d) sample matrix.
        cols: 1-based column labels forming the subset.
        k: number of upper order statistics defining the threshold.

    Raises:
        ValidationError: k is not an integer of at least 1.
        ThresholdError: fewer than k rows have positive radius on the
            subset, or an exceedance radius^2 overflows.
    """
    k = _check_threshold_count(k)
    a = _as_sample(x)
    subset = _check_nodes(cols, a.shape[1])
    sq = a[:, [c - 1 for c in subset]]
    with np.errstate(over="ignore"):
        np.square(sq, out=sq)
    r2 = _kernels.squared_radii(sq.T)
    rows, n_pos = _kernels.exceedance_rows(r2, k)
    r2 = r2[rows]
    _check_estimable(n_pos, k, bool(np.isinf(r2).any()), f"columns {subset}")
    return PolarSample(
        subset=subset,
        threshold_count=k,
        threshold_value=math.sqrt(r2.min()),
        exceedance_squares=sq[rows] / r2[:, None],
    )


def scaling_from_polar(polar: PolarSample, over: Sequence[int] | None = None) -> float:
    """Scaling estimate from an existing polar decomposition.

    Sums, over the exceedance rows, the largest squared angular
    component among the columns ``over`` (defaulting to the whole
    subset), and multiplies by ``|subset| / k``.  Passing a proper
    sub-collection of the subset yields the estimated scaling of the
    corresponding partial maximum under the full-subset radius.

    Args:
        polar: decomposition from ``polar_decompose``.
        over: 1-based column labels (in original data coordinates) to
            maximize over; must be non-empty and contained in
            ``polar.subset``.
    """
    cols = polar.subset if over is None else tuple(int(c) for c in over)
    if not cols:
        raise ValidationError("over must name at least one column")
    missing = set(cols) - set(polar.subset)
    if missing:
        raise ValidationError(f"columns {sorted(missing)} not in subset {polar.subset}")
    pos = [polar.subset.index(c) for c in cols]
    w2 = polar.exceedance_squares[:, pos]
    return float(len(polar.subset) / polar.threshold_count * w2.max(axis=1).sum())


def _check_estimable(n_pos: int, k: int, overflow: bool, where: str) -> None:
    """Refuse an estimate on ``where`` with < k positive radii or an overflow."""
    if n_pos < k:
        raise ThresholdError(f"only {n_pos} rows with positive radius on {where}, need k={k}")
    if overflow:
        raise ThresholdError(f"squared radii on {where} overflow")


def _checked_scaling_sum(sq: Sequence[np.ndarray], k: int, where: str) -> float:
    """``_kernels.scaling_sum`` of ``sq``, refused by ``_check_estimable``."""
    acc, _, n_pos = _kernels.scaling_sum(sq, k)
    _check_estimable(n_pos, k, not math.isfinite(acc), where)
    return acc


def estimate_max_scaling(x: np.ndarray, cols: Sequence[int], k: int) -> float:
    """Reduced-subset estimate of the squared scaling of ``max_{i in cols} X_i``.

    Bit for bit ``scaling_from_polar(polar_decompose(x, cols, k))``,
    fused into one pass over the squared columns.  For a singleton
    subset the angle is identically 1 and the estimate is exactly 1.

    Raises:
        ValidationError: k is not an integer of at least 1.
        ThresholdError: fewer than k rows with positive radius, or an
            exceedance radius^2 overflows.
    """
    k = _check_threshold_count(k)
    a = _as_sample(x)
    subset = _check_nodes(cols, a.shape[1])
    with np.errstate(over="ignore"):
        sq = [np.square(a[:, c - 1]) for c in subset]
    return len(subset) / k * _checked_scaling_sum(sq, k, f"columns {subset}")


def estimate_rescaled_max_scaling(
    x: np.ndarray,
    ordered: Sequence[int],
    node: int,
    factor: float,
    k: int,
) -> float:
    """Estimate the squared scaling of the maximum with an inflated group.

    Columns ``ordered`` plus ``node`` are multiplied by ``factor`` and
    the full set of columns is re-decomposed; the angular sum is scaled
    by the inflated total mass ``(factor^2 - 1)(|ordered| + 1) + d``
    over k.  Under a standardized model this estimates the population
    quantity computed by ``model.rescaled_max_scaling``.

    Args:
        x: (n, d) sample matrix.
        ordered: 1-based columns already ordered (may be empty).
        node: candidate column, not in ``ordered``.
        factor: inflation factor > 1.
        k: exceedance count, an integer of at least 1.
    """
    k = _check_threshold_count(k)
    a = _as_sample(x)
    d = a.shape[1]
    labels = _inflated_nodes(ordered, node, factor, d)
    with np.errstate(over="ignore"):
        sq = [np.square(factor * a[:, j] if j + 1 in labels else a[:, j]) for j in range(d)]
    where = f"all columns with columns {tuple(sorted(labels))} inflated"
    mass = (factor**2 - 1.0) * len(labels) + d
    return mass / k * _checked_scaling_sum(sq, k, where)


def negative_part(x: np.ndarray) -> np.ndarray:
    """Entrywise ``max(-x, 0)``: losses become positive, gains zero."""
    a = np.asarray(x, dtype=np.float64)
    return np.maximum(-a, 0.0)


def empirical_frechet_transform(x: np.ndarray) -> np.ndarray:
    """Map each column to approximately Frechet(2) margins by ranks.

    Column-wise, each value is replaced by
    ``(-log(rank / (n + 1)))^(-1/2)`` where rank counts entries weakly
    below it (ties share a value; no jittering).  The column maximum
    maps to ``(-log(n/(n+1)))^(-1/2)``, about ``sqrt(n)``.

    The n possible values are computed once per call as a quantile table
    whose entry ``r - 1`` is the value of rank r.  Each column then costs
    one ``argsort`` and O(n) indexing: in the sorted copy a tie run is
    contiguous, and the rank of each of its members is the 1-based index
    of its last entry, since exactly the entries up to there are ``<=``
    it.  Every member of a run gets the same rank, so the result does not
    depend on how ``argsort`` orders equal keys; ``-0.0`` and ``+0.0``
    compare equal and share one run.  The ranks are the integers a
    binary search of each value into the sorted column returns, and the
    table entry is the same IEEE expression on the same integer, so the
    output is bit-identical to evaluating the formula entry by entry.
    It is the (n, d) transposed view of one (d, n) buffer, as ``simulate``
    returns, so ``FrechetMleScalings`` takes its columns without a copy.

    Raises:
        ThresholdError: a column is constant, so it carries no tail
            information (all of it would map to that maximum value).
    """
    a = _as_sample(x)
    n, d = a.shape
    table = (-np.log(np.arange(1, n + 1) / (n + 1.0))) ** -0.5
    out = np.empty((d, n))
    run_end = np.empty(n, dtype=bool)
    run_end[-1] = True
    for c in range(d):
        col = a[:, c]
        order = np.argsort(col)
        s = col[order]
        if s[0] == s[-1]:
            raise ThresholdError(
                f"column {c + 1} is constant and carries no tail information"
            )
        np.not_equal(s[1:], s[:-1], out=run_end[:-1])
        ends = np.flatnonzero(run_end)
        out[c, order] = np.repeat(table[ends], np.diff(ends, prepend=-1))
    return out.T
