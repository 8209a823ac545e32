"""Estimation of scalings from data via the empirical spectral measure.

Observations are decomposed into a radius over a chosen coordinate
subset and a unit-sphere angle.  The rows whose radii reach the k-th
largest radius carry the empirical spectral mass; scalings of
componentwise maxima are averages of the largest squared angular
component over those rows, scaled by the total mass of the subset.

Two estimator variants exist side by side:

* the reduced-subset estimator restricts both radius and angle to the
  subset of interest, with prefactor ``|q| / k``;
* the rescaled estimator inflates an ordered group plus one candidate
  column by a factor ``a`` and decomposes the full vector, with the
  prefactor adjusted for the inflated total mass.

Both reduce to one kernel over squared columns, ``_kernels.scaling_sum``.
The public estimators validate and square their sample on every call;
``ordering.SpectralScalings`` validates and squares it once and feeds
the same kernel views of its cached columns, with bit-identical results.

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


def _as_sample(x: np.ndarray) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1:
        raise ValidationError(f"sample must be a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("sample has non-finite entries")
    return a


@dataclass(frozen=True)
class PolarSample:
    """Polar view of a sample over a coordinate subset.

    Rows with zero radius are dropped; ``radii`` and ``angles`` keep
    the original observation order of the remaining rows.  The
    exceedance set is every row with radius >= ``threshold_value`` (the
    k-th largest radius), which on ties can hold more than k rows.
    """

    radii: np.ndarray
    angles: np.ndarray
    subset: tuple[int, ...]
    threshold_count: int
    threshold_value: float

    @property
    def exceedance_mask(self) -> np.ndarray:
        return self.radii >= self.threshold_value

    @property
    def n_exceedances(self) -> int:
        return int(np.count_nonzero(self.exceedance_mask))


def polar_decompose(x: np.ndarray, cols: Sequence[int], k: int) -> PolarSample:
    """Radius/angle decomposition of selected columns with a k-threshold.

    Args:
        x: (n, d) sample matrix.
        cols: 1-based column labels forming the subset.
        k: number of upper order statistics defining the threshold.

    Raises:
        ThresholdError: fewer than k rows have positive radius on the
            subset.
    """
    a = _as_sample(x)
    subset = _check_nodes(cols, a.shape[1])
    sub = a[:, [c - 1 for c in subset]]
    radii = np.sqrt((sub**2).sum(axis=1))
    keep = radii > 0.0
    if int(np.count_nonzero(keep)) < k:
        raise ThresholdError(
            f"only {int(np.count_nonzero(keep))} rows with positive radius on "
            f"columns {subset}, need k={k}"
        )
    radii = radii[keep]
    angles = sub[keep] / radii[:, None]
    thr = float(np.partition(radii, radii.shape[0] - k)[radii.shape[0] - k])
    return PolarSample(
        radii=radii,
        angles=angles,
        subset=subset,
        threshold_count=k,
        threshold_value=thr,
    )


def scaling_from_polar(polar: PolarSample, over: Sequence[int] | None = None) -> float:
    """Scaling estimate from an existing polar decomposition.

    Sums, over the exceedance rows, the largest squared angular
    component among the columns ``over`` (defaulting to the whole
    subset), and multiplies by ``|subset| / k``.  Passing a strict
    sub-collection of the subset yields the estimated scaling of the
    corresponding partial maximum under the full-subset radius.

    Args:
        polar: decomposition from ``polar_decompose``.
        over: 1-based column labels (in original data coordinates) to
            maximize over; must be contained in ``polar.subset``.
    """
    cols = polar.subset if over is None else tuple(int(c) for c in over)
    missing = set(cols) - set(polar.subset)
    if missing:
        raise ValidationError(f"columns {sorted(missing)} not in subset {polar.subset}")
    pos = [polar.subset.index(c) for c in cols]
    w2 = polar.angles[polar.exceedance_mask][:, pos] ** 2
    return float(len(polar.subset) / polar.threshold_count * w2.max(axis=1).sum())


def _max_scaling_of_squares(
    sq: Sequence[np.ndarray], subset: tuple[int, ...], k: int
) -> float:
    """Reduced-subset estimate from the squared columns of ``subset``."""
    acc, _, n_pos = _kernels.scaling_sum(sq, k)
    if n_pos < k:
        raise ThresholdError(
            f"only {n_pos} rows with positive radius on columns {subset}, need k={k}"
        )
    return len(subset) / k * acc


def _rescaled_scaling_of_squares(
    sq: Sequence[np.ndarray], n_inflated: int, factor: float, k: int
) -> float:
    """Rescaled estimate from all squared columns, ``n_inflated`` of them
    taken after inflation by ``factor``."""
    acc, _, n_pos = _kernels.scaling_sum(sq, k)
    if n_pos < k:
        raise ThresholdError(
            f"only {n_pos} rows with positive radius on rescaled columns, need k={k}"
        )
    mass = (factor**2 - 1.0) * n_inflated + len(sq)
    return mass / k * acc


def estimate_max_scaling(x: np.ndarray, cols: Sequence[int], k: int) -> float:
    """Reduced-subset estimate of the squared scaling of ``max_{i in cols} X_i``.

    Equivalent to ``scaling_from_polar(polar_decompose(x, cols, k))``
    but runs fused in one pass over the squared columns.  For a
    singleton subset the angle is identically 1 and the estimate is
    exactly 1.

    Raises:
        ThresholdError: fewer than k rows with positive radius.
    """
    a = _as_sample(x)
    subset = _check_nodes(cols, a.shape[1])
    sub = [a[:, c - 1] for c in subset]
    return _max_scaling_of_squares([v * v for v in sub], subset, k)


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
        k: exceedance count.
    """
    a = _as_sample(x)
    d = a.shape[1]
    grown = {c - 1 for c in _inflated_nodes(ordered, node, factor, d)}
    cols = [factor * a[:, j] if j in grown else a[:, j] for j in range(d)]
    return _rescaled_scaling_of_squares([v * v for v in cols], len(grown), factor, k)


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

    Raises:
        ThresholdError: a column is constant, so it carries no tail
            information (all of it would map to that maximum value).
    """
    a = _as_sample(x)
    n = a.shape[0]
    out = np.empty_like(a)
    for c in range(a.shape[1]):
        col = a[:, c]
        order = np.sort(col)
        if order[0] == order[-1]:
            raise ThresholdError(
                f"column {c + 1} is constant and carries no tail information"
            )
        ranks = np.searchsorted(order, col, side="right")
        out[:, c] = (-np.log(ranks / (n + 1.0))) ** -0.5
    return out
