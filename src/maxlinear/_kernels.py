"""Hot numeric kernels, vectorized with numpy.

Three inner loops dominate the runtime of simulation studies and
order-learning sweeps:

* max-times matrix products (model simulation),
* thresholded angular sums over polar-decomposed samples (scaling
  estimation),
* row maxima of column-scaled samples feeding inverse-square means
  (Frechet maximum-likelihood scalings): one weighted subset at a time
  (``scaled_rowmax_invsq_mean``), or every candidate of one ordering
  pass at once (``rowmax_pass_invsq_means``), which reuses the row
  maxima of the head and of the whole sample so that each candidate
  costs O(n) instead of O(n d).

Callers reach each kernel through this module (``_kernels.<name>``)
rather than importing the function, so there is one place to replace or
instrument it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Row-block size for the chunked max-times product; bounds temporary
# broadcast buffers to a few MB regardless of sample length.
_BLOCK = 8192


def max_times_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``out[i, j] = max_k left[i, k] * right[k, j]``."""
    n = left.shape[0]
    out = np.empty((n, right.shape[1]), dtype=np.float64)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        block = left[start:stop, :, None] * right[None, :, :]
        np.max(block, axis=1, out=out[start:stop])
    return out


def scaling_sum(x: np.ndarray, k: int) -> tuple[float, int, int]:
    """Thresholded angular sum over the rows of a (n, q) sample.

    With radius^2 = sum_j x_j^2 and peak^2 = max_j x_j^2 per row, sums
    peak^2 / radius^2 (the max of the squared angular components) over
    the rows with the k largest radii, ties included.  Returns
    ``(acc, n_exceed, n_positive)``; ``acc`` is nan when fewer than k rows
    have positive radius, and the caller is expected to raise.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    sq = x * x
    r2 = sq.sum(axis=1)
    n_pos = int(np.count_nonzero(r2 > 0.0))
    if n_pos < k:
        return float("nan"), 0, n_pos
    n = r2.shape[0]
    thr = np.partition(r2, n - k)[n - k]
    sel = r2 >= thr
    acc = float((sq[sel].max(axis=1) / r2[sel]).sum())
    return acc, int(np.count_nonzero(sel)), n_pos


def _invsq_mean(m: np.ndarray) -> float:
    if np.any(m <= 0.0):
        return float("nan")
    return float(np.mean(m**-2.0))


def scaled_rowmax_invsq_mean(x: np.ndarray, w: np.ndarray) -> float:
    """Mean over rows of ``(max_j w_j * x_ij)^(-2)``; nan when any row
    maximum is not strictly positive."""
    return _invsq_mean((x * w).max(axis=1))


def rowmax_pass_invsq_means(
    cols: np.ndarray, head: Sequence[int], factor: float
) -> dict[int, tuple[float, float]]:
    """Both inverse-square means of every candidate of one ordering pass.

    ``cols`` is a finite (d, n) sample stored column by column, ``head``
    holds 0-based column indices and ``factor`` exceeds 1.  For each
    column m outside the head the result maps m to ``(group,
    rescaled)``: the values ``scaled_rowmax_invsq_mean`` returns for the
    weights that are 1 on head ∪ {m} and 0 elsewhere, and for the weights
    that are ``factor`` on head ∪ {m} and 1 elsewhere.  ``rescaled`` is
    only exact when ``group`` is not nan, which is all a pass needs.

    The row maxima are assembled instead of recomputed:
    ``g = max(H, x_m)``, with ``H`` the head's row maximum, and
    ``max(factor * g, M)``, with ``M`` the row maximum over all columns.
    Both are bit-identical to the weighted maxima:

    * ``max`` is exact and rounding is monotone, so
      ``fl(factor * max(u, v)) = max(fl(factor * u), fl(factor * v))``;
    * ``M`` also covers the columns of head ∪ {m}, which cannot change a
      row whose ``g`` is positive, since then ``x_j <= g <= fl(factor *
      g)``; a row whose ``g`` is not positive makes ``group`` nan;
    * a zero weight could only change a row maximum through ``inf * 0``,
      which a finite sample rules out.
    """
    in_head = set(head)
    hmax = cols[list(head)].max(axis=0) if head else np.full(cols.shape[1], -np.inf)
    top = cols.max(axis=0)
    out: dict[int, tuple[float, float]] = {}
    for m in range(cols.shape[0]):
        if m not in in_head:
            g = np.maximum(hmax, cols[m])
            out[m] = (_invsq_mean(g), _invsq_mean(np.maximum(factor * g, top)))
    return out
