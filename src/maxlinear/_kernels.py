"""Hot numeric kernels, vectorized with numpy.

Three inner loops dominate the runtime of simulation studies and
order-learning sweeps:

* max-times matrix products (model simulation),
* thresholded angular sums over polar-decomposed samples (scaling
  estimation),
* row maxima of column-scaled samples feeding inverse-square means
  (Frechet maximum-likelihood scalings).

Callers reach each kernel through this module (``_kernels.<name>``)
rather than importing the function, so there is one place to replace or
instrument it.
"""

from __future__ import annotations

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
    peak = sq.max(axis=1)
    acc = float((peak[sel] / r2[sel]).sum())
    return acc, int(np.count_nonzero(sel)), n_pos


def scaled_rowmax_invsq_mean(x: np.ndarray, w: np.ndarray) -> float:
    """Mean over rows of ``(max_j w_j * x_ij)^(-2)``; nan when any row
    maximum is not strictly positive."""
    m = (x * w).max(axis=1)
    if np.any(m <= 0.0):
        return float("nan")
    return float(np.mean(m**-2.0))
