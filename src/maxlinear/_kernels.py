"""Hot numeric kernels, vectorized with numpy.

Three inner loops dominate the runtime of simulation studies and
order-learning sweeps:

* max-times matrix products (model simulation), swept one output
  column at a time over the non-zero entries of the right factor only,
* thresholded angular sums over the squared columns of a sample
  (``scaling_sum``, the spectral scaling estimates): each row's squared
  radius (``squared_radii``, O(n) per column) and the threshold
  (``exceedance_rows``), which the polar decomposition shares, then
  peaks and angles for the exceedance rows only,
* inverse-square means of row maxima of column-scaled samples
  (Frechet maximum-likelihood scalings), for every candidate of one
  ordering pass at once (``pass_invsq_means``): ``power(., -2.0)`` is
  monotone, so the inverse square of a row maximum is the row minimum
  of inverse squares tabled once per column, and a candidate costs two
  ``np.fmin`` and two sums instead of two n-length powers;
  ``scaled_rowmax_invsq_mean``, one weighted subset at a time, is the
  reference it is tested against.

The kernels write into buffers the caller owns where that saves a
temporary: ``max_times_product(..., out=)`` fills the column slice of
a (d, n) sample that ``model.simulate`` hands it, and
``inverse_squares(x, out=x)`` powers a table in place (the README's
*Performance* has the page faults this saves).  The outputs keep their
bits: an in-place ufunc runs the same loop on the same contiguous rows
as the allocating one.  An n-length temporary (80 KB at n = 10^4) is
reused from the heap, so ``pass_invsq_means`` makes its own.

Callers reach each kernel through this module (``_kernels.<name>``)
rather than importing the function, so there is one place to replace or
instrument it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def max_times_product(
    left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``result[i, j] = max_k left[i, k] * right[k, j]`` for non-negative,
    finite ``left`` (n, q) and ``right`` (q, m).

    ``left`` is transposed once into contiguous columns.  Each output
    column starts from zeros and takes the elementwise maximum with
    ``left[:, k] * right[k, j]`` for the k with ``right[k, j] != 0``
    only.  On the non-negative finite inputs this function accepts
    (``model.simulate`` passes Fréchet innovations and a checked
    sampling matrix) the result is bit-identical to the dense
    ``max(axis=1)`` over the broadcast ``left[:, :, None] * right``:

    * every kept product is the same IEEE product, and ``max`` is exact
      and does not depend on the order of its arguments;
    * a skipped product is ``left[i, k] * 0 = +0``, and every product is
      ``>= +0``, so it can only tie the zero start, which is the value
      it would have contributed.

    A negative or non-finite entry breaks that argument (``inf * 0`` is
    nan, a negative product loses to the zero start); such inputs are
    outside the contract.  So is the sign of a zero: a ``-0.0`` in
    ``right`` is skipped like ``+0.0``, so an output column whose
    ``right`` column is all signed zeros reads ``+0``.

    The result is written column by column into ``out``, a float64 (m, n)
    array whose row j takes output column j; each row must be contiguous,
    but ``out`` may be a column slice of a wider buffer, which is how
    ``model.simulate`` has every block write its own rows of one (d, n)
    sample.  Without ``out`` one is allocated.  The return value is
    ``out.T``, the (n, m) column-major view.
    """
    cols = np.ascontiguousarray(left.T, dtype=np.float64)
    if out is None:
        out = np.empty((right.shape[1], cols.shape[1]), dtype=np.float64)
    out.fill(0.0)
    tmp = np.empty(cols.shape[1], dtype=np.float64)
    for j in range(right.shape[1]):
        for k in np.flatnonzero(right[:, j]):
            np.multiply(cols[k], right[k, j], out=tmp)
            np.maximum(out[j], tmp, out=out[j])
    return out.T


def squared_radii(sq: Sequence[np.ndarray]) -> np.ndarray:
    """Each row's squared radius, the q squared columns ``sq`` added in
    column order (the estimator leaves the order free, so this is its
    definition), in a new array; overflow to inf is silent."""
    r2 = np.array(sq[0], dtype=np.float64)
    with np.errstate(over="ignore"):
        for col in sq[1:]:
            np.add(r2, col, out=r2)
    return r2


def exceedance_rows(r2: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """``(rows, n_positive)``: in row order the rows whose squared radius
    reaches the k-th largest in ``r2``, ties included, or none when fewer
    than k of them are positive; and the count of positive ones."""
    n_pos = int(np.count_nonzero(r2 > 0.0))
    if n_pos < k:
        return np.empty(0, dtype=np.intp), n_pos
    n = r2.shape[0]
    return np.flatnonzero(r2 >= np.partition(r2, n - k)[n - k]), n_pos


def scaling_sum(sq: Sequence[np.ndarray], k: int) -> tuple[float, int, int]:
    """Thresholded angular sum over the rows of q squared columns.

    ``sq`` holds q columns of length n with the squared coordinates of a
    sample, for example views into a cached (d, n) array of squares.
    Sums peak^2 / radius^2, the largest squared angular component, over
    the ``exceedance_rows`` of the ``squared_radii`` in row order; only
    those rows (k, more on ties) are gathered.  Returns ``(acc, n_exceed,
    n_positive)``; ``acc`` is nan, for the caller to raise, when fewer
    than k radii are positive or an exceedance radius^2 is inf.
    """
    r2 = squared_radii(sq)
    rows, n_pos = exceedance_rows(r2, k)
    r2 = r2[rows]
    if n_pos < k or np.isinf(r2).any():
        return float("nan"), int(rows.size), n_pos
    peak = sq[0][rows]
    for col in sq[1:]:
        np.maximum(peak, col[rows], out=peak)
    return float((peak / r2).sum()), int(rows.size), n_pos


def _invsq_mean(m: np.ndarray) -> float:
    if np.any(m <= 0.0):
        return float("nan")
    return float(np.mean(m**-2.0))


def scaled_rowmax_invsq_mean(x: np.ndarray, w: np.ndarray) -> float:
    """Mean over rows of ``(max_j w_j * x_ij)^(-2)``; nan when any row
    maximum is not strictly positive."""
    return _invsq_mean((x * w).max(axis=1))


def inverse_squares(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x ** -2.0`` elementwise, nan where ``x`` is not positive (the
    table ``pass_invsq_means`` reads); call it with numpy's divide and
    overflow warnings silenced.  The mask is taken before the power, so
    ``out`` may be ``x`` itself; without ``out`` one is allocated."""
    bad = x <= 0.0
    out = np.power(x, -2.0, out=out)
    out[bad] = np.nan
    return out


def pass_invsq_means(
    inv: np.ndarray, inflated: np.ndarray, top: np.ndarray, head: Sequence[int]
) -> dict[int, tuple[float, float]]:
    """Both inverse-square means of every candidate of one ordering pass.

    For a finite (d, n) sample ``x`` stored column by column and a
    factor ``a > 1``, ``inv`` is ``inverse_squares(x)``, ``inflated`` is
    ``inverse_squares(a * x)`` and ``top`` is ``inverse_squares`` of the
    row maximum ``x.max(axis=0)``; ``head`` holds 0-based column
    indices.  For each column m outside the head the result maps m to
    ``(group, rescaled)``: the values ``scaled_rowmax_invsq_mean``
    returns for the weights that are 1 on head ∪ {m} and 0 elsewhere,
    and for the weights that are ``a`` on head ∪ {m} and 1 elsewhere.
    ``rescaled`` is only exact when ``group`` is not nan, which is all a
    pass needs.

    No power is taken here: the head's row minimum of each table is
    formed once (``top`` folded into the inflated one), and a candidate
    costs two ``np.fmin`` and two ``sum() / n``, ``fmin(H, inv[m])`` and
    ``fmin(H', inflated[m])``, bit-identical to the weighted maxima
    raised to ``-2.0``:

    * ``max`` is exact, rounding of ``a * x`` is monotone, and numpy's
      float64 ``power(., -2.0)`` is monotone non-increasing on [0, inf]
      (``test_kernels`` pins this on adjacent doubles), so
      ``max(u, v) ** -2 == min(u ** -2, v ** -2)`` there, overflow to
      inf and ``inf ** -2 == 0`` included;
    * a non-positive entry lies below a positive row maximum, so its
      nan, which ``fmin`` skips, stands in for an inverse square that
      could not win; a row with no positive entry in head ∪ {m} stays
      nan, so ``group`` is nan exactly when the weighted maximum of some
      row is not positive, as in ``scaled_rowmax_invsq_mean``;
    * ``top`` also covers the columns of head ∪ {m}, which cannot change
      a row whose group maximum g is positive, since then ``x_j <= g <=
      fl(a * g)``; a zero weight could only change a row maximum through
      ``inf * 0``, which a finite sample rules out;
    * ``sum() / n`` is how ``np.mean`` divides a float64 sum; numpy's
      SIMD power may differ from its scalar one in the last bit, but not
      between positions of a contiguous array, which both paths use.
    """
    n = inv.shape[1]
    in_head = set(head)
    h = np.full(n, np.nan)
    hr = top.copy()
    for j in in_head:
        np.fmin(h, inv[j], out=h)
        np.fmin(hr, inflated[j], out=hr)
    tmp = np.empty(n)
    out: dict[int, tuple[float, float]] = {}
    for m in range(inv.shape[0]):
        if m not in in_head:
            group = float(np.fmin(h, inv[m], out=tmp).sum() / n)
            out[m] = (group, float(np.fmin(hr, inflated[m], out=tmp).sum() / n))
    return out
