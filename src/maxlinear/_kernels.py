"""Hot numeric kernels, vectorized with numpy.

Three inner loops dominate the runtime of simulation studies and
order-learning sweeps:

* max-times matrix products (model simulation), swept one output
  column at a time over the non-zero entries of the right factor only,
* thresholded angular sums over the squared columns of a sample
  (``scaling_sum``, the spectral scaling estimates), which add the
  columns into each row's squared radius, O(n) per column, and form
  peaks and angles for the exceedance rows only,
* inverse-square means of row maxima of column-scaled samples
  (Frechet maximum-likelihood scalings), for every candidate of one
  ordering pass at once (``pass_invsq_means``): ``power(., -2.0)`` is
  monotone, so the inverse square of a row maximum is the row minimum
  of inverse squares tabled once per column, and a candidate costs two
  ``np.fmin`` and two sums instead of two n-length powers (about 6 us
  against 150 us per 10^4 elements on a 2-CPU x86-64 host, numpy 2.4);
  ``scaled_rowmax_invsq_mean``, one weighted subset at a time, is the
  reference it is tested against.

The kernels write into buffers the caller owns where that saves a
temporary: ``max_times_product(..., out=)`` fills the column slice of
a (d, n) sample that ``model.simulate`` hands it, and
``inverse_squares(x, out=x)`` powers a table in place.  A fresh 10^4 x
10 float64 temporary is 800 KB, which glibc maps and unmaps anew, so
each one costs some 200 minor page faults at about 3 us each (2-CPU
x86-64 host).  Writing in place cut a ``study`` command (sizes 2000 to
10^4, one run each) from about 1,690 faults to 740-775, and the outputs
keep their bits: an in-place ufunc runs the same loop on the same
contiguous rows as the allocating one.  An n-length temporary (80 KB at
n = 10^4) is reused from the heap, so ``pass_invsq_means`` makes its own.

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
    ``out.T``, the (n, m) column-major view.  On a 10^4 x 10
    block of the ten-node preset, filling ``out`` took 0.78 ms with no
    page fault, against 1.78 ms and 358 faults to allocate the product
    and copy it into the sample (2-CPU x86-64 host, numpy 2.4).
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


def scaling_sum(sq: Sequence[np.ndarray], k: int) -> tuple[float, int, int]:
    """Thresholded angular sum over the rows of q squared columns.

    ``sq`` holds q columns of length n with the squared coordinates of a
    sample, for example views into a cached (d, n) array of squares.
    Per row, radius^2 is the sum of the row's squares added in column
    order, ``sq[0] + sq[1] + ...``, and peak^2 its largest entry.  The
    kernel sums peak^2 / radius^2 (the max of the squared angular
    components) over the rows with the k largest radii, ties included,
    in row order.  Returns ``(acc, n_exceed, n_positive)``; ``acc`` is
    nan when fewer than k rows have positive radius, and the caller is
    expected to raise.  It is nan too when a radius^2 overflows to inf,
    from inf squares or from finite ones whose sum overflows: the row of
    the largest radius is always an exceedance row, so an exceedance
    radius^2 is inf exactly when one overflows.  The sums run with
    numpy's overflow warning silenced.

    The radii cost one O(n) pass per column and the threshold one
    ``np.partition``; only the exceedance rows (k of them, more on ties)
    are gathered for their peaks and ratios.
    """
    t = np.array(sq[0], dtype=np.float64)
    with np.errstate(over="ignore"):
        for col in sq[1:]:
            np.add(t, col, out=t)
    n_pos = int(np.count_nonzero(t > 0.0))
    if n_pos < k:
        return float("nan"), 0, n_pos
    n = t.shape[0]
    thr = np.partition(t, n - k)[n - k]
    rows = np.flatnonzero(t >= thr)
    radii = t[rows]
    if np.isinf(radii).any():
        return float("nan"), int(rows.size), n_pos
    peak = sq[0][rows]
    for col in sq[1:]:
        np.maximum(peak, col[rows], out=peak)
    acc = float((peak / radii).sum())
    return acc, int(rows.size), n_pos


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
