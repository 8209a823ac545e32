"""Naive re-implementations used as independent oracles in the tests.

Everything here is written with plain Python loops and explicit formulas,
deliberately ignoring the package's own vectorized/kernel code paths, so a
disagreement points at exactly one side.  The exceptions,
``column_order_scaling_sum``, ``dense_max_times_product``,
``searchsorted_frechet_transform``, ``masked_polar_scaling`` and
``per_subset_scaling_vector``, are the straightforward forms of code
paths that must match them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from maxlinear.errors import ThresholdError


def naive_ancestors(edges: list[tuple[int, int]], node: int) -> set[int]:
    """All nodes with a directed path to ``node`` (edges are (parent, child))."""
    parents: dict[int, set[int]] = {}
    for p, c in edges:
        parents.setdefault(c, set()).add(p)
    out: set[int] = set()
    stack = list(parents.get(node, ()))
    while stack:
        v = stack.pop()
        if v not in out:
            out.add(v)
            stack.extend(parents.get(v, ()))
    return out


def naive_generations(d: int, edges: list[tuple[int, int]]) -> list[set[int]]:
    """Longest-path layering: layer of v = 1 + max over parents' layers."""
    depth: dict[int, int] = {}

    def rec(v: int) -> int:
        if v not in depth:
            ps = [p for p, c in edges if c == v]
            depth[v] = 0 if not ps else 1 + max(rec(p) for p in ps)
        return depth[v]

    for v in range(1, d + 1):
        rec(v)
    groups: list[set[int]] = [set() for _ in range(max(depth.values()) + 1)]
    for v, g in depth.items():
        groups[g].add(v)
    return groups


def naive_path_coefficients(
    d: int, edges: list[tuple[int, int]], weights: list[list[float]]
) -> list[list[float]]:
    """a_ij = max over all directed paths j -> i of c_jj * (edge products);
    a_ii = c_ii.  Paths enumerated explicitly (exponential, fine for tiny d).
    ``weights[i][j]`` is 1-based-shifted: row i-1, col j-1."""
    children: dict[int, list[int]] = {}
    for p, c in edges:
        children.setdefault(p, []).append(c)

    coef = [[0.0] * d for _ in range(d)]
    for j in range(1, d + 1):
        coef[j - 1][j - 1] = weights[j - 1][j - 1]
        # depth-first over all paths out of j, carrying the running product
        stack = [(j, weights[j - 1][j - 1])]
        while stack:
            v, prod = stack.pop()
            for c in children.get(v, ()):
                val = prod * weights[c - 1][v - 1]
                if val > coef[c - 1][j - 1]:
                    coef[c - 1][j - 1] = val
                stack.append((c, val))
    return coef


def naive_max_matrix_product(
    a: list[list[float]], b: list[list[float]]
) -> list[list[float]]:
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [max(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def naive_max_scaling(coef: list[list[float]], nodes: list[int]) -> float:
    d = len(coef)
    return sum(max(coef[i - 1][k] ** 2 for i in nodes) for k in range(d))


def naive_rescaled_max_scaling(
    coef: list[list[float]], scaled: list[int], factor: float
) -> float:
    d = len(coef)
    total = 0.0
    for k in range(d):
        inside = max((coef[i - 1][k] ** 2 for i in scaled), default=0.0)
        outside = max(
            (coef[i - 1][k] ** 2 for i in range(1, d + 1) if i not in scaled),
            default=0.0,
        )
        total += max(factor**2 * inside, outside)
    return total


def naive_scaling_vector(coef: list[list[float]]) -> list[float]:
    """Layout: for i = 1..d the block (sigma^2 of max over {i} u {j+1..d}
    for j = i..d-1, then sigma_i^2)."""
    d = len(coef)
    out = []
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            nodes = [i] + list(range(j + 1, d + 1))
            out.append(naive_max_scaling(coef, nodes))
    return out


def naive_vector_index(i: int, j: int, d: int) -> int:
    return (j - d) + sum(d - k for k in range(i))


def naive_polar_scaling(
    rows: list[list[float]], k: int, over: list[int] | None = None
) -> float:
    """Empirical scaling of the max over ``over`` (1-based into the given
    columns), thresholding on the FULL-subset radius; divisor stays k even
    with ties."""
    kept = [r for r in rows if math.hypot(*r) > 0.0]
    radii = sorted((math.hypot(*r) for r in kept), reverse=True)
    thr = radii[k - 1]
    cols = over if over is not None else list(range(1, len(rows[0]) + 1))
    total = 0.0
    for r in kept:
        rad = math.hypot(*r)
        if rad >= thr:
            total += max((r[c - 1] / rad) ** 2 for c in cols)
    return len(cols) / k * total


def naive_frechet_mle(maxima: list[float]) -> float:
    return 1.0 / (sum(m**-2 for m in maxima) / len(maxima))


def naive_rank_transform(column: list[float]) -> list[float]:
    n = len(column)
    out = []
    for v in column:
        rank = sum(1 for u in column if u <= v)
        out.append((-math.log(rank / (n + 1))) ** -0.5)
    return out


def searchsorted_frechet_transform(x: np.ndarray) -> np.ndarray:
    """``estimation.empirical_frechet_transform`` as one sorted copy per
    column, a binary search of every unsorted entry into it for its rank,
    and the formula evaluated for every entry.  Not a plain loop: this is
    the bit-level oracle for the argsort and quantile-table form, and it
    raises the same error on the same first constant column."""
    a = np.asarray(x, dtype=np.float64)
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


def masked_polar_scaling(
    x: np.ndarray, subset: tuple[int, ...], k: int, over: list[int]
) -> float:
    """``scaling_from_polar(polar_decompose(x, subset, k), over)`` the
    long way: every radius of the sample, zero radii dropped, the angle of
    every remaining row, then the exceedance mask and the squares.  Not a
    plain loop: this is the bit-level oracle for the decomposition that
    forms only the exceedance rows and shares their squares."""
    sub = np.asarray(x, dtype=np.float64)[:, [c - 1 for c in subset]]
    radii = np.sqrt((sub**2).sum(axis=1))
    keep = radii > 0.0
    radii = radii[keep]
    angles = sub[keep] / radii[:, None]
    thr = np.partition(radii, radii.shape[0] - k)[radii.shape[0] - k]
    pos = [subset.index(c) for c in over]
    w2 = angles[radii >= thr][:, pos] ** 2
    return float(len(subset) / k * w2.max(axis=1).sum())


def per_subset_scaling_vector(provider, order_labels: list[int]) -> np.ndarray:
    """``pipeline.scaling_vector_from_provider`` as one
    ``provider.max_scaling`` call per subset {i} ∪ {j+1, …, d} of
    positions, position p holding label ``order_labels[p - 1]``.  Not a
    plain loop over the data: this is the bit-level oracle for the vector
    read off the recorded passes."""
    d = len(order_labels)
    out = []
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            positions = [i, *range(j + 1, d + 1)]
            out.append(provider.max_scaling([order_labels[p - 1] for p in positions]))
    return np.array(out)


def naive_covariance_entry(
    coef: list[list[float]], nodes_i: list[int], nodes_j: list[int]
) -> float:
    d = len(coef)
    total = 0.0
    for k in range(d):
        col_norm2 = sum(coef[m][k] ** 2 for m in range(d))
        mi = max(coef[m - 1][k] ** 2 for m in nodes_i)
        mj = max(coef[m - 1][k] ** 2 for m in nodes_j)
        total += mi * mj / col_norm2
    return d * total - naive_max_scaling(coef, nodes_i) * naive_max_scaling(
        coef, nodes_j
    )


def naive_scaling_sum(rows: list[list[float]], k: int) -> tuple[float, int, int]:
    """(sum of max_j x_j^2 / sum_j x_j^2 over the rows whose squared radius
    is at least the k-th largest, that row count, positive-radius count);
    the sum is nan and the count 0 when fewer than k radii are positive."""
    r2 = [sum(v * v for v in r) for r in rows]
    n_pos = sum(1 for s in r2 if s > 0.0)
    if n_pos < k:
        return math.nan, 0, n_pos
    thr = sorted(r2, reverse=True)[k - 1]
    acc = 0.0
    n_exc = 0
    for r, s in zip(rows, r2):
        if s >= thr:
            acc += max(v * v for v in r) / s
            n_exc += 1
    return acc, n_exc, n_pos


def column_order_scaling_sum(x: np.ndarray, k: int) -> tuple[float, int, int]:
    """``_kernels.scaling_sum`` by its definition: every row's squared
    radius is its squares added left to right with ``+=`` (not ``sum()``,
    which Python 3.12 and later compensates), and the ratios of the
    exceedance rows are added in row order by numpy's ``.sum()``; the
    sum is nan when an exceedance radius overflows.  Not a plain loop
    at the last step: this is the bit-level oracle for the kernel, which
    must reproduce it exactly, rounding of every sum included."""
    r2 = []
    peaks = []
    for r in np.asarray(x, dtype=np.float64).tolist():
        s = 0.0
        for v in r:
            s += v * v
        r2.append(s)
        peaks.append(max(v * v for v in r))
    n_pos = sum(1 for s in r2 if s > 0.0)
    if n_pos < k:
        return math.nan, 0, n_pos
    thr = sorted(r2, reverse=True)[k - 1]
    ratios = [p / s for p, s in zip(peaks, r2) if s >= thr]
    if any(math.isinf(s) for s in r2 if s >= thr):
        return math.nan, len(ratios), n_pos
    return float(np.array(ratios).sum()), len(ratios), n_pos


def dense_max_times_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``_kernels.max_times_product`` as the dense broadcast: every product
    ``left[i, k] * right[k, j]`` formed, zero entries of ``right``
    included, then ``max(axis=1)``, in row blocks of 8192.  Not a plain
    loop: this is the bit-level oracle for the sparse column sweep."""
    n = left.shape[0]
    out = np.empty((n, right.shape[1]), dtype=np.float64)
    for start in range(0, n, 8192):
        stop = min(start + 8192, n)
        block = left[start:stop, :, None] * right[None, :, :]
        np.max(block, axis=1, out=out[start:stop])
    return out


def naive_rowmax_invsq_mean(rows: list[list[float]], w: list[float]) -> float:
    """Mean over rows of (max_j w_j x_j)^-2; nan if any row maximum is <= 0."""
    total = 0.0
    for r in rows:
        m = max(wj * v for wj, v in zip(w, r))
        if m <= 0.0:
            return math.nan
        total += 1.0 / (m * m)
    return total / len(rows)
