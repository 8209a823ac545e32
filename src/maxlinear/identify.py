"""Exact recovery of a well-ordered standardized coefficient matrix from
scalings of component maxima.

The d(d+1)/2 scalings of interest are arranged in one vector: block i
(for i = 1..d) holds the squared scalings of ``max(X_i, X_{j+1}, ...,
X_d)`` for j = i..d-1 followed by the squared scaling of ``X_i`` alone.
``vector_index(i, j, d)`` maps the pair (i, j) to its 1-based position.

For a well-ordered standardized model the squared coefficients are a
fixed signed combination of at most four of these scalings, collected
in a sparse transform with entries in {-1, 0, +1}:

    vec(A^2) = transform . scaling_vector

``squared_coefficients`` applies that transform; an equivalent
three-stage recursion (diagonal first, then inner columns, then the
last column by row-mass completion) is kept as
``squared_coefficients_recursive`` so the two derivations cross-check
each other.  On noisy estimated scalings the result may dip below zero;
``coefficients_from_squares`` clips at zero before taking square roots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import max_scaling

SparseRow = tuple[tuple[int, int], ...]  # ((position, sign), ...) 1-based


def vector_length(d: int) -> int:
    return d * (d + 1) // 2


def vector_index(i: int, j: int, d: int) -> int:
    """Position (1-based) of the pair (i, j), i <= j, in the scaling vector.

    The layout is row-wise over the upper triangle: block i occupies
    positions after the i-1 earlier blocks of lengths d, d-1, ..., and
    the blocks up to and including block i hold i*d - i(i-1)/2 entries.
    """
    if not 1 <= i <= j <= d:
        raise ValidationError(f"need 1 <= i <= j <= d, got i={i}, j={j}, d={d}")
    return (j - d) + i * d - i * (i - 1) // 2


def index_pairs(d: int) -> list[tuple[int, int]]:
    """All (i, j) pairs in scaling-vector position order."""
    return [(i, j) for i in range(1, d + 1) for j in range(i, d + 1)]


def subset_at(i: int, j: int, d: int) -> tuple[int, ...]:
    """Node subset whose max-scaling sits at position (i, j): {i, j+1, .., d}."""
    if not 1 <= i <= j <= d:
        raise ValidationError(f"need 1 <= i <= j <= d, got i={i}, j={j}, d={d}")
    return (i, *range(j + 1, d + 1))


def scaling_vector(coef: np.ndarray) -> np.ndarray:
    """Exact scaling vector of a model, one entry per (i, j) pair.

    Entry (i, j) is the squared scaling of ``max(X_i, X_{j+1}, .., X_d)``;
    the (i, d) entries are the squared component scalings themselves.
    """
    a = np.asarray(coef, dtype=np.float64)
    d = a.shape[0]
    return np.array([max_scaling(a, subset_at(i, j, d)) for i, j in index_pairs(d)])


@dataclass(frozen=True)
class TransformMatrix:
    """Sparse signed transform from the scaling vector to vec(A^2).

    ``rows[r]`` lists (position, sign) pairs, 1-based positions; row r
    (0-based) produces the squared coefficient for the r-th (i, j) pair
    in scaling-vector order.
    """

    d: int
    rows: tuple[SparseRow, ...]

    def dense(self) -> np.ndarray:
        k = vector_length(self.d)
        out = np.zeros((k, k), dtype=np.float64)
        for r, row in enumerate(self.rows):
            for pos, sign in row:
                out[r, pos - 1] += sign
        return out

    def apply(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        k = vector_length(self.d)
        if s.shape != (k,):
            raise ValidationError(
                f"scaling vector must have length {k} for d={self.d}, got {s.shape}"
            )
        return np.array(
            [sum(sign * s[pos - 1] for pos, sign in row) for row in self.rows]
        )


def build_transform(d: int) -> TransformMatrix:
    """Construct the sparse recovery transform for dimension d.

    Row patterns (positions via ``vector_index``):

    * diagonal (i, i), i < d:      +(i, i)  -(i+1, i+1)
    * last diagonal (d, d):        +(d, d)
    * inner (i, j), i < j <= d-1:  +(i, j)  -(j+1, j+1)  -(i, j-1)  +(j, j)
    * last column (i, d), i < d:   +(i, d)  -(i, d-1)    +(d, d)
    """
    if d < 1:
        raise ValidationError("d must be >= 1")

    def l(i: int, j: int) -> int:
        return vector_index(i, j, d)

    rows: list[SparseRow] = []
    for i, j in index_pairs(d):
        if i == j == d:
            rows.append(((l(d, d), +1),))
        elif i == j:
            rows.append(((l(i, i), +1), (l(i + 1, i + 1), -1)))
        elif j == d:
            rows.append(((l(i, d), +1), (l(i, d - 1), -1), (l(d, d), +1)))
        else:
            rows.append(
                ((l(i, j), +1), (l(j + 1, j + 1), -1), (l(i, j - 1), -1), (l(j, j), +1))
            )
    return TransformMatrix(d=d, rows=tuple(rows))


def squared_coefficients(s: np.ndarray, d: int) -> np.ndarray:
    """Recover vec(A^2) from a scaling vector through the sparse transform.

    Exact on scaling vectors of well-ordered standardized models; on
    estimated inputs the output is the plug-in estimate of the squared
    coefficients and may contain small negative entries.
    """
    return build_transform(d).apply(s)


def squared_coefficients_recursive(s: np.ndarray, d: int) -> np.ndarray:
    """Recover vec(A^2) by the defining recursion instead of the transform.

    Stage one peels the diagonal off consecutive scaling differences,
    stage two walks each row left to right subtracting what previous
    columns already explain, stage three completes each row against its
    total mass.  Algebraically identical to ``squared_coefficients``;
    kept as an independently derived cross-check.
    """
    s = np.asarray(s, dtype=np.float64)
    k = vector_length(d)
    if s.shape != (k,):
        raise ValidationError(f"scaling vector must have length {k} for d={d}")

    def sv(i: int, j: int) -> float:
        return float(s[vector_index(i, j, d) - 1])

    a2 = np.zeros((d, d), dtype=np.float64)
    a2[d - 1, d - 1] = sv(d, d)
    for i in range(1, d):
        a2[i - 1, i - 1] = sv(i, i) - sv(i + 1, i + 1)
    for i in range(1, d):
        for j in range(i + 1, d):
            a2[i - 1, j - 1] = (
                sv(i, j) - sv(j + 1, j + 1) - a2[i - 1, i - 1 : j - 1].sum()
            )
        a2[i - 1, d - 1] = sv(i, d) - a2[i - 1, i - 1 : d - 1].sum()
    return np.array([a2[i - 1, j - 1] for i, j in index_pairs(d)])


@dataclass(frozen=True)
class RecoveredCoefficients:
    """Clipped square-root reconstruction of a coefficient matrix.

    ``diagonal_positive`` is False when any recovered squared diagonal
    entry was non-positive before clipping, which signals that the data
    do not fit a well-ordered max-linear model under the chosen order.
    """

    matrix: np.ndarray
    diagonal_positive: bool


def coefficients_from_squares(a2: np.ndarray, d: int) -> RecoveredCoefficients:
    """Turn a squared-coefficient vector into an upper-triangular matrix.

    Negative entries are clipped to zero before the entrywise square
    root; row norms of the result are reported as-is by downstream code.

    Args:
        a2: vectorized squared coefficients, length d(d+1)/2.
        d: dimension.
    """
    v = np.asarray(a2, dtype=np.float64)
    k = vector_length(d)
    if v.shape != (k,):
        raise ValidationError(f"squared-coefficient vector must have length {k}")
    diag_ok = all(
        v[vector_index(i, i, d) - 1] > 0.0 for i in range(1, d + 1)
    )
    mat = np.zeros((d, d), dtype=np.float64)
    for (i, j), value in zip(index_pairs(d), v):
        mat[i - 1, j - 1] = np.sqrt(max(value, 0.0))
    return RecoveredCoefficients(matrix=mat, diagonal_positive=diag_ok)
