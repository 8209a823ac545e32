"""Asymptotic covariance of estimated scaling vectors.

For a standardized model the vector of estimated squared scalings is
asymptotically normal around the truth after scaling by the square root
of the exceedance count; the limiting covariance has a closed form in
the squared coefficients.  With ``m_h(k) = max_{i in h} a_ik^2`` the
entry for subsets ``h_i``, ``h_j`` is

    d * sum_k  m_{h_i}(k) * m_{h_j}(k) / ||a_k||^2
      - max_scaling(h_i) * max_scaling(h_j)

whose diagonal specializes to the variance formula with fourth powers.
The cross term subtracts the plain product of the two max-scalings:
the squared product sometimes quoted for it is dimensionally
inconsistent and fails the Monte-Carlo cross-check shipped in the test
suite (the covariance identity 2 Cov = Var(sum) - Var - Var applied to
the diagonal formula forces the product form).

The matrix is singular by construction: the estimated singleton
scalings sum to exactly d for every sample, so the direction with ones
at the singleton positions is a null vector.  ``singleton_direction``
exposes it for diagnostics.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ValidationError
from .identify import (
    TransformMatrix,
    build_transform,
    index_pairs,
    subset_at,
    vector_index,
    vector_length,
)
from .model import as_coefficient_matrix, is_standardized


# A recovery variance counts as positive only above this share of
# 1 + the largest variance.  Structural zeros of the coefficient matrix
# give variances that are exactly zero in exact arithmetic but come out
# as rounding residues of either sign (|v| <= 1e-14 on the ten-node
# preset, against >= 0.008 for every genuine variance), so a plain sign
# test would report them according to rounding noise.
VARIANCE_TOLERANCE = 1e-12


def _validated_squares(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared coefficients and their column masses of a standardized
    matrix without zero columns."""
    a = as_coefficient_matrix(coef)
    if not is_standardized(a, tol=1e-9):
        raise ValidationError("covariance formulas require a standardized matrix")
    sq = a * a
    col_mass = sq.sum(axis=0)
    if np.any(col_mass <= 0.0):
        raise ValidationError("coefficient matrix has a zero column norm")
    return sq, col_mass


def _squared_col_max(sq: np.ndarray, nodes: Sequence[int]) -> np.ndarray:
    rows = [int(v) - 1 for v in nodes]
    if not rows:
        raise ValidationError("node subset must be non-empty")
    return sq[rows].max(axis=0)


def scaling_covariance_entry(
    coef: np.ndarray, nodes_i: Sequence[int], nodes_j: Sequence[int]
) -> float:
    """Asymptotic covariance between two estimated max-scalings.

    Args:
        coef: standardized coefficient matrix.
        nodes_i, nodes_j: the two node subsets (1-based labels).

    Raises:
        ValidationError: non-standardized input or a zero column.
    """
    sq, col_mass = _validated_squares(coef)
    d = sq.shape[0]
    mi = _squared_col_max(sq, nodes_i)
    mj = _squared_col_max(sq, nodes_j)
    return float(d * (mi * mj / col_mass).sum() - mi.sum() * mj.sum())


def scaling_covariance(coef: np.ndarray) -> np.ndarray:
    """Full covariance matrix over the scaling-vector layout.

    Entry (r, s) couples the subsets at positions r and s of the
    scaling vector; the result is symmetric and positive semi-definite
    up to floating-point noise, with the singleton direction in its
    null space.  With ``M[r]`` the subset column maxima of the squared
    coefficients at position r, every entry at once is

        W = d M diag(1 / colmass) Mᵀ - (M 1)(M 1)ᵀ.

    Raises:
        ValidationError: non-standardized input or a zero column.
    """
    sq, col_mass = _validated_squares(coef)
    d = sq.shape[0]
    m = np.array([_squared_col_max(sq, subset_at(i, j, d)) for i, j in index_pairs(d)])
    mass = m.sum(axis=1)
    return d * (m / col_mass) @ m.T - np.outer(mass, mass)


def transform_covariance(transform: TransformMatrix, w: np.ndarray) -> np.ndarray:
    """Covariance of the recovered squared coefficients: T W Tᵀ."""
    t = transform.dense()
    w = np.asarray(w, dtype=np.float64)
    if w.shape != t.shape:
        raise ValidationError(
            f"covariance shape {w.shape} does not match transform {t.shape}"
        )
    return t @ w @ t.T


def singleton_direction(d: int) -> np.ndarray:
    """Unit entries at the singleton-scaling positions, zero elsewhere.

    The estimated singleton scalings always sum to d, so this direction
    is degenerate for the estimated scaling vector: t' W t = 0.
    """
    t = np.zeros(vector_length(d), dtype=np.float64)
    for i in range(1, d + 1):
        t[vector_index(i, d, d) - 1] = 1.0
    return t


def recovery_variance_positive(coef: np.ndarray) -> list[tuple[int, int]]:
    """Positions (i, j) whose recovered-coefficient variance is not positive.

    The per-entry limit theorem needs a strictly positive variance;
    generic standardized models satisfy it everywhere.  A variance at or
    below ``VARIANCE_TOLERANCE * (1 + max |variance|)`` counts as not
    positive.  Returns the offending (i, j) pairs, empty when all is well.
    """
    a = as_coefficient_matrix(coef)
    d = a.shape[0]
    var = np.diag(transform_covariance(build_transform(d), scaling_covariance(a)))
    tol = VARIANCE_TOLERANCE * (1.0 + float(np.abs(var).max()))
    return [pair for pair, v in zip(index_pairs(d), var) if v <= tol]
