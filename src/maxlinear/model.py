"""Recursive max-linear models: standardization, simulation, and the
exact scalings of maxima.

A model on d nodes is given by a coefficient matrix ``A`` with
``a_ij >= 0`` and positive diagonal; component i of the modelled vector
is ``X_i = max_j a_ij * Z_j`` for independent unit-scale Frechet(2)
innovations ``Z_j`` (``P(Z <= x) = exp(-x^{-2})``).  All tail-dependence
information sits in the columns of ``A``: the spectral measure of ``X``
is discrete with one atom per column, mass ``||a_k||^2`` in direction
``a_k / ||a_k||``.

The *scaling* of a non-negative max-linear functional is the square
root of its spectral mass; ``max_scaling`` and friends compute these
scalings exactly from ``A``.  They are the quantities the estimation
and ordering modules recover from data.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .errors import ValidationError

# Rows are generated in blocks of this size, each from its own child of
# the master seed: the block size fixes the random stream, and so the
# sample's bytes.
SIMULATION_BLOCK = 16384


def _as_sampling_matrix(coef: np.ndarray) -> np.ndarray:
    """A square, finite, non-negative float64 matrix: all that sampling
    ``X = A x_max Z`` needs."""
    a = np.asarray(coef, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"coefficient matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("coefficient matrix has non-finite entries")
    if np.any(a < 0.0):
        raise ValidationError("coefficient matrix has negative entries")
    return a


def as_coefficient_matrix(coef: np.ndarray) -> np.ndarray:
    """Validate and return a model coefficient matrix as float64.

    Requires a square matrix with non-negative entries and strictly
    positive diagonal.
    """
    a = _as_sampling_matrix(coef)
    if np.any(np.diag(a) <= 0.0):
        raise ValidationError("coefficient matrix diagonal must be strictly positive")
    return a


def is_standardized(coef: np.ndarray, tol: float = 1e-12) -> bool:
    """True when every row of ``coef`` has unit Euclidean norm."""
    a = np.asarray(coef, dtype=np.float64)
    return bool(np.all(np.abs((a * a).sum(axis=1) - 1.0) <= tol))


def standardize(coef: np.ndarray) -> np.ndarray:
    """Divide each row by its Euclidean norm so that row masses are one.

    At the package-wide tail index 2 this makes every component scaling
    equal to one while leaving all cross-component dependence intact.
    Idempotent.

    Args:
        coef: coefficient matrix with positive diagonal.

    Returns:
        The standardized matrix (new array).

    Raises:
        ValidationError: a row's squared norm overflows or underflows to
            0, or a positive entry underflows to 0 in the division.
    """
    a = as_coefficient_matrix(coef)
    with np.errstate(over="ignore"):
        norms = (a**2.0).sum(axis=1) ** 0.5
    bad = (norms <= 0.0) | ~np.isfinite(norms)
    if bad.any():
        row = int(np.argmax(bad))
        what = "overflows" if norms[row] else "underflows to 0"
        raise ValidationError(f"cannot standardize row {row + 1}: its squared norm {what}")
    out = a / norms[:, None]
    lost = np.argwhere((a > 0.0) & (out == 0.0))
    if lost.size:
        row, col = lost[0] + 1
        raise ValidationError(f"cannot standardize row {row}: entry {col} underflows to 0")
    return out


def _frechet2_block(rng: np.random.Generator, rows: int, d: int) -> np.ndarray:
    # Inverse transform; rows are drawn in C order, so each row consumes
    # its d uniforms in column order.  rng.random lives in [0, 1): the
    # zero guard redraws rather than clamping.  The transform runs in
    # place on the draws, with the bits of ``(-np.log(u)) ** -0.5``.
    u = rng.random((rows, d))
    while True:
        zero = u == 0.0
        if not zero.any():
            break
        u[zero] = rng.random(int(zero.sum()))
    np.log(u, out=u)
    np.negative(u, out=u)
    return np.power(u, -0.5, out=u)


def simulate(coef: np.ndarray, seed: int, n: int) -> np.ndarray:
    """Draw n observations of the max-linear vector ``X = A x_max Z``.

    Innovations are generated in fixed-size blocks, each from a child
    seed spawned off the master seed, so any block can be regenerated
    on its own.

    The matrix needs only to be square, finite and non-negative: a zero
    diagonal entry (as in a clipped estimate) is sampled as it stands.

    Args:
        coef: d x d coefficient matrix.
        seed: master seed of the innovation stream.
        n: number of rows, >= 1.

    Returns:
        (n, d) sample matrix, the transposed view of one column-major
        (d, n) buffer: each block's product writes its columns into it
        (``_kernels.max_times_product(..., out=)``), so the sample costs
        one allocation and the column-wise providers read it without a
        copy.  The values, and the bytes a CSV of them takes, are those
        of a row-major sample.
    """
    a = _as_sampling_matrix(coef)
    d = a.shape[0]
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    if n < 1:
        raise ValidationError("n must be >= 1")
    at = np.ascontiguousarray(a.T)
    n_blocks = (n + SIMULATION_BLOCK - 1) // SIMULATION_BLOCK
    children = np.random.SeedSequence(int(seed)).spawn(n_blocks)
    cols = np.empty((d, n), dtype=np.float64)
    for b, child in enumerate(children):
        start = b * SIMULATION_BLOCK
        stop = min(start + SIMULATION_BLOCK, n)
        z = _frechet2_block(np.random.Generator(np.random.Philox(child)), stop - start, d)
        _kernels.max_times_product(z, at, out=cols[:, start:stop])
    return cols.T


def _check_nodes(nodes: Iterable[int], d: int) -> tuple[int, ...]:
    """Node (or column) labels as ints: at least one, each in 1..d, none
    repeated."""
    out = tuple(int(v) for v in nodes)
    if not out:
        raise ValidationError("node subset must be non-empty")
    for v in out:
        if not 1 <= v <= d:
            raise ValidationError(f"node {v} outside 1..{d}")
    if len(set(out)) != len(out):
        raise ValidationError(f"duplicate nodes in {out}")
    return out


def _check_factor(factor: float) -> None:
    if not (factor > 1.0 and math.isfinite(factor * factor)):
        raise ValidationError(
            f"inflation factor a must exceed 1 and have a finite square, got {factor}"
        )


def _inflated_nodes(
    ordered: Sequence[int], node: int, factor: float, d: int
) -> tuple[int, ...]:
    """The labels ``(*ordered, node)`` that a rescaled scaling inflates by
    ``factor``, checked: each in 1..d, ``node`` not in ``ordered``, no
    repeats, and ``factor > 1``."""
    grown = _check_nodes((*ordered, node), d)
    _check_factor(factor)
    return grown


def max_scaling(coef: np.ndarray, nodes: Sequence[int]) -> float:
    """Squared scaling of ``max_{i in nodes} X_i``.

    Each innovation contributes its largest squared coefficient among
    the selected rows: ``sum_k max_{i in nodes} a_ik^2``.  For the full
    node set of a well-ordered standardized model this collapses to the
    sum of squared diagonal entries.

    Args:
        coef: coefficient matrix.
        nodes: non-empty collection of node labels (1-based).
    """
    a = as_coefficient_matrix(coef)
    rows = np.array([v - 1 for v in _check_nodes(nodes, a.shape[0])])
    return float((a[rows] ** 2).max(axis=0).sum())


def rescaled_max_scaling(
    coef: np.ndarray,
    ordered: Sequence[int],
    node: int,
    factor: float,
) -> float:
    """Squared scaling of the maximum after inflating some components.

    Components in ``ordered`` plus ``node`` are multiplied by
    ``factor > 1`` before taking the overall maximum; per innovation the
    contribution is the larger of ``factor^2`` times the best scaled row
    and the best unscaled row.  The gap between this quantity and the
    plain all-node scaling is the ordering statistic used by the
    structure-learning module: it equals ``factor^2 - 1`` times the
    scaling of the scaled group exactly when ``node`` has no ancestors
    outside ``ordered``, and is strictly smaller otherwise.

    Args:
        coef: coefficient matrix.
        ordered: already-ordered node labels (may be empty).
        node: the candidate node, not in ``ordered``.
        factor: inflation factor, strictly greater than 1.
    """
    a = as_coefficient_matrix(coef)
    d = a.shape[0]
    grown = _inflated_nodes(ordered, node, factor, d)
    scaled = np.array([v - 1 for v in grown])
    rest = np.array([v - 1 for v in range(1, d + 1) if v not in set(grown)])
    sq = a**2
    top = factor**2 * sq[scaled].max(axis=0)
    if rest.size:
        top = np.maximum(top, sq[rest].max(axis=0))
    return float(top.sum())
