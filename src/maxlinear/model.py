"""Recursive max-linear models: max-times algebra, standardization,
simulation, and the discrete spectral measure.

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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _kernels
from .errors import ValidationError

# Rows are generated in independently seeded blocks of this size, so a
# sample is reproducible no matter how many workers draw it.
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


def standardize(coef: np.ndarray, alpha: float = 2.0) -> np.ndarray:
    """Divide each row by its alpha-norm so that row masses are one.

    With the package-wide tail index alpha=2 this makes every component
    scaling equal to one while leaving all cross-component dependence
    intact.  Idempotent.

    Args:
        coef: coefficient matrix with positive diagonal.
        alpha: norm exponent; the estimation theory in this package is
            exercised only at the default 2.

    Returns:
        The standardized matrix (new array).
    """
    a = as_coefficient_matrix(coef)
    norms = (a**alpha).sum(axis=1) ** (1.0 / alpha)
    if np.any(norms <= 0.0):
        raise ValidationError("cannot standardize a matrix with a zero row")
    return a / norms[:, None]


def max_matrix_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Matrix product with (max, *) in place of (+, *).

    Entry (i, j) of the result is ``max_k left[i, k] * right[k, j]``.
    One-dimensional inputs are treated as a single row (left) or single
    column (right), mirroring ``numpy.matmul``.
    """
    l = np.asarray(left, dtype=np.float64)
    r = np.asarray(right, dtype=np.float64)
    l2 = l[None, :] if l.ndim == 1 else l
    r2 = r[:, None] if r.ndim == 1 else r
    if l2.ndim != 2 or r2.ndim != 2 or l2.shape[1] != r2.shape[0]:
        raise ValidationError(
            f"inner dimensions do not match: {l.shape} x {r.shape}"
        )
    out = _kernels.max_times_product(np.ascontiguousarray(l2), np.ascontiguousarray(r2))
    if l.ndim == 1 and r.ndim == 1:
        return out[0, 0]
    if l.ndim == 1:
        return out[0]
    if r.ndim == 1:
        return out[:, 0]
    return out


def _frechet2_block(rng: np.random.Generator, rows: int, d: int) -> np.ndarray:
    # Inverse transform; rows are drawn in C order, so each row consumes
    # its d uniforms in column order.  rng.random lives in [0, 1): the
    # zero guard redraws rather than clamping.
    u = rng.random((rows, d))
    while True:
        zero = u == 0.0
        if not zero.any():
            break
        u[zero] = rng.random(int(zero.sum()))
    return (-np.log(u)) ** -0.5


def simulate(coef: np.ndarray, seed: int, n: int, workers: int = 1) -> np.ndarray:
    """Draw n observations of the max-linear vector ``X = A x_max Z``.

    Innovations are generated in fixed-size blocks, each from a child
    seed spawned off the master seed, so the result is identical for
    any ``workers`` count and can be regenerated block by block.

    The matrix needs only to be square, finite and non-negative: a zero
    diagonal entry (as in a clipped estimate) is sampled as it stands.

    Args:
        coef: d x d coefficient matrix.
        seed: master seed of the innovation stream.
        n: number of rows, >= 1.
        workers: thread count for block generation.

    Returns:
        (n, d) sample matrix.
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
    out = np.empty((n, d), dtype=np.float64)

    def fill(b: int) -> None:
        start = b * SIMULATION_BLOCK
        stop = min(start + SIMULATION_BLOCK, n)
        rng = np.random.Generator(np.random.Philox(children[b]))
        z = _frechet2_block(rng, stop - start, d)
        out[start:stop] = _kernels.max_times_product(z, at)

    if workers > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(n_blocks)))
    else:
        for b in range(n_blocks):
            fill(b)
    return out


def _check_nodes(nodes: Iterable[int], d: int) -> tuple[int, ...]:
    out = tuple(int(v) for v in nodes)
    for v in out:
        if not 1 <= v <= d:
            raise ValidationError(f"node {v} outside 1..{d}")
    if len(set(out)) != len(out):
        raise ValidationError(f"duplicate nodes in {out}")
    return out


def pair_scaling(coef: np.ndarray, i: int, j: int) -> float:
    """Squared joint scaling of components i and j: ``sum_k a_ik a_jk``.

    Equals the (i, j) entry of ``A Aᵀ``; the diagonal gives the squared
    component scalings, which are 1 after standardization.
    """
    a = as_coefficient_matrix(coef)
    d = a.shape[0]
    (i,) = _check_nodes([i], d)
    (j,) = _check_nodes([j], d)
    return float(a[i - 1] @ a[j - 1])


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
    sel = _check_nodes(nodes, a.shape[0])
    if not sel:
        raise ValidationError("node subset must be non-empty")
    rows = np.array([v - 1 for v in sel])
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
    hs = _check_nodes(ordered, d)
    (m,) = _check_nodes([node], d)
    if m in hs:
        raise ValidationError(f"node {m} already in ordered set {hs}")
    if not factor > 1.0:
        raise ValidationError(f"scaling factor must exceed 1, got {factor}")
    scaled = np.array([v - 1 for v in (*hs, m)])
    rest = np.array([v - 1 for v in range(1, d + 1) if v not in set((*hs, m))])
    sq = a**2
    top = factor**2 * sq[scaled].max(axis=0)
    if rest.size:
        top = np.maximum(top, sq[rest].max(axis=0))
    return float(top.sum())


@dataclass(frozen=True)
class SpectralAtoms:
    """Discrete spectral measure of a max-linear vector.

    ``masses[k]`` is the squared norm of column k of the coefficient
    matrix, ``directions[k]`` that column normalized to the unit sphere.
    Total mass equals the sum of squared component scalings.
    """

    masses: np.ndarray
    directions: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


def spectral_atoms(coef: np.ndarray) -> SpectralAtoms:
    """One spectral atom per innovation column of the model."""
    a = as_coefficient_matrix(coef)
    col_mass = (a**2).sum(axis=0)
    if np.any(col_mass <= 0.0):
        raise ValidationError("coefficient matrix has an all-zero column")
    norms = np.sqrt(col_mass)
    return SpectralAtoms(masses=col_mass, directions=(a / norms).T.copy())


def spectral_expectation(coef: np.ndarray, f: Callable[[np.ndarray], float]) -> float:
    """Expectation of ``f`` under the normalized spectral measure.

    Args:
        coef: coefficient matrix.
        f: function of a unit-sphere direction vector.

    Returns:
        ``sum_k mass_k f(atom_k) / sum_k mass_k``.
    """
    atoms = spectral_atoms(coef)
    values = np.array([float(f(w)) for w in atoms.directions])
    return float((atoms.masses * values).sum() / atoms.total_mass)


def extreme_dependence_measure(coef: np.ndarray, i: int, j: int) -> float:
    """Normalized angular cross-moment of components i and j.

    Equals ``pair_scaling(i, j)`` divided by the total spectral mass;
    zero exactly when components i and j share no innovation.
    """
    a = as_coefficient_matrix(coef)
    total = float((a**2).sum())
    return pair_scaling(a, i, j) / total
