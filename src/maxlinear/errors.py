"""Exception hierarchy shared across the package.

Each class carries the exit code of the command line as ``exit_code``:
validation failures exit with 2, data-driven threshold failures (too few
exceedances, no initial node found, an empty generation pass) with 3,
and file-format problems with 4.
"""

from __future__ import annotations


class MaxLinearError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 1  # the code of an uncaught exception


class ValidationError(MaxLinearError):
    """Structurally invalid input: bad shapes, labels, weights or config."""
    exit_code = 2


class CyclicGraphError(ValidationError):
    """Edge set contains a directed cycle."""


class ThresholdError(MaxLinearError):
    """A tail-based estimate cannot be formed from the data, e.g. fewer
    positive radii than the requested number of upper order statistics,
    a non-positive row maximum in the Fréchet maximum-likelihood
    scaling estimate, or data out of floating-point range, which would
    make an estimate non-finite."""
    exit_code = 3


class NoInitialNodeError(MaxLinearError):
    """The initial band of ``learn_generations`` or the pairwise screen
    accepted no candidate; eps1/eps2 may be too tight for the data."""
    exit_code = 3


class EmptyGenerationError(MaxLinearError):
    """A generation pass accepted no node while unordered nodes remain,
    which invalidates the ordering run."""
    exit_code = 3


class FileFormatError(MaxLinearError):
    """An input file does not parse as the documented format."""
    exit_code = 4
