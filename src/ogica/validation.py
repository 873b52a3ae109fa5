"""Shared argument checking for matrix-valued inputs and settings.

Data matrices are plain ``numpy.ndarray`` values with rows as
channels/components and columns as samples.  The helpers here enforce the
package-wide invariants (two-dimensional, at least one row, finite entries)
at API boundaries and return float64 arrays so the numerics behave
identically regardless of the caller's dtype.  Every count or index
setting (iteration caps, sign cutoffs, source and sample counts, seeds,
run indices) goes through :func:`as_count`, which accepts only integers;
every real one through :func:`as_real` and a range the CLI also uses.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

from .exceptions import ParameterError, ValidationError

# The ranges of the real settings: a test (false for NaN) and its wording.
POSITIVE = (lambda v: 0 < v < np.inf, "positive and finite")
NONNEGATIVE = (lambda v: 0 <= v < np.inf, ">= 0 and finite")
FRACTION = (lambda v: 0 <= v < 1, "in [0, 1)")


def as_count(value, *, name: str, minimum: int = 1) -> int:
    """Refuse a count setting below ``minimum`` (NaN included) or not an
    integer (Python or numpy); return it as an ``int``."""
    try:
        if not value >= minimum:
            raise ParameterError(f"{name} must be >= {minimum}, got {value}")
        return operator.index(value)
    except TypeError:
        raise ParameterError(
            f"{name} must be an integer, got {value!r}") from None


def as_real(value, rule, *, name: str) -> float:
    """Refuse a setting that is not a real scalar (Python or numpy) or is
    outside ``rule``, one of the ranges above; return it as a ``float``."""
    accept, wording = rule
    if not (isinstance(value, numbers.Real) and accept(value)):
        raise ParameterError(f"{name} must be {wording}, got {value!r}")
    return float(value)


def as_data_matrix(values, *, name: str = "data",
                   min_samples: int = 2) -> np.ndarray:
    """Validate and coerce ``values`` to an n-by-t float64 data matrix."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(
            f"{name} must be a 2-D matrix (rows = channels, columns = "
            f"samples), got ndim={arr.ndim}")
    n, t = arr.shape
    if n < 1:
        raise ValidationError(f"{name} must have at least one row")
    if t < min_samples:
        raise ValidationError(
            f"{name} must have at least {min_samples} samples per row, "
            f"got {t}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def as_square_matrix(values, *, name: str = "matrix") -> np.ndarray:
    """Validate and coerce ``values`` to a square float64 matrix."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def as_vector(values, *, name: str = "vector") -> np.ndarray:
    """Validate and coerce ``values`` to a finite 1-D float64 vector."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr
