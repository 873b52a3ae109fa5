"""Centering and PCA whitening.

Whitening maps centered data to components with identity sample
covariance; dimensionality can be reduced at the same time by dropping
principal directions that explain less than a given fraction of the total
variance, or only those that are null to rounding.  Sample covariances
throughout this package are normalized by the number of samples ``t``
(maximum-likelihood convention), not ``t - 1``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateDataError, ParameterError, ValidationError
from .ogextinf import _BLOCK_BYTES
from .validation import as_data_matrix

# Eigenvalues are clamped at this fraction of the largest one before the
# inverse square root, so nearly-null directions cannot blow up the scale.
_EIG_FLOOR = 1e-12


@dataclass(frozen=True)
class WhiteningModel:
    """A fitted centering + whitening transform.

    Parameters
    ----------
    mean : ndarray, shape (n,)
        Per-channel mean removed before projecting.
    whitener : ndarray, shape (m, n)
        Projects centered data onto ``m`` unit-variance components.
    dewhitener : ndarray, shape (n, m)
        Maps whitened components back to (centered) channel space;
        ``whitener @ dewhitener`` is the m-by-m identity.
    retained : int
        Number of principal components kept (``m``).
    eigenvalues : ndarray, shape (n,)
        All covariance eigenvalues, sorted in nonincreasing order.
    variance_threshold : float or None
        The retention threshold the model was fitted with; ``None`` for
        the rule that drops only null directions.
    """

    mean: np.ndarray
    whitener: np.ndarray
    dewhitener: np.ndarray
    retained: int
    eigenvalues: np.ndarray
    variance_threshold: float | None

    @property
    def n_channels(self) -> int:
        return self.mean.shape[0]


def center(data) -> tuple[np.ndarray, np.ndarray]:
    """Remove the per-row mean.

    Returns ``(centered, mean)`` where ``centered + mean[:, None]``
    restores the input.
    """
    arr = as_data_matrix(data)
    mean = arr.mean(axis=1)
    return arr - mean[:, None], mean


def fit_whitening(data, variance_threshold: float | None = 0.0
                  ) -> WhiteningModel:
    """Fit a PCA whitening transform to ``data``.

    The data is centered internally (the mean is recorded in the model).
    A principal direction is retained when its eigenvalue accounts for at
    least ``variance_threshold`` of the total variance, i.e.
    ``lam_i / sum(lam) >= variance_threshold``; at least one component is
    always kept.  Fractions are measured against the sum of *all*
    eigenvalues, including discarded ones.  With ``variance_threshold``
    ``None`` only numerically null directions are dropped: a direction is
    kept when ``lam_i > max(n, t) * eps * lam_max``, the tolerance of
    ``numpy.linalg.matrix_rank``.

    Raises
    ------
    ParameterError
        If ``variance_threshold`` is neither ``None`` nor in ``[0, 1)``.
    ValidationError
        If the sample covariance of the (finite) data overflows.
    DegenerateDataError
        If the data has no variance at all.
    """
    if variance_threshold is not None and not 0.0 <= variance_threshold < 1.0:
        raise ParameterError(
            f"variance_threshold must be in [0, 1), got {variance_threshold}")
    centered, mean = center(data)
    return _fit_centered(centered, mean, variance_threshold)


def _whiten_in_place(data: np.ndarray, variance_threshold: float | None
                     ) -> tuple[WhiteningModel, np.ndarray]:
    """Fit a whitening model to ``data`` and return it with the whitened
    data, bit for bit what :func:`fit_whitening` then
    :func:`apply_whitening` give, without their centred copy or a
    second m x t matrix.

    ``data`` must be a float64 matrix that passed
    :func:`~ogica.validation.as_data_matrix` and that the caller owns.
    It is centred in place, and the whitened m x t result is written over
    its first ``m t`` elements and returned as a view of them (of a copy
    when ``data`` is not C-contiguous); the rest of the buffer is left
    holding centred data.  ``variance_threshold`` is not checked.
    """
    mean = data.mean(axis=1)
    data -= mean[:, None]
    model = _fit_centered(data, mean, variance_threshold)
    out = data.reshape(-1)[:model.retained * data.shape[1]]
    out = out.reshape(model.retained, -1)
    _project(model.whitener, data, out)
    return model, out


def _project(whitener: np.ndarray, data: np.ndarray, out: np.ndarray,
             mean: np.ndarray | None = None) -> None:
    """Write ``whitener @ (data - mean)`` into the m x t ``out``, one block
    of columns of ``data`` (at most ``_BLOCK_BYTES``, at least one
    column) at a time: each block is copied into the scratch, centred
    there when a ``mean`` is given, and multiplied straight into ``out``.

    ``out`` may be the first ``m t`` elements of the buffer of ``data``:
    rows of the same length put block c of ``out`` inside block c of
    ``data``, which is copied before its product is written.
    """
    n, t = data.shape
    cols = min(t, max(1, _BLOCK_BYTES // (8 * n)))
    scratch = np.empty(n * cols)
    for c in range(0, t, cols):
        block = data[:, c:c + cols]
        buf = scratch[:block.size].reshape(n, -1)
        # Copied, then centred in place: centring the strided block
        # straight into the scratch makes the ufunc buffer twice as much.
        np.copyto(buf, block)
        if mean is not None:
            buf -= mean[:, None]
        np.matmul(whitener, buf, out=out[:, c:c + cols])


def _null_tolerance(shape: tuple[int, int]) -> float:
    """The largest eigenvalue, relative to the largest one, that the
    null-direction rule drops for data of this shape."""
    return max(shape) * np.finfo(float).eps


def _fit_centered(centered: np.ndarray, mean: np.ndarray,
                  variance_threshold: float | None) -> WhiteningModel:
    """The whitening model of data already centred on ``mean``."""
    n, t = centered.shape
    if t <= n:
        warnings.warn(
            f"whitening {n} channels from only {t} samples; the sample "
            "covariance is rank deficient or barely determined",
            stacklevel=3)
    with np.errstate(over="ignore", invalid="ignore"):
        cov = centered @ centered.T / t
    if not np.all(np.isfinite(cov)):
        raise ValidationError(
            "sample covariance overflowed; the data is too large in "
            "magnitude to whiten")
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    if evals[0] <= 0.0:
        raise DegenerateDataError(
            "data has no positive-variance direction; cannot whiten")
    # Fix each eigenvector's sign so that its largest-magnitude entry is
    # positive; eigh's sign choice is otherwise arbitrary and this keeps
    # the transform deterministic across platforms.
    for j in range(n):
        pivot = np.argmax(np.abs(evecs[:, j]))
        if evecs[pivot, j] < 0:
            evecs[:, j] = -evecs[:, j]
    if variance_threshold is None:
        kept = evals > _null_tolerance(centered.shape) * evals[0]
    else:
        kept = evals / evals.sum() >= variance_threshold
    retained = max(int(np.count_nonzero(kept)), 1)
    kept = np.maximum(evals[:retained], _EIG_FLOOR * evals[0])
    scale = 1.0 / np.sqrt(kept)
    whitener = scale[:, None] * evecs[:, :retained].T
    dewhitener = evecs[:, :retained] * np.sqrt(kept)
    return WhiteningModel(
        mean=mean,
        whitener=whitener,
        dewhitener=dewhitener,
        retained=retained,
        eigenvalues=evals,
        variance_threshold=variance_threshold,
    )


def apply_whitening(model: WhiteningModel, data) -> np.ndarray:
    """Project ``data`` through a fitted model: ``whitener @ (data - mean)``,
    centred one block of columns at a time, so the result is the only
    m x t matrix made."""
    arr = as_data_matrix(data, min_samples=1)
    if arr.shape[0] != model.n_channels:
        raise ValidationError(
            f"data has {arr.shape[0]} rows but the model was fitted on "
            f"{model.n_channels} channels")
    out = np.empty((model.retained, arr.shape[1]))
    _project(model.whitener, arr, out, model.mean)
    return out
