"""Orthogonal extended-infomax ICA.

The unmixing matrix is updated multiplicatively and projected back onto
the orthogonal group after every step: with ``S = W X`` the current source
estimate, the higher-order covariance ``R = E{phi(S) S^T}`` is formed,
``W`` is replaced by ``R^{-1} W``, and the result is mapped to the nearest
orthogonal matrix via its polar factor.  The nonlinearity
``phi(s) = s + k tanh(s)`` switches between a super-Gaussian (``k = +1``)
and sub-Gaussian (``k = -1``) shape per component, with ``k`` re-estimated
from the data on every iteration.

There is no learning rate anywhere in this scheme; the iteration either
sits at a fixed point (``R = I``, the Bussgang condition for independent
unit-variance sources) or moves by whole multiplicative steps.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateComponentError,
    DivergenceError,
    ParameterError,
    SingularUpdateError,
    ValidationError,
)
from .validation import as_data_matrix, as_square_matrix, as_vector

# Reject the multiplicative update when the higher-order covariance (or
# the matrix handed to the orthogonalization) is this ill-conditioned.
_COND_LIMIT = 1e12
_RANK_TOL = 1e-12
# How far the input's sample covariance may sit from the identity before
# a run refuses (or warns about) it; also the slack allowed when checking
# that a state's W is still orthogonal.
_WHITENESS_TOL = 1e-6
_ORTHO_TOL = 1e-6


@dataclass(frozen=True)
class IterationConfig:
    """Settings for a full OgExtInf run.

    ``sign_rule_sample_cutoff`` picks the nonlinearity-sign estimator:
    below the cutoff the tanh-based stability criterion is used, at or
    above it the sign of the sample excess kurtosis.  ``initial_W`` must
    be orthogonal when given; the default is the identity.
    """

    max_iterations: int = 1000
    tolerance: float = 1e-6
    sign_rule_sample_cutoff: int = 1000
    initial_W: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ParameterError(
                f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.tolerance > 0:
            raise ParameterError(
                f"tolerance must be positive, got {self.tolerance}")
        if self.sign_rule_sample_cutoff < 1:
            raise ParameterError(
                "sign_rule_sample_cutoff must be >= 1, got "
                f"{self.sign_rule_sample_cutoff}")


@dataclass(frozen=True)
class UnmixingState:
    """One point of the iteration: the orthogonal ``W``, the per-component
    nonlinearity signs, and bookkeeping for the stopping rule."""

    W: np.ndarray
    signs: np.ndarray
    iteration: int = 0
    weight_change: float = float("inf")


@dataclass(frozen=True)
class ConvergenceRecord:
    """Per-iteration weight changes and timings of a finished run."""

    weight_changes: np.ndarray
    elapsed: np.ndarray
    converged: bool
    iterations_used: int


@dataclass(frozen=True)
class ICAResult:
    """Outcome of a full run, in whitened space.

    ``W`` unmixes the (whitened) input that was handed to the run;
    compose it with the whitening transform to unmix raw data.
    """

    W: np.ndarray
    sources: np.ndarray
    signs: np.ndarray
    record: ConvergenceRecord
    elapsed_total: float

    @property
    def converged(self) -> bool:
        return self.record.converged


def phi(values, k) -> np.ndarray:
    """The switching nonlinearity ``phi(s) = s + k tanh(s)``.

    ``k = +1`` is the super-Gaussian shape, ``k = -1`` the sub-Gaussian
    one.  Odd in ``s`` for either sign.
    """
    if k not in (1, -1):
        raise ParameterError(f"k must be +1 or -1, got {k!r}")
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("phi input contains non-finite values")
    return arr + k * np.tanh(arr)


def _component(component) -> np.ndarray:
    s = as_vector(component, name="component")
    if s.shape[0] < 2:
        raise ValidationError("component needs at least 2 samples")
    return s


def _stability_sign(s: np.ndarray) -> float:
    th = np.tanh(s)
    # sech^2 = 1 - tanh^2 avoids a separate cosh evaluation.
    crit = (1.0 - th * th).mean() * (s * s).mean() - (th * s).mean()
    return 1.0 if crit >= 0.0 else -1.0


def _kurtosis_sign(s: np.ndarray) -> float:
    c = s - s.mean()
    c2 = c * c
    m2 = c2.mean()
    if m2 == 0.0:
        raise DegenerateComponentError(
            "component has zero sample variance; kurtosis sign undefined")
    excess = (c2 * c2).mean() / (m2 * m2) - 3.0
    return 1.0 if excess >= 0.0 else -1.0


def _signs(S: np.ndarray, cutoff: int) -> np.ndarray:
    """Unchecked :func:`select_signs` for a finite S with t >= 2."""
    rule = _stability_sign if S.shape[1] < cutoff else _kurtosis_sign
    return np.array([rule(row) for row in S])


def _higher_order_cov(S: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Unchecked :func:`higher_order_cov` for matching S and +-1 signs."""
    return (S + signs[:, None] * np.tanh(S)) @ S.T / S.shape[1]


def select_sign_stability(component) -> float:
    """Nonlinearity sign from the stability criterion.

    Returns ``+1`` when the sample estimate of
    ``E{sech^2(s)} E{s^2} - E{s tanh(s)}`` is nonnegative, else ``-1``.
    This is the estimator of choice for short sequences, where sample
    kurtosis is too noisy.
    """
    return _stability_sign(_component(component))


def select_sign_kurtosis(component) -> float:
    """Nonlinearity sign from the sample excess kurtosis.

    Positive (or zero) excess kurtosis maps to ``+1``, negative to
    ``-1``.  Moments are central sample moments with 1/t normalization.
    """
    return _kurtosis_sign(_component(component))


def select_signs(sources, cutoff: int = 1000) -> np.ndarray:
    """Per-row nonlinearity signs for a source matrix.

    Uses :func:`select_sign_stability` when the matrix has fewer than
    ``cutoff`` samples and :func:`select_sign_kurtosis` otherwise.
    """
    return _signs(as_data_matrix(sources, name="sources"), cutoff)


def higher_order_cov(sources, signs) -> np.ndarray:
    """Higher-order covariance ``(1/t) Phi(S) S^T``.

    ``Phi`` applies :func:`phi` to each row with that row's sign.  The
    1/t factor keeps entries O(1) regardless of the sample count; it has
    no effect on the algorithm because the subsequent orthogonalization
    cancels any positive scaling of this matrix.
    """
    S = as_data_matrix(sources, name="sources", min_samples=1)
    k = as_vector(signs, name="signs")
    if k.shape[0] != S.shape[0]:
        raise ValidationError(
            f"got {k.shape[0]} signs for {S.shape[0]} source rows")
    if not np.all((k == 1.0) | (k == -1.0)):
        raise ParameterError("signs must contain only +1 and -1")
    return _higher_order_cov(S, k)


def symmetric_orthogonalize(M) -> np.ndarray:
    """Map ``M`` to the nearest orthogonal matrix ``M (M^T M)^{-1/2}``.

    Computed as ``U V^T`` from the singular value decomposition
    ``M = U diag(s) V^T``, which is the polar factor of ``M``.
    """
    arr = as_square_matrix(M, name="M")
    U, s, Vt = np.linalg.svd(arr)
    if s[0] == 0.0 or s[-1] <= _RANK_TOL * s[0]:
        cond = float("inf") if s[-1] == 0.0 else float(s[0] / s[-1])
        raise SingularUpdateError(
            "matrix is rank deficient; cannot orthogonalize",
            condition=cond)
    return U @ Vt


def multiplicative_update(W, r_hat) -> np.ndarray:
    """One multiplicative step: orthogonalize ``r_hat^{-1} W``.

    The inverse is never formed; the linear systems ``r_hat X = W`` are
    solved by a pivoted factorization, guarded by a condition-number
    limit of 1e12.
    """
    W_arr = as_square_matrix(W, name="W")
    r_arr = as_square_matrix(r_hat, name="r_hat")
    if W_arr.shape != r_arr.shape:
        raise ValidationError(
            f"W has shape {W_arr.shape} but r_hat has shape {r_arr.shape}")
    sv = np.linalg.svd(r_arr, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] > _COND_LIMIT:
        cond = float("inf") if sv[-1] == 0.0 else float(sv[0] / sv[-1])
        raise SingularUpdateError(
            "higher-order covariance is singular or too ill-conditioned "
            f"(condition estimate {cond:.3e})", condition=cond)
    w_tilde = np.linalg.solve(r_arr, W_arr)
    return symmetric_orthogonalize(w_tilde)


def weight_change(W_prev, W_next) -> float:
    """Frobenius norm of ``W_next - W_prev`` (the stopping metric)."""
    a = np.asarray(W_prev, dtype=float)
    b = np.asarray(W_next, dtype=float)
    if a.shape != b.shape:
        raise ValidationError(
            f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(b - a))


def update_step(state: UnmixingState, whitened,
                cutoff: int = 1000) -> UnmixingState:
    """Advance the iteration by one full pass over the data.

    Computes ``S = W X``, re-selects the per-component signs, forms the
    higher-order covariance and applies :func:`multiplicative_update`.
    The returned state carries the new orthogonal ``W``, the signs used,
    an incremented iteration counter and the Frobenius weight change.
    """
    X = as_data_matrix(whitened, name="whitened")
    W = as_square_matrix(state.W, name="state.W")
    if W.shape[0] != X.shape[0]:
        raise ValidationError(
            f"state.W is {W.shape[0]}x{W.shape[0]} but data has "
            f"{X.shape[0]} rows")
    if np.max(np.abs(W @ W.T - np.eye(W.shape[0]))) > _ORTHO_TOL:
        raise ValidationError("state.W is not orthogonal")
    S = W @ X
    signs = _signs(S, cutoff)
    W_next = multiplicative_update(W, _higher_order_cov(S, signs))
    return UnmixingState(
        W=W_next,
        signs=signs,
        iteration=state.iteration + 1,
        weight_change=weight_change(W, W_next),
    )


def apply_unmixing(W, data) -> np.ndarray:
    """Estimated sources ``S = W D``."""
    W_arr = np.asarray(W, dtype=float)
    arr = as_data_matrix(data, min_samples=1)
    if W_arr.ndim != 2 or W_arr.shape[1] != arr.shape[0]:
        raise ValidationError(
            f"W with shape {W_arr.shape} cannot be applied to data with "
            f"{arr.shape[0]} rows")
    return W_arr @ arr


def random_orthogonal(m: int, rng: np.random.Generator) -> np.ndarray:
    """A seeded random orthogonal matrix (QR of a Gaussian draw).

    The QR sign ambiguity is fixed by making the diagonal of ``R``
    positive, so the draw is a deterministic function of the generator
    state.
    """
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    a = rng.standard_normal((m, m))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * np.where(d == 0.0, 1.0, np.sign(d))


def _check_whitened(X: np.ndarray, strict: bool) -> None:
    """Raise (``strict``) or warn when X's sample covariance is not I."""
    m, t = X.shape
    err = float(np.max(np.abs(X @ X.T / t - np.eye(m))))
    if err > _WHITENESS_TOL:
        msg = (f"input does not look whitened: sample covariance deviates "
               f"from the identity by {err:.3e} (limit {_WHITENESS_TOL:g})")
        if strict:
            raise ValidationError(msg)
        warnings.warn(msg, stacklevel=3)


def _iterate(step, state, max_iterations: int, tolerance: float):
    """Apply ``step(state) -> (state, weight_change)`` under the stopping
    rule; return the last state and its :class:`ConvergenceRecord`.  A
    step's numerical error is re-raised with the 1-based iteration."""
    changes: list[float] = []
    stopwatch: list[float] = []
    converged = False
    for i in range(1, max_iterations + 1):
        tic = time.perf_counter()
        try:
            state, change = step(state)
        except SingularUpdateError as exc:
            raise SingularUpdateError(
                f"iteration {i}: {exc}", condition=exc.condition,
                iteration=i) from exc
        except DivergenceError as exc:
            raise DivergenceError(f"iteration {i}: {exc}",
                                  iteration=i) from exc
        stopwatch.append(time.perf_counter() - tic)
        changes.append(change)
        if change <= tolerance:
            converged = True
            break
    return state, ConvergenceRecord(
        weight_changes=np.asarray(changes),
        elapsed=np.asarray(stopwatch),
        converged=converged,
        iterations_used=len(changes),
    )


def run_ogextinf(whitened, config: IterationConfig | None = None, *,
                 strict: bool = True) -> ICAResult:
    """Run OgExtInf to convergence or to the iteration cap.

    Parameters
    ----------
    whitened : array_like, shape (m, t)
        Data with identity sample covariance (within 1e-6).  With
        ``strict=True`` (default) a violation raises
        :class:`ValidationError`; otherwise it only warns.
    config : IterationConfig, optional
        Stopping rule, sign cutoff and initial ``W``; defaults to
        tolerance 1e-6, at most 1000 iterations, identity start.

    Returns
    -------
    ICAResult
        Final orthogonal ``W``, unmixed sources, per-component signs and
        the per-iteration convergence record.  Timing covers the
        iterations only (monotonic clock).

    Raises
    ------
    SingularUpdateError
        If the higher-order covariance becomes (near-)singular; the
        error carries the 1-based iteration index.
    """
    cfg = config if config is not None else IterationConfig()
    X = as_data_matrix(whitened, name="whitened")
    m = X.shape[0]
    _check_whitened(X, strict)
    if cfg.initial_W is None:
        W0 = np.eye(m)
    else:
        W0 = as_square_matrix(cfg.initial_W, name="initial_W")
        if W0.shape[0] != m:
            raise ValidationError(
                f"initial_W is {W0.shape[0]}x{W0.shape[0]} but data has "
                f"{m} rows")
        if np.max(np.abs(W0 @ W0.T - np.eye(m))) > 1e-8:
            raise ValidationError("initial_W must be orthogonal")

    def step(state: UnmixingState) -> tuple[UnmixingState, float]:
        state = update_step(state, X, cfg.sign_rule_sample_cutoff)
        return state, state.weight_change

    state, record = _iterate(step, UnmixingState(W=W0, signs=np.ones(m)),
                             cfg.max_iterations, cfg.tolerance)
    return ICAResult(
        W=state.W,
        sources=apply_unmixing(state.W, X),
        signs=state.signs,
        record=record,
        elapsed_total=float(sum(record.elapsed)),
    )
