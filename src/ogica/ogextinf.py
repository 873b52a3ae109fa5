"""Orthogonal extended-infomax ICA.

The unmixing matrix is updated multiplicatively and projected back onto
the orthogonal group after every step: with ``S = W X`` the current source
estimate, the higher-order covariance ``R = E{phi(S) S^T}`` is formed and
``W`` becomes the polar factor (nearest orthogonal matrix) of ``R^{-1} W``,
which for orthogonal ``W`` is ``polar(W^T R)^T``: one SVD of ``W^T R`` per
step, with no inverse or linear solve.  The nonlinearity
``phi(s) = s + k tanh(s)`` switches between a super-Gaussian (``k = +1``)
and sub-Gaussian (``k = -1``) shape per component, with ``k`` re-estimated
from the data on every iteration.

Both solvers get the signs and ``R`` from one streaming pass over the data
``X``, a :class:`_Pass` that a run builds once (validating ``X`` once) and
hands to every step in place of the data.  The pass walks ``X`` in blocks
of columns that fit a scratch of at most 256 KiB: per block it forms
``S_c = W X_c``, adds the sign rule's per-row sums, takes ``tanh(S_c)`` in
place and accumulates ``G += tanh(S_c) X_c^T``.  Since ``S = W X`` and
``phi(S) S^T = S S^T + K tanh(S) S^T``, the signs then act only through
``R = W C W^T + K G W^T / t`` with ``C = X X^T / t`` formed once per run,
so a step holds ``X`` and two blocks and never an m x t matrix.  A step
handed the run's pass checks nothing; one called with an array validates
its arguments and builds a pass of its own.

Each run has a private core that returns ``W``, the signs and the
convergence record, and no m x t matrix either: OgExtInf keeps its last
step's signs, and the baseline takes one more pass at its final ``W``.
The public runs add the sources ``W X``; the CLI calls the cores, since
it never writes the sources.

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
    NumericalError,
    ParameterError,
    SingularUpdateError,
    ValidationError,
)
from .validation import (
    POSITIVE,
    as_count,
    as_data_matrix,
    as_real,
    as_square_matrix,
    as_vector,
)

# Refuse to orthogonalize a matrix whose smallest singular value is at
# most this fraction of its largest (condition >= 1e12, or singular).
_RANK_TOL = 1e-12
# How far the input's sample covariance may sit from the identity before
# a run refuses (or warns about) it; also the slack allowed when checking
# that a state's W is still orthogonal.
_WHITENESS_TOL = 1e-6
_ORTHO_TOL = 1e-6
# The kurtosis rule refuses a row whose squared variance is below the
# smallest normal double.
_TINY = np.finfo(float).tiny
# Default sample count at which every sign rule switches to kurtosis.
_SIGN_CUTOFF = 1000
# Size of the scratch in which a pass or whitening walks a matrix, in
# blocks of columns of at most this many bytes and at least one column.
# Smaller blocks pay numpy's per-call overhead more often.  Interleaved
# medians of 21 rounds of one pass (2 CPUs, one BLAS thread) put 256 KiB
# level with 1 MiB (1042 against 1085 us at 20 x 5000, 5665 against 5620
# us at 50 x 10000), 128 KiB 1-3% above and 64 KiB 10-20% above.
_BLOCK_BYTES = 1 << 18
# A pass needs no finiteness scan of ``W X`` when the largest row sum of
# ``|W|`` times ``max|X|`` is below this, since that bounds every entry.
_FINITE_BOUND = 1e300


@dataclass(frozen=True, kw_only=True)
class _RunConfig:
    """The settings every solver run has, checked when it is built: the
    stopping rule, and the sample count at which the sign rule switches
    from the tanh-based stability criterion to the sign of the sample
    excess kurtosis."""

    max_iterations: int = 1000
    tolerance: float = 1e-6
    sign_rule_sample_cutoff: int = _SIGN_CUTOFF

    def __post_init__(self) -> None:
        as_count(self.max_iterations, name="max_iterations")
        as_real(self.tolerance, POSITIVE, name="tolerance")
        as_count(self.sign_rule_sample_cutoff, name="sign_rule_sample_cutoff")


@dataclass(frozen=True, kw_only=True)
class IterationConfig(_RunConfig):
    """Settings for a full OgExtInf run: the cap, tolerance and sign
    cutoff of every run (:class:`_RunConfig`), and ``initial_W``, which
    must be orthogonal when given and of which the config keeps a
    read-only copy; the default is the identity.
    """

    initial_W: np.ndarray | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.initial_W is not None:
            W0 = as_square_matrix(self.initial_W, name="initial_W").copy()
            W0.flags.writeable = False
            object.__setattr__(self, "initial_W", W0)


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
class _Solution:
    """What a run's core finds: an :class:`ICAResult` without the m x t
    sources, which ``decompose`` and ``benchmark`` never use."""

    W: np.ndarray
    signs: np.ndarray
    record: ConvergenceRecord
    learning_rate: float | None = None

    @property
    def converged(self) -> bool:
        return self.record.converged

    @property
    def elapsed_total(self) -> float:
        return float(sum(self.record.elapsed))

    def with_sources(self, X: np.ndarray) -> ICAResult:
        """The public result of the run over ``X``."""
        return ICAResult(**vars(self), sources=self.W @ X)


@dataclass(frozen=True, kw_only=True)
class ICAResult(_Solution):
    """Outcome of a full run, in whitened space.

    ``W`` unmixes the (whitened) input that was handed to the run;
    compose it with the whitening transform to unmix raw data.
    ``learning_rate`` is the step size a natural-gradient run ended with
    after any halvings; ``None`` for OgExtInf, which has none.
    """

    sources: np.ndarray


def phi(values, k) -> np.ndarray:
    """The switching nonlinearity ``phi(s) = s + k tanh(s)``.

    ``k = +1`` is the super-Gaussian shape, ``k = -1`` the sub-Gaussian
    one.  Odd in ``s`` for either sign.
    """
    if np.ndim(k) or k not in (1, -1):
        raise ParameterError(f"k must be +1 or -1, got {k!r}")
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("phi input contains non-finite values")
    return arr + k * np.tanh(arr)


def _stability_rule(tanh2: np.ndarray, s2: np.ndarray,
                    s_tanh: np.ndarray) -> np.ndarray:
    """Signs of ``E{sech^2} E{s^2} - E{s tanh s}`` from the row means of
    ``tanh^2``, ``s^2`` and ``s tanh s``; ``E{sech^2} = 1 - E{tanh^2}``
    avoids a separate cosh evaluation."""
    return np.where((1.0 - tanh2) * s2 - s_tanh >= 0.0, 1.0, -1.0)


def _kurtosis_rule(m2: np.ndarray, m4: np.ndarray) -> np.ndarray:
    """Signs of the excess kurtosis ``m4 / m2^2 - 3`` from the central
    moments of each row."""
    # A variance that is zero, or whose square under- or overflows,
    # leaves the excess 0/0, x/0 or inf/inf; a subnormal square leaves a
    # ratio with too few significant bits to trust its sign.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m2_squared = m2 * m2
        excess = m4 / m2_squared - 3.0
    if not (np.all(m2_squared >= _TINY) and np.all(np.isfinite(excess))):
        raise DegenerateComponentError(
            "sample variance zero or out of range; kurtosis sign undefined")
    return np.where(excess >= 0.0, 1.0, -1.0)


class _Pass:
    """One streaming pass over a validated data matrix ``X`` per step.

    Holds ``X``, its row means, ``C = X X^T / t``, ``max|X|``, two
    scratches of as many columns of ``X`` as fit ``_BLOCK_BYTES`` (at
    least one) and the ``blocks`` it walks: each block of columns ``X_c``
    with two m-row views of the scratches of its width.  A run builds one
    and hands it to each of its steps; it is never shared between runs or
    threads.
    """

    def __init__(self, X: np.ndarray) -> None:
        m, t = X.shape
        self.X = X
        self.mean = X.mean(axis=1)
        self.cov = X @ X.T / t
        self.peak = max(X.max(), -X.min())
        self.cols = min(t, max(1, _BLOCK_BYTES // (8 * m)))
        self.scratches = np.empty(m * self.cols), np.empty(m * self.cols)
        self.blocks = []
        for c in range(0, t, self.cols):
            Xc = X[:, c:c + self.cols]
            self.blocks.append(
                (Xc, *(a[:Xc.size].reshape(m, -1) for a in self.scratches)))

    def __call__(self, W: np.ndarray, cutoff: int
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Unchecked signs and ``R = E{Phi(S) S^T}`` of ``S = W X`` for a
        finite m x m W; raises :class:`DivergenceError` when ``W X``
        overflows.

        The kurtosis rule centres each row on ``W`` times the row means
        of X, which is the row mean of S up to rounding, and the
        stability rule reads ``E{s^2}`` and ``E{s tanh s}`` off the
        diagonals of ``W C W^T`` and ``G W^T / t``.
        """
        m, t = self.X.shape
        kurtosis = t >= cutoff
        with np.errstate(over="ignore"):
            scan = not np.abs(W).sum(axis=1).max() * self.peak < _FINITE_BOUND
            mu = (W @ self.mean)[:, None]
        G = np.zeros((m, m))
        sums = np.zeros((2, m))
        for Xc, S, T in self.blocks:
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(W, Xc, out=S)
            if scan and not np.all(np.isfinite(S)):
                raise DivergenceError(
                    "unmixed sources overflowed; the weights have diverged")
            if kurtosis:
                np.subtract(S, mu, out=T)
                with np.errstate(over="ignore"):
                    np.multiply(T, T, out=T)
                sums[0] += T.sum(axis=1)
                sums[1] += np.einsum("ij,ij->i", T, T)
            np.tanh(S, out=S)
            if not kurtosis:
                sums[0] += np.einsum("ij,ij->i", S, S)
            G += S @ Xc.T
        M = W @ self.cov @ W.T
        GW = G @ W.T / t
        if kurtosis:
            signs = _kurtosis_rule(sums[0] / t, sums[1] / t)
        else:
            signs = _stability_rule(sums[0] / t, np.diag(M), np.diag(GW))
        return M + signs[:, None] * GW, signs


def _component(component) -> np.ndarray:
    """A validated 1-D component as a 1 x t matrix."""
    s = as_vector(component, name="component")
    if s.shape[0] < 2:
        raise ValidationError("component needs at least 2 samples")
    return s[None, :]


def select_sign_stability(component) -> float:
    """Nonlinearity sign from the stability criterion.

    Returns ``+1`` when the sample estimate of
    ``E{sech^2(s)} E{s^2} - E{s tanh(s)}`` is nonnegative, else ``-1``.
    This is the estimator of choice for short sequences, where sample
    kurtosis is too noisy.
    """
    s = _component(component)
    return float(select_signs(s, s.shape[1] + 1)[0])


def select_sign_kurtosis(component) -> float:
    """Nonlinearity sign from the sample excess kurtosis.

    Positive (or zero) excess kurtosis maps to ``+1``, negative to
    ``-1``.  Moments are central sample moments with 1/t normalization.
    """
    return float(select_signs(_component(component), 1)[0])


def select_signs(sources, cutoff: int = _SIGN_CUTOFF) -> np.ndarray:
    """Per-row nonlinearity signs for a source matrix.

    Uses the rule of :func:`select_sign_stability` when the matrix has
    fewer than ``cutoff`` samples and that of :func:`select_sign_kurtosis`
    otherwise, for all rows.  Holds one m x t temporary.
    """
    as_count(cutoff, name="sign_rule_sample_cutoff")
    S = as_data_matrix(sources, name="sources")
    t = S.shape[1]
    if t < cutoff:
        T = np.tanh(S)
        return _stability_rule(np.einsum("ij,ij->i", T, T) / t,
                               np.einsum("ij,ij->i", S, S) / t,
                               np.einsum("ij,ij->i", T, S) / t)
    D = S - S.mean(axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        D *= D
    return _kurtosis_rule(D.mean(axis=1), np.einsum("ij,ij->i", D, D) / t)


def higher_order_cov(sources, signs) -> np.ndarray:
    """Higher-order covariance ``(1/t) Phi(S) S^T``.

    ``Phi`` applies :func:`phi` to each row with that row's sign, formed
    in one m x t temporary before a single matrix product.
    The 1/t factor keeps entries O(1) regardless of the sample count; it
    has no effect on the algorithm because the subsequent
    orthogonalization cancels any positive scaling of this matrix.
    """
    S = as_data_matrix(sources, name="sources", min_samples=1)
    k = as_vector(signs, name="signs")
    if k.shape[0] != S.shape[0]:
        raise ValidationError(
            f"got {k.shape[0]} signs for {S.shape[0]} source rows")
    if not np.all((k == 1.0) | (k == -1.0)):
        raise ParameterError("signs must contain only +1 and -1")
    P = np.tanh(S, order="C")  # the product's bits depend on the layout
    P *= k[:, None]
    P += S
    return P @ S.T / S.shape[1]


def _polar(M: np.ndarray) -> np.ndarray:
    """Unchecked :func:`symmetric_orthogonalize` for a finite square M."""
    U, s, Vt = np.linalg.svd(M)
    if s[0] == 0.0 or s[-1] <= _RANK_TOL * s[0]:
        cond = float("inf") if s[-1] == 0.0 else float(s[0] / s[-1])
        raise SingularUpdateError(
            "matrix is singular or too ill-conditioned to orthogonalize "
            f"(condition estimate {cond:.3e})", condition=cond)
    return U @ Vt


def _check_orthogonal(W: np.ndarray, m: int, name: str,
                      tol: float = _ORTHO_TOL) -> None:
    """Raise unless the square W is m x m and orthogonal within tol."""
    if W.shape[0] != m:
        raise ValidationError(f"{name} has shape {W.shape}, expected {(m, m)}")
    err = float(np.max(np.abs(W @ W.T - np.eye(m))))
    if err > tol:
        raise ValidationError(f"{name} is not orthogonal (error {err:.1e})")


def symmetric_orthogonalize(M) -> np.ndarray:
    """Map ``M`` to the nearest orthogonal matrix ``M (M^T M)^{-1/2}``.

    Computed as ``U V^T`` from the singular value decomposition
    ``M = U diag(s) V^T``, which is the polar factor of ``M``; a condition
    number ``s[0] / s[-1]`` of 1e12 or more raises SingularUpdateError.
    """
    return _polar(as_square_matrix(M, name="M"))


def multiplicative_update(W, r_hat) -> np.ndarray:
    """One multiplicative step: orthogonalize ``r_hat^{-1} W``.

    For orthogonal ``W`` (checked to 1e-6) this is ``polar(W^T r_hat)^T``:
    one SVD of ``W^T r_hat``, which also gives the condition check of
    :func:`symmetric_orthogonalize`, and no inverse or linear solve.
    """
    W_arr = as_square_matrix(W, name="W")
    r_arr = as_square_matrix(r_hat, name="r_hat")
    _check_orthogonal(W_arr, r_arr.shape[0], "W")
    return _polar(W_arr.T @ r_arr).T


def weight_change(W_prev, W_next) -> float:
    """Frobenius norm of ``W_next - W_prev`` (the stopping metric)."""
    a = np.asarray(W_prev, dtype=float)
    b = np.asarray(W_next, dtype=float)
    if a.shape != b.shape:
        raise ValidationError(
            f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(b - a))


def update_step(state: UnmixingState, whitened,
                cutoff: int = _SIGN_CUTOFF) -> UnmixingState:
    """Advance the iteration by one full pass over the data.

    Computes ``S = W X``, re-selects the per-component signs, forms the
    higher-order covariance and applies :func:`multiplicative_update`.
    The returned state carries the new orthogonal ``W``, the signs used,
    an incremented iteration counter and the Frobenius weight change.
    ``whitened`` is an array, validated with ``cutoff`` and ``state.W``,
    or the running :func:`run_ogextinf`'s pass, which trusts them: the
    run checked its first ``W``, and each later one is a polar factor.
    """
    W = state.W
    if not isinstance(whitened, _Pass):
        as_count(cutoff, name="sign_rule_sample_cutoff")
        whitened = _Pass(as_data_matrix(whitened, name="whitened"))
        W = as_square_matrix(W, name="state.W")
        _check_orthogonal(W, whitened.X.shape[0], "state.W")
    R, signs = whitened(W, cutoff)
    W_next = _polar(W.T @ R).T
    return UnmixingState(
        W=W_next,
        signs=signs,
        iteration=state.iteration + 1,
        weight_change=weight_change(W, W_next),
    )


def apply_unmixing(W, data) -> np.ndarray:
    """Estimated sources ``S = W D`` for a finite W."""
    W_arr = np.asarray(W, dtype=float)
    arr = as_data_matrix(data, min_samples=1)
    if W_arr.ndim != 2 or W_arr.shape[1] != arr.shape[0]:
        raise ValidationError(
            f"W with shape {W_arr.shape} cannot be applied to data with "
            f"{arr.shape[0]} rows")
    if not np.all(np.isfinite(W_arr)):
        raise ValidationError("W contains non-finite entries")
    return W_arr @ arr


def random_orthogonal(m: int, rng: np.random.Generator) -> np.ndarray:
    """A seeded random orthogonal matrix (QR of a Gaussian draw).

    The QR sign ambiguity is fixed by making the diagonal of ``R``
    positive, so the draw is a deterministic function of the generator
    state.
    """
    m = as_count(m, name="m")
    a = rng.standard_normal((m, m))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * np.where(d == 0.0, 1.0, np.sign(d))


def _check_whitened(cov: np.ndarray, strict: bool) -> None:
    """Raise (``strict``) or warn when a sample covariance is not I."""
    err = float(np.max(np.abs(cov - np.eye(cov.shape[0]))))
    if err > _WHITENESS_TOL:
        msg = (f"input does not look whitened: sample covariance deviates "
               f"from the identity by {err:.3e} (limit {_WHITENESS_TOL:g})")
        if strict:
            raise ValidationError(msg)
        warnings.warn(msg, stacklevel=5)


def _iterate(X: np.ndarray, strict: bool, step, state, cfg: _RunConfig):
    """Build the pass over a validated X, check that X is white (raise
    when ``strict``, else warn) and apply ``step(state, pass) -> (state,
    weight_change)`` under ``cfg``'s ``max_iterations`` and ``tolerance``;
    return the pass, the last state and its :class:`ConvergenceRecord`.
    A step's numerical error is re-raised with the 1-based iteration."""
    data = _Pass(X)
    _check_whitened(data.cov, strict)
    changes: list[float] = []
    stopwatch: list[float] = []
    converged = False
    for i in range(1, cfg.max_iterations + 1):
        tic = time.perf_counter()
        try:
            state, change = step(state, data)
        except NumericalError as exc:
            exc.iteration = i
            exc.args = (f"iteration {i}: {exc}",)
            raise
        stopwatch.append(time.perf_counter() - tic)
        changes.append(change)
        if change <= cfg.tolerance:
            converged = True
            break
    return data, state, ConvergenceRecord(
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
    return _ogextinf(X, cfg, strict).with_sources(X)


def _ogextinf(X: np.ndarray, cfg: IterationConfig, strict: bool
              ) -> _Solution:
    """:func:`run_ogextinf` on a validated X, without the sources; the
    signs are those of the last step."""
    m = X.shape[0]
    W0 = np.eye(m) if cfg.initial_W is None else cfg.initial_W
    _check_orthogonal(W0, m, "initial_W", 1e-8)

    def step(state: UnmixingState, data: _Pass
             ) -> tuple[UnmixingState, float]:
        state = update_step(state, data, cfg.sign_rule_sample_cutoff)
        return state, state.weight_change

    _, state, record = _iterate(X, strict, step,
                                UnmixingState(W=W0, signs=np.ones(m)), cfg)
    return _Solution(W=state.W, signs=state.signs, record=record)
