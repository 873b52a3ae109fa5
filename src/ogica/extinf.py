"""Natural-gradient extended infomax (the classic baseline).

Additive learning rule ``W <- W + eps * (I - E{phi(S) S^T}) W`` with the
same switching nonlinearity and sign selection as the orthogonal variant,
but no orthogonality enforcement and an explicit learning rate.  Kept
here purely as the comparison point: on the synthetic benchmarks it
typically fails to meet the 1e-6 weight-change criterion within 1000
iterations, which the multiplicative orthogonal update meets easily.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DivergenceError, ValidationError
from .ogextinf import (
    ICAResult,
    _Pass,
    _RunConfig,
    _Solution,
    _iterate,
    weight_change,
)
from .validation import NONNEGATIVE, as_data_matrix, as_real, as_square_matrix

_MAX_ANNEALS = 10
# A step whose weight change exceeds this is retried with the rate halved.
_BLOWUP = 1e3


@dataclass(frozen=True, kw_only=True)
class GradientConfig(_RunConfig):
    """Settings for a natural-gradient run: the cap, tolerance and sign
    cutoff of every run (:class:`~ogica.ogextinf._RunConfig`), and the
    step size ``learning_rate``.

    Zero is allowed (a no-op step), negative rates are not.  A step that
    produces non-finite weights or a weight change above 1e3 is retried
    from the last finite ``W`` with the rate halved, at most 10 times per
    step; the halved rate persists for the rest of that run (the config
    itself never changes).
    """

    learning_rate: float = 1e-3

    def __post_init__(self) -> None:
        super().__post_init__()
        as_real(self.learning_rate, NONNEGATIVE, name="learning_rate")


def extinf_step(W, whitened, config: GradientConfig
                ) -> tuple[np.ndarray, float, float]:
    """One natural-gradient step.

    Computes ``S = W X``, selects signs under ``config``'s cutoff and
    forms ``(1/t) Phi(S) S^T`` with the orthogonal variant's pass over
    the data, and returns ``W + eps G W`` for ``G = I - (1/t) Phi(S)
    S^T``, the Frobenius norm of the difference (which carries the eps
    factor) and the eps the step used after any halvings.  ``whitened``
    is an array, which is validated with ``W``, or the pass of the
    running :func:`run_extinf`, which trusts ``W``: the run starts at the
    identity, and each later ``W`` passed the finiteness check below.
    Raises :class:`DivergenceError` when ``W X`` has a non-finite entry.
    """
    if not isinstance(whitened, _Pass):
        W = as_square_matrix(W, name="W")
        whitened = _Pass(as_data_matrix(whitened, name="whitened"))
        if W.shape[0] != whitened.X.shape[0]:
            raise ValidationError(
                f"W is {W.shape[0]}x{W.shape[0]} but data has "
                f"{whitened.X.shape[0]} rows")
    G = np.eye(W.shape[0]) - whitened(W, config.sign_rule_sample_cutoff)[0]
    step_dir = G @ W
    eps = config.learning_rate
    for _ in range(_MAX_ANNEALS + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            W_next = W + eps * step_dir
        if np.all(np.isfinite(W_next)):
            change = weight_change(W, W_next)
            if change <= _BLOWUP:
                return W_next, change, eps
        eps *= 0.5
    raise DivergenceError(f"gradient step diverged after {_MAX_ANNEALS} "
                          "halvings of the learning rate")


def run_extinf(whitened, config: GradientConfig | None = None) -> ICAResult:
    """Iterate :func:`extinf_step` under the shared stopping rule.

    Stops when the Frobenius weight change drops to ``tolerance`` or
    after ``max_iterations`` passes.  The input is expected to be
    whitened (this markedly improves convergence); a clearly non-white
    input only triggers a warning here, never a rejection.  The result's
    signs are those the sign rule picks at the final ``W``.
    """
    cfg = config if config is not None else GradientConfig()
    X = as_data_matrix(whitened, name="whitened")
    return _extinf(X, cfg).with_sources(X)


def _extinf(X: np.ndarray, cfg: GradientConfig) -> _Solution:
    """:func:`run_extinf` on a validated X, without the sources; the signs
    are those of one more pass at the final ``W``."""
    def step(state, data):
        W, step_cfg = state
        W, change, eps = extinf_step(W, data, step_cfg)
        if eps != step_cfg.learning_rate:
            step_cfg = replace(step_cfg, learning_rate=eps)
        return (W, step_cfg), change

    data, (W, last_cfg), record = _iterate(
        X, False, step, (np.eye(X.shape[0]), cfg), cfg)
    return _Solution(W=W, signs=data(W, cfg.sign_rule_sample_cutoff)[1],
                     record=record, learning_rate=last_cfg.learning_rate)
