"""Exception hierarchy shared by all ogica modules.

Errors fall into three broad groups that the CLI maps onto distinct exit
codes: input/parameter problems (:class:`ValidationError`,
:class:`ParameterError`, :class:`MatrixParseError`), numerical failures
raised while an algorithm is running (:class:`NumericalError` and its
subclasses), and structural misuse of results (:class:`ReducedRankError`).
"""

from __future__ import annotations


class OgicaError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(OgicaError, ValueError):
    """Input data violates a documented precondition (shape, finiteness)."""


class ParameterError(OgicaError, ValueError):
    """A configuration value is outside its documented domain."""


class MatrixParseError(OgicaError, ValueError):
    """A CSV matrix file could not be parsed.

    ``row`` and ``column`` are 1-based coordinates of the offending cell;
    ``column`` is ``None`` for row-level problems such as ragged rows.
    """

    def __init__(self, message: str, *, row: int | None = None,
                 column: int | None = None) -> None:
        super().__init__(message)
        self.row = row
        self.column = column


class NumericalError(OgicaError, ArithmeticError):
    """Base class for failures of the numerics themselves; ``iteration``
    is the 1-based iteration of the run that raised it, if any."""

    iteration: int | None = None


class DegenerateDataError(NumericalError):
    """Data carries no usable variance (e.g. all eigenvalues are zero)."""


class DegenerateComponentError(NumericalError):
    """A single component is degenerate (zero sample variance, or one too
    small or large for its kurtosis to be computed)."""


class SingularUpdateError(NumericalError):
    """The higher-order covariance is singular or too ill-conditioned.

    ``condition`` carries the offending condition-number estimate.
    """

    def __init__(self, message: str, *, condition: float | None = None,
                 iteration: int | None = None) -> None:
        super().__init__(message)
        self.condition = condition
        self.iteration = iteration


class DivergenceError(NumericalError):
    """A gradient run produced non-finite weights and annealing ran out."""

    def __init__(self, message: str, *, iteration: int | None = None) -> None:
        super().__init__(message)
        self.iteration = iteration


class UndefinedMetricError(NumericalError):
    """A metric is undefined for the given input (e.g. an all-zero row)."""


class ReducedRankError(OgicaError, ValueError):
    """An operation requires a full-rank (square) model but got m < n."""
