"""Separation quality and benchmark aggregation.

The Amari distance measures how far ``R = W A`` is from a scaled
permutation — i.e. how well an estimated unmixing ``W`` undoes a known
mixing ``A`` — and is invariant to the permutation and per-component
scaling that any ICA solution is only defined up to.  Aggregation uses
nearest-rank percentiles (no interpolation) so every reported statistic
is an actual observed value and reports are exactly recomputable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ReducedRankError, UndefinedMetricError, ValidationError
from .preprocess import WhiteningModel
from .validation import as_square_matrix


def amari_distance(W, A) -> float:
    """Amari distance between an unmixing ``W`` and a mixing ``A``.

    With ``R = W A`` and ``n`` the matrix size::

        (1/2n) sum_i (sum_j |R_ij| / max_j |R_ij| - 1)
      + (1/2n) sum_j (sum_i |R_ij| / max_i |R_ij| - 1)

    The value lies in ``[0, n - 1]`` and is zero exactly when ``R`` is a
    scaled permutation (perfect separation up to order and scale).  It is
    unchanged by signed permutations of the rows of ``W`` or the columns
    of ``A`` and by a common scale, but not by unequal row scales of ``W``,
    which change the column term.
    """
    W_arr = as_square_matrix(W, name="W")
    A_arr = as_square_matrix(A, name="A")
    if W_arr.shape != A_arr.shape:
        raise ValidationError(
            f"W has shape {W_arr.shape} but A has shape {A_arr.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        R = W_arr @ A_arr
    if not np.all(np.isfinite(R)):
        raise ValidationError("product W @ A has non-finite entries")
    abs_r = np.abs(R)
    row_max = abs_r.max(axis=1)
    col_max = abs_r.max(axis=0)
    if np.any(row_max == 0.0) or np.any(col_max == 0.0):
        raise UndefinedMetricError(
            "W @ A has an all-zero row or column; Amari distance undefined")
    n = R.shape[0]
    row_term = (abs_r.sum(axis=1) / row_max - 1.0).sum()
    col_term = (abs_r.sum(axis=0) / col_max - 1.0).sum()
    return float((row_term + col_term) / (2 * n))


def composed_unmixing(W_ica, whitening: WhiteningModel) -> np.ndarray:
    """Compose a whitened-space unmixing with its whitening transform.

    Returns the full-space unmixing ``W_ica @ whitener`` used when
    scoring against a known square mixing matrix; requires that no
    dimensions were discarded (``retained == n``), since the Amari
    distance is only defined for square products.
    """
    n = whitening.n_channels
    m = whitening.retained
    if m < n:
        raise ReducedRankError(
            f"whitening retained {m} of {n} dimensions; the composed "
            "unmixing is not square and the Amari distance is undefined")
    W_arr = as_square_matrix(W_ica, name="W_ica")
    if W_arr.shape[0] != m:
        raise ValidationError(
            f"W_ica is {W_arr.shape[0]}x{W_arr.shape[0]} but the model "
            f"retains {m} components")
    return W_arr @ whitening.whitener


def percentile_nearest_rank(values, p: float) -> float:
    """Nearest-rank percentile: the value at rank ``ceil(p/100 * N)``.

    No interpolation; the result is always one of the input values.
    ``p`` must lie in (0, 100], and no value may be NaN.
    """
    if not 0.0 < p <= 100.0:
        raise ValidationError(f"percentile must be in (0, 100], got {p}")
    data = sorted(float(v) for v in values)
    if not data:
        raise ValidationError("cannot take a percentile of no values")
    if any(math.isnan(v) for v in data):
        # NaN compares false both ways, so its rank would depend on order.
        raise ValidationError("cannot take a percentile of NaN")
    rank = max(1, math.ceil(p / 100.0 * len(data)))
    return data[rank - 1]


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one (dataset, algorithm) benchmark cell.

    Metric fields are ``None`` when the run failed before producing
    them; ``error`` then carries the cause.
    """

    run_index: int
    algorithm: str
    iterations_used: int
    converged: bool
    final_weight_change: float | None
    amari_distance: float | None
    wall_time: float | None
    error: str | None = None


@dataclass(frozen=True)
class BenchmarkReport:
    """Per-run records plus nearest-rank aggregate statistics.

    ``aggregates`` maps algorithm name to a block of summary statistics;
    the block is exactly recomputable from ``records`` (see
    :func:`aggregate`), which load-time verification relies on.
    """

    records: tuple[RunRecord, ...]
    aggregates: dict = field(compare=False)


_AGGREGATED_METRICS = ("iterations_used", "final_weight_change",
                       "amari_distance", "wall_time")


def _summary(values: list[float]) -> dict[str, float]:
    return {
        "median": percentile_nearest_rank(values, 50),
        "p10": percentile_nearest_rank(values, 10),
        "p90": percentile_nearest_rank(values, 90),
        "min": min(values),
        "max": max(values),
    }


def aggregate(records) -> BenchmarkReport:
    """Summarize benchmark records per algorithm.

    For each algorithm and each of iterations, final weight change,
    Amari distance and wall time, reports nearest-rank median, 10th and
    90th percentiles, minimum and maximum over the runs that produced
    the metric, plus run counts and the converged fraction.
    """
    recs = tuple(records)
    if not recs:
        raise ValidationError("no records to aggregate")
    by_algo: dict[str, list[RunRecord]] = {}
    for rec in recs:
        by_algo.setdefault(rec.algorithm, []).append(rec)
    aggregates: dict[str, dict] = {}
    for algo, group in by_algo.items():
        block: dict[str, object] = {
            "runs": len(group),
            "failed_runs": sum(1 for r in group if r.error is not None),
            "converged_runs": sum(1 for r in group if r.converged),
            "converged_rate": sum(1 for r in group if r.converged) / len(group),
        }
        for name in _AGGREGATED_METRICS:
            values = [float(getattr(r, name)) for r in group
                      if getattr(r, name) is not None]
            if values:
                block[name] = _summary(values)
        aggregates[algo] = block
    return BenchmarkReport(records=recs, aggregates=aggregates)
