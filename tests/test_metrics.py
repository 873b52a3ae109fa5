import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ogica import (
    BenchmarkReport,
    ExperimentSpec,
    IterationConfig,
    ReducedRankError,
    RunRecord,
    UndefinedMetricError,
    ValidationError,
    aggregate,
    amari_distance,
    apply_whitening,
    composed_unmixing,
    fit_whitening,
    make_dataset,
    percentile_nearest_rank,
    run_ogextinf,
)


# -------------------------------------------------------- amari distance


def test_amari_zero_at_inverse():
    assert amari_distance(np.eye(4), np.eye(4)) == 0.0
    rng = np.random.default_rng(301)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        A = rng.standard_normal((n, n))
        if np.linalg.cond(A) > 1e6:
            continue
        assert amari_distance(np.linalg.inv(A), A) <= 1e-12


def test_amari_zero_for_scaled_permutation():
    # rows recovered in the wrong order and with arbitrary nonzero gains
    # still count as a perfect separation
    W = np.array([[0.0, 2.0], [3.0, 0.0]])
    assert amari_distance(W, np.eye(2)) == 0.0


def test_amari_ones_product_attains_upper_bound():
    # a totally unseparated 2x2 product evaluates to exactly 1 = n - 1
    assert amari_distance(np.ones((2, 2)), np.eye(2)) == 1.0
    for n in (3, 7):
        assert amari_distance(np.ones((n, n)), np.eye(n)) == n - 1.0


def test_amari_hand_computed_value():
    # R = W A = [[1, 1], [0, 2]]: row sums/maxes -> (2/1-1)+(2/2-1) = 1,
    # column terms -> (1/1-1)+(3/2-1) = 0.5; total (1 + 0.5)/4 = 0.375
    W = np.array([[1.0, 1.0], [0.0, 2.0]])
    assert amari_distance(W, np.eye(2)) == 0.375


def test_amari_range_fuzz():
    rng = np.random.default_rng(302)
    for _ in range(10_000):
        n = int(rng.integers(2, 6))
        value = amari_distance(rng.standard_normal((n, n)),
                               rng.standard_normal((n, n)))
        assert 0.0 <= value <= n - 1.0


def test_amari_invariances():
    rng = np.random.default_rng(303)
    W = rng.standard_normal((5, 5))
    A = rng.standard_normal((5, 5))
    base = amari_distance(W, A)

    flips = np.diag([1.0, -1.0, 1.0, -1.0, -1.0])
    assert amari_distance(flips @ W, A) == base  # sign flips: exact

    perm = np.eye(5)[[3, 0, 4, 1, 2]]
    assert abs(amari_distance(perm @ W, A) - base) <= 1e-13

    # power-of-two global scale commutes exactly with every float op
    assert amari_distance(4.0 * W, A) == base


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3))
def test_amari_invariant_under_signed_permutations_and_common_scale(
        n, seed, scale):
    rng = np.random.default_rng(seed)
    W, A = rng.standard_normal((2, n, n))

    def signed_permutation():
        return np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)

    base = amari_distance(W, A)
    moved = amari_distance(scale * signed_permutation() @ W,
                           A @ signed_permutation())
    assert abs(moved - base) <= 1e-12 * base


def test_amari_changes_under_unequal_row_scales():
    # Row scales of W that differ rescale the entries of each column of
    # W A unevenly, so the column term changes: only a common scale is an
    # invariance.  Here the column term falls from 1 to 0.25.
    W = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert amari_distance(W, np.eye(2)) == 0.5
    assert amari_distance(np.diag([10.0, 1.0]) @ W, np.eye(2)) == \
        pytest.approx(0.3125, rel=1e-12)


def test_amari_vanishes_on_scaled_permutations():
    # any W whose product with A is a scaled permutation is a perfect
    # separator and must score ~0 despite arbitrary row order and gains
    rng = np.random.default_rng(304)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        A = rng.standard_normal((n, n))
        if np.linalg.cond(A) > 1e5:
            continue
        P = np.eye(n)[rng.permutation(n)]
        D = np.diag(rng.uniform(0.01, 50.0, n) * rng.choice([-1.0, 1.0], n))
        W = D @ P @ np.linalg.inv(A)
        assert amari_distance(W, A) <= 1e-12


def test_amari_rejects_degenerate_products():
    with pytest.raises(UndefinedMetricError):
        amari_distance(np.zeros((3, 3)), np.eye(3))
    # W A has a zero row even though both factors are nonzero
    W = np.array([[1.0, -1.0], [1.0, 1.0]])
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(UndefinedMetricError):
        amari_distance(W, A)


def test_amari_shape_and_finiteness_checks():
    with pytest.raises(ValidationError):
        amari_distance(np.eye(2), np.eye(3))
    with pytest.raises(ValidationError):
        amari_distance(np.ones((2, 3)), np.ones((3, 2)))
    bad = np.eye(2)
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError):
        amari_distance(bad, np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning first
        with pytest.raises(ValidationError, match="non-finite"):
            amari_distance(1e200 * np.eye(2), 1e200 * np.eye(2))


# ----------------------------------------------------- composed_unmixing


def test_composed_unmixing_plain_product():
    dataset = make_dataset(
        ExperimentSpec(n_super=2, n_sub=2, samples=3000, seed=310), 0)
    model = fit_whitening(dataset.observed, 0.0)
    result = run_ogextinf(apply_whitening(model, dataset.observed))
    total = composed_unmixing(result.W, model)
    assert np.array_equal(total, result.W @ model.whitener)
    assert amari_distance(total, dataset.mixing) < 0.3


def test_composed_unmixing_identity_ica():
    dataset = make_dataset(
        ExperimentSpec(n_super=1, n_sub=1, samples=500, seed=311), 0)
    model = fit_whitening(dataset.observed, 0.0)
    assert np.array_equal(composed_unmixing(np.eye(2), model), model.whitener)


def test_composed_unmixing_rejects_reduced_rank():
    rng = np.random.default_rng(312)
    flat = rng.standard_normal((2, 400))
    data = np.vstack([flat, flat.sum(axis=0) + 1e-9 * rng.random(400)])
    model = fit_whitening(data, 0.01)
    assert model.retained < 3
    with pytest.raises(ReducedRankError):
        composed_unmixing(np.eye(model.retained), model)


def test_composed_unmixing_size_mismatch():
    dataset = make_dataset(
        ExperimentSpec(n_super=1, n_sub=1, samples=500, seed=313), 0)
    model = fit_whitening(dataset.observed, 0.0)
    with pytest.raises(ValidationError):
        composed_unmixing(np.eye(3), model)


def test_full_pipeline_separates_small_mixture():
    # end-to-end check against the ground-truth mixing matrix
    dataset = make_dataset(
        ExperimentSpec(n_super=3, n_sub=3, samples=20_000, seed=314), 0)
    model = fit_whitening(dataset.observed, 0.0)
    result = run_ogextinf(apply_whitening(model, dataset.observed),
                          IterationConfig(max_iterations=3000))
    assert result.converged
    total = composed_unmixing(result.W, model)
    assert amari_distance(total, dataset.mixing) <= 0.1


# ------------------------------------------------------------ percentiles


def test_percentile_examples():
    data = [300.0, 100.0, 200.0]
    assert percentile_nearest_rank(data, 50) == 200.0
    ranks = np.arange(1.0, 101.0)
    assert percentile_nearest_rank(ranks, 10) == 10.0
    assert percentile_nearest_rank(ranks, 90) == 90.0
    assert percentile_nearest_rank(ranks, 100) == 100.0
    assert percentile_nearest_rank([42.0], 10) == 42.0
    assert percentile_nearest_rank([42.0], 100) == 42.0


def test_percentile_never_interpolates():
    rng = np.random.default_rng(320)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        values = rng.standard_normal(n)
        p = float(rng.uniform(0.01, 100.0))
        got = percentile_nearest_rank(values, p)
        assert got in values
        ordered = np.sort(values)
        assert got == ordered[max(1, math.ceil(p / 100.0 * n)) - 1]


def test_percentile_validation():
    with pytest.raises(ValidationError):
        percentile_nearest_rank([], 50)
    for bad_p in (0.0, -5.0, 100.5):
        with pytest.raises(ValidationError):
            percentile_nearest_rank([1.0], bad_p)


# ------------------------------------------------------------- aggregate


def _record(run, algorithm, iters, converged, change, amari, wall,
            error=None):
    return RunRecord(run_index=run, algorithm=algorithm,
                     iterations_used=iters, converged=converged,
                     final_weight_change=change, amari_distance=amari,
                     wall_time=wall, error=error)


def test_aggregate_single_record():
    record = _record(0, "ogextinf", 120, True, 5e-7, 0.2, 0.05)
    report = aggregate([record])
    block = report.aggregates["ogextinf"]
    assert block["runs"] == 1
    assert block["failed_runs"] == 0
    assert block["converged_runs"] == 1
    assert block["converged_rate"] == 1.0
    for key, value in (("iterations_used", 120.0),
                       ("final_weight_change", 5e-7),
                       ("amari_distance", 0.2),
                       ("wall_time", 0.05)):
        summary = block[key]
        assert summary["median"] == value
        assert summary["p10"] == value
        assert summary["p90"] == value
        assert summary["min"] == value
        assert summary["max"] == value


def test_aggregate_matches_bruteforce_summaries():
    rng = np.random.default_rng(330)
    records = []
    for run in range(100):
        records.append(_record(run, "ogextinf", int(rng.integers(50, 400)),
                               True, float(rng.uniform(0, 1e-6)),
                               float(rng.uniform(0.1, 0.5)),
                               float(rng.uniform(0.01, 0.2))))
    report = aggregate(records)
    block = report.aggregates["ogextinf"]
    iters = np.array([r.iterations_used for r in records], dtype=float)
    stats = block["iterations_used"]
    assert stats["median"] == percentile_nearest_rank(iters, 50)
    assert stats["p10"] == percentile_nearest_rank(iters, 10)
    assert stats["p90"] == percentile_nearest_rank(iters, 90)
    assert stats["min"] == iters.min()
    assert stats["max"] == iters.max()


def test_aggregate_splits_algorithms_and_counts_failures():
    records = [
        _record(0, "ogextinf", 100, True, 1e-7, 0.2, 0.1),
        _record(1, "ogextinf", 0, False, None, None, 0.01,
                error="mixing draw failed"),
        _record(0, "extinf", 1000, False, 0.05, 0.9, 0.4),
        _record(1, "extinf", 900, True, 1e-7, 0.8, 0.35),
    ]
    report = aggregate(records)
    og = report.aggregates["ogextinf"]
    ex = report.aggregates["extinf"]
    assert og["runs"] == 2 and og["failed_runs"] == 1
    assert og["converged_runs"] == 1 and og["converged_rate"] == 0.5
    # None metrics from the failed run are skipped, not averaged in
    assert og["amari_distance"]["median"] == 0.2
    assert ex["converged_rate"] == 0.5
    assert ex["amari_distance"]["min"] == 0.8
    assert ex["iterations_used"]["max"] == 1000.0


def test_aggregate_empty_rejected():
    with pytest.raises(ValidationError):
        aggregate([])


def test_benchmark_report_round_trip_fields():
    record = _record(3, "extinf", 77, True, 9e-7, 0.31, 0.02)
    report = aggregate([record])
    assert isinstance(report, BenchmarkReport)
    assert report.records == (record,)
    assert set(report.aggregates.keys()) == {"extinf"}
