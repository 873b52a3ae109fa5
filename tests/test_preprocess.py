import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ogica import (
    DegenerateDataError,
    ParameterError,
    ValidationError,
    WhiteningModel,
    apply_whitening,
    center,
    fit_whitening,
)
from ogica import preprocess
from ogica.preprocess import _whiten_in_place


def test_center_constant_rows():
    data = np.full((2, 4), 5.0)
    centered, mean = center(data)
    assert np.array_equal(centered, np.zeros((2, 4)))
    assert np.array_equal(mean, np.array([5.0, 5.0]))


def test_center_zero_mean_is_noop():
    data = np.array([[1.0, -1.0, 0.5, -0.5], [2.0, -2.0, 0.0, 0.0]])
    centered, mean = center(data)
    assert np.array_equal(centered, data)
    assert np.array_equal(mean, np.zeros(2))


def test_center_hand_example():
    data = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 6.0]])
    centered, mean = center(data)
    assert_allclose(centered, [[-1.0, 0.0, 1.0], [-2.0, -2.0, 4.0]])
    assert_allclose(mean, [2.0, 2.0])


def test_center_roundtrip_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        t = int(rng.integers(2, 40))
        data = rng.standard_normal((n, t)) * 10 + rng.standard_normal((n, 1)) * 50
        centered, mean = center(data)
        scale = np.abs(data).max(axis=1) + 1.0
        assert np.all(np.abs(centered.mean(axis=1)) <= 1e-12 * scale)
        assert_allclose(centered + mean[:, None], data, rtol=0, atol=1e-12 * scale.max())


def test_center_rejects_nonfinite():
    with pytest.raises(ValidationError):
        center(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        center(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_center_rejects_wrong_shapes():
    with pytest.raises(ValidationError):
        center(np.ones(5))
    with pytest.raises(ValidationError):
        center(np.ones((2, 1)))  # needs at least 2 samples


# Rows chosen so the sample covariance is exactly diag(4, 1).
_DIAG41 = np.array([[2.0, -2.0, 2.0, -2.0], [1.0, 1.0, -1.0, -1.0]])


def test_fit_whitening_diagonal_covariance():
    model = fit_whitening(_DIAG41, 0.0)
    assert model.retained == 2
    assert_allclose(model.eigenvalues, [4.0, 1.0], rtol=0, atol=1e-12)
    # principal directions are the axes; scales are 1/2 and 1
    assert np.array_equal(model.whitener, np.array([[0.5, 0.0], [0.0, 1.0]]))
    assert np.array_equal(model.mean, np.zeros(2))


def test_fit_whitening_already_white():
    rng = np.random.default_rng(3)
    t, n = 64, 4
    g = rng.standard_normal((t, n))
    ones = np.ones(t)
    g -= np.outer(ones, ones @ g) / t  # zero column means -> rows stay centered
    q, _ = np.linalg.qr(g)
    data = np.sqrt(t) * q.T  # sample covariance = identity
    model = fit_whitening(data, 0.0)
    assert model.retained == n
    assert_allclose(model.whitener @ model.whitener.T, np.eye(n),
                    rtol=0, atol=1e-8)


def _spectrum_data():
    # Orthogonal zero-mean sign patterns scaled so the covariance
    # eigenvalues are (98, 1.5, 0.5): variance fractions (0.98, 0.015, 0.005).
    v = np.array([
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ])
    return np.diag(np.sqrt([98.0, 1.5, 0.5])) @ v


def test_fit_whitening_one_percent_retention():
    model = fit_whitening(_spectrum_data(), 0.01)
    assert model.retained == 2
    fractions = model.eigenvalues / model.eigenvalues.sum()
    assert_allclose(fractions, [0.98, 0.015, 0.005], rtol=0, atol=1e-12)


def test_fit_whitening_retention_boundary_is_inclusive():
    data = _spectrum_data()
    model = fit_whitening(data, 0.0)
    fractions = model.eigenvalues / model.eigenvalues.sum()
    # refit at exactly the second fraction: >= keeps that component
    at_boundary = fit_whitening(data, float(fractions[1]))
    assert at_boundary.retained == 2
    above = fit_whitening(data, float(fractions[1]) * 1.01)
    assert above.retained == 1


def test_fit_whitening_always_keeps_one_component():
    model = fit_whitening(_spectrum_data(), 0.999)
    assert model.retained == 1


def test_fit_whitening_threshold_monotone():
    rng = np.random.default_rng(11)
    data = rng.standard_normal((5, 200)) * np.array([[10, 5, 2, 1, 0.1]]).T
    previous = None
    for threshold in (0.0, 0.001, 0.01, 0.05, 0.2, 0.9):
        m = fit_whitening(data, threshold).retained
        if previous is not None:
            assert m <= previous
        previous = m


def test_fit_whitening_invalid_threshold():
    with pytest.raises(ParameterError):
        fit_whitening(_DIAG41, 1.0)
    with pytest.raises(ParameterError):
        fit_whitening(_DIAG41, -0.2)


def test_fit_whitening_degenerate_data():
    with pytest.raises(DegenerateDataError):
        fit_whitening(np.zeros((3, 10)), 0.0)
    with pytest.raises(DegenerateDataError):
        fit_whitening(np.full((2, 6), 3.5), 0.0)


def test_whitening_refuses_an_overflowing_covariance():
    # Finite data whose squares overflow would whiten to NaN.
    data = np.array([[1e200, 2e200, -3e200, 5.0], [1.0, 2.0, 3.0, 4.0]])
    with pytest.raises(ValidationError, match="covariance overflowed"):
        fit_whitening(data)
    with pytest.raises(ValidationError, match="covariance overflowed"):
        _whiten_in_place(data.copy(), None)


def test_fit_whitening_warns_when_samples_scarce():
    rng = np.random.default_rng(0)
    with pytest.warns(UserWarning):
        fit_whitening(rng.standard_normal((5, 4)), 0.0)


def test_whitened_output_has_identity_covariance():
    rng = np.random.default_rng(21)
    for trial in range(10):
        n = int(rng.integers(2, 9))
        t = int(rng.integers(50, 400))
        mixing = rng.standard_normal((n, n))
        data = mixing @ rng.standard_normal((n, t)) + rng.standard_normal((n, 1))
        model = fit_whitening(data, 0.0)
        white = apply_whitening(model, data)
        cov = white @ white.T / t
        assert_allclose(cov, np.eye(model.retained), rtol=0, atol=1e-8)
        assert_allclose(model.whitener @ model.dewhitener,
                        np.eye(model.retained), rtol=0, atol=1e-10)


def test_whitening_roundtrip_full_rank():
    rng = np.random.default_rng(12)
    data = rng.standard_normal((4, 100)) * np.array([[3, 1, 0.5, 0.2]]).T
    centered, _ = center(data)
    model = fit_whitening(data, 0.0)
    white = apply_whitening(model, data)
    assert_allclose(model.dewhitener @ white, centered, rtol=0, atol=1e-10)


def test_whitening_roundtrip_reduced_rank_projects():
    data = _spectrum_data()
    model = fit_whitening(data, 0.01)
    white = apply_whitening(model, data)
    assert white.shape == (2, 4)
    centered, _ = center(data)
    cov = centered @ centered.T / data.shape[1]
    evals, evecs = np.linalg.eigh(cov)
    top2 = evecs[:, np.argsort(evals)[::-1][:2]]
    projector = top2 @ top2.T
    assert_allclose(model.dewhitener @ white, projector @ centered,
                    rtol=0, atol=1e-10)


def test_fit_whitening_channel_permutation_invariant():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((6, 300)) * np.array([[5, 3, 2, 1, 0.5, 0.01]]).T
    perm = rng.permutation(6)
    base = fit_whitening(data, 0.01)
    permuted = fit_whitening(data[perm], 0.01)
    assert permuted.retained == base.retained
    assert_allclose(np.sort(permuted.eigenvalues), np.sort(base.eigenvalues),
                    rtol=1e-10, atol=1e-12)
    white = apply_whitening(permuted, data[perm])
    cov = white @ white.T / data.shape[1]
    assert_allclose(cov, np.eye(base.retained), rtol=0, atol=1e-8)


def test_rank_deficient_with_zero_threshold_stays_finite():
    # A duplicated channel gives a (near-)zero eigenvalue; with threshold 0
    # nothing is discarded, and the eigenvalue floor keeps the scale finite.
    rng = np.random.default_rng(8)
    base = rng.standard_normal((2, 500))
    data = np.vstack([base, base[1]])
    model = fit_whitening(data, 0.0)
    assert np.all(np.isfinite(model.whitener))
    assert np.all(np.isfinite(apply_whitening(model, data)))


def test_null_direction_rule_drops_only_rounding_level_directions():
    rng = np.random.default_rng(9)
    full = rng.standard_normal((4, 300)) * np.array([[1e2], [1.0], [1e-1],
                                                     [1e-2]])
    # Every direction is real: the rule keeps them all, bit for bit as
    # the zero fraction does.
    kept, every = fit_whitening(full, None), fit_whitening(full, 0.0)
    assert kept.retained == 4 and kept.variance_threshold is None
    assert np.array_equal(kept.whitener, every.whitener)
    assert fit_whitening(full, 0.01).retained == 1
    # A channel that repeats a sum of two others to rounding is dropped.
    data = np.vstack([full[:2], full[0] + full[1]])
    model = fit_whitening(data, None)
    assert model.retained == 2
    eps = np.finfo(float).eps
    assert model.eigenvalues[2] <= 300 * eps * model.eigenvalues[0]
    assert fit_whitening(data, 0.0).retained in (2, 3)


def test_apply_whitening_identity_model():
    data = np.array([[1.0, 2.0], [3.0, 4.0]])
    model = WhiteningModel(mean=np.zeros(2), whitener=np.eye(2),
                           dewhitener=np.eye(2), retained=2,
                           eigenvalues=np.ones(2), variance_threshold=0.0)
    assert np.array_equal(apply_whitening(model, data), data)


def test_apply_whitening_single_column_example():
    model = fit_whitening(_DIAG41, 0.0)
    out = apply_whitening(model, np.array([[2.0], [3.0]]))
    assert np.array_equal(out, np.array([[1.0], [3.0]]))


def test_apply_whitening_dimension_mismatch():
    model = fit_whitening(_DIAG41, 0.0)
    with pytest.raises(ValidationError):
        apply_whitening(model, np.ones((3, 4)))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _warnings_of(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call()
    return out, [w for w in caught if issubclass(w.category, UserWarning)]


@settings(deadline=None, max_examples=100)
@given(n=st.integers(1, 6), t=st.integers(2, 60),
       seed=st.integers(0, 2**32 - 1),
       offset=st.floats(-1e3, 1e3),
       threshold=st.just(0.0) | st.floats(1e-6, 0.5),
       duplicate=st.booleans(),
       block_bytes=st.integers(1, 3000))
def test_whiten_in_place_equals_fit_then_apply(n, t, seed, offset, threshold,
                                               duplicate, block_bytes):
    # A small block size makes both paths walk several (ragged) column
    # blocks, also when fewer components than channels are kept.
    with mock.patch.object(preprocess, "_BLOCK_BYTES", block_bytes):
        rng = np.random.default_rng(seed)
        data = (rng.standard_normal((n, n)) @ rng.standard_normal((n, t))
                + offset * rng.standard_normal((n, 1)))
        if duplicate and n > 1:
            data[-1] = data[0]  # a rank-deficient covariance
        model, expected_warnings = _warnings_of(
            lambda: fit_whitening(data, threshold))
        expected = apply_whitening(model, data)
        owned = data.copy()
        (got_model, got), got_warnings = _warnings_of(
            lambda: _whiten_in_place(owned, threshold))
        for field in dataclasses.fields(WhiteningModel):
            assert _same_bits(getattr(got_model, field.name),
                              getattr(model, field.name)), field.name
        assert _same_bits(got, expected)
        # the whitened result occupies the first m t elements of the
        # caller's buffer
        assert _same_bits(owned.reshape(-1)[:got.size].reshape(got.shape),
                          expected)
        assert (len(got_warnings) == len(expected_warnings)
                == (1 if t <= n else 0))


def _traced_peak(call):
    """``call()`` and the bytes it holds at its peak, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_whiten_in_place_writes_into_the_callers_buffer():
    # Centring in place and writing each whitened block back over the
    # data leaves only the fit and one block of scratch.
    data = np.random.default_rng(13).standard_normal((50, 10000))
    (_, got), peak = _traced_peak(lambda: _whiten_in_place(data, 0.0))
    assert np.shares_memory(got, data)
    assert peak <= 0.15 * data.nbytes


def test_apply_whitening_peak_memory_is_its_result():
    # Each block of columns is centred in a scratch, never the whole data.
    data = np.random.default_rng(15).standard_normal((50, 10000))
    model = fit_whitening(data, 0.0)
    _, peak = _traced_peak(lambda: apply_whitening(model, data))
    assert peak <= 1.1 * data.nbytes
