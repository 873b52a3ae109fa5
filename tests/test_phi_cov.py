"""Property tests of the public sign rule and higher-order covariance.

:func:`select_signs` picks the per-row nonlinearity signs of a whole
matrix and :func:`higher_order_cov` forms ``R = (1/t) Phi(S) S^T`` with
given signs.  Here they are checked against per-row textbook formulas:
the signs wherever the textbook criterion is clear of zero (last-bit
differences between the vectorised and the per-row reductions may only
flip a knife-edge tie), and ``R`` bit for bit, for the rule's signs and
their negation.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ogica import (
    DegenerateComponentError,
    higher_order_cov,
    select_sign_kurtosis,
    select_signs,
)

# Relative margin by which a textbook criterion must clear zero before
# its sign is compared.
_MARGIN = 1e-12

# Zero or at least 1e-6 in magnitude: a row of values near 1e-160 has a
# positive variance whose square underflows, where excess kurtosis is
# 0/0 under any formula; test_variance_out_of_range_raises_under_kurtosis_rule
# covers such rows.
finite = st.one_of(st.just(0.0), st.floats(1e-6, 100.0),
                   st.floats(-100.0, -1e-6))


@st.composite
def sources_and_cutoff(draw):
    """A finite m x t matrix and a cutoff within 3 samples of t, so both
    sign rules and both sides of the boundary are drawn."""
    m = draw(st.integers(1, 5))
    t = draw(st.integers(2, 60))
    S = draw(arrays(np.float64, (m, t), elements=finite))
    return S, max(1, t + draw(st.integers(-3, 3)))


def _stability_criterion(s):
    """``E{sech^2 s} E{s^2} - E{s tanh s}`` and the size of its terms."""
    a = np.mean(1.0 / np.cosh(s) ** 2) * np.mean(s * s)
    b = np.mean(s * np.tanh(s))
    return a - b, abs(a) + abs(b)


def _excess_kurtosis(s):
    """Excess kurtosis and the size of its terms; ``None`` when the row
    has zero sample variance."""
    c = s - s.mean()
    m2 = (c * c).mean()
    if m2 == 0.0:
        return None
    ratio = (c ** 4).mean() / m2 ** 2
    return ratio - 3.0, ratio + 3.0


def _reference_R(S, signs):
    return (S + signs[:, None] * np.tanh(S)) @ S.T / S.shape[1]


@settings(max_examples=300, deadline=None)
@given(case=sources_and_cutoff())
def test_signs_match_per_row_reference(case):
    S, cutoff = case
    if S.shape[1] < cutoff:
        criteria = [_stability_criterion(row) for row in S]
    else:
        criteria = [_excess_kurtosis(row) for row in S]
        if any(c is None for c in criteria):
            with pytest.raises(DegenerateComponentError):
                select_signs(S, cutoff)
            return
    signs = select_signs(S, cutoff)
    assert set(signs.tolist()) <= {1.0, -1.0}
    for sign, (value, size) in zip(signs, criteria):
        if abs(value) > _MARGIN * size:
            assert sign == (1.0 if value > 0 else -1.0)


@settings(max_examples=300, deadline=None)
@given(case=sources_and_cutoff())
def test_R_is_bit_identical_to_reference(case):
    S, cutoff = case
    try:
        signs = select_signs(S, cutoff)
    except DegenerateComponentError:
        return
    # Any signs are taken, not only the rule's.
    for k in (signs, -signs):
        assert np.array_equal(higher_order_cov(S, k).view(np.uint64),
                              _reference_R(S, k).view(np.uint64))


def test_zero_row_ties_to_plus_one_under_stability_rule():
    # Every moment of a zero row is exactly 0, so the criterion is an
    # exact tie, which goes to +1; the other rows keep their own signs.
    rng = np.random.default_rng(5)
    S = np.vstack([rng.laplace(size=500), np.zeros(500),
                   rng.uniform(-2.0, 2.0, 500)])
    signs = select_signs(S, 1000)
    assert np.array_equal(signs, [1.0, 1.0, -1.0])
    assert np.array_equal(higher_order_cov(S, signs)[1], np.zeros(3))


def test_constant_row_follows_stability_criterion():
    # For a constant row c != 0 the criterion sech^2(c) c^2 - c tanh(c)
    # is strictly negative, so the sign is -1, not a tie.
    S = np.full((1, 50), 0.75)
    value, _ = _stability_criterion(S[0])
    assert value < 0
    assert np.array_equal(select_signs(S, 1000), [-1.0])


def test_zero_variance_row_raises_under_kurtosis_rule():
    rng = np.random.default_rng(6)
    S = np.vstack([rng.laplace(size=1000), np.full(1000, 2.5)])
    with pytest.raises(DegenerateComponentError):
        select_signs(S, 1000)


def test_variance_out_of_range_raises_under_kurtosis_rule():
    # A positive variance whose square underflows leaves the excess 0/0,
    # one whose fourth moment overflows leaves it inf/inf: both raise, as
    # a zero variance does, without a RuntimeWarning, while the same row
    # at a moderate scale has a sign.
    row = np.zeros(9)
    row[-1] = 5e-160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (row, row * 1e260):
            with pytest.raises(DegenerateComponentError):
                select_sign_kurtosis(bad)
            with pytest.raises(DegenerateComponentError):
                select_signs(
                    np.vstack([np.tile([1.0, -1.0, 0.5], 3), bad]), 1)
    assert select_sign_kurtosis(row * 1e160) == 1.0


def test_kurtosis_sign_is_right_or_refused_at_every_tiny_scale():
    # Scaling a row leaves its excess kurtosis unchanged.  Where the
    # squared variance is subnormal the computed excess keeps few
    # significant bits (at 10**-80.55 the ratio comes out positive), so
    # there the rule must refuse, never return a wrong sign.
    row = np.random.default_rng(0).uniform(-1.0, 1.0, 2000)
    assert select_sign_kurtosis(row) == -1.0
    refused = 0
    for k in range(7600, 8201):
        scaled = row * 10.0 ** (-k / 100)
        try:
            sign = select_sign_kurtosis(scaled)
        except DegenerateComponentError:
            refused += 1
            continue
        assert sign == -1.0, f"wrong sign at 10**-{k / 100}"
    assert 0 < refused < 601


def test_kurtosis_rule_near_zero_excess():
    # Symmetric three-point rows {-1, 0, 1} with k nonzero values out of
    # t have excess kurtosis t/k - 3 exactly: +0.012 and -0.012 here.
    t = 3000
    rows = []
    for k in (996, 1004):
        row = np.zeros(t)
        row[:k // 2], row[k // 2:k] = 1.0, -1.0
        rows.append(row)
    S = np.vstack(rows)
    assert np.array_equal(select_signs(S, 1000), [1.0, -1.0])
