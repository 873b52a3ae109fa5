"""The solvers' kernel: one streaming pass over the data per step.

A run validates ``X`` once and builds a pass that holds ``X``, its row
means, ``C = X X^T / t`` and two scratches of a block of columns.  Each
step walks ``X`` one block at a time, forming ``S_c = W X_c``, the sign
rule's per-row sums, ``tanh(S_c)`` in place and ``G += tanh(S_c) X_c^T``,
and returns ``R = W C W^T + K G W^T / t``.  Here ``R`` is checked against
``Phi(S) S^T / t`` with the pass's own signs, and the signs against
:func:`select_signs` on every row whose criterion is not within rounding
of zero, for passes that walk ``X`` in several blocks with a ragged last
one.  A full run is checked to hold no more than its sources beside its
data, and the gradient step to raise on an overflowing ``W X`` whether
or not it may skip the scan.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ogica import (
    DegenerateComponentError,
    DivergenceError,
    GradientConfig,
    IterationConfig,
    apply_whitening,
    extinf_step,
    fit_whitening,
    random_orthogonal,
    run_extinf,
    run_ogextinf,
    select_signs,
)
from ogica.ogextinf import _Pass

finite = st.one_of(st.just(0.0), st.floats(1e-6, 100.0),
                   st.floats(-100.0, -1e-6))


@st.composite
def step_case(draw):
    """``W``, ``X``, a cutoff within 3 samples of t (both sign rules) and
    a block width of 1 to t columns, so X is walked in one block or in
    several, with the last one ragged when the width does not divide t.
    ``W`` is orthogonal, as in OgExtInf, or has scaled rows, as in the
    gradient baseline."""
    m = draw(st.integers(1, 6))
    t = draw(st.integers(2, 60))
    # Scaled down, most entries fall where tanh is far from saturated and
    # the stability criterion near its sign change.
    X = draw(arrays(np.float64, (m, t), elements=finite)) * draw(
        st.sampled_from([1.0, 0.03, 0.001]))
    W = random_orthogonal(m, np.random.default_rng(draw(st.integers(0, 99))))
    if draw(st.booleans()):
        W = W * np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=m,
                                       max_size=m)))[:, None]
    cutoff = max(1, t + draw(st.integers(-3, 3)))
    return W, X, cutoff, draw(st.integers(1, t))


def _pass(X, cols):
    """A pass over X that walks blocks of ``cols`` columns (at most the
    width its scratches were made for)."""
    data = _Pass(X)
    assert cols <= data.cols
    data.cols = cols
    return data


def _reference(W, X, cutoff):
    """``S = W X``, each row's sign criterion computed directly from S,
    and whether that criterion's sign is beyond rounding: the row's
    variance is above 1e-10 of ``E{(|W| |X|)^2}``, the square of the
    rounding scale of its entries, and its criterion is off zero by more
    than rounding."""
    S = W @ X
    t = S.shape[1]
    scale = np.mean((np.abs(W) @ np.abs(X)) ** 2, axis=1)
    if t >= cutoff:
        c = S - S.mean(axis=1, keepdims=True)
        m2 = np.mean(c * c, axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            crit = np.mean(c ** 4, axis=1) / (m2 * m2) - 3.0
        clear = np.abs(crit) > 1e-8
    else:
        T = np.tanh(S)
        m2 = np.mean(S * S, axis=1)
        crit = (1.0 - np.mean(T * T, axis=1)) * m2 - np.mean(T * S, axis=1)
        clear = np.abs(crit) > 1e-10 * scale
    return S, m2 > 1e-10 * scale, clear & np.isfinite(crit)


def _check_pass(W, X, cutoff, data):
    S, varied, clear = _reference(W, X, cutoff)
    try:
        expected = select_signs(S, cutoff)
    except DegenerateComponentError:
        expected = None
    try:
        R, signs = data(W, cutoff)
    except DegenerateComponentError:
        # Only a row whose variance is at rounding level may make one side
        # refuse and the other not.
        assert expected is None or not varied.all()
        return
    if expected is None:
        assert not varied.all()
    else:
        covered = varied & clear
        assert np.array_equal(signs[covered], expected[covered])
    assert np.all((signs == 1.0) | (signs == -1.0))
    t = S.shape[1]
    tanh_part = np.tanh(S) @ S.T / t
    reference = S @ S.T / t + signs[:, None] * tanh_part
    # The two terms cancel where |s| << 1 and k = -1, so rounding is
    # measured against the terms, not against their difference.
    scale = np.linalg.norm(S @ S.T / t) + np.linalg.norm(tanh_part)
    assert np.max(np.abs(R - reference)) <= 1e-13 * scale


@settings(max_examples=300, deadline=None)
@given(case=step_case())
def test_kernel_matches_select_signs_and_reference_R(case):
    W, X, cutoff, cols = case
    _check_pass(W, X, cutoff, _pass(X, cols))


@pytest.mark.parametrize("cutoff", [1000, 10 ** 6])
def test_kernel_in_the_step_scratch_of_a_ragged_layout(cutoff):
    # At 5 rows a 256 KiB scratch holds 6553 columns, so 60000 samples
    # are walked as nine blocks of 6553 and a last one of 1023; both sign
    # rules.
    rng = np.random.default_rng(3)
    X = np.vstack([rng.laplace(size=(3, 60000)),
                   rng.uniform(-2.0, 2.0, (2, 60000))])
    data = _Pass(X)
    assert data.cols == 6553
    assert [s.size for s in data.scratches] == [5 * 6553] * 2
    W = random_orthogonal(5, rng)
    _check_pass(W, X, cutoff, data)
    # These rows are far from every rounding boundary: all signs agree.
    assert np.array_equal(data(W, cutoff)[1], select_signs(W @ X, cutoff))


def _traced_peak(call) -> int:
    """Bytes that ``call()`` holds at its peak, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# Peak over the data's bytes: a run holds its two 256 KiB scratches
# (0.13x at 50 x 10000) during the solve, the baseline's closing sign pass
# included, and only its sources (1x) after it.  An m x t buffer next to
# the scratches, or scratches kept alive next to the sources, takes either
# past the bound.
_PEAK_BOUND = 1.1


@pytest.mark.parametrize("solve, config", [
    (run_ogextinf, IterationConfig(max_iterations=3)),
    (run_extinf, GradientConfig(max_iterations=3))])
def test_run_holds_sources_and_one_block(solve, config):
    raw = np.random.default_rng(12).laplace(size=(50, 10000))
    X = apply_whitening(fit_whitening(raw, 0.0), raw)
    peak = _traced_peak(lambda: solve(X, config))
    assert peak <= _PEAK_BOUND * X.nbytes


def _wide_rows(gain):
    """A 2 x 8 layout where ``max_i sum_j |W_ij| * max|X|`` is at least
    1e300, so a step may not skip the scan of ``W X``: row 0 of W has a
    huge gain on the tiny row 1 of X, and row 1 has ``gain`` on the huge
    row 0.  With ``gain`` 1e-153 every product is O(1); 1e160 overflows."""
    X = np.array([[1e153, -1e153, 2e153, -2e153, 0.0, 0.0, 1e153, -1e153],
                  [1e-148, 2e-148, -1e-148, -2e-148, 3e-148, -3e-148,
                   1e-148, -1e-148]])
    W = np.array([[0.0, 1e148], [gain, 0.0]])
    with np.errstate(over="ignore"):
        assert np.abs(W).sum(axis=1).max() * np.abs(X).max() >= 1e300
    return W, X


def test_extinf_step_raises_exactly_when_sources_overflow():
    still = GradientConfig(learning_rate=0.0)
    # The bound fails but W X is finite: no error, and no move at eps 0.
    W, X = _wide_rows(1e-153)
    assert np.all(np.isfinite(W @ X))
    W_next, change, _ = extinf_step(W, X, still)
    assert np.array_equal(W_next, W) and change == 0.0

    # W X overflows: the step raises, whichever block holds the overflow.
    W, X = _wide_rows(1e160)
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(W @ X))
    with pytest.raises(DivergenceError, match="overflowed"):
        extinf_step(W, X, still)
    X[0, :-1] = 0.0  # only the last column overflows
    for cols in (1, 3):
        with pytest.raises(DivergenceError, match="overflowed"):
            extinf_step(W, _pass(X, cols), still)

    # Within the bound the scan may be skipped; an ordinary step passes.
    rng = np.random.default_rng(5)
    X = rng.laplace(size=(3, 400))
    W_next, change, _ = extinf_step(np.eye(3), X, GradientConfig())
    assert np.all(np.isfinite(W_next)) and change > 0.0
