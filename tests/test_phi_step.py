"""The solvers' kernel ``_phi_step`` and its row-block scratch.

A step holds the data ``X``, the sources ``S = W X`` and one scratch of a
few rows: the kernel walks ``S`` one block of scratch rows at a time,
overwrites it with ``Phi(S)`` and forms ``R = (Phi(S) X^T) W^T / t``.  Here
its signs are checked bit for bit against :func:`select_signs`, ``Phi(S)``
bit for bit against ``S + k tanh(S)`` and ``R`` against ``Phi(S) S^T / t``
to rounding, for scratches that split ``S`` into several blocks with a
ragged last one.  A full run is checked to hold well under two copies of
its data.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ogica import (
    DegenerateComponentError,
    GradientConfig,
    IterationConfig,
    apply_whitening,
    fit_whitening,
    random_orthogonal,
    run_extinf,
    run_ogextinf,
    select_signs,
)
from ogica.ogextinf import _phi_step, _step_buffers

finite = st.one_of(st.just(0.0), st.floats(1e-6, 100.0),
                   st.floats(-100.0, -1e-6))


@st.composite
def step_case(draw):
    """``W``, ``X``, a cutoff within 3 samples of t (both sign rules) and
    a scratch of 1 to m rows, so S is walked in one block or in several,
    with the last one ragged when the block size does not divide m."""
    m = draw(st.integers(1, 6))
    t = draw(st.integers(2, 60))
    X = draw(arrays(np.float64, (m, t), elements=finite))
    W = random_orthogonal(m, np.random.default_rng(draw(st.integers(0, 99))))
    cutoff = max(1, t + draw(st.integers(-3, 3)))
    return W, X, cutoff, np.empty((draw(st.integers(1, m)), t))


def _check_step(W, X, cutoff, T):
    S = W @ X
    try:
        expected_signs = select_signs(S, cutoff)
    except DegenerateComponentError:
        with pytest.raises(DegenerateComponentError):
            _phi_step(W, X, S.copy(), T, cutoff)
        return
    P = S.copy()
    R, signs = _phi_step(W, X, P, T, cutoff)
    assert np.array_equal(signs.view(np.uint64),
                          expected_signs.view(np.uint64))
    Phi = S + signs[:, None] * np.tanh(S)
    assert np.array_equal(P.view(np.uint64), Phi.view(np.uint64))
    reference = Phi @ S.T / S.shape[1]
    assert np.max(np.abs(R - reference)) <= 1e-13 * np.linalg.norm(reference)


@settings(max_examples=300, deadline=None)
@given(case=step_case())
def test_kernel_matches_select_signs_and_reference_R(case):
    _check_step(*case)


@pytest.mark.parametrize("cutoff", [1000, 10 ** 6])
def test_kernel_in_the_step_scratch_of_a_ragged_layout(cutoff):
    # At 60000 samples the step's scratch holds 2 rows, so 5 rows are
    # walked as 2 + 2 + 1; both sign rules.
    rng = np.random.default_rng(3)
    X = np.vstack([rng.laplace(size=(3, 60000)),
                   rng.uniform(-2.0, 2.0, (2, 60000))])
    S, T = _step_buffers(X.shape)
    assert T.shape == (2, 60000)
    _check_step(random_orthogonal(5, rng), X, cutoff, T)


def _traced_peak(call) -> int:
    """Bytes that ``call()`` holds at its peak, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("solve, config", [
    (run_ogextinf, IterationConfig(max_iterations=3)),
    (run_extinf, GradientConfig(max_iterations=3))])
def test_run_holds_sources_and_one_block(solve, config):
    # S and a scratch of 13 of the 50 rows; a full m x t Phi(S) buffer
    # next to S would take the peak past 2x the data.
    raw = np.random.default_rng(12).laplace(size=(50, 10000))
    X = apply_whitening(fit_whitening(raw, 0.0), raw)
    assert _traced_peak(lambda: solve(X, config)) <= 1.5 * X.nbytes
