"""Property tests: each full run equals stepping its public step by hand,
one orthogonal step keeps ``W`` orthogonal or reports a singular update,
on any layout, and a full OgExtInf run commutes with permuting the rows
of its input.

The layouts straddle the default sign cutoff of 1000 samples, so both the
stability rule and the kurtosis rule are exercised, and the shapes run
down to a single component.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ogica import (
    DivergenceError,
    GradientConfig,
    IterationConfig,
    SingularUpdateError,
    UnmixingState,
    apply_whitening,
    extinf_step,
    fit_whitening,
    random_orthogonal,
    run_extinf,
    run_ogextinf,
    select_signs,
    update_step,
)

_CUTOFF = 1000

layouts = st.fixed_dictionaries({
    "m": st.integers(1, 6),
    "t": st.integers(8, 1500),
    "n_super": st.integers(0, 6),
    "seed": st.integers(0, 2**32 - 1),
})


def _whitened(layout):
    """Whitened mixture of Laplacian and uniform rows."""
    m, t = layout["m"], layout["t"]
    rng = np.random.default_rng(layout["seed"])
    n_super = min(layout["n_super"], m)
    sources = np.vstack([rng.laplace(size=(n_super, t)),
                         rng.uniform(-1.0, 1.0, size=(m - n_super, t))])
    mixing = random_orthogonal(m, rng) * rng.uniform(0.5, 2.0, m)
    observed = mixing @ sources
    return apply_whitening(fit_whitening(observed, 0.0), observed)


def _stepwise(step, state, max_iterations, tolerance):
    """Drive ``step`` under the shared stopping rule.

    Returns the final state, the weight changes, and the failing
    iteration with its error (``None`` when the loop finished).
    """
    changes = []
    for i in range(1, max_iterations + 1):
        try:
            state, change = step(state)
        except (SingularUpdateError, DivergenceError) as exc:
            return state, changes, (i, type(exc))
        changes.append(change)
        if change <= tolerance:
            break
    return state, changes, None


def _run(solve):
    try:
        return solve(), None
    except (SingularUpdateError, DivergenceError) as exc:
        return None, (exc.iteration, type(exc))


@settings(max_examples=50, deadline=None)
@given(layout=layouts, random_start=st.booleans(),
       max_iterations=st.integers(1, 25),
       tolerance=st.sampled_from([1e-6, 1e-3, 1e-1]))
def test_run_ogextinf_equals_stepping_update_step(layout, random_start,
                                                  max_iterations, tolerance):
    X = _whitened(layout)
    m = X.shape[0]
    W0 = (random_orthogonal(m, np.random.default_rng(layout["seed"]))
          if random_start else np.eye(m))
    config = IterationConfig(max_iterations=max_iterations,
                             tolerance=tolerance,
                             sign_rule_sample_cutoff=_CUTOFF,
                             initial_W=W0 if random_start else None)
    result, failure = _run(lambda: run_ogextinf(X, config))

    def step(state):
        state = update_step(state, X, _CUTOFF)
        return state, state.weight_change

    state, changes, expected_failure = _stepwise(
        step, UnmixingState(W=W0, signs=np.ones(m)), max_iterations,
        tolerance)
    assert failure == expected_failure
    if failure is not None:
        return
    assert np.array_equal(result.record.weight_changes, changes)
    assert result.record.iterations_used == len(changes)
    assert result.converged == (changes[-1] <= tolerance)
    assert np.array_equal(result.W, state.W)
    assert np.array_equal(result.signs, state.signs)
    assert np.array_equal(result.sources, state.W @ X)


@settings(max_examples=50, deadline=None)
@given(layout=layouts, max_iterations=st.integers(1, 25),
       learning_rate=st.sampled_from([0.0, 1e-3, 0.5, 1e4]),
       tolerance=st.sampled_from([1e-6, 1e-3]))
def test_run_extinf_equals_stepping_extinf_step(layout, max_iterations,
                                                learning_rate, tolerance):
    X = _whitened(layout)
    m = X.shape[0]
    run_config = GradientConfig(learning_rate=learning_rate,
                                max_iterations=max_iterations,
                                tolerance=tolerance,
                                sign_rule_sample_cutoff=_CUTOFF)
    result, failure = _run(lambda: run_extinf(X, run_config))

    def step(state):
        # Carry the halved rate forward, as the run does.
        W, eps = state
        W, change, eps = extinf_step(W, X, GradientConfig(
            learning_rate=eps, sign_rule_sample_cutoff=_CUTOFF))
        return (W, eps), change

    (W, eps), changes, expected_failure = _stepwise(
        step, (np.eye(m), learning_rate), max_iterations, tolerance)
    assert failure == expected_failure
    assert run_config.learning_rate == learning_rate
    if failure is not None:
        return
    assert np.array_equal(result.record.weight_changes, changes)
    assert result.record.iterations_used == len(changes)
    assert result.converged == (changes[-1] <= tolerance)
    assert np.array_equal(result.W, W)
    assert result.learning_rate == eps
    assert np.array_equal(result.signs, select_signs(W @ X, _CUTOFF))


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 6), t=st.integers(2, 1500), rank=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_update_step_stays_orthogonal_or_reports_singular(m, t, rank, seed):
    # Data of any shape and rank, whitened or not, including t <= m.
    rng = np.random.default_rng(seed)
    rank = min(rank, m)
    X = rng.standard_normal((m, rank)) @ rng.laplace(size=(rank, t))
    state = UnmixingState(W=random_orthogonal(m, rng), signs=np.ones(m))
    try:
        W = update_step(state, X, _CUTOFF).W
    except SingularUpdateError:
        return
    assert np.max(np.abs(W @ W.T - np.eye(m))) <= 1e-8


@settings(max_examples=50, deadline=None)
@given(layout=layouts, perm_seed=st.integers(0, 2**32 - 1),
       max_iterations=st.integers(1, 25))
def test_run_ogextinf_equivariant_under_row_permutation(layout, perm_seed,
                                                        max_iterations):
    # Permuting the input rows by P permutes the solution: W -> P W P^T
    # (the identity start is permutation invariant), signs permuted alike.
    X = _whitened(layout)
    m = X.shape[0]
    perm = np.random.default_rng(perm_seed).permutation(m)
    P = np.eye(m)[perm]
    config = IterationConfig(max_iterations=max_iterations,
                             sign_rule_sample_cutoff=_CUTOFF)
    a, failure = _run(lambda: run_ogextinf(X, config))
    b, permuted_failure = _run(lambda: run_ogextinf(X[perm], config))
    assert failure == permuted_failure
    if failure is not None:
        return
    assert a.record.iterations_used == b.record.iterations_used
    assert np.max(np.abs(P @ a.W @ P.T - b.W)) <= 1e-12
    assert np.array_equal(a.signs[perm], b.signs)
