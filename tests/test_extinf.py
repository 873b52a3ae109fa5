import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ogica import (
    DivergenceError,
    ExperimentSpec,
    GradientConfig,
    ParameterError,
    ValidationError,
    apply_whitening,
    extinf_step,
    fit_whitening,
    higher_order_cov,
    make_dataset,
    run_extinf,
    select_signs,
)

_B_FIXED = 1.5920393250910618


def _whitened_mixture(n_super, n_sub, samples, seed, run=0):
    dataset = make_dataset(
        ExperimentSpec(n_super=n_super, n_sub=n_sub, samples=samples,
                       seed=seed), run)
    model = fit_whitening(dataset.observed, 0.0)
    return apply_whitening(model, dataset.observed)


def test_config_defaults_and_validation():
    config = GradientConfig()
    assert config.learning_rate == 1e-3
    assert config.max_iterations == 1000
    assert config.tolerance == 1e-6

    GradientConfig(learning_rate=0.0)  # a frozen rate of zero is allowed
    with pytest.raises(ParameterError):
        GradientConfig(learning_rate=-1e-3)
    with pytest.raises(ParameterError):
        GradientConfig(max_iterations=0)
    with pytest.raises(ParameterError):
        GradientConfig(tolerance=-1.0)
    with pytest.raises(ParameterError):
        GradientConfig(blowup_threshold=0.0)
    for cap in (2.5, 3.0, float("inf")):
        with pytest.raises(ParameterError, match="max_iterations"):
            GradientConfig(max_iterations=cap)
    with pytest.raises(ParameterError, match="tolerance"):
        GradientConfig(tolerance=float("inf"))
    with pytest.raises(ParameterError, match="learning_rate"):
        GradientConfig(learning_rate=float("inf"))
    with pytest.raises(ParameterError, match="max_iterations"):
        GradientConfig(max_iterations="5")
    assert GradientConfig(max_iterations=np.int64(5)).max_iterations == 5
    GradientConfig(blowup_threshold=float("inf"))  # never anneal on size
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.learning_rate = 1.0


def test_config_refuses_nan_max_iterations():
    with pytest.raises(ParameterError, match="max_iterations"):
        GradientConfig(max_iterations=float("nan"))


@pytest.mark.parametrize("cutoff", [0, -5, float("nan")])
def test_step_and_run_refuse_a_cutoff_below_one(cutoff):
    X = _whitened_mixture(1, 1, 400, seed=5)
    message = f"sign_rule_sample_cutoff must be >= 1, got {cutoff}"
    with pytest.raises(ParameterError, match=message):
        extinf_step(np.eye(2), X, GradientConfig(), cutoff)
    with pytest.raises(ParameterError, match=message):
        run_extinf(X, GradientConfig(), cutoff)


def test_config_refuses_nan_learning_rate():
    # NaN fails every comparison, so a "< 0" check would let it through
    # to a run that diverges at its first step.
    with pytest.raises(ParameterError, match="learning_rate"):
        GradientConfig(learning_rate=float("nan"))


def test_step_with_zero_rate_is_identity():
    X = _whitened_mixture(2, 1, 2000, seed=31)
    W = np.eye(3) + 0.01
    config = GradientConfig(learning_rate=0.0)
    W_next, change, eps = extinf_step(W.copy(), X, config)
    assert np.array_equal(W_next, W)
    assert change == 0.0
    assert eps == 0.0


def test_step_is_stationary_at_exact_solution():
    # Disjoint two-valued rows tuned so mean(phi(s) s) = 1 per row, hence
    # the higher-order covariance is exactly I and the gradient vanishes.
    b = _B_FIXED
    X = np.array([
        [b, -b, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, b, -b, 0.0, 0.0, 0.0, 0.0],
    ])
    assert np.array_equal(higher_order_cov(X, np.ones(2)), np.eye(2))
    W_next, change, _ = extinf_step(np.eye(2), X, GradientConfig())
    assert np.array_equal(W_next, np.eye(2))
    assert change == 0.0


def test_step_matches_dense_oracle():
    X = _whitened_mixture(2, 1, 4000, seed=32)
    rng = np.random.default_rng(7)
    W = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    eps = 1e-3
    W_next, change, used = extinf_step(W.copy(), X,
                                       GradientConfig(learning_rate=eps))
    assert used == eps

    S = W @ X
    signs = select_signs(S, 1000)
    G = np.eye(3) - (S + signs[:, None] * np.tanh(S)) @ S.T / X.shape[1]
    expected = W + eps * G @ W
    assert_allclose(W_next, expected, rtol=0, atol=1e-12)
    assert_allclose(change, np.linalg.norm(expected - W), rtol=0, atol=1e-12)


def test_step_first_order_in_learning_rate():
    # (W_next - W)/eps should be eps-independent up to float roundoff
    X = _whitened_mixture(2, 1, 3000, seed=33)
    W = np.eye(3) * 1.1
    slopes = []
    for eps in (1e-4, 1e-6):
        W_next, _, _ = extinf_step(W.copy(), X,
                                   GradientConfig(learning_rate=eps))
        slopes.append((W_next - W) / eps)
    assert_allclose(slopes[0], slopes[1], rtol=1e-9, atol=0)


def test_step_uses_small_sample_sign_rule_below_cutoff():
    # 400 samples: stability rule applies.  On this input the two rules
    # pick different signs, so only the stability-rule oracle matches.
    X = _whitened_mixture(2, 1, 400, seed=2)
    W = np.eye(3)
    W_next, _, _ = extinf_step(W.copy(), X, GradientConfig())

    def oracle(signs):
        return W + 1e-3 * (np.eye(3) - higher_order_cov(X, signs)) @ W

    signs_stab = select_signs(X, cutoff=1000)      # t=400 -> stability
    signs_kurt = select_signs(X, cutoff=1)         # t=400 >= 1 -> kurtosis
    assert not np.array_equal(signs_stab, signs_kurt)
    assert_allclose(W_next, oracle(signs_stab), rtol=0, atol=1e-15)
    assert np.max(np.abs(W_next - oracle(signs_kurt))) > 1e-15


def test_annealing_halves_rate_exact_number_of_times():
    X = _whitened_mixture(2, 1, 2000, seed=35)
    W = np.eye(3)
    S = W @ X
    signs = select_signs(S, 1000)
    G = np.eye(3) - higher_order_cov(S, signs)
    norm_step = np.linalg.norm(G @ W)

    # choose a rate so exactly seven halvings bring the step below threshold
    threshold = 1e3
    eps0 = threshold * (2.0 ** 6) / norm_step * 1.01
    config = GradientConfig(learning_rate=eps0, blowup_threshold=threshold)
    W_next, change, eps = extinf_step(W.copy(), X, config)
    assert eps == eps0 / 2.0 ** 7  # halvings are exact
    assert config.learning_rate == eps0  # the config is never written
    assert change <= threshold
    assert_allclose(W_next, W + eps * G @ W, rtol=0, atol=1e-12)


def test_annealing_budget_exhausted():
    # Pick a rate so large that even ten halvings leave the step above the
    # blow-up threshold; the rate must then stay untouched on failure.
    X = _whitened_mixture(2, 1, 2000, seed=37)
    W = np.eye(3)
    S = W @ X
    G = np.eye(3) - higher_order_cov(S, select_signs(S, 1000))
    norm_step = np.linalg.norm(G @ W)
    eps0 = 1e3 * (2.0 ** 10) / norm_step * 1.5
    config = GradientConfig(learning_rate=eps0)
    with pytest.raises(DivergenceError) as excinfo:
        extinf_step(W, X, config)
    assert "10 halvings" in str(excinfo.value)
    assert config.learning_rate == eps0


def test_overflowing_weights_report_divergence():
    X = _whitened_mixture(2, 1, 2000, seed=37)
    with pytest.raises(DivergenceError):
        extinf_step(np.full((3, 3), 1e308), X, GradientConfig())


def test_step_refuses_W_of_another_size():
    X = _whitened_mixture(1, 1, 400, seed=5)
    with pytest.raises(ValidationError, match="W is 3x3"):
        extinf_step(np.eye(3), X, GradientConfig())


def test_run_converges_quickly_with_loose_tolerance():
    X = _whitened_mixture(2, 2, 3000, seed=38)
    result = run_extinf(X, GradientConfig(tolerance=1e9))
    assert result.converged
    assert result.record.iterations_used == 1


def test_run_reaches_iteration_cap():
    X = _whitened_mixture(2, 2, 3000, seed=39)
    result = run_extinf(X, GradientConfig(max_iterations=25))
    assert not result.converged
    assert result.record.iterations_used == 25
    assert len(result.record.weight_changes) == 25


def test_run_is_deterministic():
    X = _whitened_mixture(2, 2, 2000, seed=40)
    config = GradientConfig(max_iterations=50)
    first = run_extinf(X, config)
    second = run_extinf(X, GradientConfig(max_iterations=50))
    assert np.array_equal(first.W, second.W)
    assert np.array_equal(first.record.weight_changes,
                          second.record.weight_changes)


def test_run_trajectory_matches_stepwise():
    X = _whitened_mixture(2, 1, 2500, seed=41)
    result = run_extinf(X, GradientConfig(max_iterations=10))
    W = np.eye(3)
    for expected in result.record.weight_changes:
        W, change, _ = extinf_step(W, X, GradientConfig())
        assert change == expected
    assert np.array_equal(W, result.W)


def test_run_reusing_annealed_config_repeats_result():
    # Scaled (non-white) data makes the second step halve the rate; a
    # second run with the same config must start from the configured
    # rate again, not from the rate the first run ended with.
    X = 3.0 * _whitened_mixture(2, 1, 2000, seed=35)
    config = GradientConfig(learning_rate=0.5, blowup_threshold=10.0,
                            max_iterations=3)
    with pytest.warns(UserWarning):
        first = run_extinf(X, config)
    with pytest.warns(UserWarning):
        second = run_extinf(X, config)
    assert first.learning_rate < 0.5
    assert config.learning_rate == 0.5
    assert np.array_equal(first.W, second.W)
    assert np.array_equal(first.record.weight_changes,
                          second.record.weight_changes)
    assert first.learning_rate == second.learning_rate


def test_run_does_not_enforce_orthogonality():
    X = _whitened_mixture(2, 2, 3000, seed=42)
    result = run_extinf(X, GradientConfig(max_iterations=200))
    drift = np.max(np.abs(result.W @ result.W.T - np.eye(4)))
    assert drift > 1e-8  # small-step gradient flow leaves the manifold


def test_run_warns_on_unwhitened_input():
    rng = np.random.default_rng(43)
    raw = rng.standard_normal((3, 500)) * np.array([[4.0, 1.0, 0.3]]).T
    with pytest.warns(UserWarning) as caught:
        run_extinf(raw, GradientConfig(max_iterations=2))
    assert caught[0].filename == __file__  # names the caller of the run


def test_run_divergence_reports_iteration():
    X = _whitened_mixture(2, 1, 2000, seed=44)
    config = GradientConfig(learning_rate=1e12)
    with pytest.raises(DivergenceError) as excinfo:
        run_extinf(X, config)
    assert excinfo.value.iteration == 1
