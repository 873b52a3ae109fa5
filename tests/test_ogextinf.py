import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from numpy.testing import assert_allclose

from ogica import (
    DegenerateComponentError,
    ExperimentSpec,
    IterationConfig,
    ParameterError,
    SingularUpdateError,
    UnmixingState,
    ValidationError,
    apply_unmixing,
    apply_whitening,
    fit_whitening,
    higher_order_cov,
    make_dataset,
    multiplicative_update,
    phi,
    random_orthogonal,
    run_ogextinf,
    select_sign_kurtosis,
    select_sign_stability,
    select_signs,
    symmetric_orthogonalize,
    update_step,
    weight_change,
)

# A two-row matrix with disjoint supports whose higher-order covariance is
# exactly the identity for this value of b (each row solves
# mean(phi(s) * s) = 1 with sign +1), so the multiplicative update has an
# exact fixed point on it.
_B_FIXED = 1.5920393250910618


def _fixed_point_data():
    b = _B_FIXED
    return np.array([
        [b, -b, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, b, -b, 0.0, 0.0, 0.0, 0.0],
    ])


def _whitened_mixture(n_super, n_sub, samples, seed, run=0):
    dataset = make_dataset(
        ExperimentSpec(n_super=n_super, n_sub=n_sub, samples=samples,
                       seed=seed), run)
    model = fit_whitening(dataset.observed, 0.0)
    return apply_whitening(model, dataset.observed)


# ---------------------------------------------------------------- phi


def test_phi_zero_at_origin():
    assert phi(0.0, 1) == 0.0
    assert phi(0.0, -1) == 0.0


def test_phi_reference_value():
    value = phi(1.0, -1)
    assert value == 1.0 - np.tanh(1.0)
    assert math.isclose(float(value), 0.2384058, abs_tol=1e-7)


def test_phi_is_odd():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(500) * rng.uniform(0.01, 10.0, 500)
    for k in (1, -1):
        assert np.array_equal(phi(-x, k), -np.asarray(phi(x, k)))


def test_phi_invalid_sign():
    for bad in (0, 2, 0.5, None):
        with pytest.raises(ParameterError):
            phi(np.ones(3), bad)


def test_phi_rejects_nonfinite():
    with pytest.raises(ValidationError):
        phi(np.array([1.0, np.nan]), 1)


# ------------------------------------------------------- sign selection


def _laplace_pdf(x):
    return 0.5 * np.exp(-np.abs(x))


def _stability_population(pdf, lo, hi):
    """Population value of E{sech^2}E{s^2} - E{s tanh(s)} by quadrature."""
    sech2 = scipy.integrate.quad(
        lambda x: (1.0 - np.tanh(x) ** 2) * pdf(x), lo, hi)[0]
    s2 = scipy.integrate.quad(lambda x: x * x * pdf(x), lo, hi)[0]
    stanh = scipy.integrate.quad(lambda x: x * np.tanh(x) * pdf(x), lo, hi)[0]
    return sech2 * s2 - stanh


def test_stability_rule_matches_quadrature_oracle():
    rng = np.random.default_rng(100)
    lap_pop = _stability_population(_laplace_pdf, -40, 40)
    uni_pop = _stability_population(lambda x: 0.25, -2, 2)
    assert lap_pop > 0 and uni_pop < 0

    u = rng.random(200_000)
    laplace = -np.sign(u - 0.5) * np.log1p(-2 * np.abs(u - 0.5))
    uniform = rng.uniform(-2, 2, 200_000)
    assert select_sign_stability(laplace) == 1.0
    assert select_sign_stability(uniform) == -1.0


def test_stability_rule_tie_goes_positive():
    assert select_sign_stability(np.zeros(10)) == 1.0


def test_kurtosis_rule_on_known_densities():
    rng = np.random.default_rng(101)
    u = rng.random(200_000)
    laplace = -np.sign(u - 0.5) * np.log1p(-2 * np.abs(u - 0.5))
    assert select_sign_kurtosis(laplace) == 1.0          # excess +3
    assert select_sign_kurtosis(rng.uniform(-2, 2, 200_000)) == -1.0  # -6/5


def test_kurtosis_rule_two_point_example():
    # values {-1, +1} equally often: m2 = 1, m4 = 1, excess = -2
    component = np.tile([1.0, -1.0], 50)
    assert select_sign_kurtosis(component) == -1.0


def test_kurtosis_rule_degenerate_component():
    with pytest.raises(DegenerateComponentError):
        select_sign_kurtosis(np.full(100, 2.5))


def test_sign_rules_need_two_samples():
    with pytest.raises(ValidationError):
        select_sign_stability(np.array([1.0]))
    with pytest.raises(ValidationError):
        select_sign_kurtosis(np.array([1.0]))


# A repeating pattern on which the two rules disagree (stability +1,
# kurtosis -1); tiling preserves every sample moment, so the selected
# sign flips purely because of which rule the sample count routes to.
_DISAGREE = np.array([-1.55, 0.25, -0.34, -0.27, -0.13, -1.23, -0.14, -0.53])


def test_select_signs_cutoff_boundary():
    below = np.tile(_DISAGREE, 124)[None, :]   # t = 992 < 1000
    at = np.tile(_DISAGREE, 125)[None, :]      # t = 1000
    assert select_signs(below, 1000) == np.array([1.0])
    assert select_signs(at, 1000) == np.array([-1.0])


def test_select_signs_boundary_via_degenerate_row():
    # A constant row is fine for the stability rule (tie -> +1) but makes
    # the kurtosis rule raise, which pins down the rule used at the cutoff.
    constant = np.zeros((1, 999))
    assert select_signs(constant, 1000) == np.array([1.0])
    with pytest.raises(DegenerateComponentError):
        select_signs(np.zeros((1, 1000)), 1000)


def test_select_signs_mixed_rows_large_t():
    rng = np.random.default_rng(103)
    u = rng.random(100_000)
    laplace = -np.sign(u - 0.5) * np.log1p(-2 * np.abs(u - 0.5))
    uniform = rng.uniform(-2, 2, 100_000)
    signs = select_signs(np.vstack([laplace, uniform]), 1000)
    assert np.array_equal(signs, [1.0, -1.0])


# --------------------------------------------------- higher_order_cov


def test_higher_order_cov_single_row():
    out = higher_order_cov(np.array([[1.0, -1.0]]), np.array([1.0]))
    assert out.shape == (1, 1)
    assert_allclose(out[0, 0], 1.0 + np.tanh(1.0), rtol=0, atol=1e-15)
    assert math.isclose(out[0, 0], 1.7615942, abs_tol=1e-7)


def test_higher_order_cov_zero_sources():
    out = higher_order_cov(np.zeros((3, 8)), np.ones(3))
    assert np.array_equal(out, np.zeros((3, 3)))


def test_higher_order_cov_diagonal_matches_quadrature():
    # Independent whitened rows: off-diagonals vanish like 1/sqrt(t) and
    # the diagonal approaches E{phi(s) s} for each row's density.
    rng = np.random.default_rng(104)
    t = 100_000
    u = rng.random(t)
    laplace = -np.sign(u - 0.5) * np.log1p(-2 * np.abs(u - 0.5))
    uniform = rng.uniform(-2, 2, t)
    S = np.vstack([laplace / laplace.std(), uniform / uniform.std()])
    signs = np.array([1.0, -1.0])
    out = higher_order_cov(S, signs)

    lap_scale = np.sqrt(2.0)  # unit-variance Laplace: s = x / sqrt(2)
    expect_lap = 1.0 + scipy.integrate.quad(
        lambda x: (x / lap_scale) * np.tanh(x / lap_scale) * _laplace_pdf(x),
        -40, 40)[0]
    uni_scale = np.sqrt(4.0 / 3.0)
    expect_uni = 1.0 - scipy.integrate.quad(
        lambda x: (x / uni_scale) * np.tanh(x / uni_scale) * 0.25, -2, 2)[0]
    assert_allclose(out[0, 0], expect_lap, rtol=0, atol=0.03)
    assert_allclose(out[1, 1], expect_uni, rtol=0, atol=0.03)
    assert abs(out[0, 1]) < 5.0 / np.sqrt(t)
    assert abs(out[1, 0]) < 5.0 / np.sqrt(t)


def test_higher_order_cov_validates_signs():
    S = np.ones((2, 4))
    with pytest.raises(ValidationError):
        higher_order_cov(S, np.ones(3))
    with pytest.raises(ParameterError):
        higher_order_cov(S, np.array([1.0, 0.5]))


# ------------------------------------------- symmetric_orthogonalize


def test_orthogonalize_identity():
    assert np.array_equal(symmetric_orthogonalize(np.eye(3)), np.eye(3))


def test_orthogonalize_positive_diagonal():
    assert np.array_equal(symmetric_orthogonalize(np.diag([2.0, 0.5])),
                          np.eye(2))


def test_orthogonalize_rotation_fixed_point():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert_allclose(symmetric_orthogonalize(rot), rot, rtol=0, atol=1e-15)


def test_orthogonalize_matches_polar_oracle():
    rng = np.random.default_rng(105)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        M = rng.standard_normal((n, n))
        if np.linalg.cond(M) > 1e6:
            continue
        Q = symmetric_orthogonalize(M)
        assert_allclose(Q.T @ Q, np.eye(n), rtol=0, atol=1e-10)
        U, _ = scipy.linalg.polar(M)
        assert_allclose(Q, U, rtol=0, atol=1e-10)
        # definitional form M (M^T M)^{-1/2}
        inv_sqrt = np.linalg.inv(scipy.linalg.sqrtm(M.T @ M).real)
        assert_allclose(Q, M @ inv_sqrt, rtol=0, atol=1e-8)


def test_orthogonalize_is_nearest_orthogonal():
    rng = np.random.default_rng(106)
    M = rng.standard_normal((4, 4))
    Q = symmetric_orthogonalize(M)
    best = np.linalg.norm(Q - M)
    for _ in range(200):
        other = random_orthogonal(4, rng)
        assert best <= np.linalg.norm(other - M) + 1e-12


def test_orthogonalize_singular_input():
    rank1 = np.outer(np.ones(3), np.arange(1.0, 4.0))
    with pytest.raises(SingularUpdateError) as excinfo:
        symmetric_orthogonalize(rank1)
    assert excinfo.value.condition > 1e12
    assert "condition estimate" in str(excinfo.value)


# --------------------------------------------- multiplicative_update


def test_multiplicative_update_matches_inverse_oracle():
    rng = np.random.default_rng(107)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        W = random_orthogonal(n, rng)
        r_hat = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        if np.linalg.cond(r_hat) > 1e4:
            continue
        got = multiplicative_update(W, r_hat)
        w_tilde = np.linalg.inv(r_hat) @ W
        U, _, Vt = np.linalg.svd(w_tilde)
        assert_allclose(got, U @ Vt, rtol=0, atol=1e-10)


def test_multiplicative_update_rejects_singular():
    with pytest.raises(SingularUpdateError) as excinfo:
        multiplicative_update(np.eye(2), np.zeros((2, 2)))
    assert excinfo.value.condition == float("inf")
    with pytest.raises(SingularUpdateError) as excinfo:
        multiplicative_update(np.eye(2), np.diag([1.0, 1e-13]))
    assert excinfo.value.condition > 1e12
    assert "condition estimate" in str(excinfo.value)
    # one rule: condition 1e12 is rejected, anything below it is not
    with pytest.raises(SingularUpdateError):
        multiplicative_update(np.eye(2), np.diag([1.0, 1e-12]))
    multiplicative_update(np.eye(2), np.diag([1.0, 1.0000001e-12]))


def test_multiplicative_update_shape_mismatch():
    with pytest.raises(ValidationError):
        multiplicative_update(np.eye(2), np.eye(3))
    # the one-SVD form polar(W^T r_hat)^T needs an orthogonal W
    with pytest.raises(ValidationError):
        multiplicative_update(np.diag([2.0, 1.0]), np.eye(2))


def test_scale_invariance_of_update():
    rng = np.random.default_rng(108)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        W = random_orthogonal(n, rng)
        r_hat = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        base = multiplicative_update(W, r_hat)
        for c in (1e-6, 1.0, 1e6):
            scaled = multiplicative_update(W, c * r_hat)
            assert np.max(np.abs(scaled - base)) <= 1e-12


# --------------------------------------------------------- update_step


def test_update_step_fixed_point_is_exact():
    data = _fixed_point_data()
    state = UnmixingState(W=np.eye(2), signs=np.ones(2))
    after = update_step(state, data, 1000)
    assert np.array_equal(after.W, np.eye(2))
    assert after.weight_change == 0.0
    assert after.iteration == 1
    assert np.array_equal(after.signs, np.ones(2))
    # the construction really does produce the identity covariance
    assert np.array_equal(higher_order_cov(data, np.ones(2)), np.eye(2))


def test_update_step_fixed_point_signed_permutation():
    data = _fixed_point_data()
    W = np.array([[0.0, -1.0], [1.0, 0.0]])
    state = UnmixingState(W=W, signs=np.ones(2))
    after = update_step(state, data, 1000)
    assert np.array_equal(after.W, W)
    assert after.weight_change == 0.0


def test_update_step_matches_dense_oracle():
    X = _whitened_mixture(2, 1, 5000, seed=424)
    rng = np.random.default_rng(11)
    W0 = random_orthogonal(3, rng)
    state = UnmixingState(W=W0, signs=np.ones(3))

    state = update_step(state, X, 1000)

    # independently coded step: explicit moments, explicit inverse
    S = W0 @ X
    c = S - S.mean(axis=1, keepdims=True)
    m2 = (c ** 2).mean(axis=1)
    m4 = (c ** 4).mean(axis=1)
    signs = np.where(m4 / m2 ** 2 - 3.0 >= 0, 1.0, -1.0)
    r_hat = (S + signs[:, None] * np.tanh(S)) @ S.T / S.shape[1]
    U, _, Vt = np.linalg.svd(np.linalg.inv(r_hat) @ W0)
    assert_allclose(state.W, U @ Vt, rtol=0, atol=1e-10)
    assert np.array_equal(state.signs, signs)


def test_update_step_rejects_nonorthogonal_state():
    X = _whitened_mixture(1, 1, 2000, seed=5)
    state = UnmixingState(W=np.array([[2.0, 0.0], [0.0, 1.0]]),
                          signs=np.ones(2))
    with pytest.raises(ValidationError):
        update_step(state, X, 1000)


def test_update_step_reprojects_nearly_orthogonal_state():
    # A W inside the 1e-6 state tolerance but visibly off the orthogonal
    # group comes back orthogonal to roundoff; V U^T W would keep its error.
    X = _whitened_mixture(2, 2, 3000, seed=77)
    Q = random_orthogonal(4, np.random.default_rng(12))
    W = Q @ np.diag(1.0 + 2e-7 * np.array([1.0, -1.0, 1.0, -1.0]))
    before = np.max(np.abs(W @ W.T - np.eye(4)))
    assert 1e-7 < before <= 1e-6
    after = update_step(UnmixingState(W=W, signs=np.ones(4)), X, 1000)
    assert np.max(np.abs(after.W @ after.W.T - np.eye(4))) <= 1e-14


def test_update_step_keeps_orthogonality():
    X = _whitened_mixture(2, 2, 3000, seed=77)
    state = UnmixingState(W=np.eye(4), signs=np.ones(4))
    for _ in range(20):
        state = update_step(state, X, 1000)
        err = np.max(np.abs(state.W @ state.W.T - np.eye(4)))
        assert err <= 1e-8


def test_update_step_equivariant_under_permutation():
    X = _whitened_mixture(2, 2, 3000, seed=78)
    perm = np.array([2, 0, 3, 1])
    P = np.eye(4)[perm]
    a = UnmixingState(W=np.eye(4), signs=np.ones(4))
    b = UnmixingState(W=np.eye(4), signs=np.ones(4))
    for _ in range(10):
        a = update_step(a, X, 1000)
        b = update_step(b, P @ X, 1000)
        assert np.max(np.abs(P @ a.W @ P.T - b.W)) <= 1e-12
        assert np.array_equal(a.signs[perm], b.signs)


# ------------------------------------------------------- weight_change


def test_weight_change_zero_for_equal():
    W = np.arange(9.0).reshape(3, 3)
    assert weight_change(W, W) == 0.0


def test_weight_change_single_entry():
    a = np.zeros((3, 3))
    b = a.copy()
    b[1, 2] = 1e-6
    assert weight_change(a, b) == 1e-6


def test_weight_change_hand_frobenius():
    a = np.zeros((2, 2))
    b = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert weight_change(a, b) == 5.0


def test_weight_change_shape_mismatch():
    with pytest.raises(ValidationError):
        weight_change(np.eye(2), np.eye(3))


# ------------------------------------------------------- run_ogextinf


def test_run_single_component():
    X = np.tile([1.0, -1.0], 600)[None, :]  # unit second moment
    result = run_ogextinf(X)
    assert result.converged
    assert result.record.iterations_used == 1
    assert result.W.shape == (1, 1)
    assert abs(result.W[0, 0]) == 1.0


def test_run_converges_on_small_mixture():
    X = _whitened_mixture(2, 2, 3000, seed=15)
    result = run_ogextinf(X)
    assert result.converged
    assert result.record.weight_changes[-1] <= 1e-6
    assert result.record.iterations_used == len(result.record.weight_changes)
    assert_allclose(result.W @ result.W.T, np.eye(4), rtol=0, atol=1e-8)
    assert np.array_equal(result.sources, result.W @ X)


def test_run_matches_stepwise_trajectory():
    X = _whitened_mixture(2, 1, 5000, seed=424)
    config = IterationConfig(max_iterations=5, tolerance=1e-15)
    result = run_ogextinf(X, config)
    state = UnmixingState(W=np.eye(3), signs=np.ones(3))
    for expected in result.record.weight_changes:
        state = update_step(state, X, 1000)
        assert state.weight_change == expected
    assert np.array_equal(state.W, result.W)


def test_run_is_deterministic():
    X = _whitened_mixture(3, 3, 2000, seed=90)
    first = run_ogextinf(X)
    second = run_ogextinf(X)
    assert np.array_equal(first.record.weight_changes,
                          second.record.weight_changes)
    assert first.record.converged == second.record.converged
    assert first.record.iterations_used == second.record.iterations_used
    assert np.array_equal(first.W, second.W)
    assert np.array_equal(first.signs, second.signs)


def test_run_rejects_unwhitened_in_strict_mode():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((3, 500)) * np.array([[5.0, 1.0, 0.2]]).T
    with pytest.raises(ValidationError):
        run_ogextinf(raw)
    with pytest.warns(UserWarning):
        run_ogextinf(raw, IterationConfig(max_iterations=3), strict=False)


def test_run_validates_initial_w():
    X = _whitened_mixture(1, 1, 2000, seed=4)
    bad = IterationConfig(initial_W=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        run_ogextinf(X, bad)
    wrong_size = IterationConfig(initial_W=np.eye(3))
    with pytest.raises(ValidationError):
        run_ogextinf(X, wrong_size)


def test_run_with_random_orthogonal_start():
    X = _whitened_mixture(2, 2, 3000, seed=16)
    W0 = random_orthogonal(4, np.random.default_rng(123))
    result = run_ogextinf(X, IterationConfig(initial_W=W0))
    assert result.converged
    assert_allclose(result.W @ result.W.T, np.eye(4), rtol=0, atol=1e-8)


def test_run_stopping_rules():
    X = _whitened_mixture(2, 2, 3000, seed=17)
    eager = run_ogextinf(X, IterationConfig(tolerance=1e9))
    assert eager.converged and eager.record.iterations_used == 1
    capped = run_ogextinf(X, IterationConfig(max_iterations=3,
                                             tolerance=1e-15))
    assert not capped.converged
    assert capped.record.iterations_used == 3


def test_run_surfaces_singular_update_with_iteration():
    with pytest.warns(UserWarning):
        with pytest.raises(SingularUpdateError) as excinfo:
            run_ogextinf(np.zeros((2, 50)), strict=False)
    assert excinfo.value.iteration == 1
    assert excinfo.value.condition == float("inf")


def test_run_experiment_scale_single_replica():
    X = _whitened_mixture(10, 10, 5000, seed=20230815)
    result = run_ogextinf(X)
    assert result.converged
    assert 50 <= result.record.iterations_used <= 600
    assert np.max(np.abs(result.W @ result.W.T - np.eye(20))) <= 1e-8


def test_iteration_config_validation():
    with pytest.raises(ParameterError):
        IterationConfig(max_iterations=0)
    with pytest.raises(ParameterError):
        IterationConfig(tolerance=0.0)
    with pytest.raises(ParameterError):
        IterationConfig(sign_rule_sample_cutoff=0)


# ------------------------------------------------- apply / random_orthogonal


def test_apply_unmixing_identity_and_permutation():
    data = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(apply_unmixing(np.eye(2), data), data)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(apply_unmixing(swap, data), data[::-1])


def test_apply_unmixing_dimension_mismatch():
    with pytest.raises(ValidationError):
        apply_unmixing(np.eye(3), np.ones((2, 4)))


def test_random_orthogonal_properties():
    rng = np.random.default_rng(55)
    for m in (1, 2, 5, 8):
        Q = random_orthogonal(m, rng)
        assert_allclose(Q @ Q.T, np.eye(m), rtol=0, atol=1e-12)
    a = random_orthogonal(4, np.random.default_rng(9))
    b = random_orthogonal(4, np.random.default_rng(9))
    c = random_orthogonal(4, np.random.default_rng(10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
