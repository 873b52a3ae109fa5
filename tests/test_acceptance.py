"""Acceptance gate: every release-blocking behavior in one module.

Each test prints one ``[acceptance NN] PASS/FAIL`` line with the measured
quantity, then asserts.  The expensive fixtures (replicated benchmark
runs) are shared across tests, so the whole module costs a few minutes.
"""

import json
import os
import time

import numpy as np
import pytest

from ogica import (
    GradientConfig,
    UnmixingState,
    amari_distance,
    apply_whitening,
    composed_unmixing,
    experiment_preset,
    fit_whitening,
    make_dataset,
    multiplicative_update,
    percentile_nearest_rank,
    random_orthogonal,
    run_extinf,
    run_ogextinf,
    sample_laplacian,
    sample_uniform2,
    select_sign_stability,
    select_signs,
    update_step,
)
from ogica.cli import main

SEED = 20230815

_N_FULL = 20          # replicas run to convergence (all criteria)
_N_ORTHO_ONLY = 30    # extra replicas, truncated, for the invariant sweep
_ORTHO_CAP = 30       # iterations per truncated replica


def _report(capsys, num, passed, detail):
    with capsys.disabled():
        print(f"[acceptance {num:02d}] {'PASS' if passed else 'FAIL'} "
              f"- {detail}")
    assert passed, detail


def _max_ortho_err(W):
    return float(np.max(np.abs(W @ W.T - np.eye(W.shape[0]))))


@pytest.fixture(scope="module")
def suite():
    """Shared benchmark study on the 20-source / 5000-sample layout."""
    spec = experiment_preset(1, seed=SEED)
    full = []
    for run in range(_N_FULL):
        dataset = make_dataset(spec, run)
        model = fit_whitening(dataset.observed, 0.0)
        X = apply_whitening(model, dataset.observed)
        state = UnmixingState(W=np.eye(20), signs=np.ones(20))
        ortho = 0.0
        ticks = []
        converged = False
        for _ in range(1000):
            tic = time.perf_counter()
            state = update_step(state, X, 1000)
            ticks.append(time.perf_counter() - tic)
            ortho = max(ortho, _max_ortho_err(state.W))
            if state.weight_change <= 1e-6:
                converged = True
                break
        amari = amari_distance(composed_unmixing(state.W, model),
                               dataset.mixing)
        full.append({
            "run": run, "converged": converged, "iters": state.iteration,
            "max_ortho": ortho, "amari": amari, "wall": sum(ticks),
            "per_iter": ticks, "X": X, "model": model, "dataset": dataset,
        })

    extra_ortho = []
    for run in range(_N_FULL, _N_FULL + _N_ORTHO_ONLY):
        dataset = make_dataset(spec, run)
        model = fit_whitening(dataset.observed, 0.0)
        X = apply_whitening(model, dataset.observed)
        state = UnmixingState(W=np.eye(20), signs=np.ones(20))
        worst = 0.0
        for _ in range(_ORTHO_CAP):
            state = update_step(state, X, 1000)
            worst = max(worst, _max_ortho_err(state.W))
            if state.weight_change <= 1e-6:
                break
        extra_ortho.append(worst)

    baseline = {}
    for eps in (1e-3, 1e-4):
        rows = []
        for rec in full:
            config = GradientConfig(learning_rate=eps, max_iterations=1000,
                                    tolerance=1e-6)
            result = run_extinf(rec["X"], config)
            rows.append({
                "converged": result.converged,
                "amari": amari_distance(
                    composed_unmixing(result.W, rec["model"]),
                    rec["dataset"].mixing),
                "wall": result.elapsed_total,
            })
        baseline[eps] = rows
    return {"full": full, "extra_ortho": extra_ortho, "baseline": baseline}


def test_orthogonality_invariant_over_fifty_runs(suite, capsys):
    worst = max(max(r["max_ortho"] for r in suite["full"]),
                max(suite["extra_ortho"]))
    n_runs = len(suite["full"]) + len(suite["extra_ortho"])
    _report(capsys, 1, worst <= 1e-8,
            f"max |W W^T - I| over {n_runs} runs = {worst:.2e} "
            f"(limit 1e-8)")


def test_convergence_contrast_with_gradient_baseline(suite, capsys):
    og_rate = np.mean([r["converged"] for r in suite["full"]])
    med_iters = percentile_nearest_rank(
        [r["iters"] for r in suite["full"]], 50)
    rate_default = np.mean(
        [r["converged"] for r in suite["baseline"][1e-3]])
    rate_small = np.mean(
        [r["converged"] for r in suite["baseline"][1e-4]])
    ok = (og_rate >= 0.9 and 90 <= med_iters <= 450
          and rate_default <= 0.2 and rate_small <= 0.2)
    _report(capsys, 2, ok,
            f"orthogonal: {og_rate:.0%} converged, median {med_iters:.0f} "
            f"iterations (need >=90% in [90, 450]); gradient baseline "
            f"converged {rate_default:.0%} at step 1e-3 and "
            f"{rate_small:.0%} at 1e-4 (need <=20%)")


def test_separation_quality_beats_baseline_and_threshold(suite, capsys):
    og = [r["amari"] for r in suite["full"] if r["converged"]]
    ext = [r["amari"] for r in suite["baseline"][1e-3]]
    med_og = percentile_nearest_rank(og, 50)
    med_ext = percentile_nearest_rank(ext, 50)
    pairwise = np.mean([
        rec["amari"] < base["amari"]
        for rec, base in zip(suite["full"], suite["baseline"][1e-3])
    ])
    ordering_ok = med_og < med_ext and pairwise >= 0.9
    threshold_ok = med_og <= 0.1
    _report(capsys, 3, ordering_ok and threshold_ok,
            f"median Amari {med_og:.4f} (orthogonal) vs {med_ext:.4f} "
            f"(baseline), orthogonal lower on {pairwise:.0%} of seeds; "
            f"threshold clause requires median <= 0.1")


def test_update_scale_invariance(capsys):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        W = random_orthogonal(n, rng)
        r_hat = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        base = multiplicative_update(W, r_hat)
        for c in (1e-6, 1.0, 1e6):
            scaled = multiplicative_update(W, c * r_hat)
            worst = max(worst, float(np.max(np.abs(scaled - base))))
    _report(capsys, 4, worst <= 1e-12,
            f"max deviation under covariance rescaling = {worst:.2e} "
            f"(limit 1e-12)")


def test_fixed_point_is_exact(capsys):
    b = 1.5920393250910618  # solves mean(phi(s) s) = 1 on {b, -b, 0...}
    data = np.array([
        [b, -b, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, b, -b, 0.0, 0.0, 0.0, 0.0],
    ])
    ok = True
    for W0 in (np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])):
        state = UnmixingState(W=W0.copy(), signs=np.ones(2))
        after = update_step(state, data, 1000)
        ok = ok and np.array_equal(after.W, W0) and after.weight_change == 0.0
    _report(capsys, 5, ok,
            "unit higher-order covariance leaves W bit-identical "
            "(identity and rotated starts)")


def test_sign_rules_on_pure_sources(capsys):
    expected = np.array([1.0] * 10 + [-1.0] * 10)
    correct = agree = total = 0
    for i in range(100):
        rng = np.random.default_rng(SEED + i)
        rows = [sample_laplacian(5000, rng) for _ in range(10)]
        rows += [sample_uniform2(5000, rng) for _ in range(10)]
        S = np.vstack(rows)
        signs = select_signs(S, 1000)
        stability = np.array([select_sign_stability(row) for row in S])
        correct += int(np.sum(signs == expected))
        agree += int(np.sum(signs == stability))
        total += expected.size
    _report(capsys, 6, correct / total >= 0.95 and agree / total >= 0.95,
            f"labels correct on {correct}/{total} rows, rules agree on "
            f"{agree}/{total} (need >=95% each)")


def test_amari_metric_suite(capsys):
    rng = np.random.default_rng(SEED + 7)
    worst_perm = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        A = rng.standard_normal((n, n))
        if np.linalg.cond(A) > 1e5:
            continue
        P = np.eye(n)[rng.permutation(n)]
        D = np.diag(rng.uniform(0.01, 50.0, n)
                    * rng.choice([-1.0, 1.0], n))
        worst_perm = max(worst_perm,
                         amari_distance(D @ P @ np.linalg.inv(A), A))
    bound_ok = True
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        value = amari_distance(rng.standard_normal((n, n)),
                               rng.standard_normal((n, n)))
        bound_ok = bound_ok and 0.0 <= value <= n - 1.0
    ones_value = amari_distance(np.ones((2, 2)), np.eye(2))
    _report(capsys, 7,
            worst_perm <= 1e-12 and bound_ok and ones_value == 1.0,
            f"scaled permutations score <= {worst_perm:.2e}, bound 0..n-1 "
            f"held on 10^4 matrices, all-ones 2x2 = {ones_value}")


def _oracle_step(W, X):
    """Independently coded dense-algebra version of one iteration."""
    S = W @ X
    signs = []
    for row in S:
        c = row - row.mean()
        m2 = float(np.mean(c * c))
        m4 = float(np.mean(c ** 4))
        signs.append(1.0 if m4 / m2 ** 2 - 3.0 >= 0.0 else -1.0)
    signs = np.array(signs)
    r_hat = (S + signs[:, None] * np.tanh(S)) @ S.T / S.shape[1]
    w_tilde = np.linalg.inv(r_hat) @ W
    U, _, Vt = np.linalg.svd(w_tilde)
    return U @ Vt


def test_iteration_matches_dense_oracle(capsys):
    dataset = make_dataset(
        experiment_preset(1, seed=SEED), 0)
    model = fit_whitening(dataset.observed[:3], 0.0)
    X = apply_whitening(model, dataset.observed[:3])
    W_lib = np.eye(3)
    W_ora = np.eye(3)
    state = UnmixingState(W=W_lib, signs=np.ones(3))
    worst_one = None
    for step in range(5):
        state = update_step(state, X, 1000)
        W_ora = _oracle_step(W_ora, X)
        err = float(np.max(np.abs(state.W - W_ora)))
        if step == 0:
            worst_one = err
    _report(capsys, 8, worst_one <= 1e-10 and err <= 1e-10,
            f"deviation from oracle: {worst_one:.2e} after one step, "
            f"{err:.2e} after five (limit 1e-10)")


def test_wall_clock_reported_not_asserted(suite, capsys):
    walls = [r["wall"] for r in suite["full"]]
    per_iter = [t for r in suite["full"] for t in r["per_iter"]]
    ext_walls = [r["wall"] for r in suite["baseline"][1e-3]]
    med_wall = percentile_nearest_rank(walls, 50)
    med_step = percentile_nearest_rank(per_iter, 50)
    med_ext = percentile_nearest_rank(ext_walls, 50)
    ok = med_wall > 0 and med_step > 0 and med_ext > 0
    _report(capsys, 9, ok,
            f"measured medians (informational, hardware-dependent): "
            f"{med_wall * 1e3:.0f} ms per orthogonal run, "
            f"{med_step * 1e3:.2f} ms per iteration, "
            f"{med_ext * 1e3:.0f} ms per 1000-step baseline run")


@pytest.mark.extended
@pytest.mark.skipif(not os.environ.get("OGICA_EXTENDED"),
                    reason="set OGICA_EXTENDED=1 for the 50-source study")
def test_extended_large_layout(capsys):
    runs = int(os.environ.get("OGICA_EXTENDED_RUNS", "10"))
    spec = experiment_preset(2, seed=SEED)
    iters, walls, orthos, conv = [], [], [], []
    for run in range(runs):
        dataset = make_dataset(spec, run)
        model = fit_whitening(dataset.observed, 0.0)
        X = apply_whitening(model, dataset.observed)
        tic = time.perf_counter()
        result = run_ogextinf(X)
        walls.append(time.perf_counter() - tic)
        iters.append(result.record.iterations_used)
        orthos.append(_max_ortho_err(result.W))
        conv.append(result.converged)
    rate = np.mean(conv)
    med = percentile_nearest_rank(iters, 50)
    ok = rate >= 0.9 and 150 <= med <= 800 and max(orthos) <= 1e-8
    _report(capsys, 11, ok,
            f"50x10000 layout over {runs} runs: {rate:.0%} converged, "
            f"median {med:.0f} iterations, worst orthogonality error "
            f"{max(orthos):.2e}, median wall "
            f"{percentile_nearest_rank(walls, 50):.1f} s")


def test_cli_end_to_end_determinism(tmp_path, capsys):
    layout = ["--n-super", "2", "--n-sub", "2", "--samples", "2000",
              "--seed", str(SEED)]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["simulate"] + layout + ["--output-dir", str(a)]) == 0
    assert main(["simulate"] + layout + ["--output-dir", str(b)]) == 0
    sim_ok = all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in ("observed.csv", "sources.csv", "mixing.csv",
                     "manifest.json"))

    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    flags = ["decompose", str(a / "observed.csv"), "--pca-variance", "0"]
    assert main(flags + ["-o", str(out1)]) == 0
    assert main(flags + ["-o", str(out2)]) == 0
    p1 = json.loads(out1.read_text())
    p2 = json.loads(out2.read_text())
    p1.pop("timing")
    p2.pop("timing")
    _report(capsys, 10, sim_ok and p1 == p2,
            "simulation byte-identical across invocations; decomposition "
            "identical up to the timing block")
