"""The step buffers of a run: ``S = W X``, overwritten with ``Phi(S)``, and
the row-block scratch in which the kernel forms ``Phi(S)``.

The shared driver ``_iterate`` keeps one such pair per thread for the
length of a run, and every step of that run computes into it.
These tests check that the pair never outlives its run (also when the run
raises), that a step reuses the same memory throughout one run, that the
result bits do not depend on what ran before or on what the buffers held,
that steps called outside a run return nothing that aliases, and that
two threads keep separate buffers.  They also check that a numerical
failure in any step of a run leaves it with the step's iteration.
"""

import json
import sys
import threading

import numpy as np
import pytest

from ogica import (
    DegenerateComponentError,
    DivergenceError,
    GradientConfig,
    IterationConfig,
    SingularUpdateError,
    UnmixingState,
    apply_whitening,
    experiment_preset,
    fit_whitening,
    make_dataset,
    run_extinf,
    run_ogextinf,
    update_step,
)
from ogica import extinf, ogextinf
from ogica.cli import main

# Enough iterations for the sign rule and W to move; far fewer than a
# full solve, to keep the suite fast.
_OG = IterationConfig(max_iterations=25)
_EXT = GradientConfig(max_iterations=25)


def _whitened(preset, run=0):
    observed = make_dataset(experiment_preset(preset, seed=11), run).observed
    return apply_whitening(fit_whitening(observed, 0.0), observed)


@pytest.fixture(scope="module")
def p1():
    return _whitened(1)


@pytest.fixture(scope="module")
def p2():
    return _whitened(2)


def _no_buffers():
    return getattr(ogextinf._run, "pairs", None) is None


def _bits(result):
    return (result.W.tobytes(), result.signs.tobytes(),
            result.record.weight_changes.tobytes())


def _spy_phi_step(monkeypatch, module):
    """Record, for every ``S`` and block scratch that ``module``'s step
    hands to the phi-covariance kernel, whether both are the run's pair."""
    seen = []
    kernel = module._phi_step

    def spy(W, X, S, T, cutoff):
        pair = ogextinf._run.pairs[S.shape]
        seen.append(S is pair[0] and T is pair[1])
        return kernel(W, X, S, T, cutoff)

    monkeypatch.setattr(module, "_phi_step", spy)
    return seen


@pytest.mark.parametrize("module, solve, config", [
    (ogextinf, run_ogextinf, _OG), (extinf, run_extinf, _EXT)])
def test_run_reuses_one_pair_and_drops_it(monkeypatch, p1, module, solve,
                                          config):
    seen = _spy_phi_step(monkeypatch, module)
    solve(p1, config)
    assert seen == [True] * 25
    assert _no_buffers()


def test_buffers_dropped_when_a_run_raises(monkeypatch, p1):
    def singular(M):
        assert ogextinf._run.pairs  # the run holds its pair here
        raise SingularUpdateError("forced", condition=float("inf"))

    monkeypatch.setattr(ogextinf, "_polar", singular)
    with pytest.raises(SingularUpdateError) as excinfo:
        run_ogextinf(p1, _OG)
    assert excinfo.value.iteration == 1
    assert _no_buffers()

    with pytest.raises(DivergenceError):
        run_extinf(p1, GradientConfig(learning_rate=1e12, anneal=False))
    assert _no_buffers()


def _fail_third_step(monkeypatch, module):
    """Make the third step of ``module``'s runs raise
    DegenerateComponentError from the phi-covariance kernel."""
    kernel = module._phi_step
    calls = []

    def failing(W, X, S, T, cutoff):
        calls.append(S.shape)
        if len(calls) == 3:
            raise DegenerateComponentError("forced")
        return kernel(W, X, S, T, cutoff)

    monkeypatch.setattr(module, "_phi_step", failing)


@pytest.mark.parametrize("module, solve, config", [
    (ogextinf, run_ogextinf, _OG), (extinf, run_extinf, _EXT)])
def test_failure_in_a_step_carries_its_iteration(monkeypatch, p1, module,
                                                 solve, config):
    _fail_third_step(monkeypatch, module)
    with pytest.raises(DegenerateComponentError) as excinfo:
        solve(p1, config)
    assert excinfo.value.iteration == 3
    assert str(excinfo.value) == "iteration 3: forced"
    assert _no_buffers()


def test_benchmark_records_the_iteration_of_a_failure(monkeypatch,
                                                      tmp_path):
    for module in (ogextinf, extinf):
        _fail_third_step(monkeypatch, module)
    report = tmp_path / "report.json"
    assert main(["benchmark", "--runs", "1", "--seed", "3",
                 "-o", str(report)]) == 0
    records = json.loads(report.read_text())["records"]
    assert [(r["algorithm"], r["iterations_used"], r["error"])
            for r in records] == [("ogextinf", 3, "iteration 3: forced"),
                                  ("extinf", 3, "iteration 3: forced")]


def test_results_do_not_depend_on_earlier_runs_or_stale_buffers(
        monkeypatch, p1, p2):
    alone = [_bits(run_ogextinf(X, _OG)) for X in (p1, p2)]
    alone.append(_bits(run_extinf(p1, _EXT)))
    # Back to back in one process, the preset-2 shape after preset 1.
    for _ in range(2):
        assert [_bits(run_ogextinf(p1, _OG)), _bits(run_ogextinf(p2, _OG)),
                _bits(run_extinf(p1, _EXT))] == alone

    # A step must overwrite everything it reads: NaN-filled buffers
    # change no bit.
    make = ogextinf._step_buffers

    def poisoned(shape):
        pair = make(shape)
        for buffer in pair:
            buffer.fill(np.nan)
        return pair

    monkeypatch.setattr(ogextinf, "_step_buffers", poisoned)
    monkeypatch.setattr(extinf, "_step_buffers", poisoned)
    assert [_bits(run_ogextinf(p1, _OG)), _bits(run_ogextinf(p2, _OG)),
            _bits(run_extinf(p1, _EXT))] == alone


def test_direct_steps_return_unaliased_arrays(p1):
    state = UnmixingState(W=np.eye(p1.shape[0]), signs=np.ones(p1.shape[0]))
    first = update_step(state, p1)
    W_copy, signs_copy = first.W.copy(), first.signs.copy()
    second = update_step(state, p1)
    assert not np.shares_memory(first.W, second.W)
    assert not np.shares_memory(first.signs, second.signs)
    assert np.array_equal(first.W, W_copy)
    assert np.array_equal(first.signs, signs_copy)
    assert np.array_equal(first.W, second.W)
    assert _no_buffers()


def test_two_threads_keep_their_own_buffers(p1, p2):
    # Two datasets of one shape (any rows of white data are white), so a
    # pair shared across threads would be written by both.
    layouts = (p2[:25], p2[25:])
    sequential = [_bits(run_ogextinf(X, _OG)) for X in layouts]
    results = [None, None]

    def solve(k):
        results[k] = _bits(run_ogextinf(layouts[k], _OG)), _no_buffers()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=solve, args=(k,))
                   for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [(bits, True) for bits in sequential]
