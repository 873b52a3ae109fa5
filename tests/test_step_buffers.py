"""The pass of a run: the one streaming walk over the data ``X`` that every
step of a run makes, with its two column-block scratches.

A run builds one pass and hands it to each of its steps in place of the
data, so no state outlives the run or is shared between threads.
These tests check that one pass serves every step of a run and is
unreachable once the run ends (also when it raises), that the result bits
do not depend on what ran before or on what the scratches held, that
steps called outside a run return nothing that aliases, and that two
threads keep separate passes.  They check that a run's validation does
not grow with its iterations, since its steps trust its pass, and that a
numerical failure in any step of a run leaves it with the step's
iteration.
"""

import gc
import json
import sys
import threading
import weakref
from collections import defaultdict

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


def _spy_passes(monkeypatch):
    """Weak references to every pass made from now on, by thread."""
    made = defaultdict(list)
    init = ogextinf._Pass.__init__

    def spy(self, X):
        init(self, X)
        made[threading.current_thread()].append(weakref.ref(self))

    monkeypatch.setattr(ogextinf._Pass, "__init__", spy)
    return made


def _released(refs):
    """Whether every referenced pass is gone, cycles collected."""
    gc.collect()
    return all(ref() is None for ref in refs)


def _bits(result):
    return (result.W.tobytes(), result.signs.tobytes(),
            result.record.weight_changes.tobytes())


_STEP = {ogextinf: "update_step", extinf: "extinf_step"}


def _spy_steps(monkeypatch, module, made):
    """Record, for the data that every step of ``module``'s runs is handed
    (through the module-global name the runs call), whether it is the
    first pass that this thread made."""
    seen = []
    step = getattr(module, _STEP[module])

    def spy(*args):
        passes = made[threading.current_thread()]
        seen.append(bool(passes) and args[1] is passes[0]())
        return step(*args)

    monkeypatch.setattr(module, _STEP[module], spy)
    return seen


@pytest.mark.parametrize("module, solve, config", [
    (ogextinf, run_ogextinf, _OG), (extinf, run_extinf, _EXT)])
def test_run_reuses_one_pair_and_drops_it(monkeypatch, p1, module, solve,
                                          config):
    made = _spy_passes(monkeypatch)
    seen = _spy_steps(monkeypatch, module, made)
    solve(p1, config)
    assert seen == [True] * 25
    refs = made[threading.current_thread()]
    assert len(refs) == 1
    assert _released(refs)


def _count_checks(monkeypatch):
    """Count the calls of every validation name a step can reach."""
    calls = []
    for module, name in ((ogextinf, "as_square_matrix"),
                         (ogextinf, "_check_orthogonal"),
                         (extinf, "as_square_matrix")):
        def counted(*args, _check=getattr(module, name), **kwargs):
            calls.append(None)
            return _check(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("solve, config", [
    (run_ogextinf, IterationConfig), (run_extinf, GradientConfig)])
def test_a_run_validates_once_whatever_its_length(monkeypatch, p1, solve,
                                                  config):
    # The steps of a run trust its pass: the checks a run makes do not
    # grow with its iterations.
    calls = _count_checks(monkeypatch)
    counts = []
    for iterations in (5, 25):
        before = len(calls)
        result = solve(p1, config(max_iterations=iterations))
        assert result.record.iterations_used == iterations
        counts.append(len(calls) - before)
    assert counts[0] == counts[1]


def test_buffers_dropped_when_a_run_raises(monkeypatch, p1):
    made = _spy_passes(monkeypatch)
    refs = made[threading.current_thread()]

    def singular(M):
        assert refs[-1]() is not None  # the run holds its pass here
        raise SingularUpdateError("forced", condition=float("inf"))

    monkeypatch.setattr(ogextinf, "_polar", singular)
    with pytest.raises(SingularUpdateError) as excinfo:
        run_ogextinf(p1, _OG)
    assert excinfo.value.iteration == 1
    del excinfo  # its traceback holds the frames of the failed step
    assert len(refs) == 1 and _released(refs)

    with pytest.raises(DivergenceError):
        run_extinf(p1, GradientConfig(learning_rate=1e12, anneal=False))
    assert len(refs) == 2 and _released(refs)


def _fail_third_step(monkeypatch):
    """Make the third step of every run raise DegenerateComponentError
    from the run's pass."""
    walk = ogextinf._Pass.__call__

    def failing(self, W, cutoff):
        self.steps = getattr(self, "steps", 0) + 1
        if self.steps == 3:
            raise DegenerateComponentError("forced")
        return walk(self, W, cutoff)

    monkeypatch.setattr(ogextinf._Pass, "__call__", failing)


@pytest.mark.parametrize("module, solve, config", [
    (ogextinf, run_ogextinf, _OG), (extinf, run_extinf, _EXT)])
def test_failure_in_a_step_carries_its_iteration(monkeypatch, p1, module,
                                                 solve, config):
    made = _spy_passes(monkeypatch)
    _fail_third_step(monkeypatch)
    with pytest.raises(DegenerateComponentError) as excinfo:
        solve(p1, config)
    assert excinfo.value.iteration == 3
    assert str(excinfo.value) == "iteration 3: forced"
    del excinfo
    refs = made[threading.current_thread()]
    assert len(refs) == 1 and _released(refs)


def test_benchmark_records_the_iteration_of_a_failure(monkeypatch,
                                                      tmp_path):
    _fail_third_step(monkeypatch)
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

    # A step must overwrite everything it reads: NaN-filled scratches
    # change no bit.
    init = ogextinf._Pass.__init__

    def poisoned(self, X):
        init(self, X)
        for scratch in self.scratches:
            scratch.fill(np.nan)

    monkeypatch.setattr(ogextinf._Pass, "__init__", poisoned)
    assert [_bits(run_ogextinf(p1, _OG)), _bits(run_ogextinf(p2, _OG)),
            _bits(run_extinf(p1, _EXT))] == alone


def test_direct_steps_return_unaliased_arrays(monkeypatch, p1):
    made = _spy_passes(monkeypatch)
    state = UnmixingState(W=np.eye(p1.shape[0]), signs=np.ones(p1.shape[0]))
    first = update_step(state, p1)
    W_copy, signs_copy = first.W.copy(), first.signs.copy()
    second = update_step(state, p1)
    assert not np.shares_memory(first.W, second.W)
    assert not np.shares_memory(first.signs, second.signs)
    assert np.array_equal(first.W, W_copy)
    assert np.array_equal(first.signs, signs_copy)
    assert np.array_equal(first.W, second.W)
    refs = made[threading.current_thread()]
    assert len(refs) == 2 and _released(refs)


def test_two_threads_keep_their_own_buffers(monkeypatch, p1, p2):
    # Two datasets of one shape (any rows of white data are white), so a
    # pass shared across threads would be written by both.
    layouts = (p2[:25], p2[25:])
    sequential = [_bits(run_ogextinf(X, _OG)) for X in layouts]
    made = _spy_passes(monkeypatch)
    results = [None, None]

    def solve(k):
        bits = _bits(run_ogextinf(layouts[k], _OG))
        refs = made[threading.current_thread()]
        results[k] = bits, len(refs) == 1 and _released(refs)

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
