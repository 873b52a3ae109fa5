"""Tests of the benchmark harness, on layouts small enough to run in seconds.

Run from the repository root::

    python -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import harness  # noqa: E402
import run  # noqa: E402
from tracer import Profile  # noqa: E402

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
TINY = harness.Layout(n_super=2, n_sub=2, samples=2000)
TINY_WORKLOADS = {
    "tiny-decompose": harness.Decompose(TINY, inputs=2, amari_limit=0.2),
    "tiny-study": harness.Study(experiment=1, runs=1, amari_limit=0.25),
    "tiny-simulate": harness.Simulate(TINY),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY_WORKLOADS))
def test_prints_every_metric_with_its_unit(name, trace, tmp_path,
                                           monkeypatch, capsys):
    monkeypatch.setattr(harness, "WORKLOADS", TINY_WORKLOADS)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", name, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for metric in declared:
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"]
                   for line in lines[:-1]), metric["name"]
    for extra in ("runs_per_s", "iterations", "amari", "failed_frac"):
        assert any(line.split()[:1] == [extra] for line in lines[:-1])
    assert lines[-2].startswith("environment ")
    assert (tmp_path / ".perfbench_work" / name / "result.json").is_file()


def _failed_frac(workload, tmp_path, tamper, passes: int = 1) -> float:
    """Run ``passes`` passes; ``tamper`` may spoil the first command."""
    client = harness.Client(harness.ROOT, tmp_path)
    ops = workload.setup(client, seed=0)
    samples = []
    for _ in range(passes):
        for op in ops:
            done = client.run(op.args)
            if not samples:
                done = tamper(op, done) or done
            samples.append(harness.Sample(op, done, op.check(done)))
    value, unit = harness.quality(samples)["failed_frac"]
    assert unit == "1"
    return value


def test_clean_outputs_are_not_failures(tmp_path):
    workload = TINY_WORKLOADS["tiny-decompose"]
    assert _failed_frac(workload, tmp_path, lambda op, done: None) == 0.0


def test_non_orthogonal_W_counts_as_failed(tmp_path):
    def skew(op, done):
        path = op.outputs[0]
        payload = json.loads(path.read_text())
        W = np.array(payload["result"]["W_whitened"])
        payload["result"]["W_whitened"] = (W * (1 + 1e-8)).tolist()
        path.write_text(json.dumps(payload))

    workload = TINY_WORKLOADS["tiny-decompose"]
    assert _failed_frac(workload, tmp_path, skew) == 0.5


def test_bad_exit_code_counts_as_failed(tmp_path):
    workload = TINY_WORKLOADS["tiny-decompose"]
    assert _failed_frac(
        workload, tmp_path,
        lambda op, done: dataclasses.replace(done, returncode=4)) == 0.5


def test_truncated_input_csv_counts_as_failed(tmp_path):
    client = harness.Client(harness.ROOT, tmp_path)
    ops = TINY_WORKLOADS["tiny-decompose"].setup(client, seed=0)
    observed = Path(ops[0].args[1])
    text = observed.read_bytes()
    observed.write_bytes(text[:text.index(b"\n") + 100])  # a ragged row
    samples = harness.measure(client, ops, 0)
    assert samples[0].exit.returncode == 2
    assert harness.quality(samples)["failed_frac"][0] == 0.5


@pytest.mark.parametrize("passes", [1, 2])
def test_truncated_simulate_output_counts_as_failed(tmp_path, passes):
    def truncate_output(op, done):
        observed = op.outputs[0]
        observed.write_bytes(observed.read_bytes()[:-100])

    # With one pass the spoilt output is the first one, checked against
    # make_dataset; with two, the second is checked against it by digest.
    workload = TINY_WORKLOADS["tiny-simulate"]
    expected = 1.0 if passes == 1 else 0.5
    assert _failed_frac(workload, tmp_path, truncate_output, passes) == expected


def test_profile_self_time_and_step_nesting(tmp_path):
    # main 0..100 > update_step 10..60 > as_vector 20..30; as_vector 70..75
    names = np.array(["cli.main", "ogextinf.update_step",
                      "validation.as_vector"])
    rows = np.array([[0, 0, 100, -1], [1, 10, 60, 0], [2, 20, 30, 1],
                     [2, 70, 75, 0]], dtype=np.int64)
    spans = tmp_path / "spans.npz"
    np.savez(spans, names=names, rows=rows)
    profile = Profile()
    calls = profile.add(spans)
    assert calls == {"cli.main": 1, "ogextinf.update_step": 1,
                     "validation.as_vector": 2}
    assert list(profile.self_ns["cli.main"][0]) == [45]
    assert list(profile.self_ns["ogextinf.update_step"][0]) == [40]
    assert profile.in_step["validation.as_vector"] == 1
    assert profile.layer_names("validation") == ["validation.as_vector"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         BENCHMARK["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
