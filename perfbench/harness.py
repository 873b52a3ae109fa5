"""Closed-loop harness for the ``ogica`` CLI: workloads, checks and metrics.

One client sends one ``ogica`` command at a time, each in a fresh
process, and waits for it to exit before sending the next.  Every child
runs with ``OPENBLAS_NUM_THREADS=1``: the result bits (iteration counts,
Amari distances) depend on the BLAS thread count, and one thread per child
keeps a run within the host's cores.  Inputs are written by
``ogica simulate`` during set-up, outside the timed region; the program
only ever sees those files.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from ogica import (ExperimentSpec, OgicaError, amari_distance,
                   apply_whitening, experiment_preset, fit_whitening,
                   make_dataset, percentile_nearest_rank, read_matrix,
                   select_signs)
from ogica.cli import load_report

from tracer import Profile, STEP_FUNCTIONS

ROOT = Path(__file__).resolve().parents[1]
TRACER = Path(__file__).resolve().parent / "tracer.py"
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 150.0
SETUP_REPEATS = 9
ORTHO_TOL = 1e-10


class SetupError(RuntimeError):
    """The inputs of a workload could not be made."""


@dataclass(frozen=True)
class Exit:
    """How one child process ended and what it cost."""

    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Outcome:
    """The verdict of one command's correctness check."""

    ok: bool
    reason: str = ""
    iterations: int | None = None
    amari: float | None = None
    # Solver steps the command must have taken, by traced function name.
    steps: dict[str, int] = field(default_factory=dict)
    bytes_out: int = 0
    condition_retries: int = 0


def failure(reason: str) -> Outcome:
    return Outcome(False, reason)


@dataclass
class Op:
    """One command of a workload and the check of its outputs."""

    key: str
    args: list[str]
    datasets: int
    outputs: list[Path]
    check: Callable[[Exit], Outcome]
    bytes_in: int = 0


@dataclass
class Sample:
    op: Op
    exit: Exit
    outcome: Outcome
    traced: bool = False


def launch(argv: list[str], *, env: dict, log: Path) -> Exit:
    """Run ``argv`` to its end, timed from launch to exit, with the
    child's CPU time and peak RSS from ``wait4``."""
    with open(log, "wb") as out:
        tic = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - tic
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


class Client:
    """Launches ``ogica`` commands from the checkout's ``src`` tree."""

    def __init__(self, root: Path, work: Path) -> None:
        self.work = work
        self.log = work / "child.log"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

    def run(self, args: list[str], spans: Path | None = None) -> Exit:
        if spans is None:
            argv = [sys.executable, "-m", "ogica", *args]
        else:
            argv = [sys.executable, str(TRACER), "--out", str(spans), "--",
                    *args]
        return launch(argv, env=self.env, log=self.log)

    def log_tail(self) -> str:
        return self.log.read_text(errors="replace")[-300:].strip()


@dataclass(frozen=True)
class Layout:
    """A dataset shape: a preset, or an explicit source layout."""

    experiment: int | None = None
    n_super: int = 0
    n_sub: int = 0
    samples: int = 0

    def cli_args(self) -> list[str]:
        if self.experiment is not None:
            return ["--experiment", str(self.experiment)]
        return ["--n-super", str(self.n_super), "--n-sub", str(self.n_sub),
                "--samples", str(self.samples)]

    def spec(self, seed: int) -> ExperimentSpec:
        if self.experiment is not None:
            return experiment_preset(self.experiment, seed=seed)
        return ExperimentSpec(n_super=self.n_super, n_sub=self.n_sub,
                              samples=self.samples, seed=seed)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="ascii"))


# What reading a missing, truncated or malformed output can raise.
_BAD_OUTPUT = (OSError, ValueError, KeyError, TypeError, OgicaError)


@dataclass(frozen=True)
class Decompose:
    """``ogica decompose`` on ``inputs`` datasets simulated from the seed.

    ``--pca-variance 0`` keeps every component.  The CLI default of 0.01
    keeps only 14 of 20 components on preset 1 and 28 of 50 on preset 2:
    that solves a smaller problem, and leaves the Amari distance
    undefined, because the composed unmixing is not square.  A result
    counts as correct only at the stated accuracy ``amari_limit``.
    """

    layout: Layout
    inputs: int
    amari_limit: float

    def setup(self, client: Client, seed: int) -> list[Op]:
        ops = []
        for run in range(self.inputs):
            data = client.work / f"run{run}"
            done = client.run(["simulate", *self.layout.cli_args(),
                               "--seed", str(seed), "--run", str(run),
                               "--output-dir", str(data)])
            if done.returncode != 0:
                raise SetupError(f"ogica simulate exited {done.returncode}: "
                                 f"{client.log_tail()}")
            observed, result = data / "observed.csv", data / "result.json"
            ops.append(Op(
                key=f"run{run}",
                args=["decompose", str(observed), "-o", str(result),
                      "--pca-variance", "0"],
                datasets=1, outputs=[result],
                check=partial(self.check, result,
                              read_matrix(data / "mixing.csv")),
                bytes_in=observed.stat().st_size))
        return ops

    def check(self, result: Path, mixing: np.ndarray, done: Exit) -> Outcome:
        if done.returncode != 0:
            return failure(f"exit code {done.returncode}")
        try:
            payload = _read_json(result)
            if payload["schema"] != "ogica.decompose/1":
                return failure(f"schema {payload['schema']!r}")
            res = payload["result"]
            if res["converged"] is not True:
                return failure("not converged")
            W = np.array(res["W_whitened"], dtype=float)
            drift = float(np.max(np.abs(W @ W.T - np.eye(len(W)))))
            if not drift <= ORTHO_TOL:
                return failure(f"W_whitened is off orthogonal by {drift:.3e}")
            amari = amari_distance(np.array(res["W_composed"], dtype=float),
                                   mixing)
            iterations = int(res["iterations_used"])
        except _BAD_OUTPUT as exc:
            return failure(f"unreadable result: {exc!r}")
        if not amari <= self.amari_limit:
            return failure(f"Amari distance {amari} above the stated "
                           f"accuracy {self.amari_limit}")
        return Outcome(True, iterations=iterations, amari=amari,
                       steps={"ogextinf.update_step": iterations})


@dataclass(frozen=True)
class Study:
    """``ogica benchmark`` with both algorithms on ``runs`` datasets.

    The gradient baseline running to its iteration cap is expected; every
    ogextinf record must converge at the stated accuracy, and no record
    may carry an error.
    """

    experiment: int
    runs: int
    amari_limit: float

    @property
    def layout(self) -> Layout:
        return Layout(experiment=self.experiment)

    def setup(self, client: Client, seed: int) -> list[Op]:
        report = client.work / "report.json"
        return [Op(
            key="study",
            args=["benchmark", "--experiment", str(self.experiment),
                  "--runs", str(self.runs), "--jobs", "1", "--seed", str(seed),
                  "-o", str(report)],
            datasets=self.runs, outputs=[report],
            check=partial(self.check, report))]

    def check(self, report: Path, done: Exit) -> Outcome:
        if done.returncode != 0:
            return failure(f"exit code {done.returncode}")
        try:
            payload = load_report(report)
            records = payload["records"]
            retries = sum(d["condition_retries"] for d in payload["datasets"])
        except _BAD_OUTPUT as exc:
            return failure(f"unreadable report: {exc!r}")
        by_algo = {a: [r for r in records if r["algorithm"] == a]
                   for a in ("ogextinf", "extinf")}
        if any(len(recs) != self.runs for recs in by_algo.values()):
            return failure(f"{len(records)} records for {self.runs} runs")
        errors = [r["error"] for r in records if r["error"] is not None]
        if errors:
            return failure(f"run errors: {errors}")
        og = by_algo["ogextinf"]
        if not all(r["converged"] for r in og):
            return failure("an ogextinf run did not converge")
        worst = max(r["amari_distance"] for r in og)
        if not worst <= self.amari_limit:
            return failure(f"ogextinf Amari distance {worst} above the "
                           f"stated accuracy {self.amari_limit}")
        iterations = sum(r["iterations_used"] for r in og)
        return Outcome(
            True, iterations=iterations,
            amari=statistics.median(r["amari_distance"] for r in og),
            steps={"ogextinf.update_step": iterations,
                   "extinf.extinf_step": sum(r["iterations_used"]
                                             for r in by_algo["extinf"])},
            condition_retries=retries)


@dataclass(frozen=True)
class Simulate:
    """``ogica simulate`` of one dataset, repeated.

    The first output is read back with ``read_matrix`` and must match
    ``make_dataset(spec, run)`` bit for bit; every later output must be
    byte-identical to that verified one.
    """

    layout: Layout

    def setup(self, client: Client, seed: int) -> list[Op]:
        outdir = client.work / "simulated"
        dataset = make_dataset(self.layout.spec(seed), 0)
        expected = {"observed.csv": dataset.observed,
                    "mixing.csv": dataset.mixing}
        files = [outdir / name for name in ("observed.csv", "sources.csv",
                                            "mixing.csv", "manifest.json")]
        return [Op(
            key="simulate",
            args=["simulate", *self.layout.cli_args(), "--seed", str(seed),
                  "--run", "0", "--output-dir", str(outdir)],
            datasets=1, outputs=files,
            check=partial(self.check, files, expected, {}))]

    def check(self, files: list[Path], expected: dict, verified: dict,
              done: Exit) -> Outcome:
        if done.returncode != 0:
            return failure(f"exit code {done.returncode}")
        try:
            manifest = _read_json(files[-1])
            if manifest["schema"] != "ogica.simulate/1":
                return failure(f"schema {manifest['schema']!r}")
            digest = hashlib.sha256()
            for path in files:
                digest.update(path.read_bytes())
            if "digest" not in verified:
                for name, want in expected.items():
                    got = read_matrix(files[0].parent / name)
                    if got.shape != want.shape or got.tobytes() != want.tobytes():
                        return failure(f"{name} does not match make_dataset")
                verified["digest"] = digest.digest()
            elif digest.digest() != verified["digest"]:
                return failure("output differs from the verified output")
            retries = int(manifest["condition_retries"])
        except _BAD_OUTPUT as exc:
            return failure(f"unreadable output: {exc!r}")
        return Outcome(True, condition_retries=retries,
                       bytes_out=sum(p.stat().st_size for p in files[:3]))


WORKLOADS = {
    "decompose-p1": Decompose(Layout(experiment=1), inputs=10,
                              amari_limit=0.25),
    "decompose-p2": Decompose(Layout(experiment=2), inputs=4,
                              amari_limit=0.45),
    "study-p1": Study(experiment=1, runs=2, amari_limit=0.25),
    "simulate-p2": Simulate(Layout(experiment=2)),
}


def start_up(client: Client) -> float:
    """Seconds for a fresh interpreter to import ogica and exit, which
    every CLI call pays."""
    done = client.run(["--version"])
    if done.returncode != 0:
        raise SetupError(f"ogica --version exited {done.returncode}: "
                         f"{client.log_tail()}")
    return done.wall_s


def run_op(client: Client, op: Op, spans: Path | None = None) -> Sample:
    for path in op.outputs:
        path.unlink(missing_ok=True)
    done = client.run(op.args, spans=spans)
    outcome = op.check(done)
    if not outcome.ok:
        outcome.reason += f" | {client.log_tail()}"
    return Sample(op, done, outcome, traced=spans is not None)


def measure(client: Client, ops: list[Op], seconds: float) -> list[Sample]:
    """Whole passes over ``ops`` until ``seconds`` have passed; at least one."""
    samples: list[Sample] = []
    tic = time.perf_counter()
    while not samples or time.perf_counter() - tic < seconds:
        samples += [run_op(client, op) for op in ops]
    return samples


def _per_input(samples: list[Sample], value) -> float:
    """Median over inputs of each input's median.  Repeats of one input
    differ by host noise only; distinct inputs differ in the work they
    need, and the iteration count to tolerance has a long upper tail
    (one preset-2 dataset in about forty needs 600 iterations, not 350)."""
    groups: dict[str, list[float]] = {}
    for s in samples:
        groups.setdefault(s.op.key, []).append(value(s))
    return statistics.median(statistics.median(v) for v in groups.values())


def end_to_end(samples: list[Sample], setup_walls: list[float]) -> dict:
    return {
        "wall_s": (_per_input(samples, lambda s: s.exit.wall_s), "s"),
        "cpu_s": (_per_input(samples, lambda s: s.exit.cpu_s), "s"),
        "peak_rss_mb": (statistics.median(s.exit.rss_mb for s in samples),
                        "MB"),
        "setup_s": (statistics.median(setup_walls), "s"),
    }


def quality(samples: list[Sample]) -> dict:
    """Solver results, exact for a pinned BLAS thread count, and the
    throughput of the untraced commands."""
    ok = [s.outcome for s in samples if s.outcome.ok]
    iterations = [o.iterations for o in ok if o.iterations is not None]
    amari = [o.amari for o in ok if o.amari is not None]
    plain = [s for s in samples if not s.traced]
    return {
        "runs_per_s": (sum(s.op.datasets for s in plain)
                       / sum(s.exit.wall_s for s in plain), "1/s"),
        "iterations": (statistics.median(iterations) if iterations else None,
                       "count"),
        "amari": (statistics.median(amari) if amari else None, "1"),
        "failed_frac": (sum(not s.outcome.ok for s in samples) / len(samples),
                        "1"),
    }


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def time_select_signs(layout: Layout, seed: int) -> dict:
    """``select_signs`` under both rules on the same ``S``, in microseconds.

    ``S`` is the first iterate (``W = I``) of the layout's dataset.  A
    cutoff above the sample count picks the stability rule, one at the
    sample count the kurtosis rule.  No workload has fewer than 1000
    samples, so this is the only measurement of the stability path.
    """
    dataset = make_dataset(layout.spec(seed), 0)
    S = apply_whitening(fit_whitening(dataset.observed, 0.0), dataset.observed)
    t = S.shape[1]
    out = {}
    for rule, cutoff in (("stability", t + 1), ("kurtosis", t)):
        times = []
        for _ in range(15):
            tic = time.perf_counter()
            select_signs(S, cutoff)
            times.append(time.perf_counter() - tic)
        out[rule] = statistics.median(times) * 1e6
    return out


def per_layer(plain: list[Sample], traced: list[Sample], profile: Profile,
              layout: Layout, seed: int) -> dict:
    """Per-layer metrics of a traced pass, by ``module.function.stat``."""
    commands = max(profile.commands, 1)

    def us(name):
        return profile.durations_us(name)

    def seconds(name):
        return _median(us(name)) / 1e6

    def rate_mbps(name, nbytes):
        busy = us(name).sum()
        return nbytes / busy if busy else 0.0  # bytes per us = MB/s

    step = us("ogextinf.update_step")
    m = layout.spec(0).n_sources
    t = layout.spec(0).samples
    # S = W X and Phi(S) S^T: two m x m x t GEMMs of 2 m^2 t flops each.
    flops = 4.0 * m * m * t
    validation = profile.layer_names("validation")
    steps = sum(len(us(name)) for name in STEP_FUNCTIONS)
    signs = time_select_signs(layout, seed)
    overhead = statistics.fmean(
        s.exit.wall_s - p.exit.wall_s for s, p in zip(traced, plain))
    amari = [s.outcome.amari for s in plain if s.outcome.amari is not None]
    return {
        "ogextinf.update_step.calls": (len(step) / commands, "count"),
        "ogextinf.update_step.us": (_median(step), "us"),
        "ogextinf.update_step.us_p95": (
            percentile_nearest_rank(step, 95) if len(step) else 0.0, "us"),
        "ogextinf.update_step.self_us": (
            _median(profile.self_us("ogextinf.update_step")), "us"),
        "ogextinf.update_step.gflops_computed": (
            flops / (_median(step) * 1e3) if len(step) else 0.0, "GFLOP/s"),
        "ogextinf.higher_order_cov.us": (
            _median(us("ogextinf.higher_order_cov")), "us"),
        "ogextinf.select_signs.us": (_median(us("ogextinf.select_signs")),
                                     "us"),
        "ogextinf.select_signs.stability_us": (signs["stability"], "us"),
        "ogextinf.select_signs.kurtosis_us": (signs["kurtosis"], "us"),
        "ogextinf.multiplicative_update.us": (
            _median(us("ogextinf.multiplicative_update")), "us"),
        "ogextinf.run_ogextinf.s": (seconds("ogextinf.run_ogextinf"), "s"),
        "extinf.run_extinf.s": (seconds("extinf.run_extinf"), "s"),
        "extinf.extinf_step.calls": (
            len(us("extinf.extinf_step")) / commands, "count"),
        "extinf.extinf_step.us": (_median(us("extinf.extinf_step")), "us"),
        "extinf.extinf_step.self_us": (
            _median(profile.self_us("extinf.extinf_step")), "us"),
        "matrixio.read_matrix.s": (seconds("matrixio.read_matrix"), "s"),
        "matrixio.read_matrix.MBps": (
            rate_mbps("matrixio.read_matrix",
                      sum(s.op.bytes_in for s in traced)), "MB/s"),
        "matrixio.write_matrix.s": (seconds("matrixio.write_matrix"), "s"),
        "matrixio.write_matrix.MBps": (
            rate_mbps("matrixio.write_matrix",
                      sum(s.outcome.bytes_out for s in traced)), "MB/s"),
        "preprocess.fit_whitening.s": (seconds("preprocess.fit_whitening"),
                                       "s"),
        "preprocess.apply_whitening.s": (
            seconds("preprocess.apply_whitening"), "s"),
        "simulate.make_dataset.s": (seconds("simulate.make_dataset"), "s"),
        "simulate.condition_retries": (
            sum(s.outcome.condition_retries for s in traced) / commands,
            "count"),
        "metrics.amari_distance.us": (_median(us("metrics.amari_distance")),
                                      "us"),
        "metrics.amari": (statistics.median(amari) if amari else 0.0, "1"),
        "cli.main.self_s": (
            sum(profile.self_us(n).sum() for n in profile.layer_names("cli"))
            / 1e6 / commands, "s"),
        "validation.calls_per_iter": (
            sum(profile.in_step[n] for n in validation) / steps if steps
            else 0.0, "count"),
        "validation.self_s": (
            sum(profile.self_us(n).sum() for n in validation) / 1e6
            / commands, "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def trace_pass(client: Client, ops: list[Op], plain: list[Sample],
               profile: Profile) -> list[Sample]:
    """Run each op once under the tracer and check its span counts
    against the untraced run of the same input."""
    samples = []
    for op, reference in zip(ops, plain):
        spans = client.work / f"{op.key}.spans.npz"
        spans.unlink(missing_ok=True)
        sample = run_op(client, op, spans=spans)
        samples.append(sample)
        if not sample.outcome.ok:
            continue
        try:
            calls = profile.add(spans)
        except (OSError, ValueError, KeyError) as exc:
            sample.outcome = failure(f"unreadable spans: {exc!r}")
            continue
        for name, want in reference.outcome.steps.items():
            if calls.get(name, 0) != want:
                sample.outcome = failure(
                    f"{calls.get(name, 0)} {name} spans, but the untraced "
                    f"run took {want} steps")
    return samples


def loadavg() -> list[float]:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }


def run_workload(name: str, workload, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    """Set up, measure and check one workload; return the full result."""
    env = environment(ROOT)
    env["loadavg_start"] = loadavg()
    shutil.rmtree(work, ignore_errors=True)
    io = work / "io"
    io.mkdir(parents=True)
    client = Client(ROOT, io)
    try:
        ops = workload.setup(client, seed)
        if trace:
            plain = [run_op(client, op) for op in ops]
            profile = Profile()
            traced = trace_pass(client, ops, plain, profile)
            samples = plain + traced
            metrics = per_layer(plain, traced, profile, workload.layout, seed)
        else:
            setup_walls = [start_up(client) for _ in range(SETUP_REPEATS)]
            samples = measure(client, ops, seconds)
            metrics = end_to_end(samples, setup_walls)
        summary = quality(samples)
    finally:
        shutil.rmtree(io, ignore_errors=True)
    env["loadavg_end"] = loadavg()
    failed = sum(not s.outcome.ok for s in samples)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "environment": env,
        "summary": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        "commands": [
            {"input": s.op.key, "traced": s.traced,
             "returncode": s.exit.returncode, "wall_s": s.exit.wall_s,
             "cpu_s": s.exit.cpu_s, "rss_mb": s.exit.rss_mb,
             "ok": s.outcome.ok, "reason": s.outcome.reason,
             "iterations": s.outcome.iterations, "amari": s.outcome.amari}
            for s in samples],
        "result": {
            "correct": failed == 0,
            "attempted": len(samples),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        },
    }
