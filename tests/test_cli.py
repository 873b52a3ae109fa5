import concurrent.futures
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ogica
from ogica import (
    ExperimentSpec,
    GradientConfig,
    IterationConfig,
    ValidationError,
    make_dataset,
    read_matrix,
    write_matrix,
)
from ogica.cli import _ALGORITHMS, build_parser, load_report, main


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv("OGICA_SEED", raising=False)


@pytest.fixture(scope="module")
def mixture_dir(tmp_path_factory):
    """A small simulated dataset shared by the decompose tests."""
    path = tmp_path_factory.mktemp("mixture")
    code = main(["simulate", "--n-super", "2", "--n-sub", "2",
                 "--samples", "2000", "--seed", "42",
                 "--output-dir", str(path)])
    assert code == 0
    return path


# ------------------------------------------------------------- simulate


def test_simulate_files_match_library_bitwise(mixture_dir):
    spec = ExperimentSpec(n_super=2, n_sub=2, samples=2000, seed=42)
    dataset = make_dataset(spec, 0)
    assert np.array_equal(read_matrix(mixture_dir / "observed.csv"),
                          dataset.observed)
    assert np.array_equal(read_matrix(mixture_dir / "sources.csv"),
                          dataset.sources)
    assert np.array_equal(read_matrix(mixture_dir / "mixing.csv"),
                          dataset.mixing)


def test_simulate_manifest_contents(mixture_dir):
    manifest = json.loads((mixture_dir / "manifest.json").read_text())
    assert manifest["schema"] == "ogica.simulate/1"
    assert manifest["seed"] == 42
    assert manifest["run_index"] == 0
    assert manifest["spec"] == {"n_super": 2, "n_sub": 2, "samples": 2000}
    assert manifest["generator"]["bit_generator"] == "numpy.random.PCG64"
    assert manifest["files"]["observed"] == "observed.csv"


def test_simulate_is_byte_identical(tmp_path):
    args = ["simulate", "--experiment", "1", "--seed", "7", "--run", "3"]
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(args + ["--output-dir", str(first)]) == 0
    assert main(args + ["--output-dir", str(second)]) == 0
    for name in ("observed.csv", "sources.csv", "mixing.csv",
                 "manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_simulate_preset_conflicts_with_explicit_layout(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--experiment", "1", "--n-super", "3",
              "--output-dir", str(tmp_path)])
    assert excinfo.value.code == 1


def test_simulate_requires_complete_layout(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--n-super", "3", "--n-sub", "2",
              "--output-dir", str(tmp_path)])
    assert excinfo.value.code == 1
    # A complete layout that ExperimentSpec refuses is a usage error too.
    for layout in (["--n-super", "-1", "--n-sub", "2", "--samples", "100"],
                   ["--n-super", "2", "--n-sub", "2", "--samples", "1"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", *layout, "--output-dir", str(tmp_path)])
        assert excinfo.value.code == 1


def test_simulate_rejects_negative_run(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--experiment", "1", "--run", "-1",
              "--output-dir", str(tmp_path)])
    assert excinfo.value.code == 1


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("OGICA_SEED", "123")
    out = tmp_path / "env"
    assert main(["simulate", "--n-super", "1", "--n-sub", "1", "--samples",
                 "64", "--output-dir", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 123

    flagged = tmp_path / "flag"
    assert main(["simulate", "--n-super", "1", "--n-sub", "1", "--samples",
                 "64", "--seed", "9", "--output-dir", str(flagged)]) == 0
    assert json.loads((flagged / "manifest.json").read_text())["seed"] == 9


def test_seed_env_must_be_integer(tmp_path, monkeypatch):
    monkeypatch.setenv("OGICA_SEED", "not-a-number")
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--experiment", "1",
              "--output-dir", str(tmp_path)])
    assert excinfo.value.code == 1


def test_negative_seed_is_a_usage_error(mixture_dir, tmp_path, monkeypatch):
    commands = (
        ["simulate", "--experiment", "1", "--output-dir", str(tmp_path)],
        ["benchmark", "--runs", "1", "--max-iterations", "2",
         "-o", str(tmp_path / "b.json")],
        ["decompose", str(mixture_dir / "observed.csv"), "--init", "random",
         "-o", str(tmp_path / "d.json")],
    )
    for args in commands:
        with pytest.raises(SystemExit) as excinfo:
            main(args + ["--seed", "-1"])
        assert excinfo.value.code == 1, args
        monkeypatch.setenv("OGICA_SEED", "-1")
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 1, args
        monkeypatch.delenv("OGICA_SEED")
    assert not any(tmp_path.iterdir())


# ------------------------------------------------------------ decompose


@pytest.fixture(scope="module")
def decompose_payload(mixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("dec") / "result.json"
    code = main(["decompose", str(mixture_dir / "observed.csv"),
                 "-o", str(out), "--pca-variance", "0"])
    assert code == 0
    return json.loads(out.read_text())


def test_decompose_converges_and_reports(decompose_payload):
    payload = decompose_payload
    assert payload["schema"] == "ogica.decompose/1"
    assert payload["result"]["converged"] is True
    result = payload["result"]
    assert result["iterations_used"] == len(result["weight_changes"])
    assert result["final_weight_change"] <= 1e-6
    assert payload["whitening"]["retained"] == 4
    assert payload["input"] == {"channels": 4, "samples": 2000}


def test_decompose_recovers_source_signs(decompose_payload):
    # two heavy-tailed and two bounded sources -> two +1 and two -1 labels
    assert sorted(decompose_payload["result"]["signs"]) == [-1, -1, 1, 1]


def test_decompose_unmixing_is_orthogonal(decompose_payload):
    W = np.array(decompose_payload["result"]["W_whitened"])
    assert np.max(np.abs(W @ W.T - np.eye(4))) <= 1e-8


def test_decompose_timing_block_isolated(decompose_payload):
    timing = decompose_payload["timing"]
    assert set(timing) == {"read_seconds", "whitening_seconds",
                           "algorithm_seconds", "per_iteration_seconds"}
    assert timing["whitening_seconds"] > 0
    assert timing["algorithm_seconds"] > 0
    assert (len(timing["per_iteration_seconds"])
            == decompose_payload["result"]["iterations_used"])


def test_decompose_timing_reports_the_read(decompose_payload):
    assert decompose_payload["timing"]["read_seconds"] >= 0


def test_decompose_deterministic_modulo_timing(mixture_dir, tmp_path,
                                               decompose_payload):
    out = tmp_path / "again.json"
    assert main(["decompose", str(mixture_dir / "observed.csv"),
                 "-o", str(out), "--pca-variance", "0"]) == 0
    again = json.loads(out.read_text())
    first = dict(decompose_payload)
    first.pop("timing")
    config = dict(first.pop("config"))
    again.pop("timing")
    config_again = dict(again.pop("config"))
    # the input path is the only config field allowed to differ
    config.pop("input")
    config_again.pop("input")
    assert config == config_again
    assert first == again


def test_decompose_iteration_cap_still_writes_result(mixture_dir, tmp_path):
    out = tmp_path / "capped.json"
    code = main(["decompose", str(mixture_dir / "observed.csv"),
                 "-o", str(out), "--max-iterations", "2"])
    assert code == 4
    payload = json.loads(out.read_text())
    assert payload["result"]["converged"] is False
    assert payload["result"]["iterations_used"] == 2


def test_decompose_extinf_records_effective_rate(mixture_dir, tmp_path):
    out = tmp_path / "extinf.json"
    code = main(["decompose", str(mixture_dir / "observed.csv"),
                 "-o", str(out), "--algorithm", "extinf",
                 "--pca-variance", "0", "--max-iterations", "40"])
    assert code in (0, 4)
    payload = json.loads(out.read_text())
    assert payload["config"]["algorithm"] == "extinf"
    assert payload["result"]["learning_rate_effective"] == 1e-3
    W = np.array(payload["result"]["W_whitened"])
    assert W.shape == (4, 4)


def test_decompose_random_init_seeded(mixture_dir, tmp_path):
    a = tmp_path / "ra.json"
    b = tmp_path / "rb.json"
    c = tmp_path / "rc.json"
    base = ["decompose", str(mixture_dir / "observed.csv"),
            "--init", "random"]
    assert main(base + ["-o", str(a), "--seed", "1"]) == 0
    assert main(base + ["-o", str(b), "--seed", "1"]) == 0
    assert main(base + ["-o", str(c), "--seed", "2"]) == 0
    wa = json.loads(a.read_text())["result"]["W_whitened"]
    wb = json.loads(b.read_text())["result"]["W_whitened"]
    wc = json.loads(c.read_text())["result"]["W_whitened"]
    assert wa == wb
    assert wa != wc


def test_decompose_random_init_requires_ogextinf(mixture_dir, tmp_path):
    # A usage error, reported before the input is read: a missing input
    # file must not turn it into an I/O error.
    for source in (mixture_dir / "observed.csv", tmp_path / "absent.csv"):
        with pytest.raises(SystemExit) as excinfo:
            main(["decompose", str(source), "-o", str(tmp_path / "x.json"),
                  "--algorithm", "extinf", "--init", "random"])
        assert excinfo.value.code == 1, source


# The step each solver's core calls once per iteration, through the
# module-global name that perfbench's tracer counts.
_STEPS = {"ogextinf": ("ogica.ogextinf", "update_step"),
          "extinf": ("ogica.extinf", "extinf_step")}


@pytest.mark.parametrize("algorithm", _ALGORITHMS)
def test_every_solver_runs_its_traced_step(algorithm, mixture_dir, tmp_path,
                                           monkeypatch):
    module_name, step_name = _STEPS[algorithm]
    module = importlib.import_module(module_name)
    step = getattr(module, step_name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(None)
        return step(*args, **kwargs)

    monkeypatch.setattr(module, step_name, spy)
    out = tmp_path / "decompose.json"
    code = main(["decompose", str(mixture_dir / "observed.csv"),
                 "-o", str(out), "--algorithm", algorithm,
                 "--max-iterations", "30", "--learning-rate", "5e-4"])
    assert code in (0, 4)
    payload = json.loads(out.read_text())
    assert len(calls) == payload["result"]["iterations_used"] > 0
    assert payload["config"]["learning_rate"] == {
        "ogextinf": None, "extinf": 5e-4}[algorithm]

    calls.clear()
    out = tmp_path / "benchmark.json"
    assert main(["benchmark", "--runs", "1", "--algorithms", algorithm,
                 "--max-iterations", "30", "-o", str(out)]) == 0
    (record,) = json.loads(out.read_text())["records"]
    assert len(calls) == record["iterations_used"] > 0


def test_decompose_reduces_rank_deficient_input(tmp_path):
    rng = np.random.default_rng(60)
    top = rng.standard_normal((2, 1500))
    third = top[0] + top[1] + 1e-8 * rng.standard_normal(1500)
    data = np.vstack([top, third])
    path = tmp_path / "flat.csv"
    with open(path, "w") as fh:
        for row in data:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    out = tmp_path / "flat.json"
    code = main(["decompose", str(path), "-o", str(out)])
    assert code in (0, 4)
    payload = json.loads(out.read_text())
    assert payload["whitening"]["retained"] == 2
    assert np.array(payload["result"]["W_composed"]).shape == (2, 3)


def test_decompose_default_keeps_every_source(tmp_path):
    # The simulator's sources are all real: whitening at the defaults may
    # drop only numerically null directions, so preset 1 keeps all 20 and
    # converges.
    data = tmp_path / "p1"
    assert main(["simulate", "--experiment", "1", "--seed", "7",
                 "--output-dir", str(data)]) == 0
    out = tmp_path / "p1.json"
    assert main(["decompose", str(data / "observed.csv"),
                 "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "ogica.decompose/1"
    assert payload["whitening"]["retained"] == 20
    assert payload["whitening"]["rule"] == "null_directions"
    assert payload["whitening"]["rule_threshold"] == 5000 * np.finfo(float).eps
    assert payload["config"]["pca_variance"] is None
    assert payload["result"]["converged"] is True


def test_decompose_peak_memory_is_below_two_copies(tmp_path):
    # The read fills one matrix, whitening writes into it and the solve
    # forms no sources, so two m x t matrices are never alive at once.
    values = np.random.default_rng(62).laplace(size=(50, 10000))
    path = tmp_path / "wide.csv"
    write_matrix(path, values)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = main(["decompose", str(path), "-o", str(tmp_path / "w.json"),
                     "--max-iterations", "3"])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == 4  # three iterations do not converge
    assert peak <= 1.6 * values.nbytes


def test_decompose_single_channel(tmp_path):
    rng = np.random.default_rng(61)
    path = tmp_path / "one.csv"
    with open(path, "w") as fh:
        fh.write(",".join(format(v, ".17g")
                          for v in rng.standard_normal(1200)) + "\n")
    out = tmp_path / "one.json"
    assert main(["decompose", str(path), "-o", str(out)]) == 0
    W = json.loads(out.read_text())["result"]["W_whitened"]
    assert W in ([[1.0]], [[-1.0]])


def test_decompose_flag_validation(mixture_dir, tmp_path):
    source = str(mixture_dir / "observed.csv")
    bad_flags = (
        ["--tolerance", "0"],
        ["--max-iterations", "0"],
        ["--pca-variance", "1.0"],
        ["--pca-variance", "-0.1"],
        ["--sign-cutoff", "0"],
        ["--learning-rate", "-1"],
        ["--tolerance", "inf"],
        ["--learning-rate", "inf"],
        ["--algorithm", "fastica"],
    )
    for flags in bad_flags:
        with pytest.raises(SystemExit) as excinfo:
            main(["decompose", source, "-o", str(tmp_path / "y.json")]
                 + flags)
        assert excinfo.value.code == 1, flags


def test_decompose_missing_input_file(tmp_path, capsys):
    code = main(["decompose", str(tmp_path / "absent.csv"),
                 "-o", str(tmp_path / "z.json")])
    assert code == 2
    assert "I/O error" in capsys.readouterr().err


def test_decompose_malformed_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    code = main(["decompose", str(path), "-o", str(tmp_path / "z.json")])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def test_decompose_non_ascii_csv(tmp_path, capsys):
    path = tmp_path / "accent.csv"
    path.write_bytes(b"1.0,2.0\n3.0,\xc3\xa9\n")
    code = main(["decompose", str(path), "-o", str(tmp_path / "z.json")])
    assert code == 2
    assert "parse error: row 2, column 2" in capsys.readouterr().err


def test_decompose_nonfinite_csv(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("1.0,2.0,3.0\n4.0,nan,6.0\n")
    code = main(["decompose", str(path), "-o", str(tmp_path / "z.json")])
    assert code == 2
    assert "invalid input" in capsys.readouterr().err


def test_decompose_overflowing_covariance_is_invalid_input(tmp_path,
                                                          capsys):
    # Finite entries whose squares overflow: whitening would give NaN.
    path = tmp_path / "huge.csv"
    path.write_text("1e200,2e200,-3e200,5\n1,2,3,4\n")
    code = main(["decompose", str(path), "-o", str(tmp_path / "z.json")])
    assert code == 2
    assert "sample covariance overflowed" in capsys.readouterr().err


def test_decompose_overflowing_row_mean_is_invalid_input(tmp_path, capsys):
    # Finite entries whose row sum overflows: the mean is named, and no
    # numpy warning reaches stderr.
    path = tmp_path / "huge.csv"
    path.write_text("1.7e308,1.7e308,-1.7e308,5\n1,2,3,4\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["decompose", str(path), "-o", str(tmp_path / "z.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "row mean overflowed" in err
    assert "Warning" not in err


def test_decompose_constant_data_is_numerical_failure(tmp_path, capsys):
    path = tmp_path / "flatline.csv"
    path.write_text("\n".join("5.0,5.0,5.0,5.0,5.0" for _ in range(3))
                    + "\n")
    code = main(["decompose", str(path), "-o", str(tmp_path / "z.json")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


# ------------------------------------------------------------ benchmark


@pytest.fixture(scope="module")
def benchmark_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    report = root / "report.json"
    curves = root / "curves.csv"
    code = main(["benchmark", "--runs", "2", "--max-iterations", "8",
                 "--seed", "11", "-o", str(report),
                 "--curves", str(curves)])
    assert code == 0
    return report, curves


def test_benchmark_report_structure(benchmark_out):
    report, _ = benchmark_out
    payload = json.loads(report.read_text())
    assert payload["schema"] == "ogica.benchmark/1"
    assert payload["config"]["runs"] == 2
    assert payload["config"]["seed"] == 11
    assert len(payload["records"]) == 4  # 2 runs x 2 algorithms
    algos = {rec["algorithm"] for rec in payload["records"]}
    assert algos == {"ogextinf", "extinf"}
    assert len(payload["datasets"]) == 2
    for rec in payload["records"]:
        assert rec["iterations_used"] <= 8
        assert rec["error"] is None


def test_benchmark_report_self_consistent(benchmark_out):
    report, _ = benchmark_out
    payload = load_report(report)  # verifies aggregates internally
    assert set(payload["aggregates"]) == {"ogextinf", "extinf"}
    for block in payload["aggregates"].values():
        assert block["runs"] == 2
        assert block["failed_runs"] == 0


def test_benchmark_tampered_report_detected(benchmark_out, tmp_path):
    report, _ = benchmark_out
    payload = json.loads(report.read_text())
    payload["records"][0]["amari_distance"] = 0.0
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(payload))
    with pytest.raises(ValidationError):
        load_report(doctored)


def test_malformed_report_is_validation_error(benchmark_out, tmp_path):
    report, _ = benchmark_out
    payload = json.loads(report.read_text())
    unknown_field = [{**payload["records"][0], "speed": 1.0}]
    for name, content in (("unknown_field", {**payload,
                                             "records": unknown_field}),
                          ("no_records", {"aggregates": 0}),
                          ("top_level_list", [payload])):
        bad = tmp_path / f"{name}.json"
        bad.write_text(json.dumps(content))
        with pytest.raises(ValidationError, match="not a benchmark report"):
            load_report(bad)


def test_benchmark_curves_long_format(benchmark_out):
    report, curves = benchmark_out
    payload = json.loads(report.read_text())
    lines = curves.read_text().splitlines()
    assert lines[0] == "run_index,algorithm,iteration,weight_change"
    expected = sum(rec["iterations_used"] for rec in payload["records"])
    assert len(lines) == 1 + expected
    run, algo, iteration, change = lines[1].split(",")
    assert run == "0" and algo == "ogextinf" and iteration == "1"
    float(change)


def test_benchmark_single_run_aggregates_echo_record(tmp_path):
    report = tmp_path / "single.json"
    code = main(["benchmark", "--runs", "1", "--max-iterations", "5",
                 "--algorithms", "ogextinf", "--seed", "3",
                 "-o", str(report)])
    assert code == 0
    payload = load_report(report)
    (record,) = payload["records"]
    block = payload["aggregates"]["ogextinf"]
    for key in ("iterations_used", "final_weight_change",
                "amari_distance", "wall_time"):
        assert block[key]["median"] == record[key]
        assert block[key]["min"] == record[key]
        assert block[key]["max"] == record[key]


def test_benchmark_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    base = ["benchmark", "--runs", "2", "--max-iterations", "5",
            "--algorithms", "ogextinf", "--seed", "21"]
    assert main(base + ["-o", str(serial), "--jobs", "1"]) == 0
    assert main(base + ["-o", str(parallel), "--jobs", "2"]) == 0

    def strip(path):
        payload = json.loads(path.read_text())
        return [{k: v for k, v in rec.items() if k != "wall_time"}
                for rec in payload["records"]]

    assert strip(serial) == strip(parallel)


def test_benchmark_starts_at_most_one_worker_per_run(monkeypatch, tmp_path):
    started = []

    class SerialPool:
        """Records its worker count and maps in this process."""

        def __init__(self, max_workers=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    out = tmp_path / "r.json"
    for runs in ("2", "1"):  # one run needs no pool at all
        assert main(["benchmark", "--runs", runs, "--jobs", "8",
                     "--max-iterations", "3", "--algorithms", "ogextinf",
                     "-o", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["jobs"] == 8
    assert started == [2]


def test_benchmark_rejects_unknown_algorithm(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["benchmark", "--runs", "1", "--algorithms", "fastica",
              "-o", str(tmp_path / "r.json")])
    assert excinfo.value.code == 1


def test_benchmark_flag_validation(tmp_path):
    for flags in (["--runs", "0"], ["--jobs", "0"],
                  ["--tolerance", "-1"], ["--algorithms", ""],
                  ["--max-iterations", "0"], ["--sign-cutoff", "0"],
                  ["--learning-rate", "-1"],
                  ["--tolerance", "inf"], ["--learning-rate", "inf"],
                  ["--algorithms", "ogextinf,ogextinf"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["benchmark", "-o", str(tmp_path / "r.json")] + flags)
        assert excinfo.value.code == 1, flags


def _flag_help(capsys, command: str, flag: str) -> str:
    """The ``-h`` text of one flag of ``command``, whitespace collapsed."""
    with pytest.raises(SystemExit):
        main([command, "-h"])
    text = capsys.readouterr().out
    block = text[text.index(f"\n  {flag}"):].split("\n  -")[1]
    return " ".join(block.split())


def test_solver_flags_are_shared(capsys):
    for flag in ("--tolerance", "--sign-cutoff", "--learning-rate"):
        assert (_flag_help(capsys, "decompose", flag)
                == _flag_help(capsys, "benchmark", flag)), flag
    assert "(default 1000)" in _flag_help(capsys, "benchmark",
                                          "--max-iterations")
    args = build_parser().parse_args(["benchmark"])
    assert args.tolerance == IterationConfig.tolerance
    assert args.tolerance == GradientConfig.tolerance
    assert args.learning_rate == GradientConfig.learning_rate
    assert args.sign_cutoff == IterationConfig.sign_rule_sample_cutoff
    assert args.sign_cutoff == GradientConfig.sign_rule_sample_cutoff
    assert args.algorithms == _ALGORITHMS
    assert f"{{{','.join(_ALGORITHMS)}}}" in _flag_help(capsys, "decompose",
                                                       "--algorithm")


# ------------------------------------------------------------- plumbing


def test_main_requires_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "ogica" in capsys.readouterr().out


def _child_python(*args: str) -> subprocess.CompletedProcess:
    """Run this interpreter in a child that imports the same ogica as
    this process, installed or not."""
    package_root = str(Path(ogica.__file__).resolve().parents[1])
    path = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_module_entry_point(tmp_path):
    proc = _child_python(
        "-m", "ogica", "simulate", "--n-super", "1", "--n-sub", "1",
        "--samples", "64", "--seed", "5", "--output-dir", str(tmp_path))
    assert proc.returncode == 0
    assert (tmp_path / "manifest.json").exists()
    assert "wrote 2x64 dataset" in proc.stdout


def test_cli_import_leaves_process_pool_unloaded():
    # Only ``benchmark --jobs N`` with N > 1 needs the process pool, and
    # only a CSV write needs the block formatter.
    proc = _child_python(
        "-c", "import sys, ogica.cli; "
              "print([name in sys.modules for name in "
              "('concurrent.futures.process', 'ogica._csvformat')])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False]"
