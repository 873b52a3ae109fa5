"""Command-line interface: simulate, decompose, benchmark.

Exit codes: 0 success (and convergence for ``decompose``), 1 usage
error, 2 I/O or parse error, 3 numerical failure, 4 the algorithm ran to
its iteration cap without converging (the result file is still written).

The default seed is 0; the ``OGICA_SEED`` environment variable overrides
it, and an explicit ``--seed`` flag overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import (
    MatrixParseError,
    NumericalError,
    OgicaError,
    ParameterError,
    ValidationError,
)
from .extinf import GradientConfig, _extinf
from .matrixio import read_matrix, write_matrix
from .metrics import (
    RunRecord,
    aggregate,
    amari_distance,
    composed_unmixing,
)
from .ogextinf import IterationConfig, _ogextinf, random_orthogonal
from .preprocess import _null_tolerance, _whiten_in_place
from .simulate import (
    GENERATOR_NAME,
    ExperimentSpec,
    experiment_preset,
    make_dataset,
)
from .validation import as_data_matrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGENCE = 4

DEFAULT_SEED = 0
# Each algorithm the CLI offers, named once: the call that runs its core,
# unchecked, on data validated (or simulated) before its whitening,
# configured by the parsed solver flags (:func:`_add_solver_flags`); no
# command writes sources.
_SOLVERS = {
    "ogextinf": lambda X, flags, initial_W=None: _ogextinf(X, IterationConfig(
        max_iterations=flags.max_iterations, tolerance=flags.tolerance,
        sign_rule_sample_cutoff=flags.sign_cutoff, initial_W=initial_W),
        strict=True),
    "extinf": lambda X, flags: _extinf(X, GradientConfig(
        learning_rate=flags.learning_rate,
        max_iterations=flags.max_iterations, tolerance=flags.tolerance),
        flags.sign_cutoff),
}
_ALGORITHMS = tuple(_SOLVERS)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors (not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _checked(convert, accept, rule: str):
    """An argparse ``type=`` converter that also enforces a range rule;
    argparse reports a violation through :meth:`_Parser.error`."""

    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse: "invalid int value"
    return parse


def _algorithm_list(text: str) -> tuple[str, ...]:
    algorithms = tuple(a.strip() for a in text.split(",") if a.strip())
    if (not algorithms or not set(algorithms) <= _SOLVERS.keys()
            or len(set(algorithms)) < len(algorithms)):
        raise argparse.ArgumentTypeError(
            f"must name one or more of {', '.join(_ALGORITHMS)}, each at "
            f"most once, got {text!r}")
    return algorithms


_COUNT = _checked(int, lambda v: v >= 1, ">= 1")
_INDEX = _checked(int, lambda v: v >= 0, ">= 0")
_POSITIVE = _checked(float, lambda v: 0 < v < np.inf, "positive and finite")
_NONNEGATIVE = _checked(float, lambda v: 0 <= v < np.inf, ">= 0 and finite")
_FRACTION = _checked(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")


def _add_solver_flags(parser: _Parser, cap: int) -> None:
    """The solver flags of ``decompose`` and ``benchmark``; only the
    default iteration cap differs between the two."""
    parser.add_argument("--tolerance", type=_POSITIVE,
                        default=IterationConfig.tolerance,
                        help="weight-change stopping threshold "
                             "(default %(default)s)")
    parser.add_argument("--max-iterations", type=_COUNT, default=cap,
                        help="iteration cap (default %(default)s)")
    parser.add_argument("--sign-cutoff", type=_COUNT,
                        default=IterationConfig.sign_rule_sample_cutoff,
                        help="sample count at which sign selection "
                             "switches from the stability rule to "
                             "kurtosis (default %(default)s)")
    parser.add_argument("--learning-rate", type=_NONNEGATIVE,
                        default=GradientConfig.learning_rate,
                        help="extinf step size (default %(default)s; "
                             "ignored by ogextinf)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ogica",
        description="Orthogonal extended-infomax ICA: synthetic data "
                    "generation, decomposition, and benchmarks.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sim = sub.add_parser(
        "simulate",
        help="generate one synthetic mixture dataset as CSV + manifest")
    sim.add_argument("--experiment", type=int, choices=(1, 2),
                     help="preset layout: 1 = 20 sources x 5000 samples, "
                          "2 = 50 sources x 10000 samples")
    sim.add_argument("--n-super", type=int,
                     help="number of Laplacian (super-Gaussian) sources")
    sim.add_argument("--n-sub", type=int,
                     help="number of uniform (sub-Gaussian) sources")
    sim.add_argument("--samples", type=int, help="samples per source")
    sim.add_argument("--seed", type=_INDEX, default=None,
                     help="base seed (default: $OGICA_SEED or 0)")
    sim.add_argument("--run", type=_INDEX, default=0,
                     help="run index within the seed's family (default 0)")
    sim.add_argument("--output-dir", default=".",
                     help="directory for observed/sources/mixing CSVs and "
                          "the JSON manifest (default: current directory)")
    sim.set_defaults(func=cmd_simulate)

    dec = sub.add_parser(
        "decompose",
        help="center, whiten and unmix a CSV matrix; write a JSON result")
    dec.add_argument("input", help="CSV matrix, one row per channel")
    dec.add_argument("-o", "--output", default="result.json",
                     help="result JSON path (default result.json)")
    dec.add_argument("--algorithm", choices=_ALGORITHMS, default="ogextinf")
    _add_solver_flags(dec, cap=3000)
    dec.add_argument("--pca-variance", type=_FRACTION, default=None,
                     help="keep components explaining at least this "
                          "fraction of variance; 0 disables reduction "
                          "(default: drop only numerically null "
                          "directions, eigenvalue <= max(n, t) * eps * "
                          "largest)")
    dec.add_argument("--init", choices=("identity", "random"),
                     default="identity",
                     help="initial unmixing matrix (default identity)")
    dec.add_argument("--seed", type=_INDEX, default=None,
                     help="seed for --init random (default: $OGICA_SEED "
                          "or 0)")
    dec.set_defaults(func=cmd_decompose)

    ben = sub.add_parser(
        "benchmark",
        help="replicate the synthetic convergence/quality benchmark")
    ben.add_argument("--experiment", type=int, choices=(1, 2), default=1)
    ben.add_argument("--runs", type=_COUNT, default=100,
                     help="number of replicated datasets (default 100)")
    ben.add_argument("--algorithms", type=_algorithm_list,
                     default=",".join(_ALGORITHMS),
                     help="comma-separated subset of: %(default)s")
    ben.add_argument("--seed", type=_INDEX, default=None,
                     help="base seed (default: $OGICA_SEED or 0)")
    _add_solver_flags(ben, cap=1000)
    ben.add_argument("--jobs", type=_COUNT, default=1,
                     help="run this many datasets in parallel (default 1)")
    ben.add_argument("-o", "--output", default="benchmark.json",
                     help="report JSON path (default benchmark.json)")
    ben.add_argument("--curves", default=None, metavar="PATH",
                     help="also write per-iteration weight-change curves "
                          "as CSV (long format, for plotting)")
    ben.set_defaults(func=cmd_benchmark)
    return parser


def _resolve_seed(args, parser: _Parser) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("OGICA_SEED")
    if env:
        try:
            return _INDEX(env)
        except (ValueError, argparse.ArgumentTypeError):
            parser.error(
                f"OGICA_SEED must be a non-negative integer, got {env!r}")
    return DEFAULT_SEED


def _write_json(path: str | os.PathLike, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def _generator_info(seed: int) -> dict:
    return {
        "bit_generator": GENERATOR_NAME,
        "entropy": seed,
        "spawn_key_scheme": "(run_index,)",
    }


def cmd_simulate(args, parser: _Parser) -> int:
    seed = _resolve_seed(args, parser)
    explicit = [args.n_super, args.n_sub, args.samples]
    if args.experiment is not None:
        if any(v is not None for v in explicit):
            parser.error("--experiment cannot be combined with "
                         "--n-super/--n-sub/--samples")
        spec = experiment_preset(args.experiment, seed=seed)
    else:
        if any(v is None for v in explicit):
            parser.error("either --experiment or all of --n-super, "
                         "--n-sub and --samples are required")
        try:
            spec = ExperimentSpec(n_super=args.n_super, n_sub=args.n_sub,
                                  samples=args.samples, seed=seed)
        except ParameterError as exc:
            parser.error(str(exc))
    dataset = make_dataset(spec, args.run)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = {"observed": "observed.csv", "sources": "sources.csv",
             "mixing": "mixing.csv"}
    write_matrix(outdir / files["observed"], dataset.observed)
    write_matrix(outdir / files["sources"], dataset.sources)
    write_matrix(outdir / files["mixing"], dataset.mixing)
    manifest = {
        "schema": "ogica.simulate/1",
        "seed": seed,
        "run_index": args.run,
        "spec": {"n_super": spec.n_super, "n_sub": spec.n_sub,
                 "samples": spec.samples},
        "generator": _generator_info(seed),
        "condition_retries": dataset.condition_retries,
        "files": files,
    }
    _write_json(outdir / "manifest.json", manifest)
    print(f"wrote {spec.n_sources}x{spec.samples} dataset "
          f"(seed {seed}, run {args.run}) to {outdir}")
    return EXIT_OK


def cmd_decompose(args, parser: _Parser) -> int:
    if args.init == "random" and args.algorithm != "ogextinf":
        parser.error("--init random is only supported for ogextinf")
    seed = _resolve_seed(args, parser)

    tic = time.perf_counter()
    data = read_matrix(args.input)
    read_seconds = time.perf_counter() - tic
    data = as_data_matrix(data, name=args.input)
    n, t = data.shape

    tic = time.perf_counter()
    model, whitened = _whiten_in_place(data, args.pca_variance)
    whitening_seconds = time.perf_counter() - tic
    m = model.retained

    initial = ((random_orthogonal(m, np.random.default_rng(seed)),)
               if args.init == "random" else ())
    result = _SOLVERS[args.algorithm](whitened, args, *initial)

    payload = {
        "schema": "ogica.decompose/1",
        "config": {
            "algorithm": args.algorithm,
            "input": str(args.input),
            "tolerance": args.tolerance,
            "max_iterations": args.max_iterations,
            "pca_variance": args.pca_variance,
            "sign_cutoff": args.sign_cutoff,
            "learning_rate": (None if result.learning_rate is None
                              else args.learning_rate),
            "init": args.init,
            "seed": seed,
        },
        "input": {"channels": n, "samples": t},
        "whitening": {
            "rule": ("null_directions" if args.pca_variance is None
                     else "variance_fraction"),
            "rule_threshold": (_null_tolerance((n, t))
                               if args.pca_variance is None
                               else args.pca_variance),
            "retained": m,
            "eigenvalues": model.eigenvalues.tolist(),
            "mean": model.mean.tolist(),
        },
        "result": {
            "converged": result.converged,
            "iterations_used": result.record.iterations_used,
            "final_weight_change": float(result.record.weight_changes[-1]),
            "signs": result.signs.tolist(),
            "weight_changes": result.record.weight_changes.tolist(),
            "W_whitened": result.W.tolist(),
            "W_composed": (result.W @ model.whitener).tolist(),
            "learning_rate_effective": result.learning_rate,
        },
        "timing": {
            "read_seconds": read_seconds,
            "whitening_seconds": whitening_seconds,
            "algorithm_seconds": result.elapsed_total,
            "per_iteration_seconds": result.record.elapsed.tolist(),
        },
    }
    _write_json(args.output, payload)
    status = "converged" if result.converged else "did not converge"
    print(f"{args.algorithm}: {status} after "
          f"{result.record.iterations_used} iterations "
          f"(final weight change {result.record.weight_changes[-1]:.3e}); "
          f"result written to {args.output}")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _benchmark_run(spec: ExperimentSpec, run_index: int, *, args) -> dict:
    """One dataset, each of ``args.algorithms`` run from ``_SOLVERS``.
    Top-level so worker processes can import it; returns plain dicts so
    results cross process boundaries cheaply."""
    dataset = make_dataset(spec, run_index)
    model, whitened = _whiten_in_place(dataset.observed, 0.0)
    records = []
    curves = {}
    for algo in args.algorithms:
        # A failed run's record; a finished run sets its outcome.
        record = {"run_index": run_index, "algorithm": algo,
                  "iterations_used": 0, "converged": False,
                  "final_weight_change": None, "amari_distance": None,
                  "wall_time": None, "error": None}
        curves[algo] = []
        try:
            result = _SOLVERS[algo](whitened, args)
        except NumericalError as exc:
            record.update(iterations_used=exc.iteration or 0, error=str(exc))
        else:
            record.update(
                iterations_used=result.record.iterations_used,
                converged=result.record.converged,
                final_weight_change=float(result.record.weight_changes[-1]),
                amari_distance=amari_distance(
                    composed_unmixing(result.W, model), dataset.mixing),
                wall_time=result.elapsed_total)
            curves[algo] = result.record.weight_changes.tolist()
        records.append(record)
    return {"records": records, "curves": curves,
            "condition_retries": dataset.condition_retries}


def cmd_benchmark(args, parser: _Parser) -> int:
    seed = _resolve_seed(args, parser)
    spec = experiment_preset(args.experiment, seed=seed)
    worker = partial(_benchmark_run, spec, args=args)
    # A pool forks all its workers at once, so start no more than runs.
    workers = min(args.jobs, args.runs)
    if workers == 1:
        outcomes = [worker(r) for r in range(args.runs)]
    else:
        # Imported here, not at module level: the process pool module
        # adds about 20 ms to the start-up of every command.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers) as pool:
            outcomes = list(pool.map(worker, range(args.runs)))

    record_dicts = [rec for out in outcomes for rec in out["records"]]
    report = aggregate(RunRecord(**rec) for rec in record_dicts)
    payload = {
        "schema": "ogica.benchmark/1",
        "config": {
            "experiment": args.experiment,
            "runs": args.runs,
            "algorithms": list(args.algorithms),
            "seed": seed,
            "tolerance": args.tolerance,
            "max_iterations": args.max_iterations,
            "sign_cutoff": args.sign_cutoff,
            "learning_rate": args.learning_rate,
            "pca_variance": 0.0,
            "jobs": args.jobs,
            "generator": _generator_info(seed),
        },
        "datasets": [
            {"run_index": r, "condition_retries": out["condition_retries"]}
            for r, out in enumerate(outcomes)
        ],
        "records": record_dicts,
        "aggregates": report.aggregates,
    }
    _write_json(args.output, payload)
    if args.curves:
        with open(args.curves, "w", encoding="ascii", newline="") as fh:
            fh.write("run_index,algorithm,iteration,weight_change\n")
            for r, out in enumerate(outcomes):
                for algo, curve in out["curves"].items():
                    for i, change in enumerate(curve, start=1):
                        fh.write(f"{r},{algo},{i},{format(change, '.17g')}\n")
    for algo in args.algorithms:
        block = report.aggregates[algo]
        line = (f"{algo}: {block['converged_runs']}/{block['runs']} "
                f"runs converged")
        if "iterations_used" in block:
            line += (f", median iterations "
                     f"{block['iterations_used']['median']:.0f}")
        if "amari_distance" in block:
            line += (f", median Amari distance "
                     f"{block['amari_distance']['median']:.4f}")
        if "wall_time" in block:
            line += f", median wall time {block['wall_time']['median']:.3f}s"
        print(line)
    print(f"report written to {args.output}")
    return EXIT_OK


def load_report(path: str | os.PathLike) -> dict:
    """Load a benchmark report and verify its aggregates.

    Recomputes the aggregate block from the stored per-run records and
    requires exact equality with the stored one; raises
    :class:`ValidationError` if the report is malformed or internally
    inconsistent.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            payload = json.load(fh)
            records = [RunRecord(**rec) for rec in payload["records"]]
            consistent = aggregate(records).aggregates == payload["aggregates"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"{path} is not a benchmark report: {exc!r}") from exc
    if not consistent:
        raise ValidationError(
            f"stored aggregates in {path} do not match the per-run "
            "records")
    return payload


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except MatrixParseError as exc:
        print(f"ogica: parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"ogica: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"ogica: invalid input: {exc}", file=sys.stderr)
        return EXIT_IO
    except ParameterError as exc:
        print(f"ogica: invalid parameter: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"ogica: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OgicaError as exc:
        print(f"ogica: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
