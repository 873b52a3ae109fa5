"""Benchmark the ``ogica`` CLI on one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload decompose-p1 --seed 0 --seconds 15 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics of untraced
commands; with ``--trace 1`` it runs every input once untraced and once
under ``tracer.py`` and reports the per-layer metrics.  Human-readable
lines and an environment block come first; the last line of standard
output is the JSON result.  The full record is also written to
``.perfbench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# The result bits depend on the BLAS thread count; pin it before numpy
# loads, in this process as in every child.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the ogica CLI.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ogica" / "__init__.py").is_file():
        print(f"perfbench: no ogica source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / args.workload
    try:
        record = harness.run_workload(args.workload, workload, args.seed,
                                      args.seconds, bool(args.trace), work)
    except harness.SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 3
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    result = record["result"]
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} commands, {result['failed']} failed")
    for block in (result["metrics"], record["summary"]):
        for name, metric in block.items():
            print(f"  {name:40s} {metric['value']!s:>22} {metric['unit']}")
    inputs: dict[str, list[dict]] = {}
    for command in record["commands"]:
        inputs.setdefault(command["input"], []).append(command)
        if not command["ok"]:
            print(f"  FAILED {command['input']}: {command['reason']}")
    for key, commands in inputs.items():
        first = commands[0]
        print(f"  input {key}: iterations {first['iterations']}, "
              f"amari {first['amari']}, {len(commands)} commands")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
