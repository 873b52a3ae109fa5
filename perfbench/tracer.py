"""Run one ``ogica`` command with the package's layers wrapped in spans.

Usage::

    python perfbench/tracer.py --out SPANS.npz -- <ogica arguments>

Every public function of the layer modules is wrapped from outside, in
every namespace that binds it: ``cli`` imports ``read_matrix`` and
``run_ogextinf`` by name, ``extinf`` imports ``select_signs`` and
``higher_order_cov``, and each module imports the ``validation`` helpers.
Wrapping only the defining module would miss those calls.  No file under
``src/`` changes.

Spans are kept in memory as ``(function, start_ns, end_ns, parent)`` rows
and written once, when the command returns.  :class:`Profile` reads them
back and computes each function's self time: its span's duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "matrixio", "preprocess", "simulate", "ogextinf", "extinf",
          "metrics", "validation")
# One solver iteration each; validation calls nested inside them are the
# per-iteration re-validation.
STEP_FUNCTIONS = ("ogextinf.update_step", "extinf.extinf_step")


class Recorder:
    """Collects spans of wrapped calls in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.rows: list[list[int]] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        rows, open_spans, clock = self.rows, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name_id, clock(), 0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(rows))
            rows.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                open_spans.pop()

        return traced

    def install(self, package: str = "ogica") -> None:
        """Wrap each layer's public functions in every layer namespace."""
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS}
        namespaces = [sys.modules[package], *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            setattr(namespace, key, wrapped)

    def save(self, path: str) -> None:
        rows = np.array(self.rows, dtype=np.int64).reshape(-1, 4)
        np.savez(path, names=np.array(self.names), rows=rows)


class Profile:
    """Per-function span statistics pooled over several span files."""

    def __init__(self) -> None:
        self.durations_ns: dict[str, list[np.ndarray]] = defaultdict(list)
        self.self_ns: dict[str, list[np.ndarray]] = defaultdict(list)
        self.in_step: dict[str, int] = defaultdict(int)
        self.commands = 0

    def add(self, path) -> dict[str, int]:
        """Pool one command's span file; return its span count per function."""
        with np.load(path) as spans:
            names, rows = list(spans["names"]), spans["rows"]
        ids, start, end, parent = rows.T
        duration = end - start
        nested = parent >= 0
        children = np.zeros(len(rows), dtype=np.int64)
        np.add.at(children, parent[nested], duration[nested])
        own = duration - children
        step_ids = {i for i, name in enumerate(names) if name in STEP_FUNCTIONS}
        # A span's parent always precedes it, so one forward pass suffices.
        id_list = ids.tolist()
        inside = [False] * len(rows)
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                inside[i] = inside[p] or id_list[p] in step_ids
        inside = np.array(inside, dtype=bool)
        calls = {}
        for i, name in enumerate(names):
            mine = ids == i
            calls[name] = int(np.count_nonzero(mine))
            if calls[name]:
                self.durations_ns[name].append(duration[mine])
                self.self_ns[name].append(own[mine])
                self.in_step[name] += int(np.count_nonzero(inside[mine]))
        self.commands += 1
        return calls

    def durations_us(self, name: str) -> np.ndarray:
        parts = self.durations_ns.get(name, [])
        return np.concatenate(parts) / 1e3 if parts else np.zeros(0)

    def self_us(self, name: str) -> np.ndarray:
        parts = self.self_ns.get(name, [])
        return np.concatenate(parts) / 1e3 if parts else np.zeros(0)

    def layer_names(self, layer: str) -> list[str]:
        return [n for n in self.durations_ns if n.split(".", 1)[0] == layer]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="span file (.npz)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- followed by the ogica arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    recorder = Recorder()
    recorder.install()
    from ogica import cli

    try:
        return cli.main(command)
    finally:
        recorder.save(args.out)


if __name__ == "__main__":
    sys.exit(main())
