"""Spans around the public functions of each flownet module, recorded from outside.

Tracer.install() replaces every public function listed in SPANS with a
wrapper at every place it is bound: the defining module, each flownet module
that imported it by name, and the package namespace; methods are replaced on
their class. A wrapper records one span [name, parent span id, start, end]
per call. Spans stay in memory; layer_metrics() turns the spans of a pass
into per-layer self times and call counts, and write_spans() saves them.
A layer's self time is its span durations minus the time its child spans
cover. The counters marked computed in COMPUTED are derived from call
arguments, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

# span name -> (module, attribute path of the public function)
SPANS = {
    "cli.main": ("flownet.cli", "main"),
    "scenario.load_scenario": ("flownet.scenario", "load_scenario"),
    "scenario.validation_summary": ("flownet.scenario", "validation_summary"),
    "expr.evaluate": ("flownet.expr", "evaluate"),
    "schedules.at": ("flownet.schedules", "TimeVaryingMatrix.at"),
    "schedules.at_times": ("flownet.schedules", "TimeVaryingMatrix.at_times"),
    "schedules.support_pattern": ("flownet.schedules", "support_pattern"),
    "schedules.validate_stochastic": ("flownet.schedules", "validate_stochastic"),
    "schedules.regularity_diagnostic": ("flownet.schedules", "regularity_diagnostic"),
    "graph.is_strongly_connected": ("flownet.graph", "is_strongly_connected"),
    "graph.cyclic_index": ("flownet.graph", "cyclic_index"),
    "spectral.peripheral_count": ("flownet.spectral", "peripheral_count"),
    "spectral.asymptotic_period": ("flownet.spectral", "asymptotic_period"),
    "spectral.strictly_positive_shortcut": ("flownet.spectral", "strictly_positive_shortcut"),
    "spectral.convergence_diagnostic": ("flownet.spectral", "convergence_diagnostic"),
    "evolution.propagate": ("flownet.evolution", "propagate"),
    "evolution.write_csv": ("flownet.evolution", "EdgeDensityField.write_csv"),
    "evolution.l1_norm": ("flownet.evolution", "l1_norm"),
}

# metric -> (unit, source): "self:<span>" sums the span's self time, "calls:<span>"
# counts its calls, "counter" is added up by the hooks below and layer_metrics().
LAYER_METRICS = {
    "cli.self_s": ("s", "self:cli.main"),
    "cli.json_bytes": ("B", "counter"),
    "scenario.load_scenario_s": ("s", "self:scenario.load_scenario"),
    "scenario.validation_summary_s": ("s", "self:scenario.validation_summary"),
    "expr.evaluate_calls": ("count", "calls:expr.evaluate"),
    "expr.evaluate_s": ("s", "self:expr.evaluate"),
    "schedules.at_calls": ("count", "calls:schedules.at"),
    "schedules.at_s": ("s", "self:schedules.at"),
    "schedules.at_times_calls": ("count", "calls:schedules.at_times"),
    "schedules.at_times_points": ("count", "counter"),
    "schedules.at_times_s": ("s", "self:schedules.at_times"),
    "schedules.support_pattern_calls": ("count", "calls:schedules.support_pattern"),
    "schedules.validate_stochastic_s": ("s", "self:schedules.validate_stochastic"),
    "schedules.regularity_diagnostic_s": ("s", "self:schedules.regularity_diagnostic"),
    "schedules.stack_bytes": ("B", "counter"),
    "graph.is_strongly_connected_calls": ("count", "calls:graph.is_strongly_connected"),
    "graph.is_strongly_connected_s": ("s", "self:graph.is_strongly_connected"),
    "graph.cyclic_index_calls": ("count", "calls:graph.cyclic_index"),
    "graph.cyclic_index_s": ("s", "self:graph.cyclic_index"),
    "spectral.peripheral_count_calls": ("count", "calls:spectral.peripheral_count"),
    "spectral.peripheral_count_s": ("s", "self:spectral.peripheral_count"),
    "spectral.asymptotic_period_s": ("s", "self:spectral.asymptotic_period"),
    "spectral.strictly_positive_shortcut_s": ("s", "self:spectral.strictly_positive_shortcut"),
    "spectral.convergence_diagnostic_s": ("s", "self:spectral.convergence_diagnostic"),
    "evolution.propagate_calls": ("count", "calls:evolution.propagate"),
    "evolution.propagate_s": ("s", "self:evolution.propagate"),
    "evolution.grid_points": ("count", "counter"),
    "evolution.matmuls": ("count", "counter"),
    "evolution.flops": ("flop", "counter"),
    "evolution.write_csv_s": ("s", "self:evolution.write_csv"),
    "evolution.csv_rows": ("count", "counter"),
    "evolution.csv_bytes": ("B", "counter"),
    "evolution.l1_norm_s": ("s", "self:evolution.l1_norm"),
}

COMPUTED = ("evolution.matmuls", "evolution.flops", "schedules.stack_bytes")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span recorder for one process; install() before the traced passes."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._csv_paths: list[str] = []
        self._propagate_args: list[tuple[int, float, float, int]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                if after is not None:
                    after(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + int(amount)

    def _count_at_times(self, matrix, ts):
        points = np.asarray(ts).size
        self._add("schedules.at_times_points", points)
        self._add("schedules.stack_bytes", points * matrix.dim ** 2 * 8)

    def _note_propagate(self, *args, **kwargs):
        bound = self._propagate_sig.bind(*args, **kwargs).arguments
        self._propagate_args.append((bound["M"].dim, bound["s"], bound["t"], bound["N"]))

    def _count_propagate(self, m: int, s: float, t: float, N: int) -> None:
        # Same grid and k as flownet.evolution._evolve: binary powering to k
        # takes popcount(k) + bit_length(k) - 1 products of m x m.
        ks, counts = np.unique(
            np.floor((np.arange(N) + 0.5) / N + (t - s)).astype(np.int64), return_counts=True)
        products = sum(int(c) * max(0, int(k).bit_count() + int(k).bit_length() - 1)
                       for k, c in zip(ks, counts))
        self._add("evolution.grid_points", N)
        self._add("evolution.matmuls", products)
        self._add("evolution.flops", products * 2 * m ** 3)

    def _note_csv(self, field, path):
        self._csv_paths.append(os.fspath(path))

    def install(self) -> None:
        import flownet.evolution

        self._propagate_sig = inspect.signature(flownet.evolution.propagate)
        hooks = {
            "schedules.at_times": (self._count_at_times, None),
            "evolution.propagate": (self._note_propagate, None),
            "evolution.write_csv": (None, self._note_csv),
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "flownet" or n.startswith("flownet."))]
        for name, (module, attr) in SPANS.items():
            owner, key = _resolve(module, attr)
            original = getattr(owner, key)
            wrapper = self._wrap(name, original, *hooks.get(name, (None, None)))
            if isinstance(owner, type):
                self._patch(owner, key, wrapper)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def reset(self) -> None:
        """Forget the spans and counters recorded so far."""
        self.spans.clear()
        self.counters.clear()
        self._csv_paths.clear()
        self._propagate_args.clear()

    def layer_metrics(self, json_bytes: int) -> tuple[dict[str, float], dict[str, int]]:
        """(per-layer metrics, calls per span) recorded since reset().

        Call between passes, outside any span: it reads the CSV files the
        pass wrote and computes the derived counters.
        """
        if self._stack:
            raise RuntimeError("layer_metrics() called inside an open span")
        for args in self._propagate_args:
            self._count_propagate(*args)
        self._propagate_args.clear()
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(SPANS, 0.0)
        calls = dict.fromkeys(SPANS, 0)
        for (name, _, start, end), covered in zip(self.spans, child):
            self_s[name] += end - start - covered
            calls[name] += 1
        counters = dict(self.counters, **{"cli.json_bytes": json_bytes})
        for path in self._csv_paths:
            with open(path, "rb") as fh:
                data = fh.read()
            counters["evolution.csv_bytes"] = counters.get("evolution.csv_bytes", 0) + len(data)
            counters["evolution.csv_rows"] = counters.get("evolution.csv_rows", 0) + data.count(b"\n") - 1
        out = {}
        for metric, (_, source) in LAYER_METRICS.items():
            kind, _, span = source.partition(":")
            out[metric] = (self_s[span] if kind == "self" else
                           calls[span] if kind == "calls" else counters.get(metric, 0))
        return out, calls



def write_spans(path: str, spans: list[list]) -> None:
    """Save spans as CSV rows id,parent,name,start,end (parent -1: a root)."""
    with open(path, "w") as fh:
        fh.write("id,parent,name,start,end\n")
        for i, (name, parent, start, end) in enumerate(spans):
            fh.write(f"{i},{parent},{name},{start!r},{end!r}\n")
