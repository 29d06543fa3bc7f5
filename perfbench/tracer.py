"""Span tracing of stablegp's public layer functions, from outside the package.

The tracer wraps each function named in LAYER_CALLS and replaces every
attribute of every loaded ``stablegp`` module that refers to the original,
so calls through names imported with ``from .linalg import cg_multi`` are
caught as well as calls through the defining module.  Each call becomes one
span (name, start, end, parent span, run id) plus the counts its counter
derives from the call's arguments and result.  Spans stay in memory until
the run ends; per-layer metrics are computed from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


def _rows(a) -> int:
    return int(np.shape(a)[0])


def _rhs(b) -> int:
    return 1 if np.ndim(b) == 1 else int(np.shape(b)[1])


def _gram_entries(args) -> dict:
    b = args.get("B")
    return {"entries": _rows(args["A"]) * _rows(args["A"] if b is None else b)}


def _cg_multi_counts(args, result) -> dict:
    iters = np.atleast_1d(result[1])
    return {"rhs": _rhs(args["B"]), "iterations": int(iters.sum()), "max_iterations": int(iters.max())}


def _cg_single_counts(args, result) -> dict:
    return {"rhs": 1, "iterations": int(result.iterations), "max_iterations": int(result.iterations)}


def _build_counts(args, tree) -> dict:
    return {"nodes": sum(len(level) for level in tree.levels), "m": len(tree.levels[-1])}


def _report_values(args, report) -> dict:
    return {
        "cond_observed": float(report.observed.cond),
        "cond_bound": float(report.cond_bound),
        "cg_iteration_bound": float(report.cg_iteration_bound),
    }


@dataclass(frozen=True)
class LayerCall:
    module: str
    function: str
    span: str
    counter: Optional[Callable[[dict, object], dict]] = None


# Public layer functions (plus the CLI's CSV reader, where every input file
# is parsed).  Several functions may share a span name: their time and
# counts add up under that name.
LAYER_CALLS = [
    LayerCall("stablegp.cli", "_load_csv_columns", "cli.load_csv", lambda a, r: {"rows_read": _rows(r[0])}),
    LayerCall("stablegp.cli", "write_table", "cli.write", lambda a, r: {"rows_written": len(a["rows"])}),
    LayerCall("stablegp.covertree", "build", "covertree.build", _build_counts),
    LayerCall("stablegp.covertree", "separation", "covertree.metrics"),
    LayerCall("stablegp.covertree", "spatial_resolution", "covertree.metrics"),
    LayerCall(
        "stablegp.covertree", "cluster_assign", "covertree.cluster_assign",
        lambda a, r: {"pairs": len(r.labels) * len(r.counts)},
    ),
    LayerCall("stablegp.kernels", "gram", "kernels.gram", lambda a, r: _gram_entries(a)),
    LayerCall("stablegp.kernels", "gram_gradients", "kernels.gram_gradients", lambda a, r: _gram_entries(a)),
    LayerCall("stablegp.linalg", "cg_multi", "linalg.cg", _cg_multi_counts),
    LayerCall("stablegp.linalg", "conjugate_gradient", "linalg.cg", _cg_single_counts),
    LayerCall("stablegp.linalg", "cholesky", "linalg.cholesky", lambda a, r: {"jitter_max": float(r.jitter_used)}),
    LayerCall("stablegp.linalg", "cho_solve", "linalg.cho_solve", lambda a, r: {"rhs": _rhs(a["B"])}),
    LayerCall("stablegp.linalg", "spectrum", "linalg.spectrum"),
    LayerCall("stablegp.linalg", "wasserstein2_gaussians", "linalg.w2"),
    LayerCall("stablegp.sgp", "fit_clustered", "sgp.fit_clustered"),
    LayerCall("stablegp.sgp", "train", "sgp.train", lambda a, r: {"steps": len(r.history)}),
    LayerCall(
        "stablegp.sgp", "clustered_posterior", "sgp.clustered_posterior",
        lambda a, r: {"queries": _rows(r.mean)},
    ),
    LayerCall("stablegp.sgp", "exact_posterior", "sgp.exact_posterior"),
    LayerCall("stablegp.diagnostics", "stability_report", "diagnostics.stability_report", _report_values),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str
    counts: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part covered by child spans (calls nest, so they never overlap)."""
        return self.duration - self.child_time


class Tracer:
    """Records spans while recording is on; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self.recording = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for call in LAYER_CALLS:
            module = importlib.import_module(call.module)
            original = getattr(module, call.function)
            wrapper = self._wrap(original, call)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "stablegp" or name.startswith("stablegp.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration
        return span

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code (a user step)."""
        if not self.recording:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """No spans inside the block, e.g. around the benchmark's own checks."""
        recording, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = recording

    def _wrap(self, fn, call: LayerCall):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer._open(call.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer._close(idx)
            if call.counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = call.counter(bound.arguments, result)
            return result

        return traced

    def layer_totals(self, run: str) -> dict:
        """Per span name: calls, total time, self time and summed/maxed counts for one run id.

        A call nested inside a span of the same name (one layer function
        calling another under the same name) is left out, so nothing is
        counted twice.
        """
        totals: dict[str, dict] = {}
        for span in self.spans:
            if span.run != run or self._inside_same_name(span):
                continue
            t = totals.setdefault(span.name, {"calls": 0, "time": 0.0, "self_time": 0.0, "counts": {}})
            t["calls"] += 1
            t["time"] += span.duration
            t["self_time"] += span.self_time
            for key, value in span.counts.items():
                if key.endswith("_max") or key.startswith("max_"):
                    t["counts"][key] = max(t["counts"].get(key, value), value)
                elif key in ("cond_observed", "cond_bound", "cg_iteration_bound"):
                    t["counts"][key] = value
                else:
                    t["counts"][key] = t["counts"].get(key, 0) + value
        return totals

    def _inside_same_name(self, span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == span.name:
                return True
            parent = self.spans[parent].parent
        return False

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                    "run": s.run, "self_time": s.self_time, "counts": s.counts,
                }) + "\n")
