"""Spans around calls into topospec's layers, recorded from the benchmark.

A traced pass replaces topospec's public functions with wrappers that
record a span (name, start, end, parent) per call.  ``spectrum`` and
``cli`` bind names such as ``wrapping_numeric`` or ``reconstruct`` at
import time, so a wrapper is installed in every topospec module namespace
that binds the function, not only in the defining module.  Spans stay in
memory and are written once, when the run ends.  Calls made inside pool
workers are never recorded, so traced passes run with one worker.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from topospec.fields import GridSpec

# Span name of each wrapped function, keyed by (defining module, attribute).
# Span names are the layer metrics' prefixes.
FUNCTIONS = {
    ("topospec.basis", "build_basis"): "basis.build_basis",
    ("topospec.fields", "classify_map"): "fields.classify_map",
    ("topospec.fields", "term_field"): "fields.build",
    ("topospec.fields", "triple_field"): "fields.build",
    ("topospec.invariants", "canonical_field"): "fields.build",
    ("topospec.invariants", "wrapping_numeric"): "invariants.wrapping_numeric",
    ("topospec.invariants", "singularity_class"): "invariants.singularity_class",
    ("topospec.invariants", "singularity_class_label"): "invariants.singularity_class",
    ("topospec.invariants", "wrapping_analytic_d3"): "invariants.analytic",
    ("topospec.invariants", "wrapping_analytic_triple"): "invariants.analytic",
    ("topospec.invariants", "wrapping_analytic_usual"): "invariants.analytic",
    ("topospec.spectrum", "compute_spectrum"): "spectrum.compute_spectrum",
    ("topospec.spectrum", "dependency_scan"): "spectrum.dependency_scan",
    ("topospec.spectrum", "write_spectrum_csv"): "spectrum.artifacts",
    ("topospec.spectrum", "write_spectrum_json"): "spectrum.artifacts",
    ("topospec.tomography", "write_coincidences_csv"): "spectrum.artifacts",
    ("topospec.tomography", "save_density"): "spectrum.artifacts",
    ("topospec.tomography", "simulate_coincidences"): "tomography.simulate",
    ("topospec.tomography", "metrics"): "tomography.metrics",
    ("topospec.tomography", "spectrum_from_density"): "tomography.spectrum_from_density",
    ("topospec.tomography", "reconstruct"): "tomography.reconstruct",
    ("topospec.cli", "main"): "cli.main",
    ("topospec.states", "make_state"): "states",
    ("topospec.states", "inject_subspace"): "states",
    ("topospec.states", "sample_perturbation"): "states",
    ("topospec.states", "load_state"): "states",
    ("topospec.states", "save_state"): "states",
}

# UnitField.evaluate is left unwrapped: its time is part of fields.unit.
METHODS = {
    ("topospec.fields", "UnitField", "unit"): "fields.unit",
    ("topospec.fields", "TermField", "evaluate"): "fields.term_eval",
}

# Per-layer metric name -> (unit, source).  Sources: ("self", span) is the
# summed self time of a span name, ("calls", span) its call count,
# ("count", key) a counter read from call arguments or results, and
# ("pass", key) a figure the harness computes from whole passes.
LAYER_METRICS = {
    "fields.unit.calls": ("count", ("calls", "fields.unit")),
    "fields.unit.self_s": ("s", ("self", "fields.unit")),
    "fields.unit.points": ("count", ("count", "fields.unit.points")),
    "fields.term_eval.calls": ("count", ("calls", "fields.term_eval")),
    "fields.term_eval.self_s": ("s", ("self", "fields.term_eval")),
    "fields.classify_map.calls": ("count", ("calls", "fields.classify_map")),
    "fields.classify_map.self_s": ("s", ("self", "fields.classify_map")),
    "fields.build.self_s": ("s", ("self", "fields.build")),
    "basis.build_basis.calls": ("count", ("calls", "basis.build_basis")),
    "basis.build_basis.self_s": ("s", ("self", "basis.build_basis")),
    "invariants.wrapping_numeric.calls": ("count", ("calls", "invariants.wrapping_numeric")),
    "invariants.wrapping_numeric.self_s": ("s", ("self", "invariants.wrapping_numeric")),
    "invariants.doublings": ("count", ("count", "invariants.doublings")),
    "invariants.singular_maps": ("count", ("count", "invariants.singular_maps")),
    "invariants.nonconverged_maps": ("count", ("count", "invariants.nonconverged_maps")),
    "invariants.singularity_class.self_s": ("s", ("self", "invariants.singularity_class")),
    "invariants.analytic.calls": ("count", ("calls", "invariants.analytic")),
    "invariants.analytic.self_s": ("s", ("self", "invariants.analytic")),
    "spectrum.compute_spectrum.calls": ("count", ("calls", "spectrum.compute_spectrum")),
    "spectrum.compute_spectrum.self_s": ("s", ("self", "spectrum.compute_spectrum")),
    "spectrum.parallel_efficiency": ("ratio", ("pass", "parallel_efficiency")),
    "spectrum.dependency_scan.self_s": ("s", ("self", "spectrum.dependency_scan")),
    "spectrum.artifacts_s": ("s", ("self", "spectrum.artifacts")),
    "tomography.simulate.self_s": ("s", ("self", "tomography.simulate")),
    "tomography.metrics.self_s": ("s", ("self", "tomography.metrics")),
    "tomography.spectrum_from_density.self_s": ("s", ("self", "tomography.spectrum_from_density")),
    "tomography.reconstruct.calls": ("count", ("calls", "tomography.reconstruct")),
    "tomography.reconstruct.self_s": ("s", ("self", "tomography.reconstruct")),
    "tomography.reconstruct.iterations": ("count", ("count", "tomography.reconstruct.iterations")),
    "tomography.s_per_iteration": ("s", ("pass", "s_per_iteration")),
    "cli.main.self_s": ("s", ("self", "cli.main")),
    "states.calls": ("count", ("calls", "states")),
    "states.self_s": ("s", ("self", "states")),
    "other.self_s": ("s", ("pass", "other")),
    "trace.wall_s": ("s", ("pass", "traced_wall")),
    "trace.overhead_frac": ("ratio", ("pass", "overhead_frac")),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level


class Recorder:
    """In-memory span list plus counters fed from call arguments and results."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Duration of each span name minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, covered):
            out[s.name] += (s.end - s.start) - c
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [[s.name, s.start, s.end, s.parent]
                                 for s in self.spans],
                       "counters": dict(self.counters)}, fh)
            fh.write("\n")


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_unit(rec: Recorder, args, kwargs, result) -> None:
    r = _arg(args, kwargs, 1, "r")
    phi = _arg(args, kwargs, 2, "phi")
    rec.counters["fields.unit.points"] += np.size(r) * np.size(phi)


def _count_wrapping(rec: Recorder, args, kwargs, result) -> None:
    grid = _arg(args, kwargs, 1, "grid") or GridSpec()
    rec.counters["invariants.doublings"] += math.log2(result.n_r_used / grid.n_r)
    rec.counters["invariants.singular_maps"] += bool(result.singular)
    rec.counters["invariants.nonconverged_maps"] += not result.converged


def _count_reconstruct(rec: Recorder, args, kwargs, result) -> None:
    rec.counters["tomography.reconstruct.iterations"] += result.n_iter


COUNTERS = {
    "fields.unit": _count_unit,
    "invariants.wrapping_numeric": _count_wrapping,
    "tomography.reconstruct": _count_reconstruct,
}


def _wrap(fn, name: str, rec: Recorder):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if counter is not None:
            counter(rec, args, kwargs, result)
        return result

    return wrapper


def _topospec_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "topospec" or key.startswith("topospec."))]


@contextmanager
def traced(rec: Recorder):
    """Install span wrappers for the duration of the block, then restore."""
    saved = []
    try:
        modules = _topospec_modules()
        for (modname, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = _wrap(original, name, rec)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for (modname, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[modname], cls_name)
            original = vars(cls)[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, _wrap(original, name, rec))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(rec: Recorder, passes: dict[str, float]) -> dict[str, tuple]:
    """Every per-layer metric of a traced pass: name -> (value, unit).

    passes holds the whole-pass figures: the traced wall, the untraced
    single-worker and pool walls, and the pool size.  The ``other``
    remainder is the traced wall minus every span's self time, so the
    self times plus ``other`` add up to the traced wall.
    """
    selfs = rec.self_times()
    calls = rec.calls()
    wall = passes["traced_wall"]
    iterations = rec.counters.get("tomography.reconstruct.iterations", 0.0)
    derived = {
        "traced_wall": wall,
        "other": wall - sum(selfs.values()),
        "overhead_frac": wall / passes["untraced_wall_1"] - 1.0,
        "parallel_efficiency": passes["untraced_wall_1"]
        / (passes["workers"] * passes["untraced_wall_pool"]),
        "s_per_iteration": (selfs.get("tomography.reconstruct", 0.0) / iterations
                            if iterations else 0.0),
    }
    tables = {"self": selfs, "calls": calls, "count": rec.counters,
              "pass": derived}
    return {metric: (float(tables[kind].get(key, 0)), unit)
            for metric, (unit, (kind, key)) in LAYER_METRICS.items()}
