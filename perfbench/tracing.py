"""Spans around stratmc's public entry points, installed from outside the library.

The tracer replaces module attributes (``bench.run``, ``estimators.derivative_grid``,
``lattice.Stream.offsets``, ...) with wrappers that record one span per call:
target name, start, end, parent span and a few per-call attributes such as
rows drawn or cells covered.  Spans stay in memory and are written as JSONL
when the run ends.  A target that no longer exists fails installation, and a
target a workload expects but never reached fails the run, so a refactor that
moves a call shows up as an error instead of a layer reading zero.

Each span's target maps to a layer named after the module it belongs to; the
layer's self time is its span durations minus the part covered by child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc

import numpy as np

from stratmc import bench, estimators, lattice, replicate, transform
from stratmc.lattice import GridSpec

MIB = 1024.0 * 1024.0

ESTIMATOR_NAMES = ("crude_mc", "haber1", "haber2", "estimate_analytic_cv",
                   "estimate_paired_cv", "estimate_single_cv", "estimate_vanishing")


class TraceError(RuntimeError):
    """A traced name is missing, or an expected span never fired."""


def _grid_in(args, kwargs) -> GridSpec | None:
    for value in (*args, *kwargs.values()):
        if isinstance(value, GridSpec):
            return value
    return None


def _cells(args, kwargs) -> dict:
    grid = _grid_in(args, kwargs)
    return {"cells": grid.n_centres if grid is not None else 0}


def _offset_rows(args, kwargs) -> dict:
    stream, grid = args[0], args[1]
    indices = args[2] if len(args) > 2 else kwargs.get("indices")
    if indices is None:
        rows, request = grid.n_centres, "all"
    else:
        indices = np.asarray(indices)
        rows, request = len(indices), hash(indices.tobytes())
    return {"rows": rows,
            "key": [stream.seed, stream.replicate, grid.s, grid.k, grid.m, request]}


def points_attrs(args, kwargs) -> dict:
    return {"points": len(args[0])}


def library_targets():
    """(owner, attribute, span name, layer, attribute extractor) for every traced call.

    Names are given as the calling module references them: the estimators read
    ``centre_array`` and ``derivative_grid`` from their own module namespace,
    ``bench`` reads the estimators from its own; the benchmark's own calls go
    through ``estimators``, ``replicate`` and ``transform``.
    """
    targets = [
        (lattice.Stream, "offsets", "lattice.Stream.offsets", "lattice.offsets", _offset_rows),
        (lattice, "index_array", "lattice.index_array", "lattice.grid", None),
        (estimators, "centre_array", "estimators.centre_array", "lattice.grid", None),
        (estimators, "derivative_grid", "estimators.derivative_grid", "stencil", _cells),
        (replicate, "select_order", "replicate.select_order", "replicate", None),
        (replicate, "pooled", "replicate.pooled", "replicate", None),
        (replicate, "variance_estimate", "replicate.variance_estimate", "replicate", None),
        (bench, "run", "bench.run", "bench", None),
        (bench, "write_rows", "bench.write_rows", "bench", None),
        (transform, "laplace_reparametrize", "transform.laplace_reparametrize", "transform.laplace",
         None),
    ]
    for module in (estimators, bench):
        for name in ESTIMATOR_NAMES:
            targets.append((module, name, f"{module.__name__.split('.')[-1]}.{name}",
                            "estimators", _cells))
    return targets


class Tracer:
    """In-memory span recorder; with ``memory`` it also tracks tracemalloc peaks per span."""

    def __init__(self, memory: bool = False):
        self.spans: list[list] = []          # [name, layer, start, end, parent, attrs]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.memory = memory
        self._frames: list[list[int]] = []   # [traced bytes at open, max traced bytes]

    # -- spans ------------------------------------------------------------
    def open(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if self.memory:
            current = self._fold_peak()
            self._frames.append([current, current])
        self.spans.append([name, layer, time.perf_counter(), None, parent, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()
        if self.memory:
            self._fold_peak()
            base, top = self._frames.pop()
            if self._frames:
                self._frames[-1][1] = max(self._frames[-1][1], top)
            self.spans[sid][5] = {**(self.spans[sid][5] or {}), "peak_bytes": top - base}

    def _fold_peak(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        if self._frames:
            self._frames[-1][1] = max(self._frames[-1][1], peak)
        tracemalloc.reset_peak()
        return current

    def wrap(self, fn, name: str, layer: str, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)
                if attrs is not None:
                    tracer.spans[sid][5] = {**attrs(args, kwargs), **(tracer.spans[sid][5] or {})}

        return traced

    # -- installation -----------------------------------------------------
    def install(self, targets) -> None:
        for owner, attr, name, layer, attrs in targets:
            try:
                original = getattr(owner, attr)
            except AttributeError:
                raise TraceError(f"cannot trace {name}: {owner!r} has no attribute {attr!r}") from None
            setattr(owner, attr, self.wrap(original, name, layer, attrs))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------
    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, (name, layer, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "layer": layer, "start": start,
                                     "end": end, "parent": parent, **(attrs or {})}) + "\n")


# ---------------------------------------------------------------------------
# analysis

class SpanIndex:
    """Durations, self times and root span of every recorded span."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.dur = [end - start for _n, _l, start, end, _p, _a in spans]
        child = [0.0] * n
        self.root = list(range(n))
        self._under: dict[int, list[int]] = {}
        for sid, (_n, _l, _s, _e, parent, _a) in enumerate(spans):
            if parent >= 0:
                child[parent] += self.dur[sid]
                self.root[sid] = self.root[parent]
                self._under.setdefault(self.root[sid], []).append(sid)
        self.self_s = [d - c for d, c in zip(self.dur, child)]

    def under(self, root_id: int) -> list[int]:
        """Every span below a root span, in start order."""
        return self._under.get(root_id, [])

    def names_under(self, root_ids) -> set[str]:
        return {self.spans[sid][0] for root in root_ids for sid in self.under(root)}

    def estimate_of(self, sid: int) -> int:
        """Nearest enclosing estimator or replicate span: the estimate a draw belongs to."""
        parent = self.spans[sid][4]
        while parent >= 0 and self.spans[parent][1] not in ("estimators", "replicate"):
            parent = self.spans[parent][4]
        return parent if parent >= 0 else self.root[sid]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_layers(index: SpanIndex, pass_id: int) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    spans = index.spans
    ids = index.under(pass_id)
    by_layer: dict[str, list[int]] = {}
    for sid in ids:
        by_layer.setdefault(spans[sid][1], []).append(sid)

    def self_s(layer):
        return sum(index.self_s[sid] for sid in by_layer.get(layer, ()))

    def total(layer, key):
        return sum(spans[sid][5][key] for sid in by_layer.get(layer, ()))

    offsets = by_layer.get("lattice.offsets", [])
    rows = total("lattice.offsets", "rows")
    seen: set = set()
    redrawn = 0
    for sid in offsets:
        key = (index.estimate_of(sid), tuple(spans[sid][5]["key"]))
        if key in seen:
            redrawn += spans[sid][5]["rows"]
        seen.add(key)

    estimates = [sid for sid in by_layer.get("estimators", ())
                 if _has_ancestor(spans, sid, "bench.run")]
    points = total("integrand", "points")
    top_level = sum(index.dur[sid] for sid in ids if spans[sid][4] == pass_id)
    return {
        "lattice.offsets.calls": len(offsets),
        "lattice.offsets.rows": rows,
        "lattice.offsets.self_s": self_s("lattice.offsets"),
        "lattice.offsets.ns_per_row": 1e9 * _ratio(self_s("lattice.offsets"), rows),
        "lattice.offsets.redraw_frac": _ratio(redrawn, rows),
        "lattice.grid.calls": len(by_layer.get("lattice.grid", ())),
        "lattice.grid.self_s": self_s("lattice.grid"),
        "stencil.calls": len(by_layer.get("stencil", ())),
        "stencil.cells": total("stencil", "cells"),
        "stencil.self_s": self_s("stencil"),
        "stencil.ns_per_cell": 1e9 * _ratio(self_s("stencil"), total("stencil", "cells")),
        "estimators.calls": len(by_layer.get("estimators", ())),
        "estimators.self_s": self_s("estimators"),
        "estimators.self_ns_per_cell": 1e9 * _ratio(self_s("estimators"),
                                                    total("estimators", "cells")),
        "replicate.calls": len(by_layer.get("replicate", ())),
        "replicate.self_s": self_s("replicate"),
        "bench.estimates": len(estimates),
        "bench.self_s": self_s("bench"),
        "integrand.calls": len(by_layer.get("integrand", ())),
        "integrand.points": points,
        "integrand.points_per_call": _ratio(points, len(by_layer.get("integrand", ()))),
        "integrand.self_s": self_s("integrand"),
        "transform.self_s": self_s("transform"),
        "trace.coverage": _ratio(top_level, index.dur[pass_id]),
    }


def _has_ancestor(spans, sid: int, name: str) -> bool:
    parent = spans[sid][4]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][4]
    return False


def median_layers(index: SpanIndex, pass_ids) -> dict[str, float]:
    """Median over traced passes of every per-pass layer metric."""
    per_pass = [pass_layers(index, pid) for pid in pass_ids]
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}


def setup_layers(index: SpanIndex, setup_id: int) -> dict[str, float]:
    """Cold-start figures from the traced set-up: stencil and grid builds, Laplace fit."""
    spans = index.spans
    ids = index.under(setup_id)

    def self_s(layer):
        return sum(index.self_s[sid] for sid in ids if spans[sid][1] == layer)

    stencil = [sid for sid in ids if spans[sid][1] == "stencil"]
    return {
        "stencil.first_call_s": index.dur[stencil[0]] if stencil else 0.0,
        "stencil.cold_s": self_s("stencil"),
        "lattice.grid.cold_s": self_s("lattice.grid"),
        "transform.laplace_s": self_s("transform.laplace"),
    }


def peak_layers(spans) -> dict[str, float]:
    """Largest tracemalloc growth inside any one span of the lattice and stencil layers."""
    peaks = {"lattice.peak_mib": 0.0, "stencil.peak_mib": 0.0}
    for _name, layer, _s, _e, _p, attrs in spans:
        key = "lattice.peak_mib" if layer.startswith("lattice.") else f"{layer}.peak_mib"
        if key in peaks:
            peaks[key] = max(peaks[key], attrs["peak_bytes"] / MIB)
    return peaks


def require_names(index: SpanIndex, root_ids, expected, phase: str) -> None:
    missing = sorted(set(expected) - index.names_under(root_ids))
    if missing:
        raise TraceError(f"expected spans never fired during {phase}: {', '.join(missing)}")
