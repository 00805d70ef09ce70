"""Span tracing around triwalk's layer functions, from outside the package.

``Tracer.install`` rebinds each traced public function everywhere the
package binds it (``triwalk.evolve``, ``triwalk.analysis.evolve``,
``triwalk.cli.evolve``, ...), so calls between modules and calls from the
benchmark both pass through a wrapper that records a span.  ``uninstall``
puts the original functions back; an untraced batch runs with every
binding untouched.  Nothing under ``src/`` changes.

Spans stay in memory until ``layer_metrics`` folds them into per-layer
numbers.  A span's self time is its duration minus its child spans'
durations.  Spans nest on one stack, so traced code
must run on one thread (the benchmark runs the CLI sweep unthreaded).
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

import numpy as np

# Modules whose global names are rebound.  ``coins`` holds constructors only
# and is timed inside its callers.
MODULES = (
    "triwalk",
    "triwalk.walk",
    "triwalk.limit",
    "triwalk.kspace",
    "triwalk.analysis",
    "triwalk.cli",
)

# Minimum memory traffic of one stepping site-update: read one spinor and
# write one spinor (two complex128 each).  A computed figure, not a measured one.
BYTES_PER_SITE_STEP = 64


def _evolve_work(spin, protocol, steps):
    # evolve(T) updates 2t+1 sites at step t: sum over t < T is T^2.
    return {"site_steps": steps * steps}


def _moment_work(model, r, *, cells=None):
    # one coarse pass over ``cells`` plus one refinement pass over 2*cells
    return {"cells": 3 * (cells or _default_cells())}


def _cdf_work(model, x, *, cells=None, refine=True):
    points = int(np.size(x))
    return {"points": points, "refined_points": points if refine else 0}


def _density_work(model, x):
    return {"points": int(np.size(x))}


def _default_cells() -> int:
    return importlib.import_module("triwalk.kspace").DEFAULT_CELLS


# (span name, defining module, function, argument counter).  Span names are
# the layer metric prefixes; analysis.other groups the small reports.
TARGETS = (
    ("walk.evolve", "triwalk.walk", "evolve", _evolve_work),
    ("walk.step", "triwalk.walk", "step", None),
    ("walk.distribution", "triwalk.walk", "distribution", None),
    ("kspace.kspace_moment", "triwalk.kspace", "kspace_moment", _moment_work),
    ("kspace.limit_cdf", "triwalk.kspace", "limit_cdf", _cdf_work),
    ("kspace.pushforward_density", "triwalk.kspace", "pushforward_density", None),
    ("limit.limit_density", "triwalk.limit", "limit_density", _density_work),
    ("analysis.compare_distribution", "triwalk.analysis", "compare_distribution", None),
    ("analysis.ks_distance", "triwalk.analysis", "ks_distance", None),
    ("analysis.other", "triwalk.analysis", "compare_walk", None),
    ("analysis.other", "triwalk.analysis", "gap_mass", None),
    ("analysis.other", "triwalk.analysis", "mirror_asymmetry", None),
    ("analysis.other", "triwalk.walk", "empirical_moment", None),
    ("cli.main", "triwalk.cli", "main", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: int | None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unit: int | None = None
        self._stack: list[int] = []  # indices of the open spans
        self._restore: list[tuple[object, str, object]] = []
        self._seen_grids: WeakKeyDictionary = WeakKeyDictionary()

    # -- binding -------------------------------------------------------
    def install(self) -> None:
        """Start a batch: drop old spans, wrap every binding of each target."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.spans = []
        self._stack = []
        wrappers = {}
        for name, module, attr, work in TARGETS:
            original = getattr(importlib.import_module(module), attr)
            wrappers[id(original)] = (original, self._wrap(name, original, work))
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []

    # -- recording -----------------------------------------------------
    def _wrap(self, name, fn, work):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            counts = work(*args, **kwargs) if work is not None else {}
            if name == "kspace.limit_cdf":
                counts["cold_calls"] = tracer._first_grid_use(args[0], kwargs)
            span = Span(name, 0.0, 0.0, parent, tracer.unit, counts)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def _first_grid_use(self, model, kwargs) -> int:
        cells = kwargs.get("cells") or _default_cells()
        seen = self._seen_grids.setdefault(model, set())
        if cells in seen:
            return 0
        seen.add(cells)
        return 1

    # -- aggregation -----------------------------------------------------
    def self_times(self) -> list[float]:
        # One stack: children nest inside their parent and never overlap.
        out = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                out[span.parent] -= span.end - span.start
        return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Fold the recorded spans of one batch into per-layer metrics."""
    names = {name for name, *_ in TARGETS}
    m: dict[str, float] = {}
    for name in names:
        m[f"{name}.calls"] = 0
        m[f"{name}.self_s"] = 0.0
    for key in (
        "walk.evolve.site_steps",
        "kspace.kspace_moment.cells",
        "kspace.limit_cdf.points",
        "kspace.limit_cdf.refined_points",
        "kspace.limit_cdf.cold_calls",
        "limit.limit_density.points",
    ):
        m[key] = 0
    m["kspace.limit_cdf.cold_s"] = 0.0
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        m[f"{span.name}.calls"] += 1
        m[f"{span.name}.self_s"] += self_s
        for key, value in span.counts.items():
            m[f"{span.name}.{key}"] += value
        if span.counts.get("cold_calls"):
            m["kspace.limit_cdf.cold_s"] += self_s
    steps = m["walk.evolve.site_steps"]
    seconds = m["walk.evolve.self_s"]
    m["walk.evolve.site_steps_per_s"] = steps / seconds if seconds > 0 else 0.0
    m["walk.evolve.bytes_computed"] = BYTES_PER_SITE_STEP * steps
    return m
