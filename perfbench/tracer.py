"""Span tracing of devgraph from outside the package.

`Tracer.installed()` replaces every public module-level function of the
devgraph modules, in every devgraph module that binds it, with a wrapper
that records a span. Calls that cross modules therefore nest: for example
connectivity.group_matrix -> connectivity.null_ratio_matrix ->
connectivity.rewire_null_model. The package's own files stay unchanged and
the original functions are restored on exit.

Each operation is one root span on the `cli` layer, so the self times of
all spans of an operation add up to its duration, and `cli.self_s` is the
operation time that no other layer's span covers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import tracemalloc
import types
from contextlib import contextmanager

LAYERS = ("synth", "ingest", "expansion", "graph", "community", "connectivity",
          "diffusion", "perception", "intervention", "demographics", "cli")

# Called once per log row: a span each would mostly measure the wrapper.
UNWRAPPED = frozenset({"ingest.normalize_query", "ingest.blog_id_from_url"})

# Work counts taken at span boundaries: span name -> (metric, count(args, result)).
# `args` holds the call's bound arguments with defaults applied.
COUNTERS = {
    "ingest.aggregate_blog_hits": (
        "ingest.records_scanned", lambda a, r: len(a["records"])),
    # Attempts are not observable from outside the loop; every call makes
    # swaps_per_edge * edges of them, so the count is computed.
    "connectivity.rewire_null_model": (
        "connectivity.swap_attempts.computed",
        lambda a, r: a["swaps_per_edge"] * a["g"].n_edges(a["layer"])),
    "diffusion.read_events_tsv": ("diffusion.events_read", lambda a, r: len(r)),
    "diffusion.build_trees": ("diffusion.trees", lambda a, r: len(r)),
}

ROOT = "cli.op"


def devgraph_modules() -> list[types.ModuleType]:
    import devgraph
    return [importlib.import_module(f"devgraph.{info.name}")
            for info in pkgutil.iter_modules(devgraph.__path__)]


class Span:
    __slots__ = ("id", "op", "name", "layer", "parent", "start", "end",
                 "child_s", "count", "base", "peak")

    def __init__(self, id, op, name, layer, parent):
        self.id, self.op, self.name, self.layer, self.parent = id, op, name, layer, parent
        self.start = self.end = self.child_s = 0.0
        self.count = None
        self.base = self.peak = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def peak_alloc(self) -> int:
        return self.peak - self.base

    def as_dict(self) -> dict:
        return {"id": self.id, "op": self.op, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "self_s": self.self_s,
                "count": self.count, "peak_alloc": self.peak_alloc}


class Tracer:
    """Records spans in memory. With `alloc=True` it also tracks, per span,
    the peak of tracemalloc-traced memory above the span's starting point
    (tracemalloc must be running); use that mode in a separate pass, since
    allocation tracing slows the spans it measures."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = None
        self._next_id = 0

    # -- span bookkeeping -----------------------------------------------

    def _enter(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        span = Span(self._next_id, self._op, name, layer,
                    parent.id if parent else None)
        if self.alloc:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            span.base = span.peak = current
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self.alloc:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += span.duration
            parent.peak = max(parent.peak, span.peak)
        self.spans.append(span)

    @contextmanager
    def operation(self, op):
        """Root span of one operation; yields it so the caller can read
        its duration after the block."""
        self._op = op
        span = self._enter(ROOT, "cli")
        try:
            yield span
        finally:
            self._exit(span)
            self._op = None

    # -- patching -------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.count = counter[1](bound.arguments, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        modules = devgraph_modules()
        wrappers: dict[int, object] = {}
        patched: list[tuple[types.ModuleType, str, object]] = []
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or not fn.__module__.startswith("devgraph.")):
                    continue
                layer = fn.__module__.split(".", 1)[1]
                name = f"{layer}.{fn.__name__}"
                if name in UNWRAPPED:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, name, layer)
                patched.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])
        try:
            yield self
        finally:
            for mod, attr, fn in patched:
                setattr(mod, attr, fn)


def summarize(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-operation means over `ops` operations: self time and call count
    per layer and per function, work counts, and inclusive peak allocation
    per layer (the largest over its spans, in MB)."""
    totals: dict[str, float] = {}
    for layer in LAYERS:
        totals[f"{layer}.self_s"] = totals[f"{layer}.calls"] = 0
    peak: dict[str, int] = {layer: 0 for layer in LAYERS}
    for s in spans:
        for key in (s.layer, s.name):
            totals[f"{key}.self_s"] = totals.get(f"{key}.self_s", 0) + s.self_s
            if s.name != ROOT:
                totals[f"{key}.calls"] = totals.get(f"{key}.calls", 0) + 1
        if s.count is not None:
            metric = COUNTERS[s.name][0]
            totals[metric] = totals.get(metric, 0) + s.count
        peak[s.layer] = max(peak[s.layer], s.peak_alloc)
    out = {key: value / ops for key, value in totals.items()}
    for layer in LAYERS:
        out[f"{layer}.peak_alloc_mb"] = peak[layer] / 2**20
    return out
