"""Spans and counters recorded around the public entry points of each layer.

The benchmark traces the program from the outside: :func:`install` wraps
the public calls of each ``repro`` layer module (``sim``, ``mprsf``,
``controller``, ``retention``, ``workloads``, ``model``, ``circuit``,
``runner``) with a span or a counter, and rebinds every module-level
name that refers to the original, so callers that imported the name
directly see the wrapper too.  Nothing under ``src/`` changes.

A span has a name, a start and end (``time.monotonic``, system-wide on
Linux, so spans from two processes share one time base), a parent span
and a query key.  The parent is the innermost open span of the same
thread; a span opened on an empty stack (the service's dispatcher thread
computing a cell) takes as parent the client span linked to its query
key, which is how work done in another thread is attributed to the query
that caused it.  Spans stay in memory until :meth:`Tracer.dump`.

A span's self time is its duration minus the part of its interval that
its children cover; children may run on other threads and may overlap,
so the covered part is the measure of the union of their intervals.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Optional


@dataclass
class Span:
    """One timed call at a layer boundary."""

    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    key: Optional[str] = None
    thread: int = 0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span and counter recorder, safe to use from many threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._links: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, key: Optional[str] = None) -> Span:
        """Start a span under the innermost open span of this thread."""
        stack = self._stack()
        if stack:
            parent = stack[-1].id
            key = key if key is not None else stack[-1].key
        else:
            parent = self._links.get(key) if key is not None else None
        span = Span(
            id=next(self._ids),
            name=name,
            start=time.monotonic(),
            parent=parent,
            key=key,
            thread=threading.get_ident(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        """End ``span``; it must be the innermost open span of this thread."""
        span.end = time.monotonic()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def link(self, key: str, span: Span) -> None:
        """Make ``span`` the parent of root spans later opened for ``key``."""
        with self._lock:
            self._links[key] = span.id

    def count(self, name: str) -> None:
        """Add one to counter ``name``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + 1

    def dump(self) -> dict:
        """Spans and counters as JSON primitives."""
        with self._lock:
            return {
                "spans": [asdict(s) for s in self.spans],
                "counters": dict(self.counters),
            }


# --------------------------------------------------------------------- #
# Self-time arithmetic                                                   #
# --------------------------------------------------------------------- #


def covered(interval: tuple[float, float], parts: Iterable[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in parts if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[dict]) -> dict[int, float]:
    """Span id → duration minus the part its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered((s["start"], s["end"]), children.get(s["id"], ()))
        for s in spans
    }


def merge(*span_lists: list[dict]) -> list[dict]:
    """Spans of several processes as one list, their ids made unique.

    Every tracer numbers its spans from 1, so each list after the first
    is shifted past the largest id seen so far.
    """
    merged: list[dict] = []
    offset = 0
    for spans in span_lists:
        merged += [
            dict(s, id=s["id"] + offset,
                 parent=None if s["parent"] is None else s["parent"] + offset)
            for s in spans
        ]
        offset = max((s["id"] for s in merged), default=0)
    return merged


def layer_totals(spans: Iterable[dict]) -> dict[str, dict[str, float]]:
    """Per span name: summed self time, inclusive time, calls and attrs.

    ``calls`` counts only spans whose parent is not a span of the same
    name, so a layer call that re-enters its own layer (``build_policy``
    dispatching to ``MECHANISMS.build``) counts once.
    """
    spans = list(spans)
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        entry = out.setdefault(s["name"], {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        entry["self_s"] += selfs[s["id"]]
        parent = by_id.get(s["parent"])
        if parent is None or parent["name"] != s["name"]:
            entry["calls"] += 1
            entry["total_s"] += s["end"] - s["start"]
            for attr, value in s["attrs"].items():
                entry[attr] = entry.get(attr, 0) + value
    return out


# --------------------------------------------------------------------- #
# Wrapping the layers                                                    #
# --------------------------------------------------------------------- #


def _trace_len(trace) -> int:
    return 0 if trace is None else len(trace)


def _span_wrapper(tracer: Tracer, name: str, fn: Callable,
                  attrs: Optional[Callable[[tuple, dict, Any], dict]] = None,
                  key: Optional[Callable[[tuple, dict], Optional[str]]] = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name, key(args, kwargs) if key is not None else None)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            tracer.close(span)

    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn: Callable):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global that is ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer with ``tracer``.

    Methods are wrapped on their class, module functions are rebound in
    every loaded ``repro`` module.  Call once per process, after the
    ``repro`` modules are imported.
    """
    from repro.circuit import BatchedCircuitSession, CircuitSession
    from repro.controller import registry
    from repro.controller.refresh import build_policy
    from repro.model.trfc import RefreshLatencyModel
    from repro.mprsf import MPRSFCalculator, TauPartialOptimizer
    from repro.retention import RefreshBinning, RetentionProfiler
    from repro.retention.vrt import VRTModel
    from repro.runner import ExperimentRunner, cache_key
    from repro.runner.cells import compute_cell
    from repro.sim import BankSimulator, RefreshOverheadEvaluator
    from repro.workloads import TraceGenerator

    def batch_key(args, kwargs):
        cells = args[1] if len(args) > 1 else kwargs.get("cells", ())
        keys = {cache_key(c.kind, c.params) for c in cells}
        return keys.pop() if len(keys) == 1 else None

    methods = [
        (BankSimulator, "run", "sim.engine",
         lambda a, k, r: {"requests": _trace_len(k.get("trace", a[1] if len(a) > 1 else None))}),
        (RefreshOverheadEvaluator, "evaluate", "sim.timeline", None),
        (MPRSFCalculator, "mprsf_for_rows", "mprsf.rows", None),
        (TauPartialOptimizer, "evaluate", "mprsf.optimizer", None),
        (registry.MechanismRegistry, "build", "controller.build", None),
        (RetentionProfiler, "profile", "retention.profile", None),
        (RefreshBinning, "assign", "retention.binning", None),
        (VRTModel, "integrity_report", "retention.vrt", None),
        (TraceGenerator, "generate", "workloads.trace",
         lambda a, k, r: {"requests": _trace_len(r)}),
        (CircuitSession, "simulate", "circuit.solve", lambda a, k, r: {"lanes": 1}),
        (BatchedCircuitSession, "simulate_batch", "circuit.solve",
         lambda a, k, r: {"lanes": 0 if r is None else int(r.n_lanes)}),
    ]
    for cls, attr, name, attrs in methods:
        original = cls.__dict__[attr]
        if getattr(original, "__wrapped_by_perfbench__", False):
            raise RuntimeError("perfbench tracing is already installed")
        setattr(cls, attr, _span_wrapper(tracer, name, original, attrs))
    ExperimentRunner.run = _span_wrapper(
        tracer, "runner.run", ExperimentRunner.__dict__["run"], key=batch_key
    )
    RefreshLatencyModel.restored_fraction = _count_wrapper(
        tracer, "model.restored_fraction", RefreshLatencyModel.__dict__["restored_fraction"]
    )
    _rebind(build_policy, _span_wrapper(tracer, "controller.build", build_policy))
    _rebind(compute_cell, _span_wrapper(
        tracer, "runner.cell", compute_cell,
        key=lambda a, k: cache_key(a[0], a[1]) if len(a) > 1 else None,
    ))
