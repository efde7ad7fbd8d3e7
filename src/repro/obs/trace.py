"""Structured tracing of the query lifecycle (the span API).

A :class:`Span` is one named node in a tree covering part of a query's
execution: it carries string/number *attributes* (facts decided once, e.g.
the chosen index handler), integer *counters* (facts accumulated while the
span is open, e.g. bytes read), an optional *simulated* duration (the cost
model's paper-scale :class:`~repro.mapreduce.cost.TimeBreakdown`) and a
measured *wall* duration.  The session opens a root ``query`` span per
SELECT, the engine opens per-job/per-phase/per-task spans beneath it, and
the HDFS/KV-store layers feed op counters into whichever span is active on
the calling thread.

Thread model: mirrors :func:`repro.hdfs.metrics.task_io_scope`.  Each
thread has its own active-span stack (``threading.local``), so counter
updates never race: a task records only into the span it activated on its
own thread, and statements the query service runs concurrently never
share a span.  Task spans are *not* attached to the tree when they open;
the engine attaches them at its phase barrier, in task order and after
that task's fault spans, so a trace is a pure function of the executed
work once wall times are normalized away (:meth:`Trace.normalized`).

The JSON form (:meth:`Trace.to_json`) is versioned and documented
field-by-field in ``docs/observability.md``; :func:`validate_trace` checks
an emitted document against that schema.
"""

from __future__ import annotations

import json
import time
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.mapreduce.cost import TimeBreakdown

#: schema identifier embedded in every emitted trace document.
TRACE_SCHEMA = "dgf-repro/trace"
#: bump on any incompatible change to the document layout.
TRACE_VERSION = 1

#: fault/recovery observability rides on the v1 schema instead of extending
#: it: injected faults appear as ordinary child spans whose names start with
#: this prefix (``fault:task_crash``, ``fault:replica_failover``, ...) and
#: as counters starting with :data:`FAULT_COUNTER_PREFIX`.  Stripping both
#: (:meth:`Trace.normalized` with ``strip_faults=True``) recovers the exact
#: fault-free trace, which is how the chaos harness compares runs.
FAULT_SPAN_PREFIX = "fault:"
FAULT_COUNTER_PREFIX = "fault."

#: vectorized-execution observability rides on the v1 schema the same way:
#: batch-engine progress appears as counters starting with this prefix
#: (``vector.batches``, ``vector.fallback_rows``) plus a ``vectorized``
#: attribute on scan/map spans.  :func:`strip_vector_data` removes both,
#: recovering the trace the row engine would have emitted — which is how
#: the vector differential harness compares the two modes.
VECTOR_COUNTER_PREFIX = "vector."
VECTOR_ATTR = "vectorized"

#: pyramid observability rides on the v1 schema the same way: the handler's
#: pyramid read path opens one ``dgf.pyramid`` span (physical node fetches
#: plus ``pyramid.*`` counters), and maintenance work traces under
#: ``pyramid:``-prefixed spans (``pyramid:build``, ``pyramid:refresh``,
#: ``pyramid:demote``).  :func:`strip_pyramid_data` removes all of it,
#: recovering the trace the flat header path would have emitted — which is
#: how the pyramid differential harness compares the two modes.
PYRAMID_SPAN = "dgf.pyramid"
PYRAMID_SPAN_PREFIX = "pyramid:"
PYRAMID_COUNTER_PREFIX = "pyramid."

Number = Union[int, float]


@dataclass
class Span:
    """One node of a trace tree."""

    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, Number] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: simulated (paper-scale) duration; None when the span only measures.
    sim: Optional[TimeBreakdown] = None

    # ------------------------------------------------------------- recording
    def set(self, name: str, value: Any) -> None:
        """Set an attribute (a one-shot fact about this span)."""
        self.attrs[name] = value

    def add(self, name: str, amount: Number = 1) -> None:
        """Increment a counter (an accumulated fact)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def attach(self, child: "Span") -> None:
        """Append a finished child span (the engine's barrier merge)."""
        self.children.append(child)

    def event(self, name: str, **attrs: Any) -> "Span":
        """Attach a zero-duration child span recording a point event.

        Fault injections and recoveries use this with a ``fault:``-prefixed
        name so the chaos harness can strip them back out.
        """
        child = Span(name=name, attrs=dict(attrs))
        self.attach(child)
        return child

    # ------------------------------------------------------------ inspection
    def child(self, name: str) -> Optional["Span"]:
        """First direct child with the given name, or None."""
        for span in self.children:
            if span.name == name:
                return span
        return None

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, document order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in document order (self included)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def total_counter(self, name: str) -> Number:
        """Sum of one counter over this span and all descendants."""
        return sum(span.counters.get(name, 0) for span in self.walk())

    def children_sim_sum(self) -> TimeBreakdown:
        """Fold the direct children's simulated times, in document order.

        Uses the exact accumulation the session uses for
        ``QueryStats.time``, so a root span's own ``sim`` reconciles with
        this sum bit-for-bit (±0), not merely approximately.
        """
        acc = TimeBreakdown()
        for child in self.children:
            if child.sim is not None:
                acc = acc + child.sim
        return acc

    # ------------------------------------------------------------------ JSON
    def to_dict(self) -> Dict[str, Any]:
        sim = None
        if self.sim is not None:
            sim = {"read_index_and_other": self.sim.read_index_and_other,
                   "read_data_and_process": self.sim.read_data_and_process,
                   "total": self.sim.total}
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "sim_seconds": sim,
            "wall_seconds": self.wall_seconds,
            "children": [c.to_dict() for c in self.children],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Span":
        sim = data.get("sim_seconds")
        breakdown = None
        if sim is not None:
            breakdown = TimeBreakdown(
                read_index_and_other=sim["read_index_and_other"],
                read_data_and_process=sim["read_data_and_process"])
        return Span(
            name=data["name"],
            attrs=dict(data.get("attrs", {})),
            counters=dict(data.get("counters", {})),
            children=[Span.from_dict(c) for c in data.get("children", [])],
            wall_seconds=data.get("wall_seconds", 0.0),
            sim=breakdown)


class _NullSpan(Span):
    """Shared sink for disabled tracers; absorbs writes, stores nothing."""

    def __init__(self):
        super().__init__(name="null")

    def set(self, name: str, value: Any) -> None:
        pass

    def add(self, name: str, amount: Number = 1) -> None:
        pass

    def attach(self, child: "Span") -> None:
        pass

    def event(self, name: str, **attrs: Any) -> "Span":
        return self


NULL_SPAN = _NullSpan()


class Tracer:
    """Creates spans and tracks the per-thread active span.

    ``span()`` opens a child of the current thread's active span (or a
    detached root when none is active); ``task_span()`` opens a span that
    is *never* auto-attached — the engine's phase barrier attaches task
    spans in task order, after each task's fault spans, and a crashed
    attempt's span is simply never attached.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._tls = threading.local()

    # ----------------------------------------------------------- span stack
    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        """The calling thread's innermost open span, or None."""
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a span under the current thread's active span."""
        if not self.enabled:
            yield NULL_SPAN
            return
        span = Span(name=name, attrs=dict(attrs))
        stack = self._stack()
        if stack:
            stack[-1].attach(span)
        stack.append(span)
        started = time.perf_counter()
        try:
            yield span
        finally:
            span.wall_seconds = time.perf_counter() - started
            stack.pop()

    @contextmanager
    def task_span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a detached span (for MapReduce task attempts).

        The span becomes the calling thread's active span, but it is not
        attached to any parent; the caller attaches it deterministically
        after the phase barrier (see ``MapReduceEngine``).
        """
        if not self.enabled:
            yield NULL_SPAN
            return
        span = Span(name=name, attrs=dict(attrs))
        stack = self._stack()
        stack.append(span)
        started = time.perf_counter()
        try:
            yield span
        finally:
            span.wall_seconds = time.perf_counter() - started
            stack.pop()

    # ------------------------------------------------------------- counters
    def add(self, name: str, amount: Number = 1) -> None:
        """Increment a counter on the calling thread's active span.

        A no-op when tracing is disabled or no span is open (e.g. data
        loading outside any query) — instrumented layers can call this
        unconditionally.
        """
        stack = getattr(self._tls, "stack", None)
        if stack:
            counters = stack[-1].counters
            counters[name] = counters.get(name, 0) + amount


#: shared disabled tracer for components constructed without a session.
NULL_TRACER = Tracer(enabled=False)


@dataclass
class Trace:
    """A finished span tree plus its (de)serialization and rendering."""

    root: Span

    # ------------------------------------------------------------------ JSON
    def to_dict(self) -> Dict[str, Any]:
        return {"schema": TRACE_SCHEMA, "version": TRACE_VERSION,
                "root": self.root.to_dict()}

    def to_json(self, indent: Optional[int] = None) -> str:
        """Stable serialization: sorted keys, preserved child order."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @staticmethod
    def from_json(text: str) -> "Trace":
        data = json.loads(text)
        validate_trace(data)
        return Trace(root=Span.from_dict(data["root"]))

    def normalized(self, strip_faults: bool = False) -> Dict[str, Any]:
        """The trace document with every wall time zeroed.

        Wall durations depend on the host and thread scheduling; everything
        else (names, attributes, counters, simulated times, child order) is
        a pure function of the executed work, so the normalized document is
        byte-identical across runs, engine modes and service
        concurrency.

        With ``strip_faults=True`` the fault observability layer is removed
        as well (``fault:*`` spans, ``fault.*`` counters), producing the
        trace the same run would have emitted with no faults injected —
        the "traces modulo fault spans" form the chaos harness compares.
        """
        def scrub(node: Dict[str, Any]) -> Dict[str, Any]:
            node = dict(node)
            node["wall_seconds"] = 0.0
            node["children"] = [scrub(c) for c in node["children"]]
            return node

        data = self.to_dict()
        if strip_faults:
            data["root"] = strip_fault_data(data["root"])
        data["root"] = scrub(data["root"])
        return data

    def normalized_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.normalized(), sort_keys=True, indent=indent)

    # ------------------------------------------------------------ rendering
    def render(self, include_wall: bool = False) -> str:
        """ASCII tree, one line per span (the EXPLAIN ANALYZE body)."""
        lines: List[str] = []
        self._render(self.root, "", "", lines, include_wall)
        return "\n".join(lines)

    def _render(self, span: Span, lead: str, child_lead: str,
                lines: List[str], include_wall: bool) -> None:
        parts = [span.name]
        parts.extend(f"{k}={v}" for k, v in span.attrs.items())
        if span.sim is not None:
            parts.append(f"[sim {span.sim.total:.3f}s"
                         f" idx={span.sim.read_index_and_other:.3f}"
                         f" data={span.sim.read_data_and_process:.3f}]")
        if include_wall:
            parts.append(f"[wall {span.wall_seconds * 1e3:.2f}ms]")
        parts.extend(f"{k}={v}" for k, v in sorted(span.counters.items()))
        lines.append(lead + " ".join(parts))
        for index, child in enumerate(span.children):
            last = index == len(span.children) - 1
            branch = "`- " if last else "|- "
            extend = "   " if last else "|  "
            self._render(child, child_lead + branch, child_lead + extend,
                         lines, include_wall)


# ----------------------------------------------------------- fault stripping
def strip_fault_data(node: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of a span-document subtree without fault observability.

    Drops every child span whose name starts with
    :data:`FAULT_SPAN_PREFIX` and every counter whose name starts with
    :data:`FAULT_COUNTER_PREFIX`, recursively.  Applied to a chaos run's
    trace this recovers the byte-identical fault-free document, because
    all fault/recovery reporting is confined to those two namespaces.
    """
    node = dict(node)
    node["counters"] = {k: v for k, v in node["counters"].items()
                        if not k.startswith(FAULT_COUNTER_PREFIX)}
    node["children"] = [strip_fault_data(c) for c in node["children"]
                        if not c["name"].startswith(FAULT_SPAN_PREFIX)]
    return node


def strip_vector_data(node: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of a span-document subtree without vector observability.

    Drops every counter whose name starts with
    :data:`VECTOR_COUNTER_PREFIX` and the :data:`VECTOR_ATTR` attribute,
    recursively.  Applied to a vectorized run's trace this recovers the
    byte-identical row-engine document, because the batch engine reports
    its progress only through those two namespaces.
    """
    node = dict(node)
    node["attrs"] = {k: v for k, v in node["attrs"].items()
                     if k != VECTOR_ATTR}
    node["counters"] = {k: v for k, v in node["counters"].items()
                        if not k.startswith(VECTOR_COUNTER_PREFIX)}
    node["children"] = [strip_vector_data(c) for c in node["children"]]
    return node


def strip_pyramid_data(node: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of a span-document subtree without pyramid observability.

    Drops every child span named :data:`PYRAMID_SPAN` or starting with
    :data:`PYRAMID_SPAN_PREFIX`, and every counter starting with
    :data:`PYRAMID_COUNTER_PREFIX`, recursively.  Applied to a
    pyramid-accelerated run's trace this recovers the byte-identical
    flat-header document, because the pyramid reports its work only
    through those namespaces (the logical per-query accounting —
    ``kv.gets``, ``gfus``, simulated times — is replayed unchanged).
    """
    node = dict(node)
    node["counters"] = {k: v for k, v in node["counters"].items()
                        if not k.startswith(PYRAMID_COUNTER_PREFIX)}
    node["children"] = [strip_pyramid_data(c) for c in node["children"]
                        if c["name"] != PYRAMID_SPAN
                        and not c["name"].startswith(PYRAMID_SPAN_PREFIX)]
    return node


# ------------------------------------------------------------------- schema
def _fail(path: str, message: str) -> None:
    raise ValueError(f"invalid trace at {path}: {message}")


def _validate_span(node: Any, path: str) -> None:
    if not isinstance(node, dict):
        _fail(path, f"span must be an object, got {type(node).__name__}")
    expected = {"name", "attrs", "counters", "sim_seconds", "wall_seconds",
                "children"}
    missing = expected - set(node)
    extra = set(node) - expected
    if missing:
        _fail(path, f"missing fields {sorted(missing)}")
    if extra:
        _fail(path, f"unknown fields {sorted(extra)}")
    if not isinstance(node["name"], str) or not node["name"]:
        _fail(path, "name must be a non-empty string")
    if not isinstance(node["attrs"], dict):
        _fail(path, "attrs must be an object")
    if not isinstance(node["counters"], dict):
        _fail(path, "counters must be an object")
    for key, value in node["counters"].items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            _fail(path, f"counter {key!r} must be a number")
    sim = node["sim_seconds"]
    if sim is not None:
        if not isinstance(sim, dict) or set(sim) != {
                "read_index_and_other", "read_data_and_process", "total"}:
            _fail(path, "sim_seconds must have exactly read_index_and_other,"
                        " read_data_and_process, total")
        for key, value in sim.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                _fail(path, f"sim_seconds.{key} must be a number")
    wall = node["wall_seconds"]
    if not isinstance(wall, (int, float)) or isinstance(wall, bool):
        _fail(path, "wall_seconds must be a number")
    if not isinstance(node["children"], list):
        _fail(path, "children must be an array")
    for index, child in enumerate(node["children"]):
        _validate_span(child, f"{path}.children[{index}]")


def validate_trace(data: Any) -> None:
    """Raise ``ValueError`` unless ``data`` is a valid v1 trace document.

    The authoritative field-by-field description lives in
    ``docs/observability.md``; this validator enforces it.
    """
    if not isinstance(data, dict):
        _fail("$", "document must be an object")
    if set(data) != {"schema", "version", "root"}:
        _fail("$", "document must have exactly schema, version, root")
    if data["schema"] != TRACE_SCHEMA:
        _fail("$.schema", f"expected {TRACE_SCHEMA!r}, got {data['schema']!r}")
    if data["version"] != TRACE_VERSION:
        _fail("$.version", f"expected {TRACE_VERSION}, "
                           f"got {data['version']!r}")
    _validate_span(data["root"], "$.root")
