"""Outside-in span tracer for the traced run.

Wraps public entry points of the program's layers at the names their
callers resolve (a module attribute for functions imported by name, the
class attribute for methods) and records one span per call: name, start,
end, parent span and the id of the benchmark operation (one read or one
write batch) the call belongs to.  Spans stay in memory; the caller writes
them out when the run ends.  Nothing is installed inside ``src/``: every
wrapper is put in by :meth:`Tracer.install` and taken out by
:meth:`Tracer.remove`.
"""

from __future__ import annotations

import collections
import functools
import inspect
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# Span record fields (a list per span, so finishing a span is one store).
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        #: per-operation counters (op id -> name -> amount)
        self.counts: Dict[int, Dict[str, float]] = {}
        #: op id -> index of its root span
        self.roots: Dict[int, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[Any, str, Any]] = []
        #: cross-thread hand-off: (op id, parent span index) of statements
        #: submitted to the query service, oldest first.
        self._handoff: "collections.deque[Tuple[int, int]]" = \
            collections.deque()

    # ----------------------------------------------------------- recording
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.op = None
        return stack

    def _open(self, name: str, parent: Optional[int] = None,
              op: Optional[int] = None) -> int:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if op is None:
            op = self._local.op
        record = [name, time.perf_counter(), None, parent, op]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def begin_op(self, op: int, name: str) -> int:
        """Open the root span of one benchmark operation on this thread."""
        self._stack()
        self._local.op = op
        index = self.roots[op] = self._open(name, op=op)
        return index

    def end_op(self, index: int) -> None:
        self._close(index)
        self._local.op = None

    def hand_off(self, op: int, parent: int) -> None:
        """The next statement a service worker picks up was submitted
        under span ``parent`` of ``op``: link it back to that read.
        Clients keep one statement in flight, so hand-offs are taken in
        submission order."""
        with self._lock:
            self._handoff.append((op, parent))

    def count(self, name: str, amount: float) -> None:
        op = getattr(self._local, "op", None)
        if op is None:
            return
        with self._lock:
            bucket = self.counts.setdefault(op, {})
            bucket[name] = bucket.get(name, 0) + amount

    # ------------------------------------------------------------ wrapping
    def _wrapper(self, original: Callable, name: str,
                 counter: Optional[Callable[[tuple, Any], Dict[str, float]]],
                 adopt: bool) -> Callable:
        tracer = self

        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def gen_wrapper(*args, **kwargs):
                iterator = original(*args, **kwargs)
                while True:
                    index = tracer._open(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    yield item
            return gen_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = op = None
            adopted = False
            if adopt and not stack:
                # A worker thread picking up a handed-off statement.
                with tracer._lock:
                    link = (tracer._handoff.popleft() if tracer._handoff
                            else None)
                if link is not None:
                    op, parent = link
                    tracer._local.op = op
                    adopted = True
            index = tracer._open(name, parent=parent, op=op)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
                if adopted:
                    tracer._local.op = None
            if counter is not None:
                for key, amount in counter(args, result).items():
                    tracer.count(key, amount)
            return result
        return wrapper

    def wrap(self, owner: Any, attr: str, name: str,
             counter: Optional[Callable[[tuple, Any],
                                       Dict[str, float]]] = None,
             adopt: bool = False) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, name, counter, adopt))

    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics name."""
        from repro import api, pyramid
        from repro.core.dgf import handler
        from repro.core.dgf.handler import DgfIndexHandler
        from repro.delta.compact import Compactor
        from repro.delta.store import DeltaBinding
        from repro.delta.writer import StreamingWriter
        from repro.hdfs.filesystem import HDFSReader, HDFSWriter
        from repro.hive import exec as hexec
        from repro.hive import session
        from repro.hive.session import HiveSession
        from repro.kvstore.hbase import KVStore
        from repro.mapreduce.engine import MapReduceEngine
        from repro.pyramid import decompose
        from repro.service.cache import GfuMetadataCache

        self.wrap(api, "bind_parameters", "api.bind")
        self.wrap(session, "parse", "hiveql.parse")
        self.wrap(hexec, "analyze", "hive.analyze")
        self.wrap(HiveSession, "execute", "hive.execute", adopt=True)
        self.wrap(DgfIndexHandler, "plan_access", "dgf.plan")
        self.wrap(handler, "search_grid", "dgf.search_grid")
        self.wrap(pyramid, "decompose_region", "pyramid.cover",
                  counter=lambda _args, cover: {
                      "pyramid.probes": cover.probes if cover else 0})
        self.wrap(decompose, "cover_box", "pyramid.cover")
        self.wrap(pyramid, "resolve_cover", "pyramid.cover")
        self.wrap(GfuMetadataCache, "lookup", "cache")
        self.wrap(GfuMetadataCache, "fill", "cache")
        # Physical gets per operation (the store's own stats are global).
        self.wrap(KVStore, "get", "kvstore",
                  counter=lambda _args, _value: {"kvstore.gets": 1})
        self.wrap(KVStore, "multi_get", "kvstore",
                  counter=lambda args, _found: {
                      "kvstore.gets": len(args[1])})
        self.wrap(KVStore, "scan", "kvstore")
        self.wrap(KVStore, "put", "kvstore")
        self.wrap(MapReduceEngine, "run", "mapreduce.job")
        for method in ("read", "pread"):
            self.wrap(HDFSReader, method, "hdfs.read")
        self.wrap(HDFSWriter, "write", "hdfs.write")
        self.wrap(StreamingWriter, "flush", "delta.flush")
        self.wrap(Compactor, "run", "delta.compact")
        self.wrap(DeltaBinding, "build_overlay", "delta.merge")

    def remove(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------ analysis
    def self_times(self) -> List[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def to_json(self) -> Dict[str, Any]:
        return {"fields": ["name", "start", "end", "parent", "op"],
                "spans": self.spans}
