"""QueryService: bounded admission + worker scheduling over one session.

The ROADMAP's north star is a catalog serving heavy interactive traffic;
the paper's DGFIndex makes each MDRQ cheap, and this layer lets many of
them run at once.  A :class:`QueryService` owns a pool of worker threads
(``max_workers``, default 1) that drain a **bounded** admission queue of
submitted statements:

* ``submit()`` enqueues a statement and returns a
  :class:`concurrent.futures.Future`; when the queue is full it either
  raises :class:`~repro.errors.ServiceOverloadedError` (the default,
  load-shedding behaviour) or blocks for a slot (``block=True``).
* ``execute()`` / ``run_all()`` are the blocking conveniences.

Determinism: each worker wraps its statement in
:func:`repro.hdfs.metrics.task_io_scope`, so the session's shared
``fs.io`` counters are updated once per statement under the merge lock
instead of racing on the bare ``+=`` hot path, and the tracer's span
stacks are already per-thread.  Every per-query observable — rows, stats,
simulated seconds, normalized trace — is therefore byte-identical whether
a statement ran alone or interleaved with others (the differential
harness, ``tests/harness/differential.py``, asserts this at concurrency
1/4/8 with the GFU cache on and off).

Concurrency contract: SELECT / EXPLAIN statements may run concurrently
without restriction.  DDL and data loading mutate the shared metastore
and filesystem; submit those from one logical writer at a time (exactly
HBase/Hive's own single-master metadata discipline).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Sequence

from repro.errors import (ServiceClosedError, ServiceDegradedError,
                          ServiceOverloadedError)
from repro.hdfs.metrics import task_io_scope

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids import cycle
    from repro.hive.session import HiveSession, QueryOptions, QueryResult

DEFAULT_QUEUE_DEPTH = 64

#: worker shutdown marker (cannot collide with a submitted item).
_STOP = object()


@dataclass
class _Submission:
    sql: Any
    options: Optional["QueryOptions"]
    future: Future
    enqueued_at: float


@dataclass(frozen=True)
class ServiceStatus:
    """Partial-availability snapshot (:meth:`QueryService.status`).

    ``state`` is ``"available"`` or ``"degraded"``; ``availability`` is
    the fraction of recent statements that succeeded (1.0 until the
    first statement finishes).
    """

    state: str
    availability: float
    window_ok: int
    window_error: int
    queue_depth: int

    @property
    def degraded(self) -> bool:
        return self.state == "degraded"


class QueryService:
    """Admits statements into a bounded queue and runs them on workers.

    One service serves one :class:`~repro.hive.session.HiveSession`; the
    session's GFU-metadata cache (when enabled) is what makes the fan-out
    cheap — after the first query warms it, concurrent MDRQs plan without
    touching the KV store.
    """

    def __init__(self, session: "HiveSession",
                 max_workers: int = 1,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 degraded_error_window: int = 16,
                 degraded_error_threshold: float = 0.5,
                 shed_when_degraded: bool = False):
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if degraded_error_window < 1:
            raise ValueError("degraded_error_window must be >= 1")
        if not 0.0 < degraded_error_threshold <= 1.0:
            raise ValueError("degraded_error_threshold must be in (0, 1]")
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.session = session
        self.max_workers = max_workers
        self.queue_depth = queue_depth
        #: degradation tracking: the service is "degraded" while the error
        #: fraction over the last ``degraded_error_window`` finished
        #: statements reaches ``degraded_error_threshold``.  With
        #: ``shed_when_degraded`` a degraded service refuses new work with
        #: :class:`~repro.errors.ServiceDegradedError` (a *transient*
        #: error: the window recovers as healthy statements finish).
        self.degraded_error_window = degraded_error_window
        self.degraded_error_threshold = degraded_error_threshold
        self.shed_when_degraded = shed_when_degraded
        self._recent: "deque[bool]" = deque(maxlen=degraded_error_window)
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=queue_depth)
        self._closed = False
        self._lock = threading.Lock()
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"query-service-{i}", daemon=True)
            for i in range(max_workers)]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------ metrics
    def _metrics(self):
        return self.session.metrics

    def _note_depth(self) -> None:
        self._metrics().gauge(
            "service_queue_depth",
            "statements waiting in the admission queue").set(
                self._queue.qsize())

    # ----------------------------------------------------------- admission
    def submit(self, sql: Any, options: Optional["QueryOptions"] = None,
               block: bool = False) -> "Future[QueryResult]":
        """Admit one statement; returns a Future for its QueryResult.

        With ``block=False`` (default) a full queue sheds load by raising
        :class:`ServiceOverloadedError`; ``block=True`` waits for a slot.
        """
        if self._closed:
            raise ServiceClosedError("query service is closed")
        if self.shed_when_degraded and self.degraded:
            self._metrics().counter(
                "service_degraded_rejects_total",
                "statements shed while the service was degraded").inc()
            raise ServiceDegradedError(
                f"service degraded: recent error rate reached "
                f"{self.degraded_error_threshold:.0%}; retry after the "
                "window recovers")
        item = _Submission(sql=sql, options=options, future=Future(),
                           enqueued_at=time.perf_counter())
        try:
            self._queue.put(item, block=block)
        except queue.Full:
            self._metrics().counter(
                "service_rejected_total",
                "statements shed because the admission queue was "
                "full").inc()
            raise ServiceOverloadedError(
                f"admission queue full ({self.queue_depth} pending); "
                "retry later or submit with block=True")
        self._note_depth()
        return item.future

    def execute(self, sql: Any,
                options: Optional["QueryOptions"] = None) -> "QueryResult":
        """Blocking submit-and-wait (admission waits for a slot too)."""
        return self.submit(sql, options, block=True).result()

    def run_all(self, statements: Iterable[Any]) -> List["QueryResult"]:
        """Submit many statements and return their results in input order.

        Entries may be plain SQL strings or ``(sql, options)`` pairs.
        Statements execute concurrently across the worker pool; the
        returned list order matches the submission order regardless.
        """
        futures: List[Future] = []
        for statement in statements:
            if (isinstance(statement, tuple) and len(statement) == 2):
                sql, options = statement
            else:
                sql, options = statement, None
            futures.append(self.submit(sql, options, block=True))
        return [future.result() for future in futures]

    # -------------------------------------------------------------- workers
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            self._note_depth()
            wait = time.perf_counter() - item.enqueued_at
            self._metrics().histogram(
                "service_queue_wait_seconds",
                "wall seconds a statement waited for a worker").observe(
                    wait)
            if not item.future.set_running_or_notify_cancel():
                self._count("cancelled")
                continue
            try:
                # One I/O scope per statement: this thread's fs.io updates
                # buffer locally and merge once, so concurrent statements
                # never race on the shared counters.
                with task_io_scope():
                    result = self.session.execute(item.sql, item.options)
            except BaseException as exc:
                self._count("error")
                item.future.set_exception(exc)
            else:
                self._count("ok")
                item.future.set_result(result)

    def _count(self, status: str) -> None:
        self._metrics().counter(
            "service_queries_total",
            "statements finished by the query service").inc(status=status)
        if status in ("ok", "error"):
            with self._lock:
                self._recent.append(status == "ok")
            self._metrics().gauge(
                "service_availability",
                "fraction of recently finished statements that "
                "succeeded").set(self._availability())

    # ---------------------------------------------------------- degradation
    def _availability(self) -> float:
        with self._lock:
            if not self._recent:
                return 1.0
            return sum(self._recent) / len(self._recent)

    @property
    def degraded(self) -> bool:
        """True while the recent error fraction reaches the threshold."""
        return (1.0 - self._availability()) >= self.degraded_error_threshold

    def status(self) -> ServiceStatus:
        """Snapshot of the service's partial availability."""
        with self._lock:
            recent = list(self._recent)
        ok = sum(recent)
        total = len(recent)
        availability = ok / total if total else 1.0
        degraded = (1.0 - availability) >= self.degraded_error_threshold
        return ServiceStatus(
            state="degraded" if degraded else "available",
            availability=availability,
            window_ok=ok,
            window_error=total - ok,
            queue_depth=self._queue.qsize())

    # ------------------------------------------------------------ streaming
    def streaming_writer(self, table: str, index: str,
                         key_columns: Optional[Sequence[str]] = None,
                         **kwargs):
        """The write-side door: an admission-controlled
        :class:`~repro.delta.writer.StreamingWriter` whose ops land in the
        table's KV delta store and are merged on read by every statement
        this service runs.  ``kwargs`` pass through to the writer
        (``batch_size``, ``buffer_limit``, ``compact_threshold``, ...);
        ``shed_when_degraded`` defaults to the service's own setting so
        writes and queries shed together.
        """
        if self._closed:
            raise ServiceClosedError("query service is closed")
        from repro.delta.writer import StreamingWriter
        binding = self.session.attach_delta(table, index,
                                            key_columns=key_columns)
        kwargs.setdefault("shed_when_degraded", self.shed_when_degraded)
        return StreamingWriter(binding, service=self, **kwargs)

    # ------------------------------------------------------------ lifecycle
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, wait: bool = True) -> None:
        """Stop admitting work; drain the queue, then stop the workers."""
        with self._lock:
            if self._closed:
                workers: Sequence[threading.Thread] = ()
            else:
                self._closed = True
                workers = self._workers
                for _ in workers:
                    self._queue.put(_STOP)
        if wait:
            for worker in workers:
                worker.join()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
