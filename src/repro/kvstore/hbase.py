"""A minimal HBase: ordered string keys, regions, gets/puts/scans.

DGFIndex stores one ``GFUKey -> GFUValue`` pair per grid-file unit here
(the paper uses HBase 0.94).  What matters for the reproduction is (a) an
ordered keyspace with range scans, (b) per-operation accounting that the
cost model converts into the "read index" part of the paper's stacked bars,
and (c) region splitting so the store scales like HBase does.

Values are arbitrary Python objects; sizes for accounting use the engine's
serialized-size estimator.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import KVStoreError
from repro.mapreduce.cost import KVStats

DEFAULT_MAX_REGION_KEYS = 100_000
#: rows a scan materializes per lock acquisition.
DEFAULT_SCAN_BATCH = 256


@dataclass
class Region:
    """A contiguous key range served together (HBase region)."""

    start_key: str  # inclusive; "" = open start
    keys: List[str] = field(default_factory=list)       # sorted
    values: Dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.keys)


class KVStore:
    """Sorted key-value store with HBase-flavoured operations.

    Point operations (get/put/contains/delete) are serialized by a lock so
    concurrent statements under the query service — a streaming flush or
    an index build putting GFU entries while other statements read them —
    never corrupt the region lists or race on the op counters.  ``multi_get`` and ``scan`` take the lock
    once per *batch* rather than per key, so a scan observes a consistent
    region layout for each batch even while concurrent puts split regions
    between batches.

    ``stats`` counts **physical** operations only.  Layers that answer
    reads from a cache call :meth:`note_cached_gets` instead, which replays
    the per-query ``kv.gets`` trace counter (the *logical* accounting that
    the cost model and the differential harness consume) without touching
    ``stats`` — see :mod:`repro.service.cache`.

    Write listeners (:meth:`add_write_listener`) observe every ``put`` and
    ``delete`` by key, *after* the store's lock has been released, so a
    listener may take its own locks without creating an ordering cycle.
    """

    def __init__(self, max_region_keys: int = DEFAULT_MAX_REGION_KEYS):
        if max_region_keys < 2:
            raise KVStoreError("max_region_keys must be >= 2")
        self.max_region_keys = max_region_keys
        self._regions: List[Region] = [Region(start_key="")]
        self.stats = KVStats()
        #: optional :class:`repro.obs.trace.Tracer`; when set, each op also
        #: lands as a ``kv.*`` counter on the calling thread's active span.
        self.tracer = None
        #: optional :class:`repro.faults.FaultInjector`; when set, every
        #: operation first passes a transient-timeout gate that may retry
        #: (with simulated backoff) or raise
        #: :class:`~repro.errors.KVStoreTimeout`.
        self.faults = None
        self._lock = threading.RLock()
        self._write_listeners: List[Callable[[str], None]] = []

    def _trace_op(self, name: str, amount: int = 1) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.add(name, amount)

    def _fault_gate(self, op: str, key: str) -> None:
        """Injected-timeout gate, run *before* the physical operation.

        Timing out before any store work keeps ``stats`` (physical op
        counts) identical with faults on or off: a timed-out attempt did
        no work, and the successful retry does exactly the fault-free
        run's single operation.  Retries surface as ``fault.*`` counters
        on the active span; exhaustion raises
        :class:`~repro.errors.KVStoreTimeout`.
        """
        faults = self.faults
        if faults is None:
            return
        retries = faults.kv_gate(op, key)
        if retries:
            self._trace_op("fault.kv_timeouts", retries)
            self._trace_op("fault.kv_retries", retries)

    # ----------------------------------------------------------- listeners
    def add_write_listener(self, listener: Callable[[str], None]) -> None:
        """Call ``listener(key)`` after every put/delete (cache coherence)."""
        self._write_listeners.append(listener)

    def _notify_write(self, key: str) -> None:
        for listener in self._write_listeners:
            listener(key)

    def note_cached_gets(self, amount: int) -> None:
        """Replay ``amount`` logical gets answered by a cache layer.

        Feeds the calling thread's active trace span only — never
        ``stats`` — so per-query accounting (and therefore simulated
        times) is identical whether a read was physical or cached, while
        ``stats`` keeps measuring real store traffic.
        """
        if amount:
            self._trace_op("kv.gets", amount)

    # --------------------------------------------------------------- regions
    @property
    def regions(self) -> List[Region]:
        return list(self._regions)

    def _region_for(self, key: str) -> Region:
        starts = [r.start_key for r in self._regions]
        idx = bisect.bisect_right(starts, key) - 1
        return self._regions[max(idx, 0)]

    def _maybe_split(self, region: Region) -> None:
        if len(region) <= self.max_region_keys:
            return
        mid = len(region.keys) // 2
        right_keys = region.keys[mid:]
        right = Region(start_key=right_keys[0], keys=right_keys,
                       values={k: region.values.pop(k) for k in right_keys})
        del region.keys[mid:]
        idx = self._regions.index(region)
        self._regions.insert(idx + 1, right)

    # ------------------------------------------------------------------- ops
    def put(self, key: str, value: Any) -> None:
        if not isinstance(key, str):
            raise KVStoreError(f"keys must be strings, got {type(key)}")
        self._fault_gate("put", key)
        with self._lock:
            region = self._region_for(key)
            if key not in region.values:
                bisect.insort(region.keys, key)
            region.values[key] = value
            self.stats.puts += 1
            self._maybe_split(region)
        self._trace_op("kv.puts")
        self._notify_write(key)

    def put_all(self, items: Dict[str, Any]) -> None:
        for key, value in items.items():
            self.put(key, value)

    def get(self, key: str) -> Optional[Any]:
        self._fault_gate("get", key)
        self._trace_op("kv.gets")
        with self._lock:
            self.stats.gets += 1
            return self._region_for(key).values.get(key)

    def multi_get(self, keys) -> Dict[str, Any]:
        """Batch get; missing keys are omitted from the result.

        One lock acquisition covers the whole batch; every probed key
        (present or not) counts as one get, exactly as the per-key loop
        it replaces did.
        """
        keys = list(keys)
        if keys:
            self._fault_gate("multi_get", keys[0])
        out: Dict[str, Any] = {}
        with self._lock:
            self.stats.gets += len(keys)
            for key in keys:
                value = self._region_for(key).values.get(key)
                if value is not None:
                    out[key] = value
        if keys:
            self._trace_op("kv.gets", len(keys))
        return out

    def delete(self, key: str) -> bool:
        self._fault_gate("delete", key)
        with self._lock:
            region = self._region_for(key)
            if key not in region.values:
                return False
            del region.values[key]
            idx = bisect.bisect_left(region.keys, key)
            del region.keys[idx]
        self._notify_write(key)
        return True

    def contains(self, key: str) -> bool:
        self._fault_gate("get", key)
        self._trace_op("kv.gets")
        with self._lock:
            self.stats.gets += 1
            return key in self._region_for(key).values

    def scan(self, start_key: str = "", stop_key: Optional[str] = None,
             batch_size: int = DEFAULT_SCAN_BATCH
             ) -> Iterator[Tuple[str, Any]]:
        """Yield ``(key, value)`` for start_key <= key < stop_key, in order.

        Rows are fetched in batches of ``batch_size``, each under one lock
        acquisition, and the scan resumes *by key* after every batch.  A
        region split between batches therefore cannot skip or duplicate
        rows (the resume key is independent of region boundaries), and
        within a batch the layout is consistent.  ``rows_scanned`` is
        counted per fetched batch, so abandoning a scan mid-batch may
        count up to one batch of unconsumed rows.
        """
        if batch_size < 1:
            raise KVStoreError(f"batch_size must be >= 1, got {batch_size}")
        next_key = start_key
        while True:
            self._fault_gate("scan", next_key)
            batch: List[Tuple[str, Any]] = []
            with self._lock:
                for region in self._regions:
                    if stop_key is not None and region.start_key >= stop_key:
                        break
                    lo = bisect.bisect_left(region.keys, next_key)
                    for key in region.keys[lo:]:
                        if stop_key is not None and key >= stop_key:
                            break
                        batch.append((key, region.values[key]))
                        if len(batch) >= batch_size:
                            break
                    if len(batch) >= batch_size:
                        break
                self.stats.rows_scanned += len(batch)
            if batch:
                self._trace_op("kv.rows_scanned", len(batch))
            yield from batch
            if len(batch) < batch_size:
                return
            # Resume strictly after the last yielded key; "\x00" is the
            # smallest possible key suffix.
            next_key = batch[-1][0] + "\x00"

    def count(self) -> int:
        return sum(len(r) for r in self._regions)

    def keys(self) -> List[str]:
        out: List[str] = []
        for region in self._regions:
            out.extend(region.keys)
        return out

    def snapshot_stats(self) -> KVStats:
        return KVStats(self.stats.gets, self.stats.puts,
                       self.stats.rows_scanned)

    def stats_delta(self, earlier: KVStats) -> KVStats:
        return KVStats(self.stats.gets - earlier.gets,
                       self.stats.puts - earlier.puts,
                       self.stats.rows_scanned - earlier.rows_scanned)
