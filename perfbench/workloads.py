"""The four workloads: set-up, closed-loop traffic and answer checks.

Each workload builds its warehouse with ``repro.connect()`` default knobs;
only the deployment shape is set (the HDFS block size and the cost model's
paper-to-generated data scale).  Every read is checked against a reference
computed here, in plain Python, from the generated rows; a mismatch is a
failed operation.  Reference work and checks run outside the timed
interval: their wall time is booked as ``overhead`` and taken off the
phase clock.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import gen

KiB = 1024
#: paper-scale record count the cost model is scaled to (Sec. 5.2)
PAPER_RECORDS = 11_000_000_000
REL_TOL = 1e-6


# ----------------------------------------------------------- answer checks
def _sort_key(row: Sequence[Any]) -> Tuple:
    return tuple((v is None, "" if v is None else v) for v in row)


def _same_value(want: Any, got: Any) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        if want is None or got is None:
            return False
        return math.isclose(want, got, rel_tol=REL_TOL, abs_tol=1e-9)
    return want == got


def rows_match(expected: Sequence[Sequence[Any]],
               actual: Sequence[Sequence[Any]]) -> bool:
    """Order-free comparison: rows as multisets, floats to 1e-6 relative
    (fold order differs between the program and the reference)."""
    if len(expected) != len(actual):
        return False
    for want, got in zip(sorted(expected, key=_sort_key),
                         sorted(actual, key=_sort_key)):
        if len(want) != len(got):
            return False
        if not all(_same_value(w, g) for w, g in zip(want, got)):
            return False
    return True


# ------------------------------------------------------------- bookkeeping
@dataclass
class Phase:
    """Everything one timed phase measured."""

    read_latencies: List[float] = field(default_factory=list)
    write_latencies: List[float] = field(default_factory=list)
    #: (index seconds, data seconds) of each read, in stream order
    sims: List[Tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    overhead: float = 0.0
    rows_written: int = 0
    bytes_ingested: int = 0
    space_ratio: Optional[float] = None
    totals: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def add(self, name: str, amount: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + amount

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def note_result(self, result) -> None:
        stats = result.stats
        self.sims.append((stats.time.read_index_and_other,
                          stats.time.read_data_and_process))
        self.add("records_read", stats.records_read)
        self.add("records_matched", stats.records_matched)
        self.add("bytes_read", stats.bytes_read)
        self.add("splits", stats.splits_processed)
        access = result.plan.access if result.plan is not None else None
        if access is not None:
            self.add("inner_gfus", access.inner_gfus)
            self.add("boundary_gfus", access.boundary_gfus)


class Clock:
    """Phase clock that excludes reference and check work."""

    def __init__(self, phase: Phase, seconds: float):
        self.phase = phase
        self.seconds = seconds
        self.start = time.perf_counter()

    def measured(self) -> float:
        return time.perf_counter() - self.start - self.phase.overhead

    def running(self) -> bool:
        return self.measured() < self.seconds

    def outside(self, fn: Callable[[], Any]) -> Any:
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.phase.overhead += time.perf_counter() - t0

    def stop(self) -> None:
        self.phase.elapsed = self.measured()


class NullTracer:
    """Stand-in for :class:`tracer.Tracer` in untraced runs."""

    def begin_op(self, op: int, name: str) -> None:
        return None

    def end_op(self, index) -> None:
        pass

    def hand_off(self, op, parent) -> None:
        pass


def space_ratio(conn, table: str) -> float:
    """Serialized KV bytes (index, pyramid, deltas, metadata) per byte of
    the base table's HDFS files."""
    import pickle
    session = conn.session
    kv_bytes = sum(len(key) + len(pickle.dumps(value, protocol=4))
                   for key, value in session.kvstore.scan(""))
    location = session.metastore.get_table(table).data_location
    return kv_bytes / session.fs.total_size(location)


def serial_reads(conn, seconds: float, tracer, query) -> Phase:
    """One client, closed loop: run the statements ``query()`` returns as
    ``(sql, parameters, reference)`` on the calling thread, one at a time,
    checking each answer."""
    phase = Phase()
    clock = Clock(phase, seconds)
    op = 0
    while clock.running():
        sql, params, reference = query()
        expected = clock.outside(reference)
        op += 1
        phase.attempted += 1
        root = tracer.begin_op(op, "read")
        t0 = time.perf_counter()
        try:
            result = conn.execute(sql, params)
        except Exception as exc:  # a failed read is counted, not fatal
            tracer.end_op(root)
            phase.fail(f"{sql} {params}: {exc!r}")
            continue
        phase.read_latencies.append(time.perf_counter() - t0)
        tracer.end_op(root)
        phase.note_result(result)
        if not clock.outside(lambda: rows_match(expected, result.rows)):
            phase.fail(f"wrong answer: {sql} {params}")
    clock.stop()
    return phase


# --------------------------------------------------------------- workloads
class Workload:
    name = ""
    table = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        """Empty warehouse -> ready.  Returns ``(conn, part seconds)``."""
        raise NotImplementedError

    def run(self, conn, seconds: float, tracer) -> Phase:
        raise NotImplementedError


def _timed(parts: Dict[str, float], key: str, fn: Callable[[], Any]) -> Any:
    t0 = time.perf_counter()
    result = fn()
    parts[key] = parts.get(key, 0.0) + time.perf_counter() - t0
    return result


class _MeterWorkload(Workload):
    """Shared set-up of the meter table with its 3-D DGFIndex."""

    table = "meterdata"
    base_days: Optional[int] = None

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.shape = (gen.MeterShape(users=200, days=4, user_interval=2)
                      if tiny else gen.MeterShape())
        self.data = gen.MeterData(self.shape, seed)
        days = self.base_days or self.shape.days
        self.days = [self.data.day_rows(d) for d in range(days)]
        self.rows = sum(len(d) for d in self.days)

    def setup(self):
        import repro
        from repro.hdfs.filesystem import HDFS
        parts: Dict[str, float] = {}
        conn = repro.connect(data_scale=PAPER_RECORDS / self.rows,
                             fs=HDFS(block_size=64 * KiB))

        def load():
            conn.execute(gen.METER_DDL)
            conn.execute(gen.USERINFO_DDL)
            # One file per ~third of the month, as collection days arrive.
            step = max(1, self.shape.days // 3)
            for first in range(0, len(self.days), step):
                conn.load_rows("meterdata", [r for d in self.days[first:
                                                               first + step]
                                             for r in d])
            conn.load_rows("userinfo", self.data.user_rows)
        _timed(parts, "load_s", load)
        _timed(parts, "index_build_s",
               lambda: conn.execute(self.shape.index_ddl()))
        parts["pyramid_build_s"] = 0.0
        return conn, parts


class MdrqMix(_MeterWorkload):
    """The paper's Listings 4-6 at point / ~5% / ~12% selectivity."""

    name = "mdrq_mix"
    sim_reads = 45

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.stream = gen.mdrq_stream(self.shape, seed)
        # Reference index: per user, (region, day, ts, power) readings.
        self.by_user: List[List[Tuple[int, int, str, float]]] = [
            [] for _ in range(self.shape.users)]
        for d, rows in enumerate(self.days):
            for row in rows:
                self.by_user[row[0]].append((row[1], d, row[2], row[3]))

    def reference(self, q: gen.RangeQuery) -> List[Tuple]:
        lo, hi = q.users
        users = range(lo, lo + 1) if q.point else range(lo, hi)
        r0, r1 = q.regions
        d0, d1 = q.days
        hits = [(u, ts, power) for u in users for region, d, ts, power
                in self.by_user[u]
                if r0 <= region <= r1 and d0 <= d <= d1]
        if q.kind == "agg":
            return [(math.fsum(p for _, _, p in hits) if hits else None,)]
        if q.kind == "groupby":
            sums: Dict[str, List[float]] = {}
            for _, ts, power in hits:
                sums.setdefault(ts, []).append(power)
            return [(ts, math.fsum(v)) for ts, v in sums.items()]
        return [(f"user_{u:08d}", power) for u, _, power in hits]

    def run(self, conn, seconds: float, tracer) -> Phase:
        def query():
            q = next(self.stream)
            return q.sql(), None, lambda: self.reference(q)
        return serial_reads(conn, seconds, tracer, query)


class PointLookup(_MeterWorkload):
    """Single-meter single-day MDRQs with ``?`` placeholders.

    Statements run inline: through the query service, the hand-off
    between threads put a wake-up tail of several milliseconds on reads
    of about 3 ms, which swung the 95th percentile by 28% between runs on
    a shared machine.  ``ingest`` reads still go through the service."""

    name = "point_lookup"
    sim_reads = 200

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.keys = gen.point_stream(self.shape, seed)
        self.power: Dict[Tuple[int, str], float] = {}
        for rows in self.days:
            for row in rows:
                key = (row[0], row[2])
                self.power[key] = self.power.get(key, 0.0) + row[3]

    def run(self, conn, seconds: float, tracer) -> Phase:
        def query():
            key = next(self.keys)
            return gen.POINT_SQL, key, lambda: [(self.power[key],)]
        return serial_reads(conn, seconds, tracer, query)


class GridAgg(Workload):
    """Header-only aggregation windows over a fine 2-D grid + pyramid."""

    name = "grid_agg"
    table = "cells"
    sim_reads = 100

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.shape = gen.GridShape(side=16) if tiny else gen.GridShape()
        self.stream = gen.window_stream(self.shape, seed)
        self.cells = gen.grid_rows(self.shape, seed)
        self.rows = len(self.cells)
        n = self.shape.side
        # 2-D prefix sums for O(1) window references.
        self.prefix = [[0.0] * (n + 1) for _ in range(n + 1)]
        for u, t, v in self.cells:
            self.prefix[u + 1][t - 100 + 1] = v
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                self.prefix[i][j] += (self.prefix[i - 1][j]
                                      + self.prefix[i][j - 1]
                                      - self.prefix[i - 1][j - 1])

    def reference(self, w: gen.Window) -> List[Tuple]:
        p = self.prefix
        total = (p[w.u1 + 1][w.t1 + 1] - p[w.u0][w.t1 + 1]
                 - p[w.u1 + 1][w.t0] + p[w.u0][w.t0])
        return [(total, (w.u1 - w.u0 + 1) * (w.t1 - w.t0 + 1))]

    def setup(self):
        import repro
        parts: Dict[str, float] = {}
        conn = repro.connect(data_scale=1.0)

        def load():
            conn.execute(gen.GRID_DDL)
            conn.load_rows("cells", self.cells)
        _timed(parts, "load_s", load)
        _timed(parts, "index_build_s",
               lambda: conn.execute(self.shape.index_ddl()))
        _timed(parts, "pyramid_build_s",
               lambda: conn.session.build_pyramid("cells", "grid_idx"))
        return conn, parts

    def run(self, conn, seconds: float, tracer) -> Phase:
        def query():
            w = next(self.stream)
            return w.sql(), None, lambda: self.reference(w)
        return serial_reads(conn, seconds, tracer, query)


class Ingest(_MeterWorkload):
    """Streamed inserts beside reads of the most recent days."""

    name = "ingest"
    base_days = 6
    batch_rows = 100
    compact_threshold = 4000
    #: four full compaction cycles of reads
    sim_reads = 4 * compact_threshold // batch_rows
    #: the write batch after which ``index_space_ratio`` is taken, so it
    #: repeats exactly for a seed whatever the machine's speed
    space_batch = 60

    def __init__(self, seed: int, tiny: bool = False):
        if tiny:
            self.base_days = 2
            self.space_batch = 5
            self.compact_threshold = 400
        super().__init__(seed, tiny)
        # The stream continues across the phases of one run.
        self.reads = gen.recent_stream(self.shape, seed)
        self.next_day = len(self.days)
        self.pending: List[Tuple] = []
        self.batches = 0
        # (ts, userid) -> (sum, count) over every row flushed so far
        self.sums = gen.per_day_user(r for d in self.days for r in d)

    def _account(self, batch: List[Tuple], phase: Phase, conn) -> None:
        phase.bytes_ingested += sum(len("|".join(map(str, row))) + 1
                                    for row in batch)
        for key, (s, c) in gen.per_day_user(batch).items():
            old_s, old_c = self.sums.get(key, (0.0, 0))
            self.sums[key] = (old_s + s, old_c + c)
        if self.batches == self.space_batch:
            phase.space_ratio = space_ratio(conn, self.table)

    def reference(self, u0: int, u1: int, days: range) -> List[Tuple]:
        total, count = [], 0
        for d in days:
            ts = gen.day(d)
            for u in range(u0, u1):
                s, c = self.sums.get((ts, u), (0.0, 0))
                if c:
                    total.append(s)
                    count += c
        return [(math.fsum(total) if count else None, count)]

    def run(self, conn, seconds: float, tracer) -> Phase:
        phase = Phase()
        clock = Clock(phase, seconds)
        writer = conn.service.streaming_writer(
            "meterdata", "dgf_idx", batch_size=self.batch_rows,
            compact_threshold=self.compact_threshold)
        binding = conn.session.delta_binding("meterdata")
        op = 0
        # End on a compaction: every phase then holds whole cycles of
        # delta growth, so throughput does not depend on where the clock
        # stopped within one.
        while clock.running() or binding.resident_ops:
            if not self.pending:
                self.pending = clock.outside(
                    lambda: self.data.day_rows(self.next_day))
                self.next_day += 1
            batch = self.pending[:self.batch_rows]
            self.pending = self.pending[self.batch_rows:]
            op += 1
            phase.attempted += 1
            root = tracer.begin_op(op, "write")
            t0 = time.perf_counter()
            try:
                writer.insert(batch)
            except Exception as exc:
                tracer.end_op(root)
                phase.fail(f"insert batch {op}: {exc!r}")
                break  # later reads could not have a reference
            phase.write_latencies.append(time.perf_counter() - t0)
            tracer.end_op(root)
            if writer.pending_ops:
                phase.fail(f"insert batch {op} left ops unflushed")
                break
            phase.rows_written += len(batch)
            self.batches += 1
            clock.outside(lambda: self._account(batch, phase, conn))

            # Read the two latest days, the newest still arriving.
            last = gen.date_offset(batch[-1][2])
            u0, u1 = next(self.reads)
            sql = ("SELECT sum(powerconsumed), count(*) FROM meterdata "
                   f"WHERE userid >= {u0} AND userid < {u1} AND "
                   f"ts >= '{gen.day(last - 1)}' AND ts <= '{gen.day(last)}'")
            expected = clock.outside(
                lambda: self.reference(u0, u1, range(last - 1, last + 1)))
            phase.add("resident_ops", binding.resident_ops)
            op += 1
            phase.attempted += 1
            root = tracer.begin_op(op, "read")
            tracer.hand_off(op, root)
            t0 = time.perf_counter()
            try:
                result = conn.execute(sql)
            except Exception as exc:
                tracer.end_op(root)
                phase.fail(f"{sql}: {exc!r}")
                continue
            phase.read_latencies.append(time.perf_counter() - t0)
            tracer.end_op(root)
            phase.note_result(result)
            if not clock.outside(lambda: rows_match(expected, result.rows)):
                phase.fail(f"wrong answer: {sql}")
        clock.stop()
        reports = writer.compactions
        phase.add("compactions", len(reports))
        phase.add("folded_cells", sum(r.folded_cells for r in reports))
        phase.add("rewritten_cells", sum(r.rewritten_cells for r in reports))
        return phase


WORKLOADS = {cls.name: cls for cls in (MdrqMix, GridAgg, PointLookup, Ingest)}
