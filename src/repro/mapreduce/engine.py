"""The in-process MapReduce job runner.

Tasks run one after another on the calling thread.  Each map and reduce
task still accumulates its counters and I/O stats task-locally (see
:func:`repro.hdfs.metrics.task_io_scope`) and hands back a
:class:`_TaskOutcome`; the engine merges outcomes at each phase barrier in
deterministic order — split order for map tasks, partition order for reduce
tasks, with reduce keys processed in sorted order inside each partition.
The barrier is where fault recovery discards crashed attempts and where
task trace spans are attached, and the task-local accounting keeps
concurrent queries (the query service runs statements on several threads)
from mixing their I/O.  The parallelism of the paper's cluster is
*simulated*: the cost model's slot/wave arithmetic over the measured
per-task counters (:mod:`repro.mapreduce.cost`).
"""

from __future__ import annotations

import numbers
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import MapReduceError, TaskAttemptFailed
from repro.hdfs.filesystem import HDFS
from repro.hdfs.metrics import task_io_scope
from repro.mapreduce.counters import Counters
from repro.mapreduce.cost import TaskStats
from repro.mapreduce.job import Job, JobResult, TaskContext
from repro.obs.trace import (FAULT_COUNTER_PREFIX, FAULT_SPAN_PREFIX,
                             NULL_TRACER, VECTOR_ATTR, VECTOR_COUNTER_PREFIX,
                             Span, Tracer)


def estimate_size(obj: Any) -> int:
    """Cheap serialized-size estimate used for shuffle-byte accounting.

    Models Hadoop's writable encoding: small fixed overhead per value plus
    the payload size; containers add their elements.  Unordered containers
    (dicts, sets) sum their per-entry sizes in sorted order so the result —
    and therefore the shuffle-byte counters — is identical for any
    insertion order or hash seed.
    """
    if obj is None:
        return 1
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return 8
    if isinstance(obj, float):
        return 8
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, bytes):
        return len(obj)
    # Foreign numeric scalars (e.g. NumPy's int64/float64, which are not
    # Python ints and would otherwise fall through to the opaque-object
    # default of 16) size like their Python counterparts, so any scalar
    # that leaks out of an array fold cannot skew shuffle-byte accounting.
    if isinstance(obj, (numbers.Integral, numbers.Real)):
        return 8
    if isinstance(obj, (tuple, list)):
        return 4 + sum(estimate_size(v) for v in obj)
    if isinstance(obj, (set, frozenset)):
        return 4 + sum(sorted(estimate_size(v) for v in obj))
    if isinstance(obj, dict):
        return 4 + sum(sorted(estimate_size(k) + estimate_size(v)
                              for k, v in obj.items()))
    return 16


def stable_hash(key: Any) -> int:
    """Deterministic across processes (unlike ``hash`` on strings), so
    reorganized table layouts are identical between runs."""
    return zlib.crc32(repr(key).encode("utf-8"))


@dataclass
class _TaskOutcome:
    """Everything one task hands back to the barrier merge."""

    task_id: int
    emits: List[Tuple[Any, Any]]
    counters: Counters
    input_records: int = 0
    output_records: int = 0
    input_bytes: int = 0
    output_bytes: int = 0
    #: the task's trace span, attached to the phase span at the barrier
    #: (in task order), after any fault spans of the same task.
    span: Optional[Span] = None
    #: ``fault:*`` event spans accumulated by the recovery wrapper (crashed
    #: attempts, retries, speculation); attached before the task span at
    #: the barrier and stripped by the chaos harness's trace comparison.
    fault_spans: List[Span] = field(default_factory=list)

    def stats(self, kind: str) -> TaskStats:
        return TaskStats(task_id=self.task_id, kind=kind,
                         input_records=self.input_records,
                         output_records=self.output_records,
                         input_bytes=self.input_bytes,
                         output_bytes=self.output_bytes)


class MapReduceEngine:
    """Runs :class:`~repro.mapreduce.job.Job` objects against an HDFS."""

    def __init__(self, fs: HDFS, tracer: Optional[Tracer] = None,
                 faults=None):
        self.fs = fs
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: optional :class:`repro.faults.FaultInjector`; when set, every
        #: task runs under the bounded-retry/speculation wrapper
        #: (:meth:`_run_attempts`).
        self.faults = faults
        self.jobs_run = 0
        # Concurrent queries (the query service) may call run() from many
        # threads at once; the counter increment must not lose updates.
        self._jobs_run_lock = threading.Lock()

    def run(self, job: Job) -> JobResult:
        job.validate()
        if self.faults is not None:
            # Scheduled mid-query datanode kills fire at job start, before
            # any task has read a block.  The alive guard keeps the
            # registry from double-recording when a layout failover
            # replans and re-runs a job with a matching name.
            for node_id in self.faults.scheduled_datanode_kills(job.name):
                if self.fs.datanodes[node_id].alive:
                    self.fs.kill_datanode(node_id)
        with self.tracer.span("mr_job", job=job.name) as job_span:
            result = self._run(job, job_span)
        result.trace_span = job_span if self.tracer.enabled else None
        with self._jobs_run_lock:
            self.jobs_run += 1
        return result

    def _run(self, job: Job, job_span: Span) -> JobResult:
        result = JobResult(job_name=job.name)
        stats = result.stats
        counters = result.counters

        splits = job.splits
        if splits is None:
            splits = job.input_format.get_splits(self.fs, job.input_paths)
        stats.map_tasks = len(splits)

        num_partitions = max(1, job.num_reducers)
        partitioner = job.partitioner or stable_hash

        with self.tracer.span("map_phase", tasks=len(splits)) as map_span:
            map_outcomes = [
                self._run_attempts(
                    job, "map", task_id,
                    lambda attempt, crash, tid=task_id, s=split:
                        self._map_task(job, tid, s, attempt, crash))
                for task_id, split in enumerate(splits)]

            # Barrier: merge map outcomes in split order, so shuffle value
            # lists, counters and stats follow the input layout.
            for outcome in map_outcomes:
                self._merge_fault_spans(map_span, outcome)
                if outcome.span is not None:
                    map_span.attach(outcome.span)
                stats.map_input_records += outcome.input_records
                stats.map_input_bytes += outcome.input_bytes
                stats.map_output_records += outcome.output_records
                counters.merge(outcome.counters)
                result.task_stats.append(outcome.stats("map"))
            map_span.add("input_records", stats.map_input_records)
            map_span.add("input_bytes", stats.map_input_bytes)
            map_span.add("output_records", stats.map_output_records)

        shuffle: List[Dict[Any, List[Any]]] = [dict()
                                               for _ in range(num_partitions)]
        map_only_output: List[Tuple[Any, Any]] = []
        if job.reducer is None:
            for outcome in map_outcomes:
                map_only_output.extend(outcome.emits)
            result.output = map_only_output
            counters.set("job", "map_tasks", stats.map_tasks)
            return result

        with self.tracer.span("shuffle",
                              partitions=num_partitions) as shuffle_span:
            for outcome in map_outcomes:
                for key, value in outcome.emits:
                    stats.shuffle_bytes += (estimate_size(key)
                                            + estimate_size(value))
                    bucket = shuffle[partitioner(key) % num_partitions]
                    bucket.setdefault(key, []).append(value)
            shuffle_span.add("shuffle_bytes", stats.shuffle_bytes)
            shuffle_span.add("shuffle_records", stats.map_output_records)

        with self.tracer.span("reduce_phase") as reduce_span:
            reduce_outcomes = [
                self._run_attempts(
                    job, "reduce", task_id,
                    lambda attempt, crash, tid=task_id, b=bucket:
                        self._reduce_task(job, tid, b, attempt, crash))
                for task_id, bucket in enumerate(shuffle)
                if bucket or num_partitions == 1]
            for outcome in reduce_outcomes:
                self._merge_fault_spans(reduce_span, outcome)
                if outcome.span is not None:
                    reduce_span.attach(outcome.span)
                stats.reduce_tasks += 1
                stats.reduce_input_records += outcome.input_records
                stats.output_bytes += outcome.output_bytes
                counters.merge(outcome.counters)
                result.task_stats.append(outcome.stats("reduce"))
                result.output.extend(outcome.emits)
            reduce_span.set("tasks", stats.reduce_tasks)
            reduce_span.add("input_records", stats.reduce_input_records)
            reduce_span.add("output_bytes", stats.output_bytes)

        counters.set("job", "map_tasks", stats.map_tasks)
        counters.set("job", "reduce_tasks", stats.reduce_tasks)
        return result

    # -------------------------------------------------------------- recovery
    @staticmethod
    def _merge_fault_spans(phase_span: Span, outcome: _TaskOutcome) -> None:
        """Attach a task's fault event spans (in the deterministic order
        the recovery wrapper recorded them) and mirror each as a
        ``fault.*`` counter on the phase span."""
        for fault_span in outcome.fault_spans:
            phase_span.attach(fault_span)
            phase_span.add(FAULT_COUNTER_PREFIX
                           + fault_span.name[len(FAULT_SPAN_PREFIX):])

    def _run_attempts(self, job: Job, kind: str, task_id: int,
                      run: Callable[[int, Optional[int]], _TaskOutcome]
                      ) -> _TaskOutcome:
        """Run one task under the fault plan: bounded retries with
        simulated backoff, then (for map tasks) speculative execution.

        ``run(attempt, crash_after)`` executes one attempt; the wrapper
        asks the plan for each attempt's crash point and discards crashed
        attempts entirely — their emits, counters and stats never reach
        the barrier, so merged results are byte-identical to a fault-free
        run.  A straggling map task gets a speculative duplicate whose
        outcome wins (mappers are deterministic, so winner choice cannot
        change results); if the duplicate itself crashes, the original
        outcome stands.  Every fault and recovery is recorded in the
        injector's registry and as ``fault:*`` event spans on the outcome.
        """
        faults = self.faults
        if faults is None:
            return run(0, None)
        max_attempts = job.max_task_attempts \
            if job.max_task_attempts is not None \
            else faults.policy.max_task_attempts
        traced = self.tracer.enabled
        fault_spans: List[Span] = []

        def note_crash(attempt: int, exc: TaskAttemptFailed,
                       will_retry: bool) -> None:
            records = getattr(exc, "records_read", 0)
            faults.task_crashed(job.name, kind, task_id, attempt,
                                records_read=records, will_retry=will_retry)
            if traced:
                fault_spans.append(Span(
                    name=FAULT_SPAN_PREFIX + "task_crash",
                    attrs={"task": task_id, "attempt": attempt,
                           "records": records}))

        attempt = 0
        while True:
            crash_after = faults.task_crash_point(job.name, kind, task_id,
                                                  attempt)
            try:
                outcome = run(attempt, crash_after)
                break
            except TaskAttemptFailed as exc:
                will_retry = attempt + 1 < max_attempts
                note_crash(attempt, exc, will_retry)
                if not will_retry:
                    raise MapReduceError(
                        f"job {job.name!r}: {kind} task {task_id} failed "
                        f"permanently after {attempt + 1} attempts") from exc
                attempt += 1
        if attempt > 0:
            faults.task_recovered(job.name, kind, task_id, attempt)
            if traced:
                fault_spans.append(Span(
                    name=FAULT_SPAN_PREFIX + "task_retry",
                    attrs={"task": task_id, "attempt": attempt}))

        if kind == "map" and faults.is_straggler(job.name, kind, task_id):
            faults.straggler_detected(job.name, kind, task_id)
            if traced:
                fault_spans.append(Span(
                    name=FAULT_SPAN_PREFIX + "task_straggler",
                    attrs={"task": task_id}))
            spec_attempt = attempt + 1
            crash_after = faults.task_crash_point(job.name, kind, task_id,
                                                  spec_attempt)
            try:
                speculative = run(spec_attempt, crash_after)
            except TaskAttemptFailed as exc:
                # The duplicate died; the original outcome stands.
                note_crash(spec_attempt, exc, will_retry=False)
            else:
                faults.speculative_won(job.name, kind, task_id, spec_attempt)
                if traced:
                    fault_spans.append(Span(
                        name=FAULT_SPAN_PREFIX + "speculative_win",
                        attrs={"task": task_id, "attempt": spec_attempt}))
                outcome = speculative

        outcome.fault_spans = fault_spans
        return outcome

    @staticmethod
    def _maybe_crash(job: Job, kind: str, task_id: int, attempt: int,
                     crash_after: Optional[int], records_read: int) -> None:
        """Fire the injected crash once ``records_read`` reaches the
        attempt's crash point (0 = at startup; None = the attempt is
        clean).  The raised :class:`~repro.errors.TaskAttemptFailed`
        carries ``records_read`` for the registry."""
        if crash_after is None or records_read < crash_after:
            return
        exc = TaskAttemptFailed(
            f"injected crash: job {job.name!r} {kind} task {task_id} "
            f"attempt {attempt} after {records_read} records")
        exc.records_read = records_read
        raise exc

    # ----------------------------------------------------------------- tasks
    def _map_task(self, job: Job, task_id: int, split, attempt: int = 0,
                  crash_after: Optional[int] = None) -> _TaskOutcome:
        if job.vector_plan is not None and crash_after is None:
            # Crash-injected attempts stay on the row path: the batch path
            # cannot reproduce a crash *between* record N and N+1, and the
            # recovery wrapper discards crashed attempts entirely, so the
            # merged result is identical either way.
            return self._vector_map_task(job, task_id, split)
        emits: List[Tuple[Any, Any]] = []
        counters = Counters()
        ctx = TaskContext(task_id, self.fs, counters,
                          lambda k, v, buf=emits: buf.append((k, v)),
                          attempt=attempt)
        ctx.split = split
        outcome = _TaskOutcome(task_id=task_id, emits=emits,
                               counters=counters)
        with self.tracer.task_span("map", task=task_id) as span:
            with task_io_scope() as scope:
                self._maybe_crash(job, "map", task_id, attempt, crash_after, 0)
                for key, value in job.input_format.read_split(self.fs, split):
                    outcome.input_records += 1
                    job.mapper(key, value, ctx)
                    self._maybe_crash(job, "map", task_id, attempt,
                                      crash_after, outcome.input_records)
                outcome.input_bytes = scope.captured(self.fs.io).bytes_read
            outcome.output_records = len(emits)
            if job.reducer is not None and job.combiner is not None:
                outcome.emits = self._combine(job, emits, counters)
            span.add("input_records", outcome.input_records)
            span.add("input_bytes", outcome.input_bytes)
            span.add("output_records", outcome.output_records)
        if self.tracer.enabled:
            outcome.span = span
        return outcome

    def _vector_map_task(self, job: Job, task_id: int, split) -> _TaskOutcome:
        """Columnar map task: identical outcome to :meth:`_map_task`, plus
        ``vector.*`` trace counters (strippable, like ``fault:*`` data)."""
        counters = Counters()
        outcome = _TaskOutcome(task_id=task_id, emits=[], counters=counters)
        with self.tracer.task_span("map", task=task_id) as span:
            with task_io_scope() as scope:
                report = job.vector_plan.run_map_task(self.fs, split)
                outcome.input_bytes = scope.captured(self.fs.io).bytes_read
            outcome.emits = report.emits
            outcome.input_records = report.input_records
            outcome.output_records = report.output_records
            if report.matched:
                # The row mapper's per-row ctx.counter("query", "matched");
                # guarded so a zero-match task does not create the counter
                # entry the row path never creates.
                counters.inc("query", "matched", report.matched)
            span.add("input_records", outcome.input_records)
            span.add("input_bytes", outcome.input_bytes)
            span.add("output_records", outcome.output_records)
            span.set(VECTOR_ATTR, True)
            span.add(VECTOR_COUNTER_PREFIX + "batches", report.batches)
            if report.fallback_rows:
                span.add(VECTOR_COUNTER_PREFIX + "fallback_rows",
                         report.fallback_rows)
        if self.tracer.enabled:
            outcome.span = span
        return outcome

    def _reduce_task(self, job: Job, task_id: int,
                     bucket: Dict[Any, List[Any]], attempt: int = 0,
                     crash_after: Optional[int] = None) -> _TaskOutcome:
        emits: List[Tuple[Any, Any]] = []
        counters = Counters()
        ctx = TaskContext(task_id, self.fs, counters,
                          lambda k, v, buf=emits: buf.append((k, v)),
                          attempt=attempt)
        outcome = _TaskOutcome(task_id=task_id, emits=emits,
                               counters=counters)
        with self.tracer.task_span("reduce", task=task_id) as span:
            with task_io_scope() as scope:
                # Reduce attempts only ever crash at startup — before
                # ``reduce_setup`` acquires external resources (output
                # writers), so a retried attempt never sees a half-written
                # side effect.
                self._maybe_crash(job, "reduce", task_id, attempt,
                                  crash_after, 0)
                if job.reduce_setup is not None:
                    job.reduce_setup(ctx)
                try:
                    for key in sorted(bucket):
                        values = bucket[key]
                        outcome.input_records += len(values)
                        job.reducer(key, values, ctx)
                finally:
                    if job.reduce_cleanup is not None:
                        job.reduce_cleanup(ctx)
                outcome.output_bytes = scope.captured(self.fs.io).bytes_written
            outcome.output_records = len(emits)
            span.add("input_records", outcome.input_records)
            span.add("output_records", outcome.output_records)
            span.add("output_bytes", outcome.output_bytes)
        if self.tracer.enabled:
            outcome.span = span
        return outcome

    @staticmethod
    def _combine(job: Job, emits: List[Tuple[Any, Any]],
                 counters: Counters) -> List[Tuple[Any, Any]]:
        """Run the combiner over one map task's buffered output."""
        grouped: Dict[Any, List[Any]] = {}
        for key, value in emits:
            grouped.setdefault(key, []).append(value)
        combined: List[Tuple[Any, Any]] = []
        ctx = TaskContext(-1, None, counters,
                          lambda k, v: combined.append((k, v)))
        for key in sorted(grouped):
            job.combiner(key, grouped[key], ctx)
        return combined
