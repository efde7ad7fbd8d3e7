"""Job definition and result objects for the MapReduce engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import MapReduceError
from repro.mapreduce.counters import Counters
from repro.mapreduce.cost import JobStats, TaskStats
from repro.mapreduce.splits import FileSplit, InputFormat

#: map(key, value, context) -> None (emit via context.emit)
Mapper = Callable[[Any, Any, "TaskContext"], None]
#: reduce(key, values, context) -> None
Reducer = Callable[[Any, List[Any], "TaskContext"], None]


class TaskContext:
    """What a mapper/reducer sees: emit, counters, task identity, scratch.

    ``state`` is a per-task dict for jobs that need task-local resources
    (the DGFIndex builder keeps its per-reducer output writer there, opened
    by the job's ``reduce_setup`` hook).
    """

    def __init__(self, task_id: int, fs, counters: Counters,
                 emit_fn: Callable[[Any, Any], None], attempt: int = 0):
        self.task_id = task_id
        self.fs = fs
        self.counters = counters
        self._emit_fn = emit_fn
        self.state: Dict[str, Any] = {}
        #: 0-based attempt number (> 0 only when fault injection crashed an
        #: earlier attempt and the engine retried).  Informational: task
        #: code must not branch on it, or attempts stop being equivalent.
        self.attempt = attempt

    def emit(self, key: Any, value: Any) -> None:
        self._emit_fn(key, value)

    def counter(self, group: str, name: str, amount: int = 1) -> None:
        self.counters.inc(group, name, amount)


@dataclass
class Job:
    """A MapReduce job specification.

    ``splits`` may be supplied directly (index handlers pre-filter them, the
    paper's temp-file protocol); otherwise they are computed from
    ``input_paths`` by ``input_format.get_splits``.
    """

    name: str
    input_format: InputFormat
    mapper: Mapper
    input_paths: Sequence[str] = ()
    splits: Optional[List[FileSplit]] = None
    combiner: Optional[Reducer] = None
    reducer: Optional[Reducer] = None
    num_reducers: int = 1
    #: optional hooks, called once per reduce task with the TaskContext.
    reduce_setup: Optional[Callable[[TaskContext], None]] = None
    reduce_cleanup: Optional[Callable[[TaskContext], None]] = None
    #: partition function key -> int; default is hash.
    partitioner: Optional[Callable[[Any], int]] = None
    #: per-job override of the fault plan's retry budget (None = policy's
    #: ``max_task_attempts``); lets tests pin a job to a single attempt.
    max_task_attempts: Optional[int] = None
    #: optional :class:`repro.vector.plan.VectorSelectPlan`; when set, map
    #: tasks run the columnar path instead of ``mapper`` (which remains the
    #: byte-identical reference and is still used for crash-injected
    #: attempts, whose per-record crash timing the batch path cannot
    #: reproduce).
    vector_plan: Optional[Any] = None

    def validate(self) -> None:
        if self.splits is None and not self.input_paths:
            raise MapReduceError(f"job {self.name!r}: no input")
        if self.num_reducers < 0:
            raise MapReduceError(f"job {self.name!r}: bad num_reducers")
        if self.max_task_attempts is not None and self.max_task_attempts < 1:
            raise MapReduceError(
                f"job {self.name!r}: max_task_attempts must be >= 1")
        if self.reducer is None and (self.reduce_setup or self.reduce_cleanup):
            raise MapReduceError(
                f"job {self.name!r}: reduce hooks without a reducer")


@dataclass
class JobResult:
    """Output records (from reduce emits, or map emits for map-only jobs),
    counters, and the measured stats the cost model consumes.

    ``task_stats`` lists one :class:`~repro.mapreduce.cost.TaskStats` per
    executed task — map tasks in split order, then reduce tasks in
    partition order — so the cost model can read measured per-task
    counters instead of assuming serial execution evenly divided the
    input.
    """

    job_name: str
    output: List[Tuple[Any, Any]] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    stats: JobStats = field(default_factory=JobStats)
    task_stats: List[TaskStats] = field(default_factory=list)
    #: the engine's ``mr_job`` trace span for this run (None when the
    #: engine has no enabled tracer); the session annotates its phase
    #: children with cost-model seconds after the job completes.
    trace_span: Optional[Any] = None
