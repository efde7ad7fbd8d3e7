"""FaultPlan: the deterministic, seedable description of what goes wrong.

A plan mixes *scheduled* faults (explicit :class:`FaultSpec`s — "crash map
task 0 of the build job on its first attempt") with *probabilistic* ones
(rates).  Every probabilistic decision is a pure function of the plan seed
and a stable identity — ``(job name, task kind, task id)`` for tasks,
``(op, key)`` for KV operations — **never** of call order, wall time or
thread identity.  That is what keeps chaos runs reproducible: the same
task experiences the same fault no matter which query-service thread runs
its statement, what ran before it, or when.

Probabilistic faults only ever hit the *first* attempt of a task or KV
operation, so a plan with the default :class:`RetryPolicy` can never
exhaust the retry budget: recovery is guaranteed, and the chaos harness
can demand byte-identical results with faults on.  Scheduled specs may
target later attempts (that is how the retry-exhaustion tests force a
permanent failure).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

#: fault kinds a plan can inject (registry/event vocabulary).
TASK_CRASH = "task_crash"
TASK_STRAGGLER = "task_straggler"
DATANODE_DEAD = "datanode_dead"
KV_TIMEOUT = "kv_timeout"

FAULT_KINDS = (TASK_CRASH, TASK_STRAGGLER, DATANODE_DEAD, KV_TIMEOUT)

#: recovery kinds recorded by the machinery that survives the fault.
TASK_RETRY = "task_retry"
SPECULATIVE_WIN = "speculative_win"
REPLICA_FAILOVER = "replica_failover"
KV_RETRY = "kv_retry"
#: replan onto surviving replica layouts after a pinned datanode died;
#: not in RECOVERY_KINDS — only tables with a replica fleet can produce
#: it, so rate-driven chaos plans never do.
LAYOUT_DOWNGRADE = "layout_downgrade"

RECOVERY_KINDS = (TASK_RETRY, SPECULATIVE_WIN, REPLICA_FAILOVER, KV_RETRY)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry and backoff parameters shared by every recovery path.

    Backoff is *simulated* seconds (accumulated in the
    :class:`~repro.faults.registry.FaultRegistry`, charged by the recovery
    benchmark) — recovery never sleeps wall-clock time, and it never
    perturbs a query's cost-model seconds, which stay byte-identical to
    the fault-free run.
    """

    #: total attempts per task (Hadoop's ``mapreduce.map.maxattempts``).
    max_task_attempts: int = 4
    #: total attempts per KV operation (HBase client retries, scaled down).
    max_kv_attempts: int = 3
    #: first-retry backoff, simulated seconds.
    backoff_base_seconds: float = 1.0
    #: exponential backoff multiplier per further retry.
    backoff_factor: float = 2.0
    #: launch speculative duplicates of straggler map tasks.  Reduce tasks
    #: are never speculated: their attempts may hold external side effects
    #: (file writers opened in ``reduce_setup``), the same reason many
    #: Hadoop deployments disable reduce-side speculation.
    speculative_execution: bool = True

    def __post_init__(self):
        if self.max_task_attempts < 1:
            raise ValueError("max_task_attempts must be >= 1")
        if self.max_kv_attempts < 1:
            raise ValueError("max_kv_attempts must be >= 1")

    def backoff_seconds(self, attempt: int) -> float:
        """Simulated backoff charged before retry number ``attempt``
        (1-based: the first retry waits the base, each later one doubles)."""
        if attempt < 1:
            return 0.0
        return self.backoff_base_seconds * \
            self.backoff_factor ** (attempt - 1)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.  ``None`` fields match anything.

    For :data:`TASK_CRASH` / :data:`TASK_STRAGGLER` the target is a task
    (``job`` is a substring of the job name); ``attempt``/``times`` pick
    which attempts fail (attempts ``attempt .. attempt+times-1``).  For
    :data:`KV_TIMEOUT` the target is an operation (``op`` like ``"get"``,
    ``key`` an exact key).  ``crash_after_records`` makes a map-task crash
    fire mid-read instead of at startup.
    """

    kind: str
    job: Optional[str] = None
    task_kind: Optional[str] = None
    task_id: Optional[int] = None
    attempt: int = 0
    times: int = 1
    op: Optional[str] = None
    key: Optional[str] = None
    crash_after_records: Optional[int] = None
    #: for :data:`DATANODE_DEAD`: kill this datanode when a job whose name
    #: contains ``job`` starts (mid-query layout failover; see
    #: :meth:`FaultPlan.scheduled_datanode_kills`).
    datanode: Optional[int] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if self.times < 1:
            raise ValueError("times must be >= 1")

    def matches_task(self, kind: str, job: str, task_kind: str,
                     task_id: int, attempt: int) -> bool:
        if self.kind != kind:
            return False
        if self.job is not None and self.job not in job:
            return False
        if self.task_kind is not None and self.task_kind != task_kind:
            return False
        if self.task_id is not None and self.task_id != task_id:
            return False
        return self.attempt <= attempt < self.attempt + self.times

    def matches_kv(self, op: str, key: str, attempt: int) -> bool:
        if self.kind != KV_TIMEOUT:
            return False
        if self.op is not None and self.op != op:
            return False
        if self.key is not None and self.key != key:
            return False
        return self.attempt <= attempt < self.attempt + self.times


def _derive(seed: int, *identity) -> random.Random:
    """A fresh RNG keyed by ``(seed, identity)``; the key is hashed with
    CRC32 over its repr (like the engine's ``stable_hash``), so decisions
    are identical across processes and hash seeds."""
    digest = zlib.crc32(repr((seed,) + identity).encode("utf-8"))
    return random.Random(digest)


@dataclass(frozen=True)
class FaultPlan:
    """What to inject: rates, scheduled specs, dead datanodes, policy."""

    seed: int = 0
    #: probability a task's first attempt crashes.
    task_crash_rate: float = 0.0
    #: probability a map task's first attempt is a straggler (speculated).
    task_straggler_rate: float = 0.0
    #: probability a KV operation's first attempt times out.
    kv_timeout_rate: float = 0.0
    #: datanodes marked dead when the chaos runner activates the plan
    #: (after data placement, so replica failover actually exercises).
    dead_datanodes: Tuple[int, ...] = ()
    scheduled: Tuple[FaultSpec, ...] = ()
    policy: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self):
        for rate in (self.task_crash_rate, self.task_straggler_rate,
                     self.kv_timeout_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rates must be in [0, 1], "
                                 f"got {rate}")

    # ----------------------------------------------------------- decisions
    def task_crash_point(self, job: str, task_kind: str, task_id: int,
                         attempt: int) -> Optional[int]:
        """None = attempt runs clean; an int = the attempt fails.

        For map tasks the int is "crash after this many input records"
        (0 = at startup); reduce attempts always crash at startup, before
        ``reduce_setup`` runs, so a retry never re-opens output files.
        """
        for spec in self.scheduled:
            if spec.matches_task(TASK_CRASH, job, task_kind, task_id,
                                 attempt):
                if task_kind == "map" and spec.crash_after_records is not None:
                    return spec.crash_after_records
                return 0
        if attempt != 0 or self.task_crash_rate <= 0.0:
            return None
        rng = _derive(self.seed, "crash", job, task_kind, task_id)
        if rng.random() >= self.task_crash_rate:
            return None
        if task_kind == "map":
            # Crash partway through the read with 50% odds; the record
            # count is part of the same derived stream, so it is as stable
            # as the decision itself.
            return rng.randrange(0, 8) if rng.random() < 0.5 else 0
        return 0

    def is_straggler(self, job: str, task_kind: str, task_id: int) -> bool:
        """Whether the task's first successful attempt runs slow enough to
        trigger speculative execution (map tasks only)."""
        if task_kind != "map":
            return False
        for spec in self.scheduled:
            if spec.matches_task(TASK_STRAGGLER, job, task_kind, task_id, 0):
                return True
        if self.task_straggler_rate <= 0.0:
            return False
        rng = _derive(self.seed, "straggler", job, task_kind, task_id)
        return rng.random() < self.task_straggler_rate

    def scheduled_datanode_kills(self, job_name: str) -> Tuple[int, ...]:
        """Datanodes a :data:`DATANODE_DEAD` spec kills when a job whose
        name contains the spec's ``job`` starts running.

        Job start is a deterministic point — no task has read a block
        yet — so a mid-query kill hits the identical moment on every
        run.
        Specs without a ``job`` or ``datanode`` are handled by
        :meth:`FaultInjector.activate_datanode_faults` instead.
        """
        return tuple(spec.datanode for spec in self.scheduled
                     if spec.kind == DATANODE_DEAD
                     and spec.datanode is not None
                     and spec.job is not None and spec.job in job_name)

    def kv_times_out(self, op: str, key: str, attempt: int) -> bool:
        for spec in self.scheduled:
            if spec.matches_kv(op, key, attempt):
                return True
        if attempt != 0 or self.kv_timeout_rate <= 0.0:
            return False
        rng = _derive(self.seed, "kv", op, key)
        return rng.random() < self.kv_timeout_rate

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same plan shape under a different seed (harness reruns)."""
        from dataclasses import replace
        return replace(self, seed=seed)
