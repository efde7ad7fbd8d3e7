"""Chaos differential suite (ISSUE 5 acceptance).

Generated workloads — full MDRQ sessions and raw MapReduce jobs — are
replayed under a seeded :class:`~repro.faults.FaultPlan` that crashes task
attempts, slows map tasks into speculation, kills a datanode and times out
KV operations.  Every chaos run must be byte-identical to the fault-free
baseline (rows, row order, folded float aggregates, simulated times,
traces modulo fault spans).

The plan seed comes from ``REPRO_FAULT_SEED`` (default 0; the CI chaos job
pins it) plus a per-example salt drawn by hypothesis, so one run covers
many fault patterns while staying reproducible.  Module-level accumulators
prove at the end that every fault kind and every recovery kind
demonstrably fired at least once across the suite.
"""

import os
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (KVStoreTimeout, MapReduceError, TaskAttemptFailed,
                          TransientError)
from repro.faults import (DATANODE_DEAD, FAULT_KINDS, KV_RETRY, KV_TIMEOUT,
                          RECOVERY_KINDS, REPLICA_FAILOVER, SPECULATIVE_WIN,
                          TASK_CRASH, TASK_RETRY, TASK_STRAGGLER,
                          FaultInjector, FaultPlan, FaultSpec, RetryPolicy)
from repro.hive.session import HiveSession
from repro.mapreduce.engine import MapReduceEngine

from tests.conftest import SCAN
from tests.harness.chaos import (assert_chaos_equivalent,
                                 assert_job_chaos_equivalent)
from tests.harness.differential import Workload, run_workload
from tests.test_engine_equivalence import (METER_DDL, index_sql, make_kv_job,
                                           mdrq_sql, mdrq_workloads,
                                           raw_job_strategy)

#: the chaos seed the whole suite derives plans from (CI pins it to 0).
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

# Aggregated over every generated example; the final test asserts each
# fault and recovery kind fired somewhere in the suite.
TOTALS_INJECTED: Counter = Counter()
TOTALS_RECOVERED: Counter = Counter()
_EXAMPLES_RAN = {"sessions": 0, "jobs": 0}

#: guarantees every example injects at least one fault even at low rates:
#: map task 0 of every job crashes its first attempt (and recovers).
ALWAYS_CRASH_MAP0 = FaultSpec(kind=TASK_CRASH, task_kind="map", task_id=0,
                              attempt=0)


def session_plan(salt: int) -> FaultPlan:
    """The standard session chaos plan: all four fault kinds at once.

    Sessions run on 4 datanodes with replication 2; killing exactly one
    node leaves every block at least one live replica, so recovery (not
    permanent failure) is guaranteed.
    """
    return FaultPlan(seed=FAULT_SEED + salt,
                     task_crash_rate=0.25,
                     task_straggler_rate=0.2,
                     kv_timeout_rate=0.15,
                     dead_datanodes=(2,),
                     scheduled=(ALWAYS_CRASH_MAP0,))


def job_plan(salt: int) -> FaultPlan:
    """Raw-job chaos plan (3 datanodes; no KV layer in raw jobs)."""
    return FaultPlan(seed=FAULT_SEED + salt,
                     task_crash_rate=0.3,
                     task_straggler_rate=0.25,
                     dead_datanodes=(1,),
                     scheduled=(ALWAYS_CRASH_MAP0,))


def _accumulate(registry, bucket: str) -> None:
    TOTALS_INJECTED.update(registry.injected_counts())
    TOTALS_RECOVERED.update(registry.recovery_counts())
    _EXAMPLES_RAN[bucket] += 1


# --------------------------------------------------------- generated chaos
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(workload=mdrq_workloads(), salt=st.integers(0, 7))
def test_chaos_mdrq_sessions_equivalent(workload, salt):
    """Full MDRQ sessions under chaos fingerprint identically to the
    fault-free run, and the faults provably fired."""
    baseline, registry = assert_chaos_equivalent(
        workload, session_plan(salt))
    # the scheduled spec makes at least one crash+retry certain
    assert registry.injected_counts()[TASK_CRASH] >= 1
    assert registry.recovery_counts()[TASK_RETRY] >= 1
    assert registry.injected_counts()[DATANODE_DEAD] == 1
    assert baseline["query:0"]["index_used"]
    _accumulate(registry, "sessions")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=raw_job_strategy, salt=st.integers(0, 7))
def test_chaos_raw_jobs_equivalent(spec, salt):
    """Generated MapReduce jobs (map-only, reduce, combiner) produce
    identical output, counters and stats with faults on vs. off."""
    plan = job_plan(salt)
    if not spec["rows"]:
        # no input -> no map tasks; drop the scheduled crash so the plan
        # does not promise a fault that can never fire.
        plan = FaultPlan(seed=plan.seed, task_crash_rate=plan.task_crash_rate,
                         task_straggler_rate=plan.task_straggler_rate,
                         dead_datanodes=plan.dead_datanodes)
    _, registry = assert_job_chaos_equivalent(
        lambda: make_kv_job(spec), plan)
    if spec["rows"]:
        assert registry.injected_counts()[TASK_CRASH] >= 1
        assert registry.recovery_counts()[TASK_RETRY] >= 1
    _accumulate(registry, "jobs")


# ------------------------------------------------------ deterministic chaos
def _fixed_rows():
    return tuple((u, u % 5, f"2012-12-0{1 + u % 5}", round(u * 0.75, 2))
                 for u in range(48))


def _fixed_workload(queries=None):
    predicate = {"u_lo": 5, "u_width": 30, "r_lo": 0, "r_width": 3,
                 "d_lo": 0, "d_width": 6}
    agg = mdrq_sql("sum(powerconsumed), count(*)", predicate)
    return Workload(table="meterdata", ddl=METER_DDL, rows=_fixed_rows(),
                    queries=queries or ((agg, None), (agg, SCAN)),
                    index_sql=index_sql(10), index_name="d")


class TestScheduledFaults:
    """Targeted plans that force each recovery path deterministically."""

    def test_repeated_crashes_recover_within_budget(self):
        plan = FaultPlan(scheduled=(
            FaultSpec(kind=TASK_CRASH, job="diff", task_kind="map",
                      task_id=0, attempt=0, times=2, crash_after_records=3),))
        spec = {"rows": [(k % 7, k) for k in range(60)], "num_files": 2,
                "num_reducers": 2, "use_combiner": True, "block_size": 600}
        _, registry = assert_job_chaos_equivalent(
            lambda: make_kv_job(spec), plan)
        assert registry.injected_counts() == {TASK_CRASH: 2}
        assert registry.recovery_counts() == {TASK_RETRY: 1}
        # backoff before retries 1 and 2: 1s + 2s of simulated waiting
        assert registry.backoff_seconds == pytest.approx(3.0)

    def test_retry_exhaustion_fails_the_job_permanently(self):
        plan = FaultPlan(scheduled=(
            FaultSpec(kind=TASK_CRASH, job="diff", task_kind="map",
                      task_id=0, times=10),),
            policy=RetryPolicy(max_task_attempts=2))
        spec = {"rows": [(1, 1), (2, 2)], "num_files": 1, "num_reducers": 1,
                "use_combiner": False, "block_size": 4096}
        fs, job = make_kv_job(spec)
        injector = FaultInjector(plan)
        engine = MapReduceEngine(fs, faults=injector)
        with pytest.raises(MapReduceError, match="failed permanently"):
            engine.run(job)
        assert injector.registry.injected_counts()[TASK_CRASH] == 2
        assert TASK_RETRY not in injector.registry.recovery_counts()

    def test_job_max_task_attempts_overrides_policy(self):
        plan = FaultPlan(scheduled=(
            FaultSpec(kind=TASK_CRASH, job="diff", task_kind="map",
                      task_id=0, times=10),))  # default policy allows 4
        spec = {"rows": [(1, 1)], "num_files": 1, "num_reducers": 0,
                "use_combiner": False, "block_size": 4096}
        fs, job = make_kv_job(spec)
        job.max_task_attempts = 1
        engine = MapReduceEngine(fs, faults=FaultInjector(plan))
        with pytest.raises(MapReduceError, match="after 1 attempts"):
            engine.run(job)

    def test_reduce_crashes_never_rerun_side_effects(self):
        """A crashed reduce attempt dies before ``reduce_setup``; if the
        retry re-entered setup the second ``fs.create`` of the same output
        file would raise FileAlreadyExists."""
        from repro.hdfs.filesystem import HDFS
        from repro.mapreduce.splits import TextRowInputFormat
        from repro.mapreduce.job import Job
        from tests.test_engine_equivalence import (KV_SCHEMA, write_kv_table)

        plan = FaultPlan(scheduled=(
            FaultSpec(kind=TASK_CRASH, job="writes", task_kind="reduce",
                      attempt=0),))  # every reduce task's first attempt

        def make():
            fs = HDFS(num_datanodes=3, block_size=600)
            write_kv_table(fs, [(k % 5, k) for k in range(40)], 2)

            def mapper(key, row, ctx):
                ctx.emit(row[0], row[1])

            def reduce_setup(ctx):
                ctx.state["stream"] = ctx.fs.create(f"/out/part-{ctx.task_id}")

            def reducer(key, values, ctx):
                ctx.state["stream"].write(
                    f"{key},{sum(values)}\n".encode("utf-8"))
                ctx.emit(key, sum(values))

            def reduce_cleanup(ctx):
                ctx.state["stream"].close()

            job = Job(name="writes",
                      input_format=TextRowInputFormat(KV_SCHEMA),
                      mapper=mapper, reducer=reducer,
                      reduce_setup=reduce_setup,
                      reduce_cleanup=reduce_cleanup,
                      input_paths=["/in"], num_reducers=3)
            return fs, job

        _, registry = assert_job_chaos_equivalent(make, plan)
        # every non-empty reduce bucket crashed once and retried once
        crashes = registry.injected_counts()[TASK_CRASH]
        assert crashes >= 2
        assert registry.recovery_counts()[TASK_RETRY] == crashes

    def test_speculative_win_replaces_straggler(self):
        plan = FaultPlan(scheduled=(
            FaultSpec(kind=TASK_STRAGGLER, job="diff", task_kind="map",
                      task_id=0),))
        spec = {"rows": [(k % 3, k) for k in range(30)], "num_files": 2,
                "num_reducers": 1, "use_combiner": False, "block_size": 600}
        _, registry = assert_job_chaos_equivalent(
            lambda: make_kv_job(spec), plan)
        assert registry.injected_counts() == {TASK_STRAGGLER: 1}
        assert registry.recovery_counts() == {SPECULATIVE_WIN: 1}

    def test_crashed_speculative_attempt_falls_back_to_original(self):
        plan = FaultPlan(scheduled=(
            FaultSpec(kind=TASK_STRAGGLER, job="diff", task_kind="map",
                      task_id=0),
            FaultSpec(kind=TASK_CRASH, job="diff", task_kind="map",
                      task_id=0, attempt=1),))  # kills only the duplicate
        spec = {"rows": [(k % 3, k) for k in range(30)], "num_files": 2,
                "num_reducers": 1, "use_combiner": False, "block_size": 600}
        _, registry = assert_job_chaos_equivalent(
            lambda: make_kv_job(spec), plan)
        assert registry.injected_counts() == {TASK_STRAGGLER: 1,
                                              TASK_CRASH: 1}
        # the original result stood: no speculative win, no retry, and a
        # doomed duplicate charges no backoff
        assert registry.recovery_counts() == {}
        assert registry.backoff_seconds == 0.0

    def test_speculation_disabled_by_policy(self):
        plan = FaultPlan(scheduled=(
            FaultSpec(kind=TASK_STRAGGLER, job="diff", task_kind="map",
                      task_id=0),),
            policy=RetryPolicy(speculative_execution=False))
        spec = {"rows": [(1, 1), (2, 2)], "num_files": 1, "num_reducers": 0,
                "use_combiner": False, "block_size": 4096}
        _, registry = assert_job_chaos_equivalent(
            lambda: make_kv_job(spec), plan)
        assert registry.total_injected() == 0
        assert registry.total_recovered() == 0

    def test_dead_datanode_forces_replica_failover(self):
        plan = FaultPlan(dead_datanodes=(0,))
        spec = {"rows": [(k % 5, k) for k in range(80)], "num_files": 3,
                "num_reducers": 2, "use_combiner": False, "block_size": 256}
        _, registry = assert_job_chaos_equivalent(
            lambda: make_kv_job(spec), plan)
        assert registry.injected_counts() == {DATANODE_DEAD: 1}
        assert registry.recovery_counts()[REPLICA_FAILOVER] >= 1

    def test_kv_timeouts_recover_inside_a_session(self):
        plan = FaultPlan(seed=FAULT_SEED, kv_timeout_rate=0.3)
        _, registry = assert_chaos_equivalent(
            _fixed_workload(), plan)
        assert registry.injected_counts()[KV_TIMEOUT] >= 1
        assert registry.recovery_counts()[KV_RETRY] >= 1

    def test_kv_timeout_exhaustion_surfaces_transient_error(self):
        plan = FaultPlan(scheduled=(
            FaultSpec(kind=KV_TIMEOUT, op="put", times=3),))
        with pytest.raises(KVStoreTimeout) as excinfo:
            run_workload(_fixed_workload(), faults=FaultInjector(plan))
        assert isinstance(excinfo.value, TransientError)


class TestFaultObservability:
    def test_explain_analyze_shows_fault_spans(self):
        plan = FaultPlan(scheduled=(
            ALWAYS_CRASH_MAP0,
            # the planner reads GFU metadata via multi_get; one timeout
            # per batch, recovered by a retry
            FaultSpec(kind=KV_TIMEOUT, op="multi_get"),))
        # cache=False so planner reads hit the store inside the query span
        # (cache fills run in detached spans and would hide the counters)
        session = HiveSession(num_datanodes=4, faults=plan, cache=False)
        session.fs.block_size = 2048
        session.execute(METER_DDL)
        session.load_rows("meterdata", _fixed_rows())
        session.execute(index_sql(10))
        # a full scan runs a MapReduce job whose map task 0 crashes+retries
        scan = session.execute(
            "EXPLAIN ANALYZE SELECT sum(powerconsumed) FROM meterdata "
            "WHERE userid >= 0 AND userid < 40", SCAN)
        assert "fault:task_crash" in scan.description
        assert "fault:task_retry" in scan.description
        # an indexed query reads GFU metadata: its gets time out and retry
        indexed = session.execute(
            "EXPLAIN ANALYZE SELECT sum(powerconsumed), count(*) "
            "FROM meterdata WHERE userid >= 3 AND userid < 37")
        assert "fault.kv_timeouts" in indexed.description
        assert "fault.kv_retries" in indexed.description

    def test_fault_metrics_exported_from_session(self):
        plan = FaultPlan(scheduled=(ALWAYS_CRASH_MAP0,))
        session = HiveSession(num_datanodes=4, faults=plan)
        session.execute(METER_DDL)
        session.load_rows("meterdata", _fixed_rows())
        session.execute("SELECT count(*) FROM meterdata")
        metrics = session.metrics
        assert metrics.counter("faults_injected_total", "").value(
            kind=TASK_CRASH) >= 1
        assert metrics.counter("fault_recoveries_total", "").value(
            kind=TASK_RETRY) >= 1

    def test_traces_differ_only_by_fault_data(self):
        """Sanity check on the harness itself: the raw chaos trace *does*
        contain fault spans (we are not comparing empty against empty)."""
        workload = _fixed_workload()
        plan = FaultPlan(scheduled=(ALWAYS_CRASH_MAP0,))
        fingerprint = run_workload(workload, faults=FaultInjector(plan))
        # query:1 is the forced full scan: its job ran, so its trace holds
        # the crash/retry spans...
        raw = repr(fingerprint["query:1"]["trace"])
        assert "fault:task_crash" in raw and "fault:task_retry" in raw
        # ...and the chaos view strips every one of them
        from tests.harness.chaos import chaos_view
        view = chaos_view(fingerprint)
        assert "fault:" not in repr(view) and "fault." not in repr(view)


# --------------------------------------------- suite-level demonstrability
def test_chaos_suite_demonstrably_fired_every_kind():
    """Runs after the generated tests (file order): every fault kind was
    injected and every recovery kind actually recovered at least once."""
    if not (_EXAMPLES_RAN["sessions"] and _EXAMPLES_RAN["jobs"]):
        pytest.skip("generated chaos tests did not run in this invocation")
    assert _EXAMPLES_RAN["sessions"] + _EXAMPLES_RAN["jobs"] >= 100, \
        _EXAMPLES_RAN
    for kind in FAULT_KINDS:
        assert TOTALS_INJECTED[kind] > 0, (kind, dict(TOTALS_INJECTED))
    for kind in RECOVERY_KINDS:
        assert TOTALS_RECOVERED[kind] > 0, (kind, dict(TOTALS_RECOVERED))
