"""Differential harness: fingerprints that per-feature suites compare.

* :func:`job_fingerprint` — a raw MapReduce :class:`JobResult` as a plain
  dict: output records, every counter value, the ``JobStats`` aggregate
  the cost model consumes, and the per-task ``TaskStats`` list.

* :func:`run_workload` — replays a whole workload (DDL, rows, optional
  index build, queries) through a fresh :class:`HiveSession` and
  fingerprints result rows, per-query ``QueryStats`` (including the
  simulated cost-model seconds, which are pure functions of the measured
  counters), normalized query traces (the full span tree with wall times
  zeroed — see docs/observability.md), index-build reports, global
  filesystem I/O totals and key-value-store op counts.  The feature
  suites (vector, chaos, replica, pyramid, advisor) replay one workload
  with their feature on and off and compare the two fingerprints.

* :func:`assert_service_equivalent` — replays a workload's queries through
  the concurrent :class:`~repro.service.queryservice.QueryService` at
  several concurrency levels, with the GFU-metadata cache enabled and
  disabled, against the direct cache-off session baseline (ISSUE 4
  acceptance).  Physical KV-store op counts are excluded from *these*
  comparisons — eliminating physical reads is the cache's whole point and
  their count legitimately depends on admission interleaving — but every
  per-query observable, including the *logical* ``kv.gets`` trace counters
  and the simulated index time, must be byte-identical.

Fingerprints are plain dicts compared with ``==``; on mismatch the harness
reports exactly which entries diverged, which is what turns "the two
configurations disagree" into a debuggable ordering bug.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.hive.session import HiveSession, QueryOptions, QueryResult
from repro.mapreduce.job import JobResult
from repro.service.cache import GfuMetadataCache
from repro.service.queryservice import QueryService

#: query-service concurrency levels every service check covers (ISSUE 4).
SERVICE_CONCURRENCY = (1, 4, 8)


# ---------------------------------------------------------------- fingerprints
def job_fingerprint(result: JobResult) -> Dict[str, Any]:
    """Everything a JobResult exposes that downstream code can observe."""
    return {
        "output": list(result.output),
        "counters": result.counters.as_dict(),
        "stats": asdict(result.stats),
        "tasks": [asdict(t) for t in result.task_stats],
    }


def query_fingerprint(result: QueryResult) -> Dict[str, Any]:
    """Rows plus the measured/modelled stats of one executed query."""
    stats = result.stats
    return {
        "columns": list(result.columns),
        "rows": list(result.rows),
        "description": result.description,
        "jobs": stats.jobs,
        "splits_processed": stats.splits_processed,
        "records_read": stats.records_read,
        "bytes_read": stats.bytes_read,
        "records_matched": stats.records_matched,
        "output_records": stats.output_records,
        "index_used": stats.index_used,
        "index_records_scanned": stats.index_records_scanned,
        "index_kv_gets": stats.index_kv_gets,
        "time": (stats.time.read_index_and_other,
                 stats.time.read_data_and_process),
        # The whole span tree, wall times zeroed: trace shape, attrs,
        # counters and simulated times must not depend on the feature
        # under comparison.
        "trace": (result.trace.normalized()
                  if result.trace is not None else None),
        # The structured plan (scalar summary) — the same object EXPLAIN
        # renders, so plan text and plan fields can never drift apart.
        "plan": (result.plan.to_dict()
                 if result.plan is not None else None),
    }


def diff_fingerprints(expected: Dict[str, Any], actual: Dict[str, Any],
                      prefix: str = "") -> List[str]:
    """Human-readable list of entries where two fingerprints diverge."""
    lines: List[str] = []
    for key in sorted(set(expected) | set(actual)):
        left, right = expected.get(key), actual.get(key)
        label = f"{prefix}{key}"
        if isinstance(left, dict) and isinstance(right, dict):
            lines.extend(diff_fingerprints(left, right, prefix=f"{label}."))
        elif left != right:
            lines.append(f"{label}: baseline={left!r} candidate={right!r}")
    return lines


def _assert_same(baseline: Dict[str, Any], candidate: Dict[str, Any],
                 context: str) -> None:
    if candidate != baseline:
        diverged = "\n  ".join(diff_fingerprints(baseline, candidate))
        raise AssertionError(
            f"{context} diverged from the baseline:\n  {diverged}")


# --------------------------------------------------------------- session level
@dataclass(frozen=True)
class LayoutSpec:
    """One replica-fleet layout a workload builds after its index
    (ISSUE 8; see :mod:`repro.core.dgf.fleet`).  ``grid`` holds the
    granularity overrides as hashable ``(column, spec)`` pairs."""

    name: str
    grid: Tuple[Tuple[str, str], ...] = ()
    stored_as: Optional[str] = None
    placement: Optional[str] = None
    datanodes: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Workload:
    """A replayable (table, index, queries) scenario.

    ``queries`` entries are ``(sql, options)`` pairs; ``options`` may be
    None for the default (index-transparent) behaviour.
    """

    table: str
    ddl: str
    rows: Tuple[Tuple, ...]
    queries: Tuple[Tuple[str, Optional[QueryOptions]], ...]
    index_sql: Optional[str] = None
    append_rows: Tuple[Tuple, ...] = ()
    index_name: Optional[str] = None  # required when append_rows is set
    block_size: int = 2048
    load_files: int = 2
    #: extra (name, ddl, rows) tables, e.g. the dimension side of a join
    extra_tables: Tuple[Tuple[str, str, Tuple[Tuple, ...]], ...] = ()
    #: replica-fleet layouts built after the index (needs ``index_name``)
    layouts: Tuple[LayoutSpec, ...] = ()
    #: build the aggregation pyramid (``session.build_pyramid``) with this
    #: fanout after the index and layouts, before appends — so appends
    #: exercise incremental pyramid maintenance.  None = no pyramid.
    pyramid_fanout: Optional[int] = None


def run_workload(workload: Workload,
                 vectorized: bool = False,
                 cache: Union[None, bool, GfuMetadataCache] = None,
                 faults: Any = None) -> Dict[str, Any]:
    """Build a fresh session, replay the workload, return its fingerprint.

    ``faults`` (a :class:`repro.faults.FaultPlan` or prebuilt
    :class:`~repro.faults.FaultInjector`) arms fault injection for the
    whole replay; the plan's dead datanodes are killed *after* the data
    and index are in place — so their blocks carry replicas and the query
    phase genuinely exercises replica failover — and before the first
    query runs (a deterministic point, the same for every replay).
    """
    session = HiveSession(num_datanodes=4, vectorized=vectorized,
                          cache=cache, faults=faults)
    session.fs.block_size = workload.block_size
    session.execute(workload.ddl)
    rows = list(workload.rows)
    if rows:
        files = max(1, min(workload.load_files, len(rows)))
        chunk = -(-len(rows) // files)
        for start in range(0, len(rows), chunk):
            session.load_rows(workload.table, rows[start:start + chunk])
    for name, ddl, extra_rows in workload.extra_tables:
        session.execute(ddl)
        if extra_rows:
            session.load_rows(name, list(extra_rows))

    fingerprint: Dict[str, Any] = {}
    if workload.index_sql:
        session.execute(workload.index_sql)
        for info in session.metastore.indexes_on(workload.table):
            report = info.state.get("build_report")
            if report is None:
                continue
            fingerprint[f"build:{info.name}"] = {
                "stats": asdict(report.job_stats),
                "index_size_bytes": report.index_size_bytes,
                "seconds": (report.build_time.read_index_and_other,
                            report.build_time.read_data_and_process),
                "details": dict(report.details),
            }
    # Fleet layouts build before appends so appends exercise the
    # every-layout ingest path (repro.core.dgf.fleet.append_to_layouts).
    for spec in workload.layouts:
        report = session.add_layout(
            workload.table, workload.index_name, spec.name,
            grid=dict(spec.grid), stored_as=spec.stored_as,
            placement=spec.placement, datanodes=spec.datanodes)
        fingerprint[f"layout:{spec.name}"] = {
            "stats": asdict(report.job_stats),
            "index_size_bytes": report.index_size_bytes,
            "details": dict(report.details),
        }
    if workload.pyramid_fanout:
        fingerprint["pyramid"] = session.build_pyramid(
            workload.table, workload.index_name,
            fanout=workload.pyramid_fanout)
    if workload.append_rows:
        from repro.core.dgf.builder import append_with_dgf
        report = append_with_dgf(session, workload.table,
                                 workload.index_name,
                                 list(workload.append_rows))
        fingerprint["append"] = {
            "stats": asdict(report.job_stats),
            "details": dict(report.details),
        }
    if session.fault_injector is not None:
        session.fault_injector.activate_datanode_faults(session.fs)
    for position, (sql, options) in enumerate(workload.queries):
        result = session.execute(sql, options)
        fingerprint[f"query:{position}"] = query_fingerprint(result)

    # Global accounting must agree too: every byte read or written and
    # every KV op.
    fingerprint["fs_io"] = asdict(session.fs.io)
    fingerprint["kv_ops"] = asdict(session.kvstore.stats)
    fingerprint["jobs_run"] = session.engine.jobs_run
    return fingerprint


# --------------------------------------------------------------- service level
def run_service_workload(workload: Workload, concurrency: int,
                         cache: Union[None, bool, GfuMetadataCache] = None
                         ) -> Dict[str, Any]:
    """Like :func:`run_workload`, but the queries go through a
    :class:`QueryService` with ``concurrency`` workers (submitted all at
    once, so they genuinely interleave), and results are collected in
    submission order."""
    session = HiveSession(num_datanodes=4, cache=cache)
    session.fs.block_size = workload.block_size
    session.execute(workload.ddl)
    rows = list(workload.rows)
    if rows:
        files = max(1, min(workload.load_files, len(rows)))
        chunk = -(-len(rows) // files)
        for start in range(0, len(rows), chunk):
            session.load_rows(workload.table, rows[start:start + chunk])
    for name, ddl, extra_rows in workload.extra_tables:
        session.execute(ddl)
        if extra_rows:
            session.load_rows(name, list(extra_rows))

    fingerprint: Dict[str, Any] = {}
    if workload.index_sql:
        session.execute(workload.index_sql)
    for spec in workload.layouts:
        session.add_layout(
            workload.table, workload.index_name, spec.name,
            grid=dict(spec.grid), stored_as=spec.stored_as,
            placement=spec.placement, datanodes=spec.datanodes)
    if workload.pyramid_fanout:
        session.build_pyramid(workload.table, workload.index_name,
                              fanout=workload.pyramid_fanout)
    if workload.append_rows:
        from repro.core.dgf.builder import append_with_dgf
        append_with_dgf(session, workload.table, workload.index_name,
                        list(workload.append_rows))
    with QueryService(session, max_workers=concurrency,
                      queue_depth=max(len(workload.queries), 1)) as service:
        results = service.run_all(workload.queries)
    for position, result in enumerate(results):
        fingerprint[f"query:{position}"] = query_fingerprint(result)
    fingerprint["fs_io"] = asdict(session.fs.io)
    fingerprint["jobs_run"] = session.engine.jobs_run
    return fingerprint


def _query_view(fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    """The cache/service-comparable projection of a fingerprint.

    Drops physical KV op counts (the cache exists to change those) and the
    index-build/append entries (the service path replays them but does not
    re-fingerprint them; session-level equivalence covers those).
    """
    keep = {key: value for key, value in fingerprint.items()
            if key.startswith("query:") or key in ("fs_io", "jobs_run")}
    return keep


def assert_service_equivalent(
        workload: Workload,
        concurrency_levels: Sequence[int] = SERVICE_CONCURRENCY
        ) -> Dict[str, Any]:
    """ISSUE 4 acceptance: byte-identical queries across cache on/off and
    service concurrency levels.

    Baseline: the plain sequential session with the cache disabled.
    Candidates: the direct session with the cache enabled, then the query
    service at each concurrency level, cache off and on.  Returns the
    baseline fingerprint.
    """
    baseline = _query_view(run_workload(workload, cache=False))
    cached = _query_view(run_workload(workload, cache=True))
    _assert_same(baseline, cached, "cache=True (direct session)")
    for cache_on in (False, True):
        for concurrency in concurrency_levels:
            candidate = _query_view(
                run_service_workload(workload, concurrency, cache=cache_on))
            _assert_same(
                baseline, candidate,
                f"service concurrency={concurrency} cache={cache_on}")
    return baseline
