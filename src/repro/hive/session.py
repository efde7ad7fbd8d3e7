"""HiveSession: the public entry point tying all substrates together.

A session owns a simulated HDFS, a MapReduce engine, a key-value store
(HBase stand-in for DGFIndex), the metastore, the index-handler registry and
a cost model.  ``execute()`` accepts HiveQL text and returns a
:class:`QueryResult` with rows, measured counters and paper-scale simulated
times.

Typical use::

    session = HiveSession()
    session.execute("CREATE TABLE meterdata (userid bigint, ...)")
    session.load_rows("meterdata", rows)
    session.execute(
        "CREATE INDEX idx ON TABLE meterdata(userid, regionid, ts) "
        "AS 'dgf' IDXPROPERTIES ('userid'='0_200', 'regionid'='0_1', "
        "'ts'='2012-12-01_1d', 'precompute'='sum(powerconsumed)')")
    result = session.execute("SELECT sum(powerconsumed) FROM meterdata "
                             "WHERE userid >= 100 AND userid < 2000")
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import (DataNodeUnavailable, ExecutionError,
                          MetastoreError, SemanticError)
from repro.hdfs.filesystem import HDFS
from repro.hdfs.metrics import task_io_scope
from repro.hive import exec as hexec
from repro.hive import formats
from repro.hive.aggregates import canonical_key
from repro.hive.indexhandler import (BuildReport, IndexAccessPlan,
                                     IndexHandler, QueryIndexContext,
                                     resolve_handler_name)
from repro.hive.metastore import (IndexInfo, Metastore, TableInfo, parse_type)
from repro.hive.plan import Plan
from repro.hiveql import ast, parse
from repro.hiveql.predicates import extract_ranges
from repro.kvstore.hbase import KVStore
from repro.mapreduce.cluster import PAPER_CLUSTER, ClusterConfig
from repro.mapreduce.cost import CostModel, JobStats, TimeBreakdown
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.splits import FileSplit
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Trace, Tracer
from repro.service.cache import GfuMetadataCache
from repro.storage.schema import Column, Schema
from repro.storage.textfile import serialize_row


@dataclass
class QueryOptions:
    """Per-query knobs (all default to the paper's transparent behaviour).

    Layer ownership: QueryOptions is the **planner's per-query** surface —
    pass it (or a plain dict of its fields) to every
    ``execute(..., options=...)``.  The session-wide engine switch
    (``vectorized``) is fixed at ``repro.connect()`` time; service-pool
    sizing belongs to
    ``connect(max_workers=..., queue_depth=...)``.  Unknown keys in the
    dict form raise ``TypeError`` naming the right layer (see the
    knob-ownership section of :mod:`repro.api`).
    """

    use_index: bool = True
    #: force one specific index by name (None = automatic selection)
    index_name: Optional[str] = None
    #: Figure 17 ablation: keep DGFIndex but disable its header path
    dgf_use_precompute: bool = True
    #: pin the replica-fleet router to one layout ("primary" or a
    #: registered layout name); None = cost-based routing.  Only
    #: meaningful for tables whose DGF index carries a replica fleet.
    dgf_layout: Optional[str] = None
    #: disable the aggregation-pyramid read path while keeping the
    #: pyramid built (differential harnesses compare the two modes)
    dgf_pyramid: bool = True
    #: reducers used for GROUP BY jobs
    group_reducers: int = 8


@dataclass
class QueryStats:
    """Measured + modelled facts about one executed query."""

    jobs: int = 0
    splits_processed: int = 0
    records_read: int = 0          # base-table records fed to mappers
    bytes_read: int = 0
    records_matched: int = 0       # rows that satisfied the full predicate
    output_records: int = 0
    index_used: Optional[str] = None
    index_records_scanned: int = 0
    index_kv_gets: int = 0
    time: TimeBreakdown = field(default_factory=TimeBreakdown)

    @property
    def simulated_seconds(self) -> float:
        return self.time.total


@dataclass
class QueryResult:
    columns: List[str]
    rows: List[Tuple]
    stats: QueryStats = field(default_factory=QueryStats)
    description: str = ""
    #: the query's span tree (populated for SELECTs); ``trace.to_json()``
    #: emits the versioned document described in docs/observability.md.
    trace: Optional[Trace] = None
    #: structured plan (populated for SELECT/EXPLAIN); ``description`` is
    #: exactly ``plan.render()`` — inspect fields instead of parsing text.
    plan: Optional[Plan] = None

    def scalar(self) -> Any:
        """The single value of a one-row/one-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ExecutionError(
                f"scalar() on a {len(self.rows)}-row result")
        return self.rows[0][0]


class HiveSession:
    """Executes HiveQL over the simulated stack."""

    def __init__(self, fs: Optional[HDFS] = None,
                 kvstore: Optional[KVStore] = None,
                 cluster: ClusterConfig = PAPER_CLUSTER,
                 data_scale: float = 1.0,
                 num_datanodes: int = 4,
                 vectorized: bool = False,
                 cache: Union[None, bool, GfuMetadataCache] = None,
                 faults: Union[None, "FaultPlan", "FaultInjector"] = None):
        self.fs = fs if fs is not None else HDFS(num_datanodes=num_datanodes)
        self.kvstore = kvstore if kvstore is not None else KVStore()
        self.cluster = cluster
        self.cost_model = CostModel(cluster, data_scale=data_scale)
        self.metastore = Metastore()
        # ``vectorized`` opts eligible scans into the columnar batch engine
        # (:mod:`repro.vector`); results are byte-identical either way, and
        # the row engine runs everywhere when NumPy is not installed.
        self.vectorized = vectorized
        # Observability: one tracer (per-query span trees, normalized-stable
        # across engine modes) and one metrics registry per session.  The
        # filesystem, KV store and engine all report into the same tracer.
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.fs.tracer = self.tracer
        self.kvstore.tracer = self.tracer
        # Fault injection: accept a FaultPlan (wrapped in a fresh injector)
        # or a prebuilt FaultInjector; every instrumented layer shares it.
        # ``faults=None`` (the default) keeps all fault paths dormant.
        if faults is None:
            self.fault_injector = None
        else:
            from repro.faults import FaultInjector, FaultPlan
            if isinstance(faults, FaultPlan):
                faults = FaultInjector(faults)
            self.fault_injector = faults
            self.fault_injector.bind_metrics(self.metrics)
            self.fs.faults = self.fault_injector
            self.kvstore.faults = self.fault_injector
        self.engine = MapReduceEngine(self.fs, tracer=self.tracer,
                                      faults=self.fault_injector)
        # GFU-metadata cache in front of the KV store: on by default
        # (``cache=False`` disables it, an instance injects a shared one).
        # Kept coherent by the store's write listeners plus the explicit
        # namespace invalidations on append/rebuild/drop below; per-query
        # results and traces are byte-identical with or without it.
        if cache is False:
            self.metadata_cache: Optional[GfuMetadataCache] = None
        elif cache is None or cache is True:
            self.metadata_cache = GfuMetadataCache(metrics=self.metrics)
        else:
            self.metadata_cache = cache
            cache.bind_metrics(self.metrics)
        if self.metadata_cache is not None:
            self.kvstore.add_write_listener(self.metadata_cache.on_write)
        self._handlers: Dict[str, IndexHandler] = {}
        self._load_counters: Dict[str, int] = {}
        # Streaming delta bindings, one per table (lowercased name).  A
        # bound table's reads merge resident KV delta ops on the fly; see
        # repro.delta.  Attached via attach_delta() / the query service's
        # streaming_writer().
        self._delta_bindings: Dict[str, Any] = {}
        # Advisor query log: None (the default) disables capture entirely;
        # attach a repro.service.querylog.QueryLog to record one compact
        # LoggedQuery per executed DGF range query.  The pending region is
        # thread-local so concurrent service workers never cross-log.
        self.query_log = None
        self._pending_region = threading.local()
        self._register_default_handlers()

    def set_data_scale(self, data_scale: float) -> None:
        """Rescale the cost model (paper records / loaded records)."""
        self.cost_model = CostModel(self.cluster, data_scale=data_scale)

    # ----------------------------------------------------------- registration
    def _register_default_handlers(self) -> None:
        # Imported here to avoid a circular import at module load time.
        from repro.indexes.compact import CompactIndexHandler
        from repro.indexes.aggregate import AggregateIndexHandler
        from repro.indexes.bitmap import BitmapIndexHandler
        from repro.core.dgf.handler import DgfIndexHandler
        for handler in (DgfIndexHandler(), CompactIndexHandler(),
                        AggregateIndexHandler(), BitmapIndexHandler()):
            self.register_handler(handler)

    def register_handler(self, handler: IndexHandler) -> None:
        self._handlers[handler.handler_name] = handler

    def handler(self, name: str) -> IndexHandler:
        try:
            return self._handlers[name]
        except KeyError:
            raise SemanticError(f"no index handler registered as {name!r}")

    def dgf_store(self, table: str, index: str):
        """A :class:`~repro.core.dgf.store.DgfStore` for ``(table, index)``
        wired to this session's GFU-metadata cache (planner read path)."""
        from repro.core.dgf.store import DgfStore
        return DgfStore(self.kvstore, table, index,
                        cache=self.metadata_cache)

    # ------------------------------------------------------------- streaming
    def attach_delta(self, table: str, index: str,
                     key_columns: Optional[Sequence[str]] = None):
        """Bind a KV delta store to ``table``'s DGF ``index`` so streamed
        inserts/upserts/deletes are merged into every subsequent read
        (:class:`~repro.delta.store.DeltaBinding`).  Idempotent for the
        same index; rebinding a table to a different index raises."""
        from repro.delta.store import DeltaBinding
        from repro.errors import DeltaError
        info = self.metastore.get_table(table)
        existing = self._delta_bindings.get(info.name.lower())
        if existing is not None:
            if not existing.serves(index):
                raise DeltaError(
                    f"table {info.name!r} already streams into index "
                    f"{existing.index.name!r}; detach_delta() first")
            return existing
        binding = DeltaBinding(self, info,
                               self.metastore.get_index(table, index),
                               key_columns=key_columns)
        self._delta_bindings[info.name.lower()] = binding
        return binding

    def delta_binding(self, table: str):
        """The table's live :class:`DeltaBinding`, or ``None``."""
        return self._delta_bindings.get(table.lower())

    def detach_delta(self, table: str, clear: bool = False):
        """Unbind the table's delta store.  ``clear=True`` also deletes
        its resident KV ops (otherwise they survive for a re-attach)."""
        binding = self._delta_bindings.pop(table.lower(), None)
        if binding is not None and clear:
            binding.clear()
        return binding

    def _invalidate_table_cache(self, table: str) -> None:
        if self.metadata_cache is not None:
            self.metadata_cache.invalidate_table(table)

    def _invalidate_index_cache(self, table: str, index: str) -> None:
        if self.metadata_cache is not None:
            self.metadata_cache.invalidate_index(table, index)

    # ------------------------------------------------------------------- DDL
    def execute(self, sql: str,
                options: Optional[QueryOptions] = None) -> QueryResult:
        stmt = parse(sql) if isinstance(sql, str) else sql
        options = options or QueryOptions()
        if isinstance(stmt, ast.SelectStmt):
            return self._run_select(stmt, options)
        if isinstance(stmt, ast.ExplainStmt):
            return self._explain(stmt.query, options, analyze=stmt.analyze)
        if isinstance(stmt, ast.CreateTableStmt):
            return self._create_table(stmt)
        if isinstance(stmt, ast.CreateIndexStmt):
            return self._create_index(stmt)
        if isinstance(stmt, ast.DropTableStmt):
            return self._drop_table(stmt)
        if isinstance(stmt, ast.DropIndexStmt):
            return self._drop_index(stmt)
        if isinstance(stmt, ast.ShowTablesStmt):
            return QueryResult(columns=["table_name"],
                               rows=[(t,) for t in
                                     self.metastore.list_tables()])
        if isinstance(stmt, ast.ShowIndexesStmt):
            rows = [(i.name, i.handler, ",".join(i.columns), i.built)
                    for i in self.metastore.indexes_on(stmt.table)]
            return QueryResult(
                columns=["index_name", "handler", "columns", "built"],
                rows=rows)
        if isinstance(stmt, ast.DescribeStmt):
            table = self.metastore.get_table(stmt.table)
            rows = [(c.name, c.dtype.value) for c in table.schema.columns]
            return QueryResult(columns=["col_name", "data_type"], rows=rows)
        raise ExecutionError(f"unsupported statement {type(stmt).__name__}")

    def _create_table(self, stmt: ast.CreateTableStmt) -> QueryResult:
        if stmt.if_not_exists and self.metastore.has_table(stmt.name):
            return QueryResult(columns=["result"], rows=[("EXISTS",)])
        columns = [Column(c.name, parse_type(c.type_name))
                   for c in stmt.columns]
        partition_schema = None
        if stmt.partitioned_by:
            # Partition columns are routing columns; they are also kept in
            # the row data so scans and filters treat them uniformly (a
            # documented divergence from Hive, which stores them only in the
            # directory name).
            partition_schema = Schema(
                Column(c.name, parse_type(c.type_name))
                for c in stmt.partitioned_by)
            names = {c.name.lower() for c in columns}
            missing = [c for c in partition_schema.columns
                       if c.name.lower() not in names]
            columns.extend(missing)
        info = TableInfo(name=stmt.name, schema=Schema(columns),
                         stored_as=stmt.stored_as,
                         partition_schema=partition_schema)
        self.metastore.create_table(info)
        self.fs.mkdirs(info.location)
        return QueryResult(columns=["result"], rows=[("OK",)])

    def _drop_table(self, stmt: ast.DropTableStmt) -> QueryResult:
        if stmt.if_exists and not self.metastore.has_table(stmt.name):
            return QueryResult(columns=["result"], rows=[("SKIPPED",)])
        for index in self.metastore.indexes_on(stmt.name):
            self.handler(index.handler).drop(self, index)
            # Persisted streaming deltas ride the index's lifecycle even
            # when no binding is attached this session.
            from repro.delta.store import DeltaStore
            DeltaStore(self.kvstore, stmt.name, index.name).clear()
        self._delta_bindings.pop(stmt.name.lower(), None)
        self._invalidate_table_cache(stmt.name)
        if self.metadata_cache is not None:
            self.metadata_cache.invalidate_streaming(stmt.name)
        info = self.metastore.drop_table(stmt.name)
        if self.fs.exists(info.location):
            self.fs.delete(info.location, recursive=True)
        reorganized = info.properties.get("dgf_data_location")
        if reorganized and self.fs.exists(reorganized):
            self.fs.delete(reorganized, recursive=True)
        return QueryResult(columns=["result"], rows=[("OK",)])

    def _create_index(self, stmt: ast.CreateIndexStmt) -> QueryResult:
        handler_name = resolve_handler_name(stmt.handler)
        table = self.metastore.get_table(stmt.table)
        for column in stmt.columns:
            table.schema.index_of(column)  # validates
        info = IndexInfo(name=stmt.name, table=stmt.table,
                         columns=tuple(table.schema.column(c).name
                                       for c in stmt.columns),
                         handler=handler_name,
                         properties=dict(stmt.properties))
        self.metastore.add_index(info)
        if stmt.deferred_rebuild:
            return QueryResult(columns=["result"], rows=[("DEFERRED",)])
        report = self.handler(handler_name).build(self, info)
        info.state["build_report"] = report
        return QueryResult(
            columns=["result", "index_size_bytes", "build_seconds"],
            rows=[("OK", report.index_size_bytes, report.build_time.total)])

    def _drop_index(self, stmt: ast.DropIndexStmt) -> QueryResult:
        info = self.metastore.drop_index(stmt.table, stmt.name)
        self.handler(info.handler).drop(self, info)
        # Strict invalidation: the drop's deletes already evicted every
        # *positive* cache entry via the write listeners; dropping the
        # whole namespace also clears negative entries so a later index
        # of the same name starts from a cold cache.
        self._invalidate_index_cache(stmt.table, stmt.name)
        return QueryResult(columns=["result"], rows=[("OK",)])

    def rebuild_index(self, table: str, name: str) -> BuildReport:
        """ALTER INDEX ... REBUILD equivalent (also used after appends)."""
        info = self.metastore.get_index(table, name)
        binding = self.delta_binding(table)
        if (binding is not None and binding.serves(name)
                and binding.resident_ops):
            from repro.errors import DeltaError
            raise DeltaError(
                f"index {name!r} has {binding.resident_ops} resident "
                "streaming ops; compact or clear the delta before "
                "rebuilding")
        self._invalidate_index_cache(table, name)
        report = self.handler(info.handler).build(self, info)
        info.state["build_report"] = report
        return report

    def build_report(self, table: str, name: str) -> BuildReport:
        info = self.metastore.get_index(table, name)
        report = info.state.get("build_report")
        if report is None:
            raise MetastoreError(f"index {name!r} has not been built")
        return report

    # ---------------------------------------------------------- replica fleet
    def add_layout(self, table: str, index: str, layout: str, *,
                   grid: Optional[Dict[str, str]] = None,
                   stored_as: Optional[str] = None,
                   placement: Optional[str] = None,
                   datanodes: Iterable[int] = ()) -> BuildReport:
        """Build one replica-fleet layout of a DGF index (HAIL-style):
        a full reorganized copy under its own grid granularity, storage
        format and reducer placement, pinned to ``datanodes``.  See
        :mod:`repro.core.dgf.fleet` and docs/replicas.md."""
        from repro.core.dgf import fleet
        return fleet.add_replica_layout(
            self, table, index, layout, grid=grid, stored_as=stored_as,
            placement=placement, datanodes=datanodes)

    def drop_layout(self, table: str, index: str, layout: str) -> None:
        """Remove one replica-fleet layout (files, KV namespace, pin)."""
        from repro.core.dgf import fleet
        fleet.drop_layout(self, self.metastore.get_table(table),
                          self.metastore.get_index(table, index), layout)

    def layout_report(self) -> List[Dict[str, Any]]:
        """Registered layouts and their liveness (delegates to HDFS)."""
        return self.fs.layout_report()

    # ---------------------------------------------------- aggregation pyramid
    def build_pyramid(self, table: str, index: str,
                      fanout: int = 2) -> Dict[str, Any]:
        """Materialize the multi-resolution aggregation pyramid over a
        built DGF index's GFU headers (and over every registered replica
        layout), enabling the pyramid read path for inner regions.  See
        :mod:`repro.pyramid` and docs/pyramid.md."""
        from repro.core.dgf import fleet
        from repro.errors import IndexError_
        from repro.pyramid import PYRAMID_STATE_KEY, rebuild_pyramid
        info = self.metastore.get_index(table, index)
        if info.handler != "dgf":
            raise IndexError_(
                f"index {index!r} uses handler {info.handler!r}; the "
                "aggregation pyramid only applies to DGF indexes")
        if not info.built:
            raise IndexError_(
                f"index {index!r} has not been built; build it before "
                "adding a pyramid")
        if fanout < 2:
            raise IndexError_(f"pyramid fanout must be >= 2, got {fanout}")
        info.state[PYRAMID_STATE_KEY] = {"fanout": fanout, "layouts": {}}
        summary = {"primary": rebuild_pyramid(self, info)}
        for layout_name in fleet.registered_layouts(info):
            summary[layout_name] = rebuild_pyramid(self, info,
                                                   layout_name=layout_name)
        return summary

    def drop_pyramid(self, table: str, index: str) -> None:
        """Remove the index's aggregation pyramid (all layouts) and
        disable the pyramid read path.  The index itself is untouched."""
        from repro.core.dgf import fleet
        from repro.pyramid import PYRAMID_STATE_KEY, drop_pyramid
        info = self.metastore.get_index(table, index)
        drop_pyramid(self, info.table, info.name)
        for layout_name in fleet.registered_layouts(info):
            drop_pyramid(self, info.table, info.name,
                         layout_name=layout_name)
        info.state.pop(PYRAMID_STATE_KEY, None)

    # ----------------------------------------------------------- data loading
    def load_rows(self, table_name: str, rows: Iterable[Sequence[Any]],
                  file_label: Optional[str] = None) -> int:
        """Append rows to the table (one new file per call, per partition).

        Mirrors the paper's load path: HDFS clients append verified meter
        data as new files; indexes are *not* implicitly updated (DGFIndex
        appends go through :meth:`append_with_dgf` instead).
        """
        table = self.metastore.get_table(table_name)
        # Appended rows make any cached index metadata for this table
        # suspect (e.g. headers a subsequent append_with_dgf will merge
        # into); drop the whole namespace up front.
        self._invalidate_table_cache(table.name)
        count = self._load_counters.get(table.name.lower(), 0)
        self._load_counters[table.name.lower()] = count + 1
        label = file_label or f"{count:06d}_0"
        written = 0
        if not table.is_partitioned:
            with formats.open_row_writer(
                    self.fs, f"{table.location}/{label}", table) as writer:
                for row in rows:
                    table.schema.validate_row(row)
                    writer.write_row(row)
                    written += 1
            return written
        # Partitioned: route rows into one file per partition directory.
        positions = [table.schema.index_of(c.name)
                     for c in table.partition_schema.columns]
        buckets: Dict[Tuple, List[Tuple]] = {}
        for row in rows:
            table.schema.validate_row(row)
            key = tuple(row[p] for p in positions)
            buckets.setdefault(key, []).append(tuple(row))
        for key, bucket in buckets.items():
            directory = table.partition_dir(key)
            table.partitions[key] = directory
            with formats.open_row_writer(
                    self.fs, f"{directory}/{label}", table) as writer:
                writer.write_rows(bucket)
            written += len(bucket)
        return written

    # ---------------------------------------------------------------- SELECT
    def _run_select(self, stmt: ast.SelectStmt,
                    options: QueryOptions) -> QueryResult:
        with self.tracer.span("query") as root:
            attempt = 0
            while True:
                try:
                    result = self._execute_select(stmt, options, root)
                    break
                except DataNodeUnavailable:
                    # Layout failover: a replica layout's pinned datanode
                    # died under this query.  If any registered layout is
                    # now dead, replan — the router skips dead layouts and
                    # re-costs the survivors.  Anything else (a genuinely
                    # unreadable block) propagates as before.
                    dead = [d.name for d in self.fs.layouts()
                            if not self.fs.layout_alive(d.name)]
                    attempt += 1
                    if not dead or attempt > len(self.fs.layouts()):
                        raise
                    self._note_layout_downgrade(root, dead, attempt)
        if self.tracer.enabled:
            result.trace = Trace(root)
            if result.plan is not None:
                result.plan.trace = result.trace
        return result

    def _note_layout_downgrade(self, root: Span, dead: List[str],
                               attempt: int) -> None:
        """Record one aborted query attempt before the layout-failover
        replan.  The attempt's spans are folded under a single
        ``fault:layout_downgrade`` child (carrying no simulated time, like
        every ``fault:*`` span), so the retried attempt's children still
        reconcile exactly with the root's totals and the chaos view's
        fault-stripping removes the abort wholesale."""
        if self.fault_injector is not None:
            self.fault_injector.layout_downgrade(
                dead, root.children_sim_sum().total)
        if self.tracer.enabled and root.children:
            wrapper = Span(name="fault:layout_downgrade",
                           attrs={"dead_layouts": ",".join(sorted(dead)),
                                  "attempt": attempt})
            wrapper.children = root.children
            for child in wrapper.children:
                child.sim = None
            root.children = [wrapper]
            root.add("fault.layout_downgrades")

    # ------------------------------------------------------- query-log capture
    def note_query_region(self, table: str, index: str, spans,
                          agg_path: bool) -> None:
        """Called by the DGF handler during planning (before replica
        routing): stage this thread's query region for the log.  The
        entry is only committed by :meth:`_finalize_query_log` once the
        query has executed and measured itself — EXPLAIN-only planning
        stages a region that the next execution simply discards."""
        self._pending_region.value = {"table": table, "index": index,
                                      "spans": spans, "agg_path": agg_path}

    def _clear_query_region(self) -> None:
        self._pending_region.value = None

    def _finalize_query_log(self, stats: QueryStats, plan: Plan) -> None:
        """Commit the staged region (if any) as one LoggedQuery."""
        pending = getattr(self._pending_region, "value", None)
        self._pending_region.value = None
        if pending is None or self.query_log is None:
            return
        from repro.service.querylog import LoggedQuery
        layout = plan.access.layout if plan.access is not None else None
        self.query_log.record(LoggedQuery(
            table=pending["table"], index=pending["index"],
            spans=pending["spans"], agg_path=pending["agg_path"],
            layout=layout, seconds=stats.time.total,
            records_read=stats.records_read,
            records_matched=stats.records_matched,
            output_records=stats.output_records))

    def _execute_select(self, stmt: ast.SelectStmt, options: QueryOptions,
                        root: Span) -> QueryResult:
        """Run one SELECT under the ``root`` span.

        Every simulated-time contribution is attached to exactly one direct
        child span (in the order it is accumulated into ``stats.time``), so
        the root's ``sim`` reconciles bit-for-bit with the sum of its
        children's — the invariant ``EXPLAIN ANALYZE`` and the trace tests
        rely on.
        """
        self._clear_query_region()
        with self.tracer.span("analyze") as analyze_span:
            analysis = hexec.analyze(self.metastore, stmt)
            analyze_span.set("columns", len(analysis.referenced_columns))
        shape = "group/aggregate" if analysis.is_group_query else "projection"
        root.set("table", analysis.table.name)
        root.set("shape", shape)

        with self.tracer.span("plan_access") as plan_span:
            plan = self._plan_access(analysis, options)
            if plan is not None:
                plan_span.set("handler", plan.handler)
                if plan.mode:
                    plan_span.set("mode", plan.mode)
                plan_span.set("inner_gfus", plan.inner_gfus)
                plan_span.set("boundary_gfus", plan.boundary_gfus)
                plan_span.set("splits_kept", len(plan.splits))
                if plan.total_splits is not None:
                    plan_span.set("splits_total", plan.total_splits)
                plan_span.sim = plan.index_time
            else:
                plan_span.set("handler", "none")

        stats = QueryStats()
        time = TimeBreakdown()
        if plan is not None:
            stats.index_used = plan.description
            stats.index_records_scanned = plan.index_records_scanned
            stats.index_kv_gets = plan.index_kv_gets
            time = time + plan.index_time

        # Join build sides (Hive's local map-join hash-table task).
        if analysis.joins:
            for step in analysis.joins:
                side = self.delta_binding(step.table.name)
                if side is not None and side.resident_cells:
                    raise ExecutionError(
                        f"join build side {step.table.name!r} has resident "
                        "streaming deltas; compact them before joining "
                        "(hash tables are built from base files only)")
            with self.tracer.span("join_build",
                                  joins=len(analysis.joins)) as join_span:
                build_stats = hexec.load_join_hash_tables(self.fs, analysis)
                build_time = self.cost_model.job_seconds(
                    build_stats, include_launch=False)
                join_span.sim = build_time
                join_span.add("input_records",
                              build_stats.map_input_records)
                join_span.add("input_bytes", build_stats.map_input_bytes)
            time = time + build_time
            stats.records_read += build_stats.map_input_records
            stats.bytes_read += build_stats.map_input_bytes

        splits, input_format, delta_info = self._resolve_splits(analysis,
                                                                plan)
        header_states = plan.header_states if plan is not None else None
        rewrite_grouped = plan.rewrite_grouped if plan is not None else None
        if rewrite_grouped is not None:
            splits = []
            header_states = None

        grouped: Dict[Any, Tuple] = {}
        plain_rows: List[Tuple] = []
        vectorized = False
        if rewrite_grouped is not None:
            grouped = rewrite_grouped
            with self.tracer.span("index_rewrite",
                                  groups=len(grouped)) as rewrite_span:
                rewrite_span.sim = TimeBreakdown(
                    read_index_and_other=self.cluster.job_launch_seconds)
            time = time + rewrite_span.sim
        elif splits:
            vector_plan = self._vector_plan(analysis, input_format)
            vectorized = vector_plan is not None
            job = hexec.build_job(analysis, splits, input_format,
                                  job_name=f"select-{stmt.table.name}",
                                  num_group_reducers=options.group_reducers,
                                  vector_plan=vector_plan)
            result = self.engine.run(job)
            stats.jobs += 1
            stats.splits_processed = len(splits)
            stats.records_read += result.stats.map_input_records
            stats.bytes_read += result.stats.map_input_bytes
            stats.records_matched = result.counters.get("query", "matched")
            job_time = self._annotate_job_span(result)
            time = time + job_time
            if analysis.is_group_query:
                grouped = dict(result.output)
            else:
                plain_rows = [value for _key, value in result.output]
        else:
            # Fully covered by pre-computed headers (or empty table): Hive
            # still submits a job shell, so charge one launch.
            with self.tracer.span("job_launch") as launch_span:
                launch_span.sim = TimeBreakdown(
                    read_index_and_other=self.cluster.job_launch_seconds)
            time = time + launch_span.sim

        if (analysis.is_group_query and not analysis.group_exprs
                and hexec._GLOBAL_KEY not in grouped):
            # SQL semantics: global aggregation over zero rows still yields
            # one row (count 0, sum NULL, ...).
            grouped[hexec._GLOBAL_KEY] = tuple(
                agg.function.initial() for agg in analysis.aggregates)

        if header_states is not None:
            with self.tracer.span("merge_headers") as merge_span:
                grouped = self._merge_header_states(analysis, grouped,
                                                    header_states)
                merge_span.add("header_aggregates", len(header_states))

        with self.tracer.span("finalize") as finalize_span:
            if analysis.is_group_query:
                rows = hexec.finalize_group_output(analysis, grouped)
            else:
                rows = plain_rows
            rows = hexec.apply_order_and_limit(analysis, rows)
            stats.output_records = len(rows)
            finalize_span.add("output_records", len(rows))

        if stmt.insert_directory:
            with self.tracer.span(
                    "write_output",
                    directory=stmt.insert_directory) as write_span:
                write_time = self._write_directory(stmt.insert_directory,
                                                   rows, stats)
                write_span.sim = write_time
            time = time + write_time

        stats.time = time
        root.sim = time
        root.add("records_read", stats.records_read)
        root.add("bytes_read", stats.bytes_read)
        root.add("records_matched", stats.records_matched)
        root.add("output_records", stats.output_records)
        root.add("splits_processed", stats.splits_processed)
        self._record_query_metrics(shape, plan, stats)
        query_plan = self._make_plan(analysis, plan, len(splits),
                                     vectorized=vectorized,
                                     delta=delta_info)
        self._finalize_query_log(stats, query_plan)
        return QueryResult(columns=list(analysis.output_names), rows=rows,
                           stats=stats,
                           description=query_plan.render(),
                           plan=query_plan)

    def _annotate_job_span(self, result) -> TimeBreakdown:
        """Attach the cost model's per-phase seconds to the engine's spans.

        The phases come from :meth:`CostModel.job_phases`, the same numbers
        :meth:`CostModel.job_seconds` folds into the job total, so the
        ``mr_job`` span's sim equals the sum of its phase children's sims
        exactly (a synthetic ``job_launch`` child carries the fixed launch
        overhead, which the engine cannot know about).
        """
        job_time = self.cost_model.job_seconds(result.stats)
        span = result.trace_span
        if span is None:
            return job_time
        phases = self.cost_model.job_phases(result.stats)
        span.sim = job_time
        span.children.insert(0, Span(
            name="job_launch",
            sim=TimeBreakdown(read_index_and_other=phases["launch"])))
        names = (("map_phase", "map"), ("shuffle", "shuffle"),
                 ("reduce_phase", "reduce"))
        for child_name, phase in names:
            child = span.child(child_name)
            if child is not None:
                child.sim = TimeBreakdown(
                    read_data_and_process=phases[phase])
        return job_time

    def _record_query_metrics(self, shape: str,
                              plan: Optional[IndexAccessPlan],
                              stats: QueryStats) -> None:
        handler = plan.handler if plan is not None else "none"
        self.metrics.counter(
            "queries_total", "SELECT statements executed").inc(
                shape=shape, index=handler)
        self.metrics.histogram(
            "query_sim_seconds",
            "simulated paper-scale seconds per query").observe(
                stats.time.total, shape=shape)
        self.metrics.counter(
            "mr_jobs_total", "MapReduce jobs launched by queries").inc(
                stats.jobs)
        self.metrics.counter(
            "records_read_total", "base-table records fed to mappers").inc(
                stats.records_read)
        self.metrics.gauge(
            "last_query_splits",
            "splits processed by the most recent query").set(
                stats.splits_processed)

    def _merge_header_states(self, analysis: hexec.AnalyzedSelect,
                             grouped: Dict[Any, Tuple],
                             header_states: Dict[str, Any]) -> Dict[Any, Tuple]:
        """Merge DGFIndex inner-region header states with the boundary job's
        partial states (global aggregation only — no GROUP BY)."""
        states = []
        for agg in analysis.aggregates:
            header = header_states.get(agg.key)
            boundary = None
            if hexec._GLOBAL_KEY in grouped:
                index = analysis.aggregates.index(agg)
                boundary = grouped[hexec._GLOBAL_KEY][index]
            if boundary is None:
                merged = header if header is not None \
                    else agg.function.initial()
            elif header is None:
                merged = boundary
            else:
                merged = agg.function.merge(header, boundary)
            states.append(merged)
        return {hexec._GLOBAL_KEY: tuple(states)}

    def _plan_access(self, analysis: hexec.AnalyzedSelect,
                     options: QueryOptions) -> Optional[IndexAccessPlan]:
        if not options.use_index:
            return None
        table = analysis.table
        indexes = self.metastore.indexes_on(table.name)
        if options.index_name is not None:
            indexes = [i for i in indexes
                       if i.name.lower() == options.index_name.lower()]
            if not indexes:
                raise MetastoreError(
                    f"forced index {options.index_name!r} not found on "
                    f"{table.name!r}")
        binding = self.delta_binding(table.name)
        if binding is not None and binding.resident_cells:
            # Merge-on-read only understands the bound index's grid: any
            # other access path would miss resident delta rows.  A table
            # with no resident ops plans exactly as an unbound one.
            indexes = [i for i in indexes if binding.serves(i.name)]
        group_columns: Optional[List[str]] = []
        for expr in analysis.group_exprs:
            if isinstance(expr, ast.ColumnRef):
                group_columns.append(expr.name.lower())
            else:
                group_columns = None
                break
        ctx = QueryIndexContext(
            ranges=analysis.ranges,
            agg_keys=[agg.key for agg in analysis.aggregates],
            is_plain_aggregation=analysis.stmt.is_plain_aggregation,
            use_precompute=options.dgf_use_precompute,
            referenced_columns=analysis.referenced_columns,
            group_columns=group_columns,
            force_layout=options.dgf_layout,
            use_pyramid=options.dgf_pyramid)
        priority = {"dgf": 0, "aggregate": 1, "bitmap": 2, "compact": 3}
        for index in sorted(indexes,
                            key=lambda i: priority.get(i.handler, 9)):
            if not index.built:
                continue
            with self.tracer.span(f"plan:{index.handler}",
                                  index=index.name) as handler_span:
                plan = self.handler(index.handler).plan_access(
                    self, table, index, ctx)
                handler_span.set("selected", plan is not None)
            if plan is not None:
                return plan
        return None

    def _resolve_splits(self, analysis: hexec.AnalyzedSelect,
                        plan: Optional[IndexAccessPlan]):
        """Returns ``(splits, input_format, delta_info)``.

        ``delta_info`` is ``(cells, rows)`` when this *full-scan* path
        composed a merge-on-read overlay itself; index plans carry their
        overlay stats on the :class:`IndexAccessPlan` instead.
        """
        table = analysis.table
        if plan is not None:
            fmt = plan.input_format
            if fmt is None:
                fmt = formats.input_format_for(
                    table, columns=self._pruned_columns(analysis))
            return plan.splits, fmt, None
        binding = self.delta_binding(table.name)
        if binding is not None and not binding.resident_cells:
            binding = None
        columns = self._pruned_columns(analysis)
        if binding is not None and columns is not None:
            # Widen RCFile pruning so cell/key routing for tombstones sees
            # the dimension and key columns (pruned positions read None).
            have = {c.lower() for c in columns}
            columns = list(columns) + [c for c in binding.required_columns
                                       if c.lower() not in have]
        fmt = formats.input_format_for(table, columns=columns)
        paths = self._pruned_paths(analysis)
        splits = fmt.get_splits(self.fs, paths)
        if binding is None:
            return splits, fmt, None
        from repro.delta.overlay import DeltaOverlayInputFormat
        with self.tracer.span("delta:merge") as merge_span:
            overlay = binding.build_overlay(None)
            if overlay is None:  # pragma: no cover - resident check above
                return splits, fmt, None
            merge_span.add("delta.cells", overlay.num_cells)
            merge_span.add("delta.rows", overlay.num_rows)
            merge_span.add("delta.suppressed", overlay.num_suppressed)
        return (splits + overlay.synthetic_splits(),
                DeltaOverlayInputFormat(fmt, overlay),
                (overlay.num_cells, overlay.num_rows))

    def _pruned_columns(self, analysis: hexec.AnalyzedSelect):
        if analysis.table.stored_as.upper() == formats.RCFILE:
            return analysis.referenced_columns
        return None

    def _pruned_paths(self, analysis: hexec.AnalyzedSelect) -> List[str]:
        """Partition pruning: keep only partitions whose values satisfy the
        extracted ranges (Hive's coarse-grained 'index')."""
        table = analysis.table
        if not table.is_partitioned or not table.partitions:
            root = table.data_location
            return [root] if self.fs.exists(root) else []
        kept: List[str] = []
        for values, directory in sorted(table.partitions.items()):
            keep = True
            for column, value in zip(table.partition_schema.columns, values):
                interval = analysis.ranges.interval_for(column.name)
                if interval is not None and not interval.contains(value):
                    keep = False
                    break
            if keep and self.fs.exists(directory):
                kept.append(directory)
        return kept

    def _write_directory(self, directory: str, rows: List[Tuple],
                         stats: QueryStats) -> TimeBreakdown:
        """INSERT OVERWRITE DIRECTORY: write the result as a text file."""
        if self.fs.exists(directory):
            self.fs.delete(directory, recursive=True)
        path = f"{directory}/000000_0"
        # Measure this thread's own writes via a nested I/O scope (instead
        # of a global snapshot/delta) so concurrent statements running
        # under the query service cannot pollute the measurement.
        with task_io_scope() as scope:
            with self.fs.create(path) as writer:
                for row in rows:
                    line = "|".join("" if v is None else str(v)
                                    for v in row)
                    writer.write(line.encode("utf-8") + b"\n")
            written = scope.captured(self.fs.io).bytes_written
        extra = JobStats(output_bytes=written)
        return self.cost_model.job_seconds(extra, include_launch=False)

    def _vector_plan(self, analysis: hexec.AnalyzedSelect, input_format):
        """The columnar plan for this scan, or ``None`` (vectorization off,
        NumPy unavailable, joins, or no batch decoder for the format)."""
        if not self.vectorized:
            return None
        from repro import vector  # deferred: NumPy-optional subsystem
        return vector.compile_select(analysis, input_format)

    def _make_plan(self, analysis: hexec.AnalyzedSelect,
                   access: Optional[IndexAccessPlan],
                   num_splits: int, vectorized: bool = False,
                   delta: Optional[Tuple[int, int]] = None) -> Plan:
        shape = "group/aggregate" if analysis.is_group_query else "projection"
        if delta is not None:
            delta_cells, delta_rows = delta
        elif access is not None:
            delta_cells, delta_rows = access.delta_cells, access.delta_rows
        else:
            delta_cells = delta_rows = 0
        return Plan(table=analysis.table.name,
                    stored_as=analysis.table.stored_as,
                    shape=shape,
                    joins=len(analysis.joins),
                    splits=num_splits,
                    access=access,
                    vectorized=vectorized,
                    delta_cells=delta_cells,
                    delta_rows=delta_rows)

    def _explain(self, stmt: ast.SelectStmt, options: QueryOptions,
                 analyze: bool = False) -> QueryResult:
        if analyze:
            # EXPLAIN ANALYZE: execute the query, then render the span tree
            # (the plan-only lines first, for context).
            result = self._run_select(stmt, options)
            text = (result.plan.render_analyze()
                    if result.plan is not None else result.description)
            return QueryResult(columns=["plan"],
                               rows=[(line,) for line in text.split("\n")],
                               stats=result.stats,
                               description=text,
                               trace=result.trace,
                               plan=result.plan)
        analysis = hexec.analyze(self.metastore, stmt)
        access = self._plan_access(analysis, options)
        splits, fmt, delta_info = self._resolve_splits(analysis, access)
        # Mirror _run_select's decision: an index rewrite answers from GFU
        # headers without a scan job, so nothing would be vectorized.
        rewrite = access.rewrite_grouped if access is not None else None
        vectorized = bool(
            splits and rewrite is None
            and self._vector_plan(analysis, fmt) is not None)
        query_plan = self._make_plan(analysis, access, len(splits),
                                     vectorized=vectorized,
                                     delta=delta_info)
        text = query_plan.render()
        return QueryResult(columns=["plan"],
                           rows=[(line,) for line in text.split("\n")],
                           description=text,
                           plan=query_plan)

    # -------------------------------------------------------------- counting
    def table_row_count(self, table_name: str) -> int:
        """Exact row count via a full scan (no index; used by tests)."""
        table = self.metastore.get_table(table_name)
        return sum(1 for _ in formats.scan_table_rows(self.fs, table))
