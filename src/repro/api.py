"""The stable public connection API: ``repro.connect() -> Connection``.

A thin DB-API-2.0-flavoured facade over :class:`repro.hive.session
.HiveSession` and :class:`repro.service.queryservice.QueryService`,
so applications depend on a small, stable surface instead of the
session's internals:

    >>> import repro
    >>> conn = repro.connect()
    >>> cur = conn.cursor()
    >>> _ = cur.execute("CREATE TABLE t (a bigint, b double)")
    >>> conn.load_rows("t", [(1, 2.0), (2, 3.0)])
    2
    >>> cur.execute("SELECT sum(b) FROM t WHERE a >= ?", (1,)).fetchall()
    [(5.0,)]

Deviations from PEP 249, all forced by the underlying model, are explicit:
there is no transaction concept (``commit()`` is a no-op, there is no
``rollback()``), parameters use the ``qmark`` style with client-side
binding (the HiveQL dialect has no server-side placeholders), and
``Cursor.execute`` returns the cursor to allow chaining.

Concurrency goes through :attr:`Connection.service` — a
:class:`~repro.service.queryservice.QueryService` with a bounded admission
queue — while single-statement calls stay on the caller's thread.

Knob ownership (who tunes what)
-------------------------------
Three layers each own their knobs, and this module plumbs all of them:

* **Planner, per query** — :class:`QueryOptions`, passed to every
  ``execute(..., options=...)`` as an instance or a plain dict
  (``{"dgf_layout": "fine"}``): index choice, the header-path ablation,
  replica-layout pinning, reducer counts.
* **Engine, per session** — ``vectorized=``, fixed at :func:`connect`
  time: the columnar scan path.  Results are byte-identical either way,
  so it never appears per query.
* **Service, per connection** — ``max_workers=`` / ``queue_depth=`` size
  :attr:`Connection.service`'s admission queue and worker pool.

Unknown kwargs are rejected with a ``TypeError`` that names the layer the
knob belongs to, rather than being silently dropped.
"""

from __future__ import annotations

import dataclasses

from typing import (Any, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from repro.core.dgf.advisor import Advice
from repro.errors import ExecutionError, InterfaceError, ReproError
from repro.hdfs.filesystem import HDFS
from repro.hive.plan import Plan
from repro.hive.session import HiveSession, QueryOptions, QueryResult
from repro.service.advisor import Advisor
from repro.kvstore.hbase import KVStore
from repro.mapreduce.cluster import PAPER_CLUSTER, ClusterConfig
from repro.service.cache import GfuMetadataCache
from repro.service.queryservice import DEFAULT_QUEUE_DEPTH, QueryService

#: PEP 249 module globals.
apilevel = "2.0"
#: threads may share the module and connections (the session serializes
#: shared state; concurrent statements go through ``Connection.service``).
threadsafety = 2
#: ``?`` placeholders, bound client-side.
paramstyle = "qmark"

#: PEP 249 exception aliases (all repro errors derive from ReproError).
Error = ReproError

__all__ = [
    "apilevel", "threadsafety", "paramstyle",
    "connect", "Connection", "Cursor",
    "Error", "InterfaceError",
    "Advice", "Advisor",
    "Plan", "QueryOptions", "QueryResult",
]

#: valid QueryOptions field names (for dict coercion + error messages)
_QUERY_OPTION_FIELDS = tuple(
    f.name for f in dataclasses.fields(QueryOptions))

#: knobs users reach for in the wrong layer, and where they live
_MISPLACED_KNOBS = {
    "vectorized": "connect(vectorized=...) — an engine knob fixed per "
                  "session",
    "max_workers": "connect(max_workers=...) — a service-pool knob fixed "
                   "per connection",
    "queue_depth": "connect(queue_depth=...) — a service-pool knob fixed "
                   "per connection",
}


def _coerce_options(options: Union[None, QueryOptions, Mapping[str, Any]]
                    ) -> Optional[QueryOptions]:
    """Accept QueryOptions, a plain dict of its fields, or None.

    Unknown keys raise ``TypeError`` naming the valid per-query knobs —
    and point at :func:`connect` for knobs owned by the engine or
    service layers.
    """
    if options is None or isinstance(options, QueryOptions):
        return options
    if isinstance(options, Mapping):
        unknown = [key for key in options
                   if key not in _QUERY_OPTION_FIELDS]
        if unknown:
            hints = [f"{key!r} belongs to {_MISPLACED_KNOBS[key]}"
                     for key in unknown if key in _MISPLACED_KNOBS]
            detail = ("; " + "; ".join(hints)) if hints else ""
            raise TypeError(
                f"unknown query option(s) {sorted(unknown)}; per-query "
                f"(QueryOptions) knobs are {list(_QUERY_OPTION_FIELDS)}"
                + detail)
        return QueryOptions(**dict(options))
    raise TypeError(
        f"options must be QueryOptions, a dict of its fields, or None; "
        f"got {type(options).__name__}")


def connect(*, data_scale: float = 1.0,
            num_datanodes: int = 4,
            cluster: ClusterConfig = PAPER_CLUSTER,
            vectorized: bool = False,
            cache: Union[bool, GfuMetadataCache] = True,
            max_workers: int = 1,
            queue_depth: int = DEFAULT_QUEUE_DEPTH,
            fs: Optional[HDFS] = None,
            kvstore: Optional[KVStore] = None,
            **unknown: Any) -> "Connection":
    """Open a connection to a fresh (or supplied) simulated warehouse.

    ``cache`` controls the GFU-metadata cache (True = a fresh default
    cache, False = disabled, or pass a shared instance).  ``max_workers``
    sizes the connection's query service; 1 (the default) runs statements
    on the calling thread and only starts service workers when
    :attr:`Connection.service` is first used.  ``vectorized`` runs eligible
    scans on the columnar engine; see the module docstring for which layer
    owns which knob.
    """
    if unknown:
        hints = [f"{key!r} is a per-query (QueryOptions) knob — pass it "
                 f"via execute(..., options=...)"
                 for key in unknown if key in _QUERY_OPTION_FIELDS]
        detail = ("; " + "; ".join(hints)) if hints else ""
        raise TypeError(
            f"connect() got unknown keyword(s) {sorted(unknown)}; "
            f"session/engine knobs are vectorized=/cache=, service "
            f"knobs are max_workers=/queue_depth=" + detail)
    session = HiveSession(fs=fs, kvstore=kvstore, cluster=cluster,
                          data_scale=data_scale,
                          num_datanodes=num_datanodes,
                          vectorized=vectorized, cache=cache)
    return Connection(session, max_workers=max_workers,
                      queue_depth=queue_depth)


# ------------------------------------------------------------ param binding
def _render_param(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        raise InterfaceError("HiveQL dialect has no boolean literals; "
                             "bind 0/1 instead")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        if "'" in value or '"' in value:
            # The dialect's lexer has no quote escaping; reject rather
            # than silently produce a different statement.
            raise InterfaceError(
                f"string parameter {value!r} contains a quote, which the "
                "HiveQL dialect cannot escape")
        return f"'{value}'"
    raise InterfaceError(
        f"cannot bind parameter of type {type(value).__name__}; "
        "supported: None, int, float, str")


def bind_parameters(operation: str, parameters: Sequence[Any]) -> str:
    """Substitute ``?`` placeholders (qmark style) outside string literals."""
    out: List[str] = []
    params = list(parameters)
    index = 0
    in_string: Optional[str] = None
    for ch in operation:
        if in_string is not None:
            out.append(ch)
            if ch == in_string:
                in_string = None
        elif ch in ("'", '"'):
            out.append(ch)
            in_string = ch
        elif ch == "?":
            if index >= len(params):
                raise InterfaceError(
                    f"statement has more placeholders than the "
                    f"{len(params)} parameter(s) supplied")
            out.append(_render_param(params[index]))
            index += 1
        else:
            out.append(ch)
    if index != len(params):
        raise InterfaceError(
            f"statement has {index} placeholder(s) but "
            f"{len(params)} parameter(s) were supplied")
    return "".join(out)


class Cursor:
    """PEP 249 style cursor over one connection.

    ``description`` entries are 7-tuples with only ``name`` populated —
    the dialect does not expose per-column result types.
    """

    arraysize = 1

    def __init__(self, connection: "Connection"):
        self._connection = connection
        self._closed = False
        self._rows: List[Tuple] = []
        self._pos = 0
        #: the full :class:`QueryResult` of the last execute (stats, trace,
        #: plan) — the escape hatch past the DB-API surface.
        self.result: Optional[QueryResult] = None
        self.description: Optional[List[Tuple]] = None
        self.rowcount = -1

    # -------------------------------------------------------------- helpers
    def _check_open(self) -> None:
        if self._closed or self._connection.closed:
            raise InterfaceError("cursor is closed")

    def _install(self, result: QueryResult) -> None:
        self.result = result
        self._rows = list(result.rows)
        self._pos = 0
        self.description = [(name, None, None, None, None, None, None)
                            for name in result.columns]
        self.rowcount = len(self._rows)

    @property
    def plan(self) -> Optional[Plan]:
        """Structured plan of the last executed statement (if any)."""
        return self.result.plan if self.result is not None else None

    @property
    def connection(self) -> "Connection":
        return self._connection

    # -------------------------------------------------------------- execute
    def execute(self, operation: str,
                parameters: Optional[Sequence[Any]] = None,
                options: Union[None, QueryOptions,
                               Mapping[str, Any]] = None) -> "Cursor":
        """Run one statement; returns this cursor (chainable).

        ``options`` takes a :class:`QueryOptions` or a plain dict of its
        fields; unknown keys raise ``TypeError``.
        """
        self._check_open()
        sql = operation if parameters is None \
            else bind_parameters(operation, parameters)
        self._install(self._connection._execute(sql,
                                                _coerce_options(options)))
        return self

    def executemany(self, operation: str,
                    seq_of_parameters: Iterable[Sequence[Any]],
                    options: Union[None, QueryOptions,
                                   Mapping[str, Any]] = None) -> "Cursor":
        """Run ``operation`` once per parameter set, in order.

        ``rowcount`` accumulates across the sets; fetches see the last
        statement's rows.  ``options`` applies to every set.
        """
        self._check_open()
        options = _coerce_options(options)
        total = 0
        ran = False
        for parameters in seq_of_parameters:
            self.execute(operation, parameters, options=options)
            total += max(self.rowcount, 0)
            ran = True
        if ran:
            self.rowcount = total
        return self

    # --------------------------------------------------------------- fetch
    def fetchone(self) -> Optional[Tuple]:
        self._check_open()
        if self._pos >= len(self._rows):
            return None
        row = self._rows[self._pos]
        self._pos += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> List[Tuple]:
        self._check_open()
        if size is None:
            size = self.arraysize
        rows = self._rows[self._pos:self._pos + size]
        self._pos += len(rows)
        return rows

    def fetchall(self) -> List[Tuple]:
        self._check_open()
        rows = self._rows[self._pos:]
        self._pos = len(self._rows)
        return rows

    def __iter__(self) -> Iterator[Tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    def scalar(self) -> Any:
        """Single value of a one-row/one-column result (convenience)."""
        self._check_open()
        if self.result is None:
            raise InterfaceError("no statement has been executed")
        return self.result.scalar()

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        self._closed = True
        self._rows = []

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class Connection:
    """One client's handle on a warehouse: cursors, direct execution,
    bulk loading and (for fan-out) a bounded concurrent query service."""

    def __init__(self, session: HiveSession, max_workers: int = 1,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH):
        if max_workers < 1:
            raise InterfaceError(
                f"max_workers must be >= 1, got {max_workers}")
        self._session = session
        self._max_workers = max_workers
        self._queue_depth = queue_depth
        self._service: Optional[QueryService] = None
        self._closed = False

    # ------------------------------------------------------------- plumbing
    @property
    def session(self) -> HiveSession:
        """The underlying session (the stable escape hatch)."""
        return self._session

    @property
    def metrics(self):
        """The session's :class:`~repro.obs.metrics.MetricsRegistry`."""
        return self._session.metrics

    @property
    def cache(self) -> Optional[GfuMetadataCache]:
        """The session's GFU-metadata cache (None when disabled)."""
        return self._session.metadata_cache

    @property
    def service(self) -> QueryService:
        """The connection's query service (started on first use)."""
        self._check_open()
        if self._service is None:
            self._service = QueryService(self._session,
                                         max_workers=self._max_workers,
                                         queue_depth=self._queue_depth)
        return self._service

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    def _execute(self, sql: str,
                 options: Optional[QueryOptions] = None) -> QueryResult:
        self._check_open()
        if self._service is not None or self._max_workers > 1:
            return self.service.execute(sql, options)
        return self._session.execute(sql, options)

    # -------------------------------------------------------------- surface
    def cursor(self) -> Cursor:
        self._check_open()
        return Cursor(self)

    def execute(self, sql: str,
                parameters: Optional[Sequence[Any]] = None,
                options: Union[None, QueryOptions,
                               Mapping[str, Any]] = None) -> QueryResult:
        """Run one statement and return its full :class:`QueryResult`.

        ``options`` takes a :class:`QueryOptions` or a plain dict of its
        fields; unknown keys raise ``TypeError``.
        """
        if parameters is not None:
            sql = bind_parameters(sql, parameters)
        return self._execute(sql, _coerce_options(options))

    def executemany(self, sql: str,
                    seq_of_parameters: Iterable[Sequence[Any]],
                    options: Union[None, QueryOptions,
                                   Mapping[str, Any]] = None
                    ) -> List[QueryResult]:
        """Run ``sql`` once per parameter set; results in input order.
        ``options`` applies to every set."""
        options = _coerce_options(options)
        return [self.execute(sql, parameters, options=options)
                for parameters in seq_of_parameters]

    def advisor(self, table: str, index: str, **kwargs: Any) -> Advisor:
        """A workload-driven tuning :class:`~repro.service.advisor
        .Advisor` for one DGF index: ``observe()`` captures the query
        log, ``report()`` proposes divergent replica layouts,
        ``apply()`` builds them, ``auto_tune()`` re-tunes on drift.
        See docs/advisor.md."""
        self._check_open()
        return Advisor(self._session, table, index, **kwargs)

    def explain(self, sql: str, analyze: bool = False) -> Plan:
        """Structured :class:`Plan` for ``sql`` (executed when analyze)."""
        prefix = "EXPLAIN ANALYZE " if analyze else "EXPLAIN "
        result = self._execute(prefix + sql)
        if result.plan is None:
            raise ExecutionError(f"statement produced no plan: {sql!r}")
        return result.plan

    def load_rows(self, table: str, rows: Iterable[Sequence[Any]],
                  file_label: Optional[str] = None) -> int:
        """Bulk-append rows (the HDFS load path; no SQL INSERT exists)."""
        self._check_open()
        return self._session.load_rows(table, rows, file_label=file_label)

    def commit(self) -> None:
        """No-op: the warehouse has no transactions (PEP 249 compliance)."""
        self._check_open()

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._service is not None:
            self._service.close()
            self._service = None

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
