"""Streaming differential harness: merge-on-read, byte-identical.

The extension of :mod:`tests.harness.differential` for the streaming
subsystem (ISSUE 7): one session loads a base table, builds the DGF
index, streams a fixed op script (inserts into existing and brand-new
grid cells, upserts, deletes) into the KV delta store, and then runs the
same query battery in three physical states —

* ``pre``   — every op resident in the delta, nothing folded;
* ``mid``   — a *partial* compaction folded a deterministic subset of
  the resident cells between two query windows;
* ``post``  — a full compaction folded everything.

The phase fingerprints cover rows, stats, plans and normalized traces,
so :func:`assert_streaming_equivalent` proves each state is
byte-identical with the GFU cache on and off (physical ``kv_ops``
dropped — the cache exists to change those) and on the vectorized
engine (modulo the stripped vector layer).  Row *content*
must additionally agree across the three states and with an eagerly
materialized baseline table — the DualTable contract that base+delta is
just a physical layout of the same logical table.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List, Tuple

from repro.delta import Compactor, StreamingWriter
from repro.hive.session import HiveSession

from tests.harness.differential import (_assert_same, query_fingerprint)

TABLE = "meterstream"
INDEX = "idxstream"
KEY_COLUMNS = ("userid", "ts")

DDL = (f"CREATE TABLE {TABLE} (userid bigint, regionid int, ts bigint, "
       "powerconsumed double) STORED AS {fmt}")

INDEX_SQL = (f"CREATE INDEX {INDEX} ON TABLE {TABLE}(userid, ts) AS 'dgf' "
             "IDXPROPERTIES ('userid'='0_10', 'ts'='100_2', "
             "'precompute'='sum(powerconsumed),count(*)')")

#: the query battery; every phase replays all of them.
QUERIES: Tuple[str, ...] = (
    # exact-range plain aggregation: header path + tombstone demotion
    "SELECT sum(powerconsumed), count(*) FROM {t} "
    "WHERE userid >= 10 AND userid < 30 AND ts >= 100 AND ts < 104",
    # avg derived from sum/count headers over the whole grid
    "SELECT avg(powerconsumed) FROM {t} "
    "WHERE userid >= 0 AND userid < 60 AND ts >= 100 AND ts < 106",
    # GROUP BY on a non-dimension column (slices path)
    "SELECT regionid, count(*), sum(powerconsumed) FROM {t} "
    "WHERE userid >= 5 AND userid < 35 GROUP BY regionid",
    # ordered projection across upserted/deleted/inserted rows
    "SELECT userid, ts, powerconsumed FROM {t} "
    "WHERE userid >= 18 AND userid < 52 ORDER BY userid, ts",
    # non-dimension predicate: the full-scan overlay path
    "SELECT count(*) FROM {t} WHERE regionid = 1",
)


def base_rows() -> List[Tuple]:
    """120 deterministic rows over userid 1..30, ts 100..103 (exact
    binary-fraction floats so aggregation folding is bit-stable)."""
    return [(u, u % 4, 100 + t, ((u * 7 + t) % 640) / 64.0)
            for u in range(1, 31) for t in range(4)]


#: the streamed op script: (kind, payload) in ingest order.  Inserts hit
#: existing cells AND brand-new cells beyond the built grid bounds
#: (userid 40.., ts 104..); upserts replace base rows in place; deletes
#: tombstone base rows.  Keys are (userid, ts) per KEY_COLUMNS.
STREAM_OPS: Tuple[Tuple[str, Tuple], ...] = (
    ("insert", (25, 1, 102, 640 / 64.0)),      # existing cell
    ("insert", (41, 1, 100, 100 / 64.0)),      # new cell, new userid label
    ("insert", (45, 1, 104, 104 / 64.0)),      # new cell in both dims
    ("insert", (12, 0, 104, 112 / 64.0)),      # new ts label, old userid
    ("upsert", (20, 0, 101, 256 / 64.0)),      # replace base row
    ("upsert", (11, 3, 100, 0.0)),             # replace base row
    ("upsert", (41, 1, 100, 96 / 64.0)),       # replace a pending insert
    ("delete", (22, 103)),                     # tombstone base row
    ("delete", (7, 100)),                      # tombstone base row
    ("delete", (45, 104)),                     # tombstone a pending insert
)


def materialized_rows() -> List[Tuple]:
    """The logical table after the op script, computed eagerly."""
    key_pos = (0, 2)
    rows: List[Tuple] = list(base_rows())
    for kind, payload in STREAM_OPS:
        if kind == "insert":
            rows.append(tuple(payload))
            continue
        key = tuple(payload) if kind == "delete" \
            else tuple(payload[p] for p in key_pos)
        rows = [r for r in rows if tuple(r[p] for p in key_pos) != key]
        if kind == "upsert":
            rows.append(tuple(payload))
    return rows


def make_session(vectorized: bool = False,
                 cache: Any = None, faults: Any = None,
                 stored_as: str = "TEXTFILE",
                 pyramid: bool = False) -> HiveSession:
    session = HiveSession(num_datanodes=4, vectorized=vectorized,
                          cache=cache, faults=faults)
    session.fs.block_size = 2048
    session.execute(DDL.format(fmt=stored_as))
    rows = base_rows()
    half = len(rows) // 2
    session.load_rows(TABLE, rows[:half])
    session.load_rows(TABLE, rows[half:])
    session.execute(INDEX_SQL)
    if pyramid:
        # Built before ingest, so the streamed ops exercise demotion and
        # both compactions exercise the pyramid repair path.
        session.build_pyramid(TABLE, INDEX)
    return session


def apply_stream(session: HiveSession) -> StreamingWriter:
    binding = session.attach_delta(TABLE, INDEX,
                                   key_columns=list(KEY_COLUMNS))
    writer = StreamingWriter(binding, batch_size=4)
    for kind, payload in STREAM_OPS:
        getattr(writer, kind)([payload])
    writer.flush()
    return writer


def run_streaming_workload(vectorized: bool = False,
                           cache: Any = None, faults: Any = None,
                           stored_as: str = "TEXTFILE",
                           pyramid: bool = False) -> Dict[str, Any]:
    """One full streaming scenario; returns the 3-phase fingerprint.

    With ``faults`` armed, the injector activates *before* ingest, so the
    stream, both compactions and every query window run under chaos.
    ``pyramid=True`` builds the aggregation pyramid before ingest.
    """
    session = make_session(vectorized=vectorized, cache=cache, faults=faults,
                           stored_as=stored_as, pyramid=pyramid)
    if session.fault_injector is not None:
        session.fault_injector.activate_datanode_faults(session.fs)
    apply_stream(session)
    binding = session.delta_binding(TABLE)
    # The mid state folds a deterministic subset of the resident cells
    # (partial compaction between two query windows).
    partial = list(binding.resident_cells)[:3]

    fingerprint: Dict[str, Any] = {}
    for phase, cells in (("pre", None), ("mid", partial), ("post", None)):
        if phase != "pre":
            Compactor(binding).run(cells)
        fingerprint[f"{phase}:resident"] = binding.resident_ops
        for position, sql in enumerate(QUERIES):
            result = session.execute(sql.format(t=TABLE))
            fingerprint[f"{phase}:query:{position}"] = \
                query_fingerprint(result)
    fingerprint["fs_io"] = asdict(session.fs.io)
    fingerprint["kv_ops"] = asdict(session.kvstore.stats)
    fingerprint["jobs_run"] = session.engine.jobs_run
    return fingerprint


def _drop_physical(fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    view = dict(fingerprint)
    view.pop("kv_ops", None)
    return view


def _map_queries(fingerprint: Dict[str, Any], transform) -> Dict[str, Any]:
    """Apply ``transform`` to every phase-prefixed query entry.

    The base :func:`~tests.harness.chaos.chaos_view` /
    :func:`~tests.harness.vector.vector_view` match keys starting with
    ``query:``; the streaming fingerprint prefixes phases
    (``pre:query:0``), so the same normalizations are re-applied here
    keyed on the ``:query:`` infix.
    """
    return {key: transform(dict(value)) if ":query:" in key else value
            for key, value in fingerprint.items()}


def streaming_vector_view(fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    """Strip the vector observability layer from every phase query
    (``vector.*`` counters, the ``vectorized`` span attr and plan flag,
    the ``vectorized: true`` plan line) — the streaming analogue of
    :func:`tests.harness.vector.vector_view`."""
    from repro.obs.trace import strip_vector_data
    from tests.harness.vector import _PLAN_LINE

    def strip(value: Dict[str, Any]) -> Dict[str, Any]:
        trace = value.get("trace")
        if trace is not None:
            trace = dict(trace)
            trace["root"] = strip_vector_data(trace["root"])
            value["trace"] = trace
        plan = value.get("plan")
        if plan is not None:
            plan = dict(plan)
            plan.pop("vectorized", None)
            value["plan"] = plan
        description = value.get("description")
        if isinstance(description, str):
            value["description"] = description.replace(_PLAN_LINE, "")
        return value

    return _map_queries(fingerprint, strip)


def streaming_chaos_view(fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    """Drop ``fs_io`` and strip ``fault:*`` spans / ``fault.*`` counters
    from every phase query — the streaming analogue of
    :func:`tests.harness.chaos.chaos_view`; physical ``kv_ops`` stay."""
    from repro.obs.trace import strip_fault_data

    def strip(value: Dict[str, Any]) -> Dict[str, Any]:
        trace = value.get("trace")
        if trace is not None:
            trace = dict(trace)
            trace["root"] = strip_fault_data(trace["root"])
            value["trace"] = trace
        return value

    view = _map_queries(fingerprint, strip)
    view.pop("fs_io", None)
    return view


def phase_rows(fingerprint: Dict[str, Any], phase: str) -> List[Any]:
    return [fingerprint[f"{phase}:query:{i}"]["rows"]
            for i in range(len(QUERIES))]


def assert_streaming_equivalent(stored_as: str = "TEXTFILE"
                                ) -> Dict[str, Any]:
    """The ISSUE 7 differential contract, minus chaos (tested separately).

    Within each physical state the full fingerprint (rows, stats, plans,
    normalized traces) must be byte-identical with the GFU cache on and
    off (physical KV ops excluded); the vectorized engine must match
    modulo its stripped observability layer.  Across states, row content
    must be identical.  Returns the cache-on baseline fingerprint.
    """
    baseline = run_streaming_workload(stored_as=stored_as)
    uncached = run_streaming_workload(cache=False, stored_as=stored_as)
    _assert_same(_drop_physical(baseline), _drop_physical(uncached),
                 "streaming cache=False")
    vec = run_streaming_workload(vectorized=True, stored_as=stored_as)
    _assert_same(streaming_vector_view(baseline), streaming_vector_view(vec),
                 "streaming vectorized")
    for phase in ("mid", "post"):
        assert phase_rows(baseline, phase) == phase_rows(baseline, "pre"), (
            f"row content changed between pre and {phase} compaction")
    return baseline


def assert_streaming_chaos_equivalent(plan: Any) -> Dict[str, Any]:
    """Chaos overlap: ingest + partial/full compaction + queries under a
    seeded fault plan must match the fault-free run (modulo fault spans
    and ``fs_io``, exactly like the chaos harness)."""
    from repro.faults import FaultInjector
    baseline = streaming_chaos_view(run_streaming_workload())
    fingerprint = run_streaming_workload(faults=FaultInjector(plan))
    _assert_same(baseline, streaming_chaos_view(fingerprint),
                 "streaming chaos")
    return baseline
