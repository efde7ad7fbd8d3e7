"""Streaming-delta differential suite (ISSUE 7 acceptance).

One session loads a base table, streams a fixed op script (inserts into
existing and brand-new grid cells, upserts, deletes) into the KV delta
store, and replays the same query battery in three physical states —
delta-resident, after a *partial* compaction between two query windows,
and fully compacted.  The contract, asserted byte-for-byte:

* within each state, results/QueryStats/plans/normalized traces are
  identical with the GFU cache on and off (physical KV op counts
  excluded), and on the vectorized engine (modulo its stripped
  observability layer) — for TEXTFILE and RCFILE;
* row content is identical across the three states, and identical to a
  plain session whose base table eagerly materializes the op script;
* the whole scenario — ingest, partial and full compaction, every query
  window — replayed under a seeded :class:`~repro.faults.FaultPlan`
  (task crashes, stragglers, a dead datanode, KV timeouts) matches the
  fault-free run modulo fault spans;
* an insert-only stream folded by the compactor is byte-identical —
  per-query fingerprints *and* global ``fs_io`` — to
  :func:`~repro.core.dgf.builder.append_with_dgf` fed the same rows;
* the query service serves delta-resident scans identically to the
  direct session at every concurrency level.
"""

import os
from dataclasses import asdict

from repro.delta import Compactor, StreamingWriter
from repro.faults import FaultPlan, FaultSpec, TASK_CRASH
from repro.service.queryservice import QueryService

from tests.harness.differential import _assert_same, query_fingerprint
from tests.harness.streaming import (INDEX, KEY_COLUMNS, QUERIES,
                                     TABLE, apply_stream,
                                     assert_streaming_chaos_equivalent,
                                     assert_streaming_equivalent, base_rows,
                                     make_session, materialized_rows,
                                     phase_rows, run_streaming_workload)

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

#: map task 0 of every job crashes its first attempt — guarantees the
#: chaos overlap injects at least one fault into every build/compaction
#: job and every query window even at low rates.
ALWAYS_CRASH_MAP0 = FaultSpec(kind=TASK_CRASH, task_kind="map", task_id=0,
                              attempt=0)


def streaming_plan(salt: int) -> FaultPlan:
    """All four fault kinds at once over the streaming scenario (4
    datanodes, replication 2; killing one keeps every block readable)."""
    return FaultPlan(seed=FAULT_SEED + salt,
                     task_crash_rate=0.25,
                     task_straggler_rate=0.2,
                     kv_timeout_rate=0.15,
                     dead_datanodes=(2,),
                     scheduled=(ALWAYS_CRASH_MAP0,))


# ------------------------------------------------------------ core contract
def test_streaming_differential_textfile():
    baseline = assert_streaming_equivalent("TEXTFILE")
    # The three states are physically distinct: everything resident,
    # partially folded, fully folded.
    assert baseline["pre:resident"] > 0
    assert 0 < baseline["mid:resident"] < baseline["pre:resident"]
    assert baseline["post:resident"] == 0


def test_streaming_differential_rcfile():
    baseline = assert_streaming_equivalent("RCFILE")
    assert baseline["pre:resident"] > 0
    assert baseline["post:resident"] == 0


def test_streaming_matches_materialized_baseline():
    """DualTable's defining property: base+delta is a *physical* layout.

    A plain session whose base table eagerly contains the op script's
    outcome must return the same row multisets in every phase of the
    streaming session (ordered identically wherever the query orders)."""
    from repro.hive.session import HiveSession
    session = HiveSession(num_datanodes=4)
    session.execute(
        "CREATE TABLE {t} (userid bigint, regionid int, ts bigint, "
        "powerconsumed double) STORED AS TEXTFILE".format(t=TABLE))
    session.load_rows(TABLE, materialized_rows())
    eager = [sorted(session.execute(sql.format(t=TABLE)).rows)
             for sql in QUERIES]

    streamed = run_streaming_workload()
    for phase in ("pre", "mid", "post"):
        got = [sorted(rows) for rows in phase_rows(streamed, phase)]
        assert got == eager, f"phase {phase} diverged from eager baseline"


def test_streaming_chaos_overlap():
    """Ingest, mid-window partial compaction, full compaction and every
    query replayed under chaos (ISSUE 7: compaction interleaving with
    scans under the fault plans)."""
    assert_streaming_chaos_equivalent(streaming_plan(salt=7))


# ----------------------------------------------- compaction vs. bulk append
def test_insert_only_compaction_matches_append():
    """Folding an insert-only delta must be *the same physical build* as
    the bulk `append_with_dgf` path fed the identical rows in the
    identical order — same staged bytes, same generation, same slice
    files, hence byte-identical query fingerprints and global fs_io."""
    from repro.core.dgf.builder import append_with_dgf

    fresh = [(41, 1, 100, 100 / 64.0),
             (45, 1, 104, 104 / 64.0),
             (12, 0, 104, 112 / 64.0),
             (25, 1, 102, 640 / 64.0)]

    streamed = make_session()
    binding = streamed.attach_delta(TABLE, INDEX,
                                    key_columns=list(KEY_COLUMNS))
    with StreamingWriter(binding) as writer:
        writer.insert(fresh)
    report = Compactor(binding).run()
    assert report.folded_rows == len(fresh)
    assert report.rewritten_cells == 0

    appended = make_session()
    append_with_dgf(appended, TABLE, INDEX, list(fresh))

    fp_streamed = {}
    fp_appended = {}
    for position, sql in enumerate(QUERIES):
        fp_streamed[f"query:{position}"] = query_fingerprint(
            streamed.execute(sql.format(t=TABLE)))
        fp_appended[f"query:{position}"] = query_fingerprint(
            appended.execute(sql.format(t=TABLE)))
    fp_streamed["fs_io"] = asdict(streamed.fs.io)
    fp_appended["fs_io"] = asdict(appended.fs.io)
    _assert_same(fp_appended, fp_streamed, "insert-only fold vs append")


# ------------------------------------------------------------- service path
def test_service_serves_delta_resident_scans():
    """The query service must serve merge-on-read scans byte-identically
    to the direct session while ops are resident, at every concurrency."""
    direct = make_session()
    apply_stream(direct)
    baseline = {}
    for position, sql in enumerate(QUERIES):
        baseline[f"query:{position}"] = query_fingerprint(
            direct.execute(sql.format(t=TABLE)))
    baseline["fs_io"] = asdict(direct.fs.io)
    baseline["jobs_run"] = direct.engine.jobs_run

    for concurrency in (1, 4):
        session = make_session()
        apply_stream(session)
        with QueryService(session, max_workers=concurrency,
                          queue_depth=len(QUERIES)) as service:
            results = service.run_all(
                [(sql.format(t=TABLE), None) for sql in QUERIES])
        candidate = {f"query:{i}": query_fingerprint(r)
                     for i, r in enumerate(results)}
        candidate["fs_io"] = asdict(session.fs.io)
        candidate["jobs_run"] = session.engine.jobs_run
        _assert_same(baseline, candidate,
                     f"service delta-resident concurrency={concurrency}")
