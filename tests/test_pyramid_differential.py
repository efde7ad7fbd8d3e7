"""Pyramid differential suite (ISSUE 10 acceptance, satellite 3).

The aggregation pyramid is a *physical* accelerator: it replaces the
O(inner-region) header probes of the DGF aggregation path with an
O(log)-node cover, and must change **nothing else**.  This suite proves
it, via :mod:`tests.harness.pyramid`:

* a meterdata workload spanning every planner path (inner-region
  aggregation, derived avg, GROUP BY slices, ordered projection,
  partial-specification) is byte-identical pyramid on vs. off,
  vectorized on and off, with the GFU cache on and off — rows, row order, folded float aggregates, per-query
  stats including the *logical* KV accounting, plans and traces modulo
  the stripped ``pyramid:*`` observability layer;
* an appending workload keeps the identity while the incremental
  ancestor refresh runs between query windows;
* the streaming scenario keeps the identity with deltas resident
  (pre), after a partial compaction demoted cells linger (mid), and
  after full compaction repairs the pyramid (post);
* chaos composes: the streamed scenario under a seeded fault plan with
  the pyramid on equals the fault-free pyramid-less baseline modulo
  the fault + pyramid observability layers;
* the pyramid demonstrably engaged wherever the identity is claimed
  (non-vacuity guards on plans and physical op counts).
"""

import os
from dataclasses import replace

from repro.faults import FaultInjector, FaultPlan, FaultSpec, TASK_CRASH
from repro.hive.session import QueryOptions

from tests.harness.differential import Workload, _assert_same, run_workload
from tests.harness.pyramid import assert_pyramid_equivalent, pyramid_view
from tests.harness.streaming import (run_streaming_workload, phase_rows,
                                     streaming_chaos_view)

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

METER_DDL = ("CREATE TABLE meterdata (userid bigint, regionid int, "
             "ts date, powerconsumed double)")
INDEX_SQL = ("CREATE INDEX pyr_idx ON TABLE meterdata(userid, ts) "
             "AS 'dgf' IDXPROPERTIES ('userid'='0_2', "
             "'ts'='2012-12-01_1d', "
             "'precompute'='sum(powerconsumed),count(powerconsumed),"
             "count(*)')")


def dyadic_rows(num_users=64, num_days=16):
    """One row per grid cell, exact binary fractions (16-bit dyadics),
    so float folds are bit-identical however the cover associates them."""
    return [(u, u % 3, f"2012-12-{t + 1:02d}", ((u * 7 + t) % 640) / 64.0)
            for u in range(num_users) for t in range(num_days)]


#: the query battery — every planner path the pyramid could disturb.
QUERIES = tuple((sql, None) for sql in (
    # big misaligned inner region: the pyramid's home turf
    "SELECT sum(powerconsumed), count(powerconsumed) FROM meterdata "
    "WHERE userid >= 2 AND userid < 60 "
    "AND ts >= '2012-12-02' AND ts < '2012-12-15'",
    # aligned region that collapses to very few nodes
    "SELECT sum(powerconsumed), count(*) FROM meterdata "
    "WHERE userid >= 0 AND userid < 64 "
    "AND ts >= '2012-12-01' AND ts < '2012-12-09'",
    # avg derived from sum/count header components
    "SELECT avg(powerconsumed) FROM meterdata "
    "WHERE userid >= 4 AND userid < 50 "
    "AND ts >= '2012-12-03' AND ts < '2012-12-13'",
    # tiny region: all-boundary, no inner cells at all
    "SELECT sum(powerconsumed) FROM meterdata "
    "WHERE userid = 7 AND ts = '2012-12-05'",
    # partial specification: only one dimension constrained
    "SELECT count(*), sum(powerconsumed) FROM meterdata "
    "WHERE userid >= 10 AND userid < 40",
    # GROUP BY on a non-dimension column: the slices path
    "SELECT regionid, count(*), sum(powerconsumed) FROM meterdata "
    "WHERE userid >= 5 AND userid < 35 GROUP BY regionid",
    # ordered projection: no headers involved at all
    "SELECT userid, ts, powerconsumed FROM meterdata "
    "WHERE userid >= 30 AND userid < 34 "
    "AND ts >= '2012-12-04' AND ts < '2012-12-08' "
    "ORDER BY userid, ts",
))


def pyramid_workload(**overrides) -> Workload:
    spec = dict(table="meterdata", ddl=METER_DDL, rows=dyadic_rows(),
                queries=QUERIES, index_sql=INDEX_SQL,
                index_name="pyr_idx", pyramid_fanout=2)
    spec.update(overrides)
    return Workload(**spec)


def test_pyramid_on_off_byte_identical():
    """The core contract, plus non-vacuity: the pyramid demonstrably
    covered inner regions and demonstrably saved physical KV gets."""
    workload = pyramid_workload()
    flat = assert_pyramid_equivalent(workload)
    # Non-vacuity: rerun once on-pyramid and inspect the raw fingerprint.
    on = run_workload(workload)
    covered = [position for position in range(len(QUERIES))
               if on[f"query:{position}"]["plan"]["index"]
               .get("pyramid_nodes")]
    assert covered, "no query ever used a pyramid node"
    assert 0 in covered and 1 in covered
    assert on["kv_ops"]["gets"] < flat["kv_ops"]["gets"], (
        "pyramid run did not reduce physical KV gets")


def test_pyramid_with_appends():
    """Appends between query windows exercise the incremental ancestor
    refresh; the identity must survive it."""
    extra = [(200, 1, "2012-12-07", 80 / 64.0),   # beyond the built extent
             (7, 2, "2012-12-03", 0.5),           # inside an inner cell
             (33, 0, "2012-12-20", 1.25)]         # new ts label
    assert_pyramid_equivalent(pyramid_workload(append_rows=tuple(extra)))


def test_pyramid_streaming_phases():
    """Streaming deltas pre / mid (partial compaction) / post (full):
    the pyramid run equals the pyramid-less run in every phase, with
    demotion active while cells are resident."""
    baseline = pyramid_view(run_streaming_workload())
    pyramid_run = run_streaming_workload(pyramid=True)
    _assert_same(baseline, pyramid_view(pyramid_run), "streaming pyramid")
    # Row content is stable across the three physical states too.
    for phase in ("mid", "post"):
        assert phase_rows(pyramid_run, phase) == \
            phase_rows(pyramid_run, "pre")


def test_pyramid_streaming_chaos():
    """Mid-query faults compose: chaos + streaming + pyramid equals the
    fault-free pyramid-less baseline modulo the fault and pyramid
    observability layers."""
    plan = FaultPlan(seed=FAULT_SEED,
                     task_crash_rate=0.25,
                     task_straggler_rate=0.2,
                     kv_timeout_rate=0.15,
                     dead_datanodes=(2,),
                     scheduled=(FaultSpec(kind=TASK_CRASH, task_kind="map",
                                          task_id=0, attempt=0),))
    baseline = pyramid_view(streaming_chaos_view(run_streaming_workload()))
    injector = FaultInjector(plan)
    fingerprint = run_streaming_workload(faults=injector, pyramid=True)
    _assert_same(baseline, pyramid_view(streaming_chaos_view(fingerprint)),
                 "streaming chaos pyramid")
    assert sum(injector.registry.injected_counts().values()) > 0, (
        "chaos run injected nothing; the comparison is vacuous")


def test_pyramid_workload_chaos():
    """Chaos over the batch workload with the pyramid on: byte-identical
    to the fault-free pyramid-less run modulo fault spans, ``fs_io``
    (re-executed attempts re-read bytes) and the pyramid layer."""
    from tests.harness.chaos import chaos_view
    workload = pyramid_workload()
    flat = run_workload(replace(workload, pyramid_fanout=None))
    baseline = pyramid_view(chaos_view(flat))
    plan = FaultPlan(seed=FAULT_SEED + 1, task_crash_rate=0.2,
                     task_straggler_rate=0.15, kv_timeout_rate=0.1,
                     dead_datanodes=(1,))
    fingerprint = run_workload(workload, faults=FaultInjector(plan))
    _assert_same(baseline, pyramid_view(chaos_view(fingerprint)),
                 "pyramid chaos")


def test_forced_off_option_composes_with_mixed_batteries():
    """A battery mixing per-query pyramid on/off options still matches
    the flat baseline — the knob is per-query, not per-session."""
    mixed = tuple(
        (sql, QueryOptions(dgf_pyramid=(position % 2 == 0)))
        for position, (sql, _options) in enumerate(QUERIES))
    workload = pyramid_workload(queries=mixed)
    flat = run_workload(replace(workload, pyramid_fanout=None))
    candidate = run_workload(workload)
    _assert_same(pyramid_view(flat), pyramid_view(candidate),
                 "mixed on/off battery")
    for position in range(len(QUERIES)):
        nodes = candidate[f"query:{position}"]["plan"]["index"] \
            .get("pyramid_nodes", 0)
        if position % 2 == 1:
            assert nodes == 0, (
                f"query {position} forced off but used the pyramid")
