"""ISSUE 8 acceptance: the multi-layout replica fleet, byte-identical.

Every test here runs a workload whose DGF index carries a replica fleet
(different GFU granularities, storage formats, placements, datanode
pins — :mod:`repro.core.dgf.fleet`) and proves, via
:mod:`tests.harness.replicas`, that

* each layout choice (cost-routed, forced primary, each fleet member) is
  byte-identical — rows, ``QueryStats``, structured plans, normalized
  traces, global I/O and KV accounting — across the row and vectorized
  engines;
* all layout choices agree byte-for-byte on everything a query can
  observe (:func:`~tests.harness.replicas.logical_view`), with float
  aggregates honestly exact thanks to dyadic test data;
* ``EXPLAIN`` and the structured plan record the chosen layout;
* a pinned datanode dying mid-query downgrades the plan onto the
  surviving layouts, equal to having planned around the outage from the
  start, with the ``fault:layout_downgrade`` span recording the event.
"""

from __future__ import annotations

import pytest

from repro.errors import DGFError
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import DATANODE_DEAD, FaultSpec
from repro.hive.session import HiveSession, QueryOptions

from tests.harness.chaos import assert_chaos_equivalent
from tests.harness.differential import LayoutSpec, Workload, run_workload
from tests.harness.replicas import (assert_layout_chaos_equivalent,
                                    assert_replica_equivalent, chosen_layout,
                                    dyadic_rows, forced, logical_view)

METER_DDL = ("CREATE TABLE meterdata (userid bigint, regionid int, "
             "ts date, powerconsumed double)")
INDEX_SQL = ("CREATE INDEX dgf_idx ON TABLE meterdata"
             "(userid, regionid, ts) AS 'dgf' IDXPROPERTIES ("
             "'userid'='0_25', 'regionid'='0_1', 'ts'='2012-12-01_2d', "
             "'precompute'='sum(powerconsumed),count(*)')")

#: the standard fleet: a fine RCFile layout pinned to one datanode, and
#: an unpinned coarse layout on a different time granularity.
FLEET = (
    LayoutSpec(name="fine", grid=(("userid", "0_5"), ("ts", "2012-12-01_1d")),
               stored_as="RCFILE", datanodes=(3,)),
    LayoutSpec(name="coarse",
               grid=(("userid", "0_60"), ("ts", "2012-12-01_3d"))),
)

AGG = ("SELECT sum(powerconsumed), count(*) FROM meterdata "
       "WHERE userid >= 10 AND userid <= 74 "
       "AND ts >= '2012-12-01' AND ts <= '2012-12-04'")
GROUPBY = ("SELECT regionid, sum(powerconsumed) FROM meterdata "
           "WHERE userid >= 10 AND userid <= 74 GROUP BY regionid")
ORDERED_SCAN = ("SELECT userid, ts, powerconsumed FROM meterdata "
                "WHERE userid >= 30 AND userid <= 42 "
                "AND regionid >= 1 AND regionid <= 3 ORDER BY userid, ts")
POINT = ("SELECT userid, powerconsumed FROM meterdata "
         "WHERE userid = 33 AND ts = '2012-12-03' ORDER BY powerconsumed")


def fleet_workload(queries=None, **overrides) -> Workload:
    defaults = dict(
        table="meterdata", ddl=METER_DDL, rows=dyadic_rows(),
        queries=tuple((sql, None) for sql in
                      (queries or (AGG, GROUPBY, ORDERED_SCAN, POINT))),
        index_sql=INDEX_SQL, index_name="dgf_idx", layouts=FLEET)
    defaults.update(overrides)
    return Workload(**defaults)


def fleet_session(rows=None, layouts=FLEET, faults=None) -> HiveSession:
    """A directly-driven session mirroring :func:`fleet_workload`."""
    session = HiveSession(num_datanodes=4, faults=faults)
    session.fs.block_size = 2048
    session.execute(METER_DDL)
    rows = list(rows if rows is not None else dyadic_rows())
    half = len(rows) // 2
    session.load_rows("meterdata", rows[:half])
    session.load_rows("meterdata", rows[half:])
    session.execute(INDEX_SQL)
    for spec in layouts:
        session.add_layout("meterdata", "dgf_idx", spec.name,
                           grid=dict(spec.grid), stored_as=spec.stored_as,
                           placement=spec.placement,
                           datanodes=spec.datanodes)
    return session


# ------------------------------------------------------------------ the sweep
def test_full_replica_sweep():
    """The headline acceptance: every layout choice byte-identical with
    vectorization on and off; logical views byte-identical across all
    choices."""
    baselines = assert_replica_equivalent(fleet_workload())
    # The sweep covered the routed choice and all three named choices.
    assert set(baselines) == {None, "primary", "fine", "coarse"}
    # Cost-based routing engaged on every indexed query and recorded its
    # choice in the structured plan.
    for position in range(4):
        assert chosen_layout(baselines[None], position) in (
            "primary", "fine", "coarse")


def test_append_keeps_every_layout_current():
    """Appended rows land in every fleet member in the same session call;
    all layout choices stay logically byte-identical afterwards."""
    extra = tuple((user + 200, user % 5, "2012-12-07", k / 64)
                  for user, k in ((u, 640 + 7 * u) for u in range(40)))
    appended = fleet_workload(
        queries=(AGG, GROUPBY,
                 "SELECT userid, powerconsumed FROM meterdata "
                 "WHERE userid >= 198 AND userid <= 230 "
                 "ORDER BY userid, powerconsumed"),
        append_rows=extra)
    baselines = assert_replica_equivalent(appended, vectorized=False)
    # The appended region is actually visible through every layout.
    for choice, fingerprint in baselines.items():
        rows = fingerprint["query:2"]["rows"]
        assert any(row[0] >= 200 for row in rows), (
            f"layout={choice} lost the appended rows")


def test_explain_shows_chosen_layout():
    session = fleet_session()
    text = "\n".join(row[0] for row in session.execute("EXPLAIN " + AGG).rows)
    assert "layout=" in text and "layout: " in text
    forced_text = "\n".join(
        row[0] for row in
        session.execute("EXPLAIN " + AGG,
                        QueryOptions(dgf_layout="coarse")).rows)
    assert "layout: coarse" in forced_text


def test_route_span_costs_every_live_candidate():
    session = fleet_session()
    result = session.execute(GROUPBY)
    route = result.trace.root.find("dgf.route")
    assert route is not None
    assert route.attrs["candidates"] == "coarse,fine,primary"
    for name in ("primary", "fine", "coarse"):
        assert f"score.{name}" in route.attrs
    assert route.attrs["chosen"] == result.plan.access.layout


def test_routed_choice_matches_cheapest_score():
    session = fleet_session()
    for sql in (AGG, GROUPBY, ORDERED_SCAN, POINT):
        route = session.execute(sql).trace.root.find("dgf.route")
        scores = {key[len("score."):]: value
                  for key, value in route.attrs.items()
                  if key.startswith("score.")}
        cheapest = min(scores,
                       key=lambda n: (scores[n], n != "primary", n))
        assert route.attrs["chosen"] == cheapest


def test_layout_report_tracks_liveness():
    session = fleet_session()
    report = {entry["name"]: entry for entry in session.layout_report()}
    assert report["fine"]["alive"] and report["fine"]["datanodes"] == [3]
    session.fs.kill_datanode(3)
    report = {entry["name"]: entry for entry in session.layout_report()}
    assert not report["fine"]["alive"]
    assert report["coarse"]["alive"]  # unpinned: replicated normally


# -------------------------------------------------------------------- forcing
def test_force_unknown_layout_raises():
    session = fleet_session()
    with pytest.raises(DGFError, match="not a live layout"):
        session.execute(AGG, QueryOptions(dgf_layout="nope"))


def test_force_dead_layout_raises():
    session = fleet_session()
    session.fs.kill_datanode(3)
    with pytest.raises(DGFError, match="not a live layout"):
        session.execute(AGG, QueryOptions(dgf_layout="fine"))


def test_dead_layout_skipped_by_router():
    session = fleet_session()
    assert session.execute(POINT).plan.access.layout == "fine"
    session.fs.kill_datanode(3)
    result = session.execute(POINT)
    assert result.plan.access.layout in ("primary", "coarse")
    route = result.trace.root.find("dgf.route")
    assert route.attrs["dead"] == "fine"
    assert "score.fine" not in route.attrs


# ---------------------------------------------------------------------- chaos
def _downgrade_plan() -> FaultPlan:
    """Kill the pinned datanode when the first select job starts."""
    return FaultPlan(seed=0, scheduled=(
        FaultSpec(kind=DATANODE_DEAD, job="select-meterdata", datanode=3),))


def test_midquery_layout_downgrade_differential():
    """ISSUE 8 satellite: the cheapest layout's datanode dies mid-query
    (the first query routes to the pinned layout, so its own scan job's
    start kills the node under it); the replanned run equals planning
    around the outage, and the registry proves the downgrade fired."""
    workload = fleet_workload(queries=(POINT, GROUPBY, AGG))
    baseline, registry = assert_layout_chaos_equivalent(
        workload, _downgrade_plan(), dead_datanodes=(3,))
    assert registry.injected_counts().get("datanode_dead") == 1
    assert registry.injected_counts().get("layout_outage") == 1
    assert registry.recovery_counts().get("layout_downgrade") == 1
    # the surviving run never reads the dead layout
    for position in range(3):
        assert chosen_layout(baseline, position) != "fine"


def test_downgrade_span_records_the_fault():
    """The ``fault:layout_downgrade`` span wraps the aborted attempt and
    names the dead layouts; rows match the dead-from-start baseline."""
    chaos = fleet_session(faults=FaultInjector(_downgrade_plan()))
    result = chaos.execute(POINT)
    wrapper = result.trace.root.child("fault:layout_downgrade")
    assert wrapper is not None
    assert wrapper.attrs["dead_layouts"] == "fine"
    assert wrapper.attrs["attempt"] == 1
    assert wrapper.children, "the aborted attempt's spans went missing"
    assert result.plan.access.layout != "fine"

    baseline = fleet_session()
    baseline.fs.kill_datanode(3)
    expected = baseline.execute(POINT)
    assert result.rows == expected.rows
    assert result.plan.access.layout == expected.plan.access.layout


def test_rate_based_chaos_composes_with_fleet():
    """PR 4's probabilistic faults (crashes, stragglers, KV timeouts)
    under a routed fleet stay byte-identical modulo fault data."""
    plan = FaultPlan(seed=5, task_crash_rate=0.2, task_straggler_rate=0.2,
                     kv_timeout_rate=0.05)
    _baseline, registry = assert_chaos_equivalent(
        fleet_workload(queries=(GROUPBY, ORDERED_SCAN)), plan)
    assert sum(registry.injected_counts().values()) > 0


def test_vectorized_layout_downgrade():
    """The mid-query downgrade composes with the vectorized engine."""
    pytest.importorskip("numpy")
    import os
    if os.environ.get("REPRO_VECTOR_DISABLE"):
        pytest.skip("REPRO_VECTOR_DISABLE is set for this run")
    from tests.harness.replicas import replica_chaos_view
    from tests.harness.vector import vector_view

    workload = fleet_workload(queries=(POINT, AGG))
    baseline = vector_view(replica_chaos_view(run_workload(
        workload, faults=FaultInjector(
            FaultPlan(seed=0, dead_datanodes=(3,))))))
    candidate = vector_view(replica_chaos_view(run_workload(
        workload, vectorized=True,
        faults=FaultInjector(_downgrade_plan()))))
    row_candidate = vector_view(replica_chaos_view(run_workload(
        workload, faults=FaultInjector(_downgrade_plan()))))
    assert logical_view(candidate) == logical_view(baseline)
    assert candidate == row_candidate


# ----------------------------------------------------------- fleet lifecycle
def test_add_layout_validates_names_and_handler():
    session = fleet_session(layouts=())
    with pytest.raises(DGFError, match="invalid layout name"):
        session.add_layout("meterdata", "dgf_idx", "primary")
    with pytest.raises(DGFError, match="invalid layout name"):
        session.add_layout("meterdata", "dgf_idx", "a@b")


def test_drop_layout_removes_files_keys_and_registration():
    session = fleet_session()
    root = "/warehouse/meterdata__dgf@fine"
    assert session.fs.exists(root)
    session.drop_layout("meterdata", "dgf_idx", "fine")
    assert not session.fs.exists(root)
    assert [d.name for d in session.fs.layouts()] == ["coarse"]
    result = session.execute(GROUPBY)
    route = result.trace.root.find("dgf.route")
    assert route.attrs["candidates"] == "coarse,primary"


def test_rebuild_drops_stale_fleet():
    """An index rebuild reorganizes from scratch; stale layouts are
    dropped rather than served."""
    session = fleet_session()
    session.rebuild_index("meterdata", "dgf_idx")
    assert session.fs.layouts() == []
    result = session.execute(GROUPBY)
    assert result.plan.access.layout is None


def test_fleet_logically_identical_through_query_service():
    """Routed fleet queries through the concurrent QueryService at
    several concurrency levels match the direct session."""
    from tests.harness.differential import (run_service_workload,
                                            _query_view, _assert_same)
    workload = fleet_workload(queries=(AGG, GROUPBY, ORDERED_SCAN))
    baseline = _query_view(run_workload(workload, cache=False))
    for concurrency in (1, 4):
        candidate = _query_view(
            run_service_workload(workload, concurrency, cache=True))
        _assert_same(baseline, candidate,
                     f"fleet service concurrency={concurrency}")
