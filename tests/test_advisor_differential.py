"""Advisor acceptance: tuning must never change answers.

Three differential proofs over :mod:`tests.harness.advisor`:

* attaching the query log changes **nothing** — full fingerprint
  identity, including global I/O and KV accounting;
* an *applied* advisor report with every query pinned to the primary
  layout equals the fleetless baseline modulo exactly the layout
  bookkeeping (:func:`~tests.harness.advisor.advisor_view`);
* cost-based routing over the advisor-built fleet returns byte-identical
  logical results (:func:`~tests.harness.replicas.logical_view`), routes
  at least one query onto an advisor-built specialist, and always routes
  clustered queries to the specialist the report names.
"""

from __future__ import annotations

from repro.hdfs.layout import PRIMARY_LAYOUT

from tests.harness.advisor import advisor_view, run_advised_workload
from tests.harness.differential import Workload, _assert_same
from tests.harness.replicas import (chosen_layout, dyadic_rows, forced,
                                    logical_view)

METER_DDL = ("CREATE TABLE meterdata (userid bigint, regionid int, "
             "ts date, powerconsumed double)")
INDEX_SQL = ("CREATE INDEX dgf_idx ON TABLE meterdata"
             "(userid, regionid, ts) AS 'dgf' IDXPROPERTIES ("
             "'userid'='0_25', 'regionid'='0_1', 'ts'='2012-12-01_2d', "
             "'precompute'='sum(powerconsumed),count(*)')")


def point_sql(user: int, day: str) -> str:
    return (f"SELECT sum(powerconsumed), count(*) FROM meterdata "
            f"WHERE userid = {user} AND ts = '{day}'")


def wide_sql(lo: int = 0, hi: int = 79) -> str:
    return (f"SELECT sum(powerconsumed), count(*) FROM meterdata "
            f"WHERE userid >= {lo} AND userid <= {hi} "
            f"AND ts >= '2012-12-01' AND ts <= '2012-12-04'")


#: the workload the advisor learns from: a point-lookup cluster and a
#: broad-sweep cluster, deliberately wanting opposite grids.
PROLOGUE = tuple((sql, None) for sql in (
    point_sql(5, "2012-12-01"),
    point_sql(33, "2012-12-03"),
    point_sql(61, "2012-12-02"),
    wide_sql(0, 79),
    wide_sql(2, 79),
    wide_sql(0, 77),
))

#: post-advice queries: the first four repeat the learned shapes (the
#: specialist-routing assertions cover them); the last is an ordered
#: scan exercising the non-aggregation path.
MAIN = tuple((sql, None) for sql in (
    point_sql(17, "2012-12-02"),
    wide_sql(0, 79),
    point_sql(49, "2012-12-04"),
    wide_sql(1, 78),
    "SELECT userid, ts, powerconsumed FROM meterdata "
    "WHERE userid >= 30 AND userid <= 34 AND regionid >= 0 "
    "AND regionid <= 4 ORDER BY userid, ts, powerconsumed",
))
#: MAIN positions whose shapes the advisor clustered (not the scan)
CLUSTERED = (0, 1, 2, 3)


def advised_workload() -> Workload:
    return Workload(table="meterdata", ddl=METER_DDL,
                    rows=dyadic_rows(num_users=80, num_days=4),
                    queries=MAIN, index_sql=INDEX_SQL,
                    index_name="dgf_idx")


def test_observation_is_free():
    """Attaching the query log changes no observable of any query — the
    full fingerprint (rows, stats, plans, traces, global I/O and KV op
    counts) is byte-identical."""
    workload = advised_workload()
    baseline, _, _ = run_advised_workload(workload, PROLOGUE,
                                          observe=False)
    candidate, advisor, _ = run_advised_workload(workload, PROLOGUE,
                                                 observe=True)
    _assert_same(baseline, candidate, "query log attached")
    # the log demonstrably captured the whole run
    assert len(advisor.entries()) == len(PROLOGUE) + len(MAIN)


def test_applied_advice_is_inert_until_routed():
    """Building the advised fleet while pinning every query to the
    primary equals the fleetless run under ``advisor_view`` — advice
    only ever *adds* organizations; it cannot disturb the primary."""
    workload = advised_workload()
    pinned = forced(workload, PRIMARY_LAYOUT)
    baseline, _, _ = run_advised_workload(pinned, PROLOGUE, observe=True)
    fingerprint, _, report = run_advised_workload(
        pinned, PROLOGUE, observe=True, apply=True)
    assert report.layout_names(), (
        "the advisor built nothing; the comparison is vacuous")
    _assert_same(advisor_view(baseline), advisor_view(fingerprint),
                 "advice applied, pinned primary")


def test_routed_fleet_logically_identical_and_specialist_routed():
    """Cost-routing over the advisor-built fleet: logically identical to
    the pinned primary, with every clustered query landing on its
    report-named specialist."""
    workload = advised_workload()
    routed, advisor, report = run_advised_workload(
        workload, PROLOGUE, observe=True, apply=True)

    pinned, _, _ = run_advised_workload(
        forced(workload, PRIMARY_LAYOUT), PROLOGUE,
        observe=True, apply=True)
    _assert_same(logical_view(pinned), logical_view(routed),
                 "routed advised fleet vs pinned primary")

    # Routing engaged, and at least one query left the primary for an
    # advisor-built specialist.
    built = set(report.layout_names())
    routed_to = [chosen_layout(routed, position)
                 for position in range(len(MAIN))]
    assert any(choice in built for choice in routed_to), (
        f"no query ever routed to an advised layout: {routed_to}")

    # Every clustered query went exactly where the report said it
    # should: the router's cost formula IS the advisor's what-if
    # formula, so the specialists it built are the choices it makes.
    entries = advisor.entries()[len(PROLOGUE):]
    signatures = advisor._signatures(entries)
    for position in CLUSTERED:
        specialist = report.specialist_for(signatures[position])
        assert routed_to[position] == specialist, (
            f"query {position} routed to {routed_to[position]!r} but its "
            f"specialist is {specialist!r}")
