"""Tests for the workload-driven divergent advisor stack.

Covers the query log (:mod:`repro.service.querylog`), the session's
capture hook, the what-if evaluator (:mod:`repro.core.dgf.whatif`), the
clustering and divergent search (:mod:`repro.core.dgf.advisor`), and the
:class:`~repro.service.advisor.Advisor` facade's observe → report →
apply → auto-tune lifecycle, including the drift-watching re-tune
workflow and the ``dgf_layout`` plan-time validation fix.
"""

from __future__ import annotations

import math

import pytest

from repro.core.dgf import fleet
from repro.core.dgf.advisor import (Advice, AdvisorReport, DimensionStats,
                                    PolicyAdvisor, QueryProfile,
                                    cluster_signatures, signature_distance,
                                    signature_of)
from repro.core.dgf.policy import SplittingPolicy
from repro.core.dgf.whatif import WhatIfEvaluator, stats_from_policy
from repro.errors import DGFError
from repro.hive.session import HiveSession, QueryOptions
from repro.hiveql.predicates import Interval
from repro.mapreduce.cost import CostModel
from repro.service.advisor import Advisor
from repro.service.querylog import LoggedQuery, QueryLog
from repro.storage.schema import DataType, Schema
from repro.workflow.coordinator import Coordinator

from tests.harness.replicas import dyadic_rows

METER_DDL = ("CREATE TABLE meterdata (userid bigint, regionid int, "
             "ts date, powerconsumed double)")
INDEX_SQL = ("CREATE INDEX dgf_idx ON TABLE meterdata"
             "(userid, regionid, ts) AS 'dgf' IDXPROPERTIES ("
             "'userid'='0_25', 'regionid'='0_1', 'ts'='2012-12-01_2d', "
             "'precompute'='sum(powerconsumed),count(*)')")


def point_sql(user: int, day: str) -> str:
    return (f"SELECT sum(powerconsumed), count(*) FROM meterdata "
            f"WHERE userid = {user} AND ts = '{day}'")


def wide_sql() -> str:
    return ("SELECT sum(powerconsumed), count(*) FROM meterdata "
            "WHERE userid >= 0 AND userid <= 79 "
            "AND ts >= '2012-12-01' AND ts <= '2012-12-04'")


def tuned_session() -> HiveSession:
    session = HiveSession(num_datanodes=4)
    session.fs.block_size = 2048
    session.execute(METER_DDL)
    rows = dyadic_rows(num_users=80, num_days=4)
    half = len(rows) // 2
    session.load_rows("meterdata", rows[:half])
    session.load_rows("meterdata", rows[half:])
    session.execute(INDEX_SQL)
    return session


def advisor_for(session: HiveSession, **kwargs) -> Advisor:
    return Advisor(session, "meterdata", "dgf_idx", **kwargs)


# ------------------------------------------------------------- signatures
class TestSignatures:
    STATS = {"u": DimensionStats("u", DataType.BIGINT, 0.0, 100.0),
             "t": DimensionStats("t", DataType.DATE, 0.0, 10.0)}

    def test_signature_normalizes_and_clips(self):
        profile = QueryProfile(widths={"u": 50.0, "t": None})
        signature = signature_of(profile, self.STATS, ["u", "t"])
        assert signature == {"u": 0.5, "t": 1.0}
        oversized = QueryProfile(widths={"u": 1e6, "t": 0.0})
        assert signature_of(oversized, self.STATS, ["u", "t"]) \
            == {"u": 1.0, "t": 0.0}

    def test_signature_distance_properties(self):
        a = {"u": 0.0, "t": 0.0}
        b = {"u": 1.0, "t": 1.0}
        assert signature_distance(a, a) == 0.0
        assert signature_distance({}, {}) == 0.0
        assert signature_distance(a, b) == pytest.approx(1.0)
        assert signature_distance(a, b) == signature_distance(b, a)
        # missing keys default to 1.0 (unconstrained)
        assert signature_distance({"u": 1.0}, {"u": 1.0, "t": 1.0}) == 0.0

    def test_clustering_is_deterministic(self):
        signatures = [{"a": 0.1, "b": 0.1}, {"a": 0.12, "b": 0.1},
                      {"a": 0.9, "b": 0.95}, {"a": 0.88, "b": 0.9}]
        assert cluster_signatures(signatures, 3) == ([0, 2], [0, 0, 1, 1])

    def test_identical_signatures_collapse_to_one_cluster(self):
        signatures = [{"a": 0.4, "b": 0.4}] * 5
        medoids, assignments = cluster_signatures(signatures, 3)
        assert medoids == [0]
        assert assignments == [0] * 5

    def test_empty_and_single(self):
        assert cluster_signatures([], 2) == ([], [])
        assert cluster_signatures([{"a": 0.3}], 4) == ([0], [0])

    def test_budget_caps_cluster_count(self):
        signatures = [{"a": 0.0}, {"a": 0.33}, {"a": 0.66}, {"a": 1.0}]
        medoids, _ = cluster_signatures(signatures, 2)
        assert len(medoids) == 2


# ---------------------------------------------------------------- what-if
class TestWhatIf:
    STATS = {"u": DimensionStats("u", DataType.BIGINT, 0.0, 1000.0),
             "t": DimensionStats("t", DataType.DATE, 0.0, 100.0)}

    @pytest.fixture
    def evaluator(self):
        return WhatIfEvaluator(CostModel(), self.STATS,
                               total_records=1e6, total_bytes=1e8)

    def test_point_query_prefers_fine_grid(self, evaluator):
        point = QueryProfile(widths={"u": 1.0, "t": 1.0})
        fine = evaluator.query_seconds(point, {"u": 256, "t": 64})
        coarse = evaluator.query_seconds(point, {"u": 1, "t": 1})
        assert fine < coarse

    def test_wide_scan_prefers_coarse_grid(self, evaluator):
        # without the header shortcut every overlapped cell is probed,
        # so a broad scan wants few, large cells
        wide = QueryProfile(widths={"u": None, "t": None},
                            agg_path=False)
        coarse = evaluator.query_seconds(wide, {"u": 1, "t": 1})
        fine = evaluator.query_seconds(wide, {"u": 256, "t": 64})
        assert coarse < fine

    def test_header_path_never_costs_more(self, evaluator):
        grid = {"u": 16, "t": 8}
        widths = {"u": 500.0, "t": 50.0}
        with_headers = evaluator.query_seconds(
            QueryProfile(widths=widths, agg_path=True), grid)
        without = evaluator.query_seconds(
            QueryProfile(widths=widths, agg_path=False), grid)
        assert with_headers < without

    def test_whatif_formula_is_the_router_formula(self):
        model = CostModel()
        for args in ((1, 0.0, 0.0), (120, 5e4, 2e7), (4096, 1e6, 1e9)):
            assert model.whatif_seconds(*args) \
                == model.layout_route_seconds(*args)

    def test_workload_seconds_respects_weights(self, evaluator):
        grid = {"u": 16, "t": 8}
        one = QueryProfile(widths={"u": 10.0, "t": 5.0})
        double = QueryProfile(widths={"u": 10.0, "t": 5.0}, weight=2.0)
        assert evaluator.workload_seconds([double], grid) \
            == pytest.approx(2 * evaluator.workload_seconds([one], grid))

    def test_stats_from_policy_covers_cell_aligned_extent(self):
        session = tuned_session()
        store = session.dgf_store("meterdata", "dgf_idx")
        stats = stats_from_policy(store.load_policy(), store.load_bounds())
        assert set(stats) == {"userid", "regionid", "ts"}
        # users 0..79 with interval 25 occupy cells 0..3 -> extent [0, 100)
        assert stats["userid"].low == 0.0
        assert stats["userid"].high == 100.0


# ------------------------------------------------------- structured advice
class TestAdvice:
    @pytest.fixture
    def schema(self):
        return Schema.of(("u", DataType.BIGINT), ("d", DataType.DATE))

    @pytest.fixture
    def rows(self):
        import datetime
        out = []
        for day in range(10):
            date = (datetime.date(2012, 12, 1)
                    + datetime.timedelta(days=day)).isoformat()
            for u in range(0, 1000, 7):
                out.append((u, date))
        return out

    HISTORY = [{"u": Interval(low=100, high=200)}]

    def test_advise_returns_structured_advice(self, schema, rows):
        advisor = PolicyAdvisor(schema, ["u", "d"],
                                records_per_unit_volume=1e9)
        advice = advisor.advise(rows, self.HISTORY)
        assert isinstance(advice, Advice)
        assert isinstance(advice.policy, SplittingPolicy)
        assert set(advice.cell_counts) == {"u", "d"}
        assert advice.queries == 1
        assert advice.predicted_seconds > 0
        assert "coordinate descent" in advice.rationale
        # the properties render rebuilds the same policy
        rebuilt = SplittingPolicy.from_properties(schema, ["u", "d"],
                                                  advice.properties)
        assert rebuilt.dimension("u").interval \
            == advice.policy.dimension("u").interval

    def test_advice_roundtrips_through_dict(self, schema, rows):
        advisor = PolicyAdvisor(schema, ["u", "d"],
                                records_per_unit_volume=1e9)
        advice = advisor.advise(rows, self.HISTORY)
        again = Advice.from_dict(advice.to_dict())
        assert again.to_dict() == advice.to_dict()
        assert again.cell_counts == advice.cell_counts

    def test_advise_policy_is_repeatable(self, schema, rows):
        advisor = PolicyAdvisor(schema, ["u", "d"],
                                records_per_unit_volume=1e9)
        policy = advisor.advise(rows, self.HISTORY).policy
        advice = advisor.advise(rows, self.HISTORY)
        assert policy.to_dict() == advice.policy.to_dict()

    def test_empty_history_rejected(self, schema, rows):
        advisor = PolicyAdvisor(schema, ["u"])
        with pytest.raises(DGFError, match="at least one"):
            advisor.advise_profiles(advisor.profile_data(rows), [])


# -------------------------------------------------------- divergent search
class TestDivergentSearch:
    STATS = {"u": DimensionStats("u", DataType.BIGINT, 0.0, 1000.0),
             "t": DimensionStats("t", DataType.BIGINT, 0.0, 100.0)}
    SCHEMA = Schema.of(("u", DataType.BIGINT), ("t", DataType.BIGINT))

    def advisor(self):
        return PolicyAdvisor(self.SCHEMA, ["u", "t"])

    def evaluator(self):
        return WhatIfEvaluator(CostModel(), self.STATS, 1e6, 1e8)

    def points_and_wides(self):
        points = [QueryProfile(widths={"u": 1.0, "t": 1.0})
                  for _ in range(3)]
        wides = [QueryProfile(widths={"u": None, "t": None})
                 for _ in range(3)]
        return points + wides

    def test_two_clusters_two_specialists(self):
        report = self.advisor().advise_divergent(
            self.STATS, self.points_and_wides(), self.evaluator(),
            max_layouts=3, table="m", index="i")
        assert len(report.layouts) == 2
        assert report.assignments[:3] == [0] * 3
        assert report.assignments[3:] == [1] * 3
        point_layout = report.layouts[0]
        wide_layout = report.layouts[1]
        # the specialists genuinely diverge, in the expected directions
        assert point_layout.advice.cell_counts["u"] \
            > wide_layout.advice.cell_counts["u"]
        assert report.specialist_for({"u": 0.0, "t": 0.0}) \
            == point_layout.name
        assert report.specialist_for({"u": 1.0, "t": 1.0}) \
            == wide_layout.name
        # divergent fleet never predicted slower than the best uniform
        assert report.predicted_speedup >= 1.0

    def test_identical_workload_yields_one_layout(self):
        profiles = [QueryProfile(widths={"u": 50.0, "t": 5.0})
                    for _ in range(4)]
        report = self.advisor().advise_divergent(
            self.STATS, profiles, self.evaluator(), max_layouts=3)
        assert len(report.layouts) == 1
        assert report.assignments == [0] * 4
        assert report.layouts[0].queries == 4

    def test_single_query_log(self):
        report = self.advisor().advise_divergent(
            self.STATS, [QueryProfile(widths={"u": 1.0, "t": 1.0})],
            self.evaluator(), max_layouts=2)
        assert len(report.layouts) == 1
        assert report.assignments == [0]

    def test_empty_log_rejected(self):
        with pytest.raises(DGFError, match="at least one"):
            self.advisor().advise_divergent(self.STATS, [],
                                            self.evaluator())

    def test_cluster_matching_primary_grid_builds_nothing(self):
        profiles = [QueryProfile(widths={"u": 1.0, "t": 1.0})]
        first = self.advisor().advise_divergent(
            self.STATS, profiles, self.evaluator(), max_layouts=2)
        grid = first.layouts[0].advice.cell_counts
        again = self.advisor().advise_divergent(
            self.STATS, profiles, self.evaluator(), max_layouts=2,
            primary_cell_counts=dict(grid))
        assert again.layouts[0].name == "primary"
        assert again.layout_names() == []
        assert again.specialist_for({"u": 0.0, "t": 0.0}) == "primary"

    def test_report_roundtrips_through_dict(self):
        report = self.advisor().advise_divergent(
            self.STATS, self.points_and_wides(), self.evaluator(),
            table="m", index="i")
        again = AdvisorReport.from_dict(report.to_dict())
        assert again.to_dict() == report.to_dict()
        assert again.predicted_speedup \
            == pytest.approx(report.predicted_speedup)


# -------------------------------------------------------------- query log
class TestQueryLog:
    def entry(self, user: float = 5.0, **overrides) -> LoggedQuery:
        fields = dict(table="meterdata", index="dgf_idx",
                      spans={"userid": (user, user + 1.0), "ts": None},
                      agg_path=True, seconds=0.25)
        fields.update(overrides)
        return LoggedQuery(**fields)

    def test_bounded_capacity_counts_drops(self):
        log = QueryLog(capacity=3)
        for user in range(5):
            log.record(self.entry(float(user)))
        assert len(log) == 3
        assert log.total == 5
        assert log.dropped == 2
        kept = [entry.spans["userid"][0] for entry in log.entries()]
        assert kept == [2.0, 3.0, 4.0]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            QueryLog(capacity=0)

    def test_window_returns_newest_oldest_first(self):
        log = QueryLog()
        for user in range(4):
            log.record(self.entry(float(user)))
        window = log.window(2)
        assert [e.spans["userid"][0] for e in window] == [2.0, 3.0]
        assert log.window(0) == []

    def test_for_index_filters_case_insensitively(self):
        log = QueryLog()
        log.record(self.entry(1.0))
        log.record(self.entry(2.0, table="OTHER"))
        log.record(self.entry(3.0, index="other_idx"))
        matches = log.for_index("MeterData", "DGF_IDX")
        assert [e.spans["userid"][0] for e in matches] == [1.0]
        assert len(log.for_index("meterdata", "other_idx")) == 1

    def test_widths_from_spans(self):
        entry = self.entry(10.0)
        assert entry.widths == {"userid": 1.0, "ts": None}

    def test_json_roundtrip(self):
        log = QueryLog(capacity=3)
        for user in range(5):
            log.record(self.entry(float(user), layout="adv-0",
                                  records_read=7))
        again = QueryLog.from_json(log.to_json())
        assert again.capacity == 3
        assert again.total == 5
        assert again.dropped == 2
        assert again.entries() == log.entries()

    def test_save_load(self, tmp_path):
        log = QueryLog()
        log.record(self.entry(9.0, agg_path=False))
        path = tmp_path / "querylog.json"
        log.save(path)
        assert QueryLog.load(path).entries() == log.entries()

    def test_clear_keeps_totals(self):
        log = QueryLog()
        log.record(self.entry())
        log.clear()
        assert len(log) == 0
        assert log.total == 1


# ---------------------------------------------------------------- capture
class TestCapture:
    def test_executed_range_query_is_logged(self, dgf_session):
        log = QueryLog()
        dgf_session.query_log = log
        result = dgf_session.execute(
            "SELECT sum(powerconsumed) FROM meterdata "
            "WHERE userid >= 20 AND userid < 120 "
            "AND ts >= '2012-12-01' AND ts < '2012-12-05'")
        assert len(log) == 1
        entry = log.entries()[0]
        assert (entry.table, entry.index) == ("meterdata", "dgf_idx")
        assert entry.agg_path is True
        assert entry.layout is None  # no fleet on this session
        assert entry.seconds == result.stats.time.total > 0
        assert entry.records_matched == result.stats.records_matched
        assert entry.output_records == result.stats.output_records
        assert set(entry.spans) == {"userid", "regionid", "ts"}
        assert entry.spans["regionid"] is None  # unconstrained
        low, high = entry.spans["userid"]
        assert low == 20.0 and high > low

    def test_non_aggregation_query_records_agg_path_false(self, dgf_session):
        dgf_session.query_log = QueryLog()
        dgf_session.execute(
            "SELECT userid, powerconsumed FROM meterdata "
            "WHERE userid >= 10 AND userid < 14")
        entry = dgf_session.query_log.entries()[0]
        assert entry.agg_path is False

    def test_explain_stages_but_never_commits(self, dgf_session):
        dgf_session.query_log = QueryLog()
        dgf_session.execute(
            "EXPLAIN SELECT sum(powerconsumed) FROM meterdata "
            "WHERE userid >= 0 AND userid < 50")
        assert len(dgf_session.query_log) == 0
        # the next executed query logs its own region, not the EXPLAIN's
        dgf_session.execute(
            "SELECT sum(powerconsumed) FROM meterdata "
            "WHERE userid >= 100 AND userid < 110")
        entries = dgf_session.query_log.entries()
        assert len(entries) == 1
        assert entries[0].spans["userid"][0] == 100.0

    def test_unindexed_queries_are_not_logged(self, dgf_session):
        dgf_session.query_log = QueryLog()
        dgf_session.execute("SELECT count(*) FROM meterdata",
                            QueryOptions(use_index=False))
        assert len(dgf_session.query_log) == 0

    def test_capture_honours_capacity(self, dgf_session):
        dgf_session.query_log = QueryLog(capacity=2)
        for low in (0, 30, 60):
            dgf_session.execute(
                f"SELECT count(*) FROM meterdata "
                f"WHERE userid >= {low} AND userid < {low + 10}")
        assert len(dgf_session.query_log) == 2
        assert dgf_session.query_log.dropped == 1


# ----------------------------------------------------------- the facade
class TestAdvisorFacade:
    def observe_and_run(self, session, queries):
        advisor = advisor_for(session)
        advisor.observe()
        for sql in queries:
            session.execute(sql)
        return advisor

    def test_report_requires_observation(self):
        session = tuned_session()
        with pytest.raises(DGFError, match="observe"):
            advisor_for(session).report()

    def test_single_query_report_applies_cleanly(self):
        session = tuned_session()
        advisor = self.observe_and_run(
            session, [point_sql(33, "2012-12-02")])
        report = advisor.report(max_layouts=3)
        assert len(report.layouts) == 1
        assert report.assignments == [0]
        built = advisor.apply(report)
        assert built == report.layout_names()
        index = session.metastore.get_index("meterdata", "dgf_idx")
        assert set(fleet.registered_layouts(index)) == set(built)

    def test_identical_workload_yields_one_layout(self):
        session = tuned_session()
        advisor = self.observe_and_run(session, [wide_sql()] * 3)
        report = advisor.report(max_layouts=3)
        assert len(report.layouts) == 1
        assert report.layouts[0].queries == 3

    def test_divergent_report_and_specialist_routing(self):
        session = tuned_session()
        advisor = self.observe_and_run(
            session, [point_sql(5, "2012-12-01"),
                      point_sql(61, "2012-12-03"),
                      wide_sql(), wide_sql()])
        report = advisor.report()
        assert len(report.layouts) == 2
        advisor.apply(report)
        # a fresh point query routes to the layout the report names
        result = session.execute(point_sql(17, "2012-12-02"))
        entries = advisor.entries()
        signature = advisor._signatures(entries[-1:])[0]
        assert result.plan.access.layout \
            == report.specialist_for(signature)

    def test_reapply_drops_stale_layouts(self):
        session = tuned_session()
        advisor = self.observe_and_run(
            session, [point_sql(5, "2012-12-01"),
                      point_sql(33, "2012-12-02")])
        first = advisor.report()
        advisor.apply(first)
        advisor.log.clear()
        for _ in range(3):
            session.execute(wide_sql())
        second = advisor.report()
        # same positional names, but the workload flipped so the grid must
        # have flipped with it
        assert second.layouts[0].advice.cell_counts \
            != first.layouts[0].advice.cell_counts
        advisor.apply(second)
        index = session.metastore.get_index("meterdata", "dgf_idx")
        assert set(fleet.registered_layouts(index)) \
            == set(second.layout_names())

    def test_drift_lifecycle(self):
        session = tuned_session()
        advisor = self.observe_and_run(
            session, [point_sql(5, "2012-12-01"),
                      point_sql(33, "2012-12-02")])
        assert advisor.drift() == float("inf")  # nothing fitted yet
        advisor.apply(advisor.report())
        advisor.log.clear()
        assert advisor.drift() == 0.0  # empty window
        session.execute(point_sql(61, "2012-12-03"))
        assert advisor.drift() <= advisor.drift_threshold
        advisor.log.clear()
        session.execute(wide_sql())
        assert advisor.drift() > advisor.drift_threshold

    def test_auto_tune_insufficient_log(self):
        session = tuned_session()
        advisor = advisor_for(session, min_queries=50)
        advisor.observe()
        session.execute(point_sql(5, "2012-12-01"))
        run = advisor.auto_tune()
        assert run.succeeded
        assert run.result_of("decide")["decision"] == "insufficient"
        assert run.result_of("retune")["outcome"] == "insufficient"

    def test_auto_tune_stable_then_drift_retunes(self):
        session = tuned_session()
        advisor = advisor_for(session, window=4)
        advisor.observe()
        for user, day in ((5, 1), (33, 2), (61, 3), (17, 4)):
            session.execute(point_sql(user, f"2012-12-0{day}"))
        advisor.apply(advisor.report())
        fitted_grid = dict(advisor.fitted.layouts[0].advice.cell_counts)

        run = advisor.auto_tune()
        assert run.succeeded
        assert run.result_of("decide")["decision"] == "stable"

        # adversarial drift: the workload flips shape mid-window
        for _ in range(4):
            session.execute(wide_sql())
        run = advisor.auto_tune()
        assert run.result_of("decide")["decision"] == "retune"
        assert run.result_of("decide")["drift"] > advisor.drift_threshold
        assert run.result_of("retune")["outcome"].startswith("retuned:")
        assert run.result_of("retune")["outcome"] != "retuned:0"
        assert dict(advisor.fitted.layouts[0].advice.cell_counts) \
            != fitted_grid
        index = session.metastore.get_index("meterdata", "dgf_idx")
        registered = fleet.registered_layouts(index)
        assert set(registered) == set(advisor.fitted.layout_names())
        # the *physical* grid was rebuilt to the new advice, not just
        # renamed over the stale one (layout names are positional)
        for layout in advisor.fitted.layouts:
            assert registered[layout.name].grid_properties() \
                == dict(layout.advice.properties)

    def test_auto_tune_schedules_on_coordinator(self):
        session = tuned_session()
        advisor = advisor_for(session, min_queries=50)
        advisor.observe()
        coordinator = Coordinator(session)
        advisor.auto_tune(coordinator=coordinator, period=60.0)
        fired = coordinator.advance_by(120.0)
        assert len(fired) == 3  # t=0, 60, 120
        assert all(record.run.succeeded for record in fired)
        assert coordinator.runs_of("advisor-retune")

    def test_ledgered_traces_and_metrics(self):
        session = tuned_session()
        advisor = self.observe_and_run(
            session, [point_sql(5, "2012-12-01")])
        advisor.apply(advisor.report())
        names = [trace.root.name for trace in advisor.traces]
        assert names == ["advisor:report", "advisor:apply"]
        report_span = advisor.traces[0].root
        assert report_span.attrs["queries"] == 1
        assert "predicted_speedup" in report_span.attrs
        metrics = {m.name for m in session.metrics.all_metrics()} \
            if hasattr(session.metrics, "all_metrics") else None
        if metrics is not None:
            assert "advisor_reports_total" in metrics

    def test_status_summary(self):
        session = tuned_session()
        advisor = advisor_for(session)
        status = advisor.status()
        assert status["observing"] is False
        assert status["fitted"] is False
        assert status["drift"] is None
        advisor.observe()
        session.execute(point_sql(5, "2012-12-01"))
        advisor.apply(advisor.report())
        status = advisor.status()
        assert status["observing"] and status["fitted"]
        assert status["logged"] == 1
        assert status["layouts"] == advisor.fitted.layout_names()

    def test_stop_observing_detaches_log(self):
        session = tuned_session()
        advisor = advisor_for(session)
        log = advisor.observe()
        assert advisor.observe() is log  # idempotent
        advisor.stop_observing()
        assert session.query_log is None
        session.execute(point_sql(5, "2012-12-01"))
        assert len(log) == 0


# ----------------------------------------------- dgf_layout validation fix
class TestLayoutOptionValidation:
    def test_unknown_layout_without_fleet_fails_at_plan_time(self):
        session = tuned_session()
        with pytest.raises(DGFError, match="no replica fleet"):
            session.execute(wide_sql(), QueryOptions(dgf_layout="nope"))

    def test_error_names_the_live_layouts(self):
        session = tuned_session()
        with pytest.raises(DGFError, match="'primary'"):
            session.execute(wide_sql(),
                            QueryOptions(dgf_layout="adv-0"))

    def test_primary_pin_without_fleet_is_a_noop(self):
        session = tuned_session()
        plain = session.execute(wide_sql())
        pinned = session.execute(wide_sql(),
                                 QueryOptions(dgf_layout="primary"))
        assert pinned.rows == plain.rows
        assert pinned.plan.access.layout is None
