"""Tests for the stable public connection API (``repro.connect``)."""

from __future__ import annotations

import pytest

import repro
from repro.api import Connection, Cursor, bind_parameters
from repro.errors import InterfaceError
from repro.hive.plan import Plan
from repro.hive.session import QueryOptions

from tests.conftest import METER_DDL, meter_rows

INDEX_SQL = ("CREATE INDEX dgf_idx ON TABLE meterdata"
             "(userid, regionid, ts) AS 'dgf' IDXPROPERTIES "
             "('userid'='0_25', 'regionid'='0_1', 'ts'='2012-12-01_2d', "
             "'precompute'='sum(powerconsumed),count(*)')")


@pytest.fixture
def conn():
    connection = repro.connect()
    connection.execute(METER_DDL)
    rows = meter_rows()
    connection.load_rows("meterdata", rows[: len(rows) // 2])
    connection.load_rows("meterdata", rows[len(rows) // 2:])
    connection.execute(INDEX_SQL)
    yield connection
    connection.close()


class TestModuleSurface:
    def test_pep249_module_globals(self):
        assert repro.apilevel == "2.0"
        assert repro.threadsafety == 2
        assert repro.paramstyle == "qmark"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.no_such_name


class TestConnect:
    def test_connect_returns_open_connection(self):
        with repro.connect() as connection:
            assert isinstance(connection, Connection)
            assert not connection.closed
            assert connection.cache is not None  # cache defaults on
        assert connection.closed

    def test_connect_cache_off(self):
        with repro.connect(cache=False) as connection:
            assert connection.cache is None

    def test_execute_returns_query_result(self, conn):
        result = conn.execute("SELECT count(*) FROM meterdata")
        assert result.scalar() == 1200
        assert result.stats is not None

    def test_qmark_parameters_round_trip(self, conn):
        direct = conn.execute(
            "SELECT sum(powerconsumed) FROM meterdata "
            "WHERE userid >= 20 AND userid < 120 "
            "AND ts >= '2012-12-01' AND ts < '2012-12-05'")
        bound = conn.execute(
            "SELECT sum(powerconsumed) FROM meterdata "
            "WHERE userid >= ? AND userid < ? "
            "AND ts >= ? AND ts < ?",
            (20, 120, "2012-12-01", "2012-12-05"))
        assert bound.rows == direct.rows

    def test_executemany_returns_results_in_order(self, conn):
        results = conn.executemany(
            "SELECT count(*) FROM meterdata WHERE userid >= ? "
            "AND userid < ?", [(0, 50), (50, 100), (0, 200)])
        assert [r.scalar() for r in results] == [300, 300, 1200]

    def test_explain_returns_structured_plan(self, conn):
        plan = conn.explain("SELECT sum(powerconsumed) FROM meterdata "
                            "WHERE userid >= 20 AND userid < 120 "
                            "AND ts >= '2012-12-01' AND ts < '2012-12-05'")
        assert isinstance(plan, Plan)
        assert plan.uses_index
        assert plan.trace is None  # not executed
        analyzed = conn.explain(
            "SELECT sum(powerconsumed) FROM meterdata "
            "WHERE userid >= 20 AND userid < 120 "
            "AND ts >= '2012-12-01' AND ts < '2012-12-05'", analyze=True)
        assert analyzed.trace is not None
        assert "dgf" in analyzed.render()

    def test_service_property_runs_statements(self, conn):
        results = conn.service.run_all(
            ["SELECT count(*) FROM meterdata"] * 4)
        assert [r.scalar() for r in results] == [1200] * 4

    def test_multi_worker_connection_routes_via_service(self):
        with repro.connect(max_workers=4) as connection:
            connection.execute(
                "CREATE TABLE t (a bigint, b double)")
            connection.load_rows("t", [(n, float(n)) for n in range(10)])
            assert connection.execute(
                "SELECT sum(b) FROM t").scalar() == 45.0
            assert connection._service is not None

    def test_closed_connection_rejects_work(self, conn):
        conn.close()
        with pytest.raises(InterfaceError):
            conn.execute("SELECT count(*) FROM meterdata")
        with pytest.raises(InterfaceError):
            conn.cursor()

    def test_commit_is_a_noop(self, conn):
        conn.commit()


class TestCursor:
    def test_fetch_interfaces(self, conn):
        cur = conn.cursor()
        assert isinstance(cur, Cursor)
        cur.execute("SELECT userid, sum(powerconsumed) FROM meterdata "
                    "WHERE userid >= 0 AND userid < 5 GROUP BY userid")
        assert cur.rowcount == 5
        assert [d[0] for d in cur.description] == ["userid",
                                                   "sum(powerconsumed)"]
        first = cur.fetchone()
        assert first is not None
        two = cur.fetchmany(2)
        assert len(two) == 2
        rest = cur.fetchall()
        assert len(rest) == 2
        assert cur.fetchone() is None

    def test_cursor_iteration_and_chaining(self, conn):
        rows = list(conn.cursor().execute(
            "SELECT userid FROM meterdata WHERE userid >= 0 "
            "AND userid < 3 AND ts >= '2012-12-01' "
            "AND ts < '2012-12-02'", options=QueryOptions(use_index=False)))
        assert sorted(r[0] for r in rows) == [0, 1, 2]

    def test_scalar_convenience(self, conn):
        assert conn.cursor().execute(
            "SELECT count(*) FROM meterdata").scalar() == 1200

    def test_executemany_accumulates_rowcount(self, conn):
        cur = conn.cursor()
        cur.executemany(
            "SELECT userid FROM meterdata WHERE userid >= ? AND "
            "userid < ? AND ts >= '2012-12-01' AND ts < '2012-12-02'",
            [(0, 3), (3, 5)])
        assert cur.rowcount == 5
        assert len(cur.fetchall()) == 2  # last statement's rows

    def test_executemany_empty_sequence_is_a_noop(self, conn):
        cur = conn.cursor()
        cur.execute("SELECT count(*) FROM meterdata")
        cur.executemany("SELECT userid FROM meterdata WHERE userid = ?",
                        [])
        # no statement ran: the previous result, rowcount and rows stand
        assert cur.rowcount == 1
        assert cur.fetchone() == (1200,)
        fresh = conn.cursor()
        fresh.executemany("SELECT ?", [])
        assert fresh.rowcount == -1 and fresh.result is None

    def test_executemany_mismatch_mid_batch_stops_there(self, conn):
        cur = conn.cursor()
        with pytest.raises(InterfaceError):
            cur.executemany(
                "SELECT userid FROM meterdata WHERE userid >= ? AND "
                "userid < ? AND ts >= '2012-12-01' AND ts < '2012-12-02'",
                [(0, 3), (3,), (3, 5)])  # second set is short one value
        # the first set ran and installed its result; the third never ran
        assert cur.rowcount == 3
        assert [r[0] for r in cur.fetchall()] == [0, 1, 2]

    def test_plan_exposed_on_cursor(self, conn):
        cur = conn.cursor().execute(
            "SELECT sum(powerconsumed) FROM meterdata "
            "WHERE userid >= 20 AND userid < 120 "
            "AND ts >= '2012-12-01' AND ts < '2012-12-05'")
        assert isinstance(cur.plan, Plan)
        assert cur.plan.uses_index
        assert cur.result is not None

    def test_closed_cursor_rejects_fetches(self, conn):
        cur = conn.cursor()
        cur.close()
        with pytest.raises(InterfaceError):
            cur.fetchall()
        with conn.cursor() as scoped:
            scoped.execute("SELECT count(*) FROM meterdata")
        with pytest.raises(InterfaceError):
            scoped.fetchone()

    def test_scalar_before_execute_raises(self, conn):
        with pytest.raises(InterfaceError):
            conn.cursor().scalar()


class TestParameterBinding:
    def test_binding_skips_placeholders_inside_strings(self):
        sql = bind_parameters(
            "SELECT * FROM t WHERE c = 'what?' AND a >= ?", (3,))
        assert sql == "SELECT * FROM t WHERE c = 'what?' AND a >= 3"

    def test_binding_types(self):
        sql = bind_parameters("SELECT ?, ?, ?, ?",
                              (None, 42, 2.5, "text"))
        assert sql == "SELECT NULL, 42, 2.5, 'text'"

    def test_too_few_parameters_raises(self):
        with pytest.raises(InterfaceError):
            bind_parameters("SELECT ? + ?", (1,))

    def test_too_many_parameters_raises(self):
        with pytest.raises(InterfaceError):
            bind_parameters("SELECT ?", (1, 2))

    def test_quoted_string_parameter_rejected(self):
        # the HiveQL lexer has no escaping, so this cannot be bound safely
        with pytest.raises(InterfaceError):
            bind_parameters("SELECT ?", ("it's",))
        with pytest.raises(InterfaceError):
            bind_parameters("SELECT ?", ('say "hi"',))

    def test_bool_and_unbindable_types_rejected(self):
        with pytest.raises(InterfaceError):
            bind_parameters("SELECT ?", (True,))
        with pytest.raises(InterfaceError):
            bind_parameters("SELECT ?", (object(),))


class TestKnobOwnership:
    """Every tuning knob has exactly one home, and misplacement is loud."""

    def test_connect_rejects_unknown_keywords(self):
        with pytest.raises(TypeError, match="unknown keyword"):
            repro.connect(bogus=1)

    def test_connect_redirects_per_query_knobs(self):
        with pytest.raises(TypeError, match="QueryOptions"):
            repro.connect(use_index=False)
        with pytest.raises(TypeError, match="dgf_layout"):
            repro.connect(dgf_layout="primary")

    def test_connect_engine_shorthands(self):
        with repro.connect(vectorized=True) as connection:
            assert connection.session.vectorized is True
        with repro.connect() as connection:
            assert connection.session.vectorized is False

    @pytest.mark.parametrize("knob", [{"engine_workers": 2},
                                      {"execution": object()}])
    def test_connect_rejects_removed_engine_knobs(self, knob):
        with pytest.raises(TypeError, match="vectorized="):
            repro.connect(**knob)

    def test_execute_accepts_dict_options(self, conn):
        indexed = conn.execute(
            "SELECT count(*) FROM meterdata WHERE userid >= 0")
        scanned = conn.execute(
            "SELECT count(*) FROM meterdata WHERE userid >= 0",
            options={"use_index": False})
        assert scanned.rows == indexed.rows
        assert scanned.stats.index_used is None

    def test_execute_rejects_unknown_option_keys(self, conn):
        with pytest.raises(TypeError, match="unknown query option"):
            conn.execute("SELECT count(*) FROM meterdata",
                         options={"nope": 1})

    def test_execute_redirects_session_knobs(self, conn):
        with pytest.raises(TypeError, match="connect"):
            conn.execute("SELECT count(*) FROM meterdata",
                         options={"vectorized": True})

    def test_execute_rejects_non_mapping_options(self, conn):
        with pytest.raises(TypeError, match="QueryOptions"):
            conn.execute("SELECT count(*) FROM meterdata", options=42)

    def test_executemany_accepts_dict_options(self, conn):
        cursor = conn.cursor()
        cursor.executemany(
            "SELECT count(*) FROM meterdata WHERE userid >= ?",
            [(0,), (100,)], options={"use_index": False})
        assert cursor.fetchone() is not None

    def test_connection_advisor_facade(self, conn):
        from repro.service.advisor import Advisor
        advisor = conn.advisor("meterdata", "dgf_idx")
        assert isinstance(advisor, Advisor)
        assert advisor.session is conn.session
        advisor.observe()
        conn.execute("SELECT sum(powerconsumed) FROM meterdata "
                     "WHERE userid >= 40 AND userid < 45")
        assert len(advisor.entries()) == 1
        report = advisor.report()
        assert report.layouts
