"""Tests for the concurrent query service (admission, workers, lifecycle)."""

from __future__ import annotations

import threading

import pytest

from repro.errors import (SemanticError, ServiceClosedError,
                          ServiceDegradedError, ServiceOverloadedError)
from repro.hive.session import QueryOptions
from repro.service import QueryService

from tests.conftest import make_session, METER_DDL, meter_rows

MDRQ = ("SELECT sum(powerconsumed) FROM meterdata "
        "WHERE userid >= 20 AND userid < 120 "
        "AND ts >= '2012-12-01' AND ts < '2012-12-05'")


def _dgf_session():
    session = make_session()
    session.execute(METER_DDL)
    rows = meter_rows()
    half = len(rows) // 2
    session.load_rows("meterdata", rows[:half])
    session.load_rows("meterdata", rows[half:])
    session.execute(
        "CREATE INDEX dgf_idx ON TABLE meterdata(userid, regionid, ts) "
        "AS 'dgf' IDXPROPERTIES ('userid'='0_25', 'regionid'='0_1', "
        "'ts'='2012-12-01_2d', "
        "'precompute'='sum(powerconsumed),count(*)')")
    return session


class TestExecution:
    def test_execute_matches_direct_session(self):
        session = _dgf_session()
        direct = session.execute(MDRQ)
        with QueryService(session, max_workers=2) as service:
            served = service.execute(MDRQ)
        assert served.rows == direct.rows
        assert served.description == direct.description
        assert (served.trace.normalized_json()
                == direct.trace.normalized_json())

    def test_run_all_preserves_submission_order(self):
        session = _dgf_session()
        statements = [
            f"SELECT count(*) FROM meterdata WHERE userid >= {lo} "
            f"AND userid < {lo + 10}" for lo in range(0, 80, 10)]
        expected = [session.execute(sql).rows for sql in statements]
        with QueryService(session, max_workers=4) as service:
            results = service.run_all(statements)
        assert [r.rows for r in results] == expected

    def test_run_all_accepts_options_pairs(self):
        session = _dgf_session()
        with QueryService(session, max_workers=2) as service:
            indexed, scanned = service.run_all([
                MDRQ, (MDRQ, QueryOptions(use_index=False))])
        assert indexed.rows == scanned.rows
        assert indexed.stats.index_used is not None
        assert scanned.stats.index_used is None

    def test_many_concurrent_queries_byte_identical(self):
        session = _dgf_session()
        expected = session.execute(MDRQ)
        with QueryService(session, max_workers=8) as service:
            futures = [service.submit(MDRQ, block=True) for _ in range(24)]
            results = [f.result() for f in futures]
        for result in results:
            assert result.rows == expected.rows
            assert (result.trace.normalized_json()
                    == expected.trace.normalized_json())

    def test_error_propagates_through_future(self):
        session = _dgf_session()
        with QueryService(session, max_workers=2) as service:
            future = service.submit("SELECT nope FROM meterdata",
                                    block=True)
            with pytest.raises(SemanticError):
                future.result()
        # the worker survives a failed statement
        # (service is closed now; check the counter instead)
        errors = session.metrics.counter("service_queries_total")
        assert errors.value(status="error") == 1


class TestAdmission:
    def test_overload_sheds_with_service_overloaded_error(self):
        session = _dgf_session()
        started = threading.Event()
        release = threading.Event()
        original = session.execute

        def stalled(sql, options=None):
            started.set()
            release.wait(timeout=30)
            return original(sql, options)

        session.execute = stalled
        service = QueryService(session, max_workers=1, queue_depth=2)
        try:
            admitted = [service.submit(MDRQ)]
            assert started.wait(timeout=10)  # worker holds the first item
            # fill the queue (the worker is stalled on the first item)
            for _ in range(2):
                admitted.append(service.submit(MDRQ))
            with pytest.raises(ServiceOverloadedError):
                service.submit(MDRQ)
            rejected = session.metrics.counter("service_rejected_total")
            assert rejected.value() == 1
        finally:
            release.set()
            for future in admitted:
                future.result()
            session.execute = original
            service.close()

    def test_submit_to_closed_service_raises(self):
        session = _dgf_session()
        service = QueryService(session, max_workers=1)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(MDRQ)

    def test_close_drains_pending_work(self):
        session = _dgf_session()
        service = QueryService(session, max_workers=2)
        futures = [service.submit(MDRQ, block=True) for _ in range(6)]
        service.close(wait=True)
        assert all(f.result().rows for f in futures)

    def test_close_is_idempotent(self):
        service = QueryService(_dgf_session(), max_workers=1)
        service.close()
        service.close()
        assert service.closed

    def test_invalid_configuration_rejected(self):
        session = _dgf_session()
        with pytest.raises(ValueError):
            QueryService(session, max_workers=0)
        with pytest.raises(ValueError):
            QueryService(session, queue_depth=0)


class TestObservability:
    def test_status_counters_and_wait_histogram(self):
        session = _dgf_session()
        with QueryService(session, max_workers=2) as service:
            service.run_all([MDRQ, MDRQ, MDRQ])
        counter = session.metrics.counter("service_queries_total")
        assert counter.value(status="ok") == 3
        histogram = session.metrics.histogram("service_queue_wait_seconds")
        assert histogram.count() == 3

    def test_workers_default_to_one(self):
        with QueryService(_dgf_session()) as service:
            assert service.max_workers == 1
            assert len(service.run_all([MDRQ, MDRQ])) == 2


BAD_SQL = "SELECT no_such_column FROM meterdata"


class TestDegradation:
    """Graceful degradation: partial-availability status, the degraded
    flag over the recent-error window, and optional load shedding."""

    def test_fresh_service_is_fully_available(self):
        service = QueryService(_dgf_session(), max_workers=1)
        try:
            status = service.status()
            assert status.state == "available"
            assert not status.degraded
            assert status.availability == 1.0
            assert status.window_ok == status.window_error == 0
        finally:
            service.close()

    def test_error_rate_degrades_then_recovers(self):
        service = QueryService(_dgf_session(), max_workers=1,
                               degraded_error_window=4,
                               degraded_error_threshold=0.5)
        try:
            with pytest.raises(SemanticError):
                service.execute(BAD_SQL)
            with pytest.raises(SemanticError):
                service.execute(BAD_SQL)
            status = service.status()
            assert status.degraded and status.state == "degraded"
            assert status.availability == 0.0
            assert status.window_error == 2
            # successes refill the window and clear the flag
            for _ in range(4):
                service.execute(MDRQ)
            status = service.status()
            assert not status.degraded
            assert status.availability == 1.0
            assert status.window_ok == 4
        finally:
            service.close()

    def test_shedding_rejects_with_transient_degraded_error(self):
        from repro.errors import TransientError
        session = _dgf_session()
        service = QueryService(session, max_workers=1,
                               degraded_error_window=2,
                               degraded_error_threshold=0.5,
                               shed_when_degraded=True)
        try:
            with pytest.raises(SemanticError):
                service.execute(BAD_SQL)
            assert service.degraded
            with pytest.raises(ServiceDegradedError) as excinfo:
                service.submit(MDRQ)
            assert isinstance(excinfo.value, TransientError)
            rejects = session.metrics.counter(
                "service_degraded_rejects_total")
            assert rejects.value() == 1
            # an operator can stop shedding; served work then recovers
            service.shed_when_degraded = False
            service.execute(MDRQ)
            service.execute(MDRQ)
            assert not service.degraded
        finally:
            service.close()

    def test_availability_gauge_tracks_window(self):
        session = _dgf_session()
        service = QueryService(session, max_workers=1,
                               degraded_error_window=8)
        try:
            service.execute(MDRQ)
            with pytest.raises(SemanticError):
                service.execute(BAD_SQL)
            service.execute(MDRQ)
            gauge = session.metrics.gauge("service_availability")
            assert gauge.value() == pytest.approx(2 / 3)
            assert service.status().availability == pytest.approx(2 / 3)
        finally:
            service.close()

    def test_degradation_config_validated(self):
        session = _dgf_session()
        with pytest.raises(ValueError):
            QueryService(session, degraded_error_window=0)
        with pytest.raises(ValueError):
            QueryService(session, degraded_error_threshold=0.0)
        with pytest.raises(ValueError):
            QueryService(session, degraded_error_threshold=1.5)
