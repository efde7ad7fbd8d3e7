"""Row-vs-vector differential suite (ISSUE 6 acceptance).

Generated MDRQ sessions and fixed stress workloads are replayed on a
``vectorized=True`` session and must be byte-identical to the row engine: result rows and row order,
folded float aggregates, QueryStats, simulated cost-model seconds,
global ``fs_io``/``kv_ops`` totals, and normalized traces modulo the
strippable ``vector.*`` observability layer (tests.harness.vector).

The suite also proves:

* **fallback, not failure** — every unsupported-expression class (LIKE,
  ``%``, scalar functions, mixed-type comparisons, huge integer
  literals) silently runs that expression on the row engine inside the
  vectorized scan, counts ``vector.fallback_rows``, and still
  fingerprints identically end to end;
* **chaos overlap** — a seeded :class:`~repro.faults.FaultPlan` under
  the vectorized engine matches the row engine under the same plan
  (crashed attempts replay per-record on the row path);
* **clean degradation** — with NumPy unavailable
  (``REPRO_VECTOR_DISABLE=1``), a ``vectorized=True`` session is the
  row engine, *raw*-fingerprint-identical, no vector markers anywhere.

The whole suite runs with or without NumPy installed; only assertions
that vectorization *actually happened* are gated on availability.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.faults import TASK_CRASH, FaultPlan, FaultSpec
from repro.vector import runtime

from tests.conftest import SCAN
from tests.harness.differential import Workload, _assert_same, run_workload
from tests.harness.vector import (assert_vector_equivalent,
                                  assert_vector_chaos_equivalent)
from tests.test_engine_equivalence import (DAYS, METER_DDL,
                                           TestDgfStressParallel, index_sql,
                                           mdrq_workloads, stress_rows)

HAVE_NUMPY = runtime.numpy_available()

RCFILE_DDL = METER_DDL.replace("STORED AS TEXTFILE", "STORED AS RCFILE")
SEQUENCE_DDL = METER_DDL.replace("STORED AS TEXTFILE",
                                 "STORED AS SEQUENCEFILE")


def trace_counter_total(fingerprint, name):
    """Sum a counter over every span of every query trace."""

    def walk(node):
        total = node["counters"].get(name, 0)
        for child in node["children"]:
            total += walk(child)
        return total

    return sum(walk(value["trace"]["root"])
               for key, value in fingerprint.items()
               if key.startswith("query:") and value.get("trace"))


# ------------------------------------------------------ generated workloads
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(workload=mdrq_workloads())
def test_mdrq_sessions_vectorized(workload):
    """Generated MDRQ sessions — load, DGF build, every planner path —
    fingerprint identically between the row and vector engines."""
    baseline = assert_vector_equivalent(workload)
    assert baseline["query:0"]["index_used"]
    assert not baseline["query:1"]["index_used"]


# ---------------------------------------------------------- fixed workloads
def test_stress_queries_vectorized():
    """The full DGF stress battery — headers, slices, GROUP BY, joins,
    ORDER BY/LIMIT, INSERT DIRECTORY — row-vs-vector identical.  Joins
    are not vectorizable and must transparently stay on the row path."""
    workload = Workload(
        table="meterdata", ddl=METER_DDL, rows=stress_rows(),
        queries=TestDgfStressParallel.QUERIES, index_sql=index_sql(10),
        index_name="d", block_size=2048, load_files=3,
        extra_tables=(
            ("userinfo",
             "CREATE TABLE userinfo (userid bigint, username string)",
             tuple((u, f"user{u}") for u in range(80))),))
    baseline = assert_vector_equivalent(workload)
    assert baseline["query:6"]["rows"] == [(480,)]


def test_rcfile_sessions_vectorized():
    """RCFile storage: row-group batches (including column pruning and the
    DGF slice path over row groups) fingerprint identically."""
    queries = (
        ("SELECT sum(powerconsumed), count(*) FROM meterdata "
         "WHERE userid >= 3 AND userid < 47 AND regionid >= 1 "
         f"AND regionid <= 3 AND ts >= '{DAYS[1]}' AND ts <= '{DAYS[4]}'",
         None),
        ("SELECT regionid, avg(powerconsumed), min(powerconsumed) "
         "FROM meterdata GROUP BY regionid", SCAN),
        ("SELECT userid, powerconsumed FROM meterdata "
         "WHERE powerconsumed > 25.0", SCAN),
    )
    workload = Workload(table="meterdata", ddl=RCFILE_DDL,
                        rows=stress_rows(), queries=queries,
                        index_sql=index_sql(10), index_name="d",
                        block_size=2048, load_files=2)
    assert_vector_equivalent(workload)


def test_sequencefile_stays_on_row_engine():
    """No batch decoder for sequence files: a vectorized session is the
    row session, raw-fingerprint identical (no vector markers at all)."""
    queries = (("SELECT sum(powerconsumed), count(*) FROM meterdata "
                "WHERE userid >= 10 AND userid < 50", SCAN),)
    workload = Workload(table="meterdata", ddl=SEQUENCE_DDL,
                        rows=stress_rows()[:200], queries=queries,
                        index_sql=None)
    baseline = run_workload(workload)
    candidate = run_workload(workload, vectorized=True)
    _assert_same(baseline, candidate, "sequencefile vectorized=True")
    assert "vectorized" not in candidate["query:0"]["description"]


# ------------------------------------------------------- fallback coverage
#: one query per unsupported-expression class; each must fall back to the
#: row engine (never error) while the rest of the scan stays vectorized.
FALLBACK_QUERIES = (
    ("modulo", "SELECT count(*) FROM meterdata WHERE userid % 7 = 1"),
    ("like", "SELECT count(*) FROM meterdata WHERE ts LIKE '2012-12-0%'"),
    ("scalar-function",
     "SELECT count(*) FROM meterdata WHERE abs(powerconsumed - 50.0) < 10.0"),
    ("scalar-projection",
     "SELECT userid, round(powerconsumed) FROM meterdata "
     "WHERE regionid = 2"),
    ("mixed-type-comparison",
     "SELECT count(*) FROM meterdata WHERE ts = 3"),
    ("huge-int-literal",
     "SELECT count(*) FROM meterdata "
     f"WHERE userid * 1 < {2**70}"),
    ("group-by-function",
     "SELECT length(ts), sum(powerconsumed) FROM meterdata "
     "WHERE userid < 40 GROUP BY length(ts)"),
    ("aggregate-of-function",
     "SELECT sum(abs(powerconsumed)), count(*) FROM meterdata "
     "WHERE userid < 40"),
)


@pytest.mark.parametrize("label,sql",
                         FALLBACK_QUERIES, ids=[q[0] for q in FALLBACK_QUERIES])
def test_fallback_classes_byte_identical(label, sql):
    """Each unsupported class: byte-identical results, and (with NumPy)
    the scan still ran vectorized with ``vector.fallback_rows`` counted."""
    workload = Workload(table="meterdata", ddl=METER_DDL,
                        rows=stress_rows()[:240], queries=((sql, SCAN),),
                        index_sql=None)
    assert_vector_equivalent(workload)
    if HAVE_NUMPY:
        fingerprint = run_workload(workload, vectorized=True)
        assert "vectorized: true" in fingerprint["query:0"]["description"]
        assert trace_counter_total(fingerprint, "vector.batches") > 0
        assert trace_counter_total(fingerprint, "vector.fallback_rows") > 0


def test_mixed_plan_partial_fallback():
    """A query mixing kernel-supported and unsupported expressions in one
    plan: the filter runs vectorized and only the unsupported group key
    falls back — over matched rows only, so fallback_rows < rows read."""
    sql = ("SELECT length(ts), sum(powerconsumed), count(*) FROM meterdata "
           "WHERE userid >= 5 AND userid < 45 "
           "GROUP BY length(ts)")
    workload = Workload(table="meterdata", ddl=METER_DDL,
                        rows=stress_rows(), queries=((sql, SCAN),),
                        index_sql=None)
    assert_vector_equivalent(workload)
    if HAVE_NUMPY:
        fingerprint = run_workload(workload, vectorized=True)
        fallback = trace_counter_total(fingerprint, "vector.fallback_rows")
        read = fingerprint["query:0"]["records_read"]
        matched = fingerprint["query:0"]["records_matched"]
        # Only the group-key stage fell back, and only over matched rows.
        assert matched < read
        assert 0 < fallback == matched


# ----------------------------------------------------------- chaos overlap
def test_vectorized_under_chaos_matches_row_engine():
    """Vector + faults == row + faults, same seeded plan: identical chaos
    views and identical injection/recovery registries."""
    queries = (
        ("SELECT sum(powerconsumed), count(*) FROM meterdata "
         "WHERE userid >= 5 AND userid < 40 AND regionid >= 0 "
         f"AND regionid <= 3 AND ts >= '{DAYS[0]}' AND ts <= '{DAYS[4]}'",
         None),
        ("SELECT ts, sum(powerconsumed) FROM meterdata "
         "WHERE userid < 60 GROUP BY ts", SCAN),
    )
    workload = Workload(table="meterdata", ddl=METER_DDL,
                        rows=stress_rows(), queries=queries,
                        index_sql=index_sql(10), index_name="d",
                        block_size=2048, load_files=3)
    plan = FaultPlan(seed=7, task_crash_rate=0.25, task_straggler_rate=0.2,
                     kv_timeout_rate=0.15, dead_datanodes=(2,),
                     scheduled=(FaultSpec(kind=TASK_CRASH, task_kind="map",
                                          task_id=0, attempt=0),))
    _baseline, registry = assert_vector_chaos_equivalent(workload, plan)
    assert sum(registry.injected_counts().values()) > 0


# --------------------------------------------------------- numpy-less mode
def test_disable_env_is_full_row_fallback(monkeypatch):
    """``REPRO_VECTOR_DISABLE=1`` (simulating a NumPy-less install): a
    ``vectorized=True`` session degrades to the row engine with *raw*
    fingerprint identity — no vector spans, counters or plan flags."""
    queries = (
        ("SELECT sum(powerconsumed), count(*) FROM meterdata "
         "WHERE userid >= 5 AND userid < 40", SCAN),
        ("SELECT ts, count(*) FROM meterdata GROUP BY ts", SCAN),
    )
    workload = Workload(table="meterdata", ddl=METER_DDL,
                        rows=stress_rows()[:240], queries=queries,
                        index_sql=None)
    baseline = run_workload(workload)
    monkeypatch.setenv(runtime.DISABLE_ENV, "1")
    assert not runtime.numpy_available()
    candidate = run_workload(workload, vectorized=True)
    _assert_same(baseline, candidate, "REPRO_VECTOR_DISABLE")
    assert "vectorized" not in candidate["query:0"]["description"]
