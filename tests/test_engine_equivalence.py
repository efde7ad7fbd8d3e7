"""Engine and planner equivalence against references, over generated
workloads.

The Hypothesis tests generate raw MapReduce jobs and whole MDRQ sessions
and check each run against an independent reference: a pure-Python fold
for raw jobs, the files a reduce task wrote for its emits, and a forced
full scan for every indexed query.  The deterministic stress class drives
every DgfIndexHandler query path (aggregation headers, slice reads,
partial predicates, no-precompute, joins) over one dense dataset; its
``QUERIES`` battery is shared with the vector, chaos and service suites.
"""

import datetime

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hdfs.filesystem import HDFS
from repro.hive.session import QueryOptions
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import Job
from repro.mapreduce.splits import TextRowInputFormat
from repro.storage.schema import DataType, Schema
from repro.storage.textfile import TextFileWriter
from tests.conftest import SCAN
from tests.harness.differential import Workload, run_workload

# ------------------------------------------------------------ raw job level
KV_SCHEMA = Schema.of(("k", DataType.INT), ("v", DataType.INT))


def write_kv_table(fs, rows, num_files):
    """Spread rows deterministically (round-robin) over ``num_files``."""
    for i in range(num_files):
        with fs.create(f"/in/part-{i}") as stream:
            writer = TextFileWriter(stream, KV_SCHEMA)
            for row in rows[i::num_files]:
                writer.write_row(row)


raw_job_strategy = st.fixed_dictionaries({
    "rows": st.lists(st.tuples(st.integers(0, 11),
                               st.integers(-1000, 1000)), max_size=200),
    "num_files": st.integers(1, 3),
    "num_reducers": st.integers(0, 5),
    "use_combiner": st.booleans(),
    "block_size": st.sampled_from([256, 600, 4096]),
})


def make_kv_job(spec):
    """Fresh fs + job per call, so runs never share mutable state."""
    fs = HDFS(num_datanodes=3, block_size=spec["block_size"])
    write_kv_table(fs, spec["rows"], spec["num_files"])

    def mapper(key, row, ctx):
        ctx.counter("m", "records")
        ctx.emit(row[0], (row[1], 1))

    def fold(key, values, ctx):
        ctx.counter("r", "folds")
        ctx.emit(key, (sum(v[0] for v in values),
                       sum(v[1] for v in values)))

    reduce_side = spec["num_reducers"] > 0
    job = Job(name="diff", input_format=TextRowInputFormat(KV_SCHEMA),
              mapper=mapper, input_paths=["/in"],
              num_reducers=spec["num_reducers"],
              reducer=fold if reduce_side else None,
              combiner=fold if reduce_side and spec["use_combiner"]
              else None)
    return fs, job


@settings(max_examples=130, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=raw_job_strategy)
def test_generated_jobs_equivalent(spec):
    """Map-only, reduce and combiner jobs over generated data: the output
    equals a pure-Python fold of the rows, and the stats count them."""
    fs, job = make_kv_job(spec)
    result = MapReduceEngine(fs).run(job)
    rows = spec["rows"]
    assert result.counters.get("m", "records") == len(rows)
    assert result.stats.map_input_records == len(rows)
    if spec["num_reducers"] == 0:
        assert sorted(result.output) == sorted((k, (v, 1)) for k, v in rows)
        return
    expected = {}
    for k, v in rows:
        total, count = expected.get(k, (0, 0))
        expected[k] = (total + v, count + 1)
    assert dict(result.output) == expected
    assert len(result.output) == len(expected)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 100)),
                     min_size=1, max_size=120),
       num_reducers=st.integers(1, 4))
def test_reduce_side_writes_equivalent(rows, num_reducers):
    """Reduce tasks that *write files* (the DGF build shape): every task's
    file holds exactly its emits, and output_bytes counts those bytes."""
    def make():
        fs = HDFS(num_datanodes=3, block_size=600)
        write_kv_table(fs, rows, 2)

        def mapper(key, row, ctx):
            ctx.emit(row[0], row[1])

        def reduce_setup(ctx):
            ctx.state["stream"] = ctx.fs.create(f"/out/part-{ctx.task_id}")

        def reducer(key, values, ctx):
            ctx.state["stream"].write(
                f"{key},{sum(values)}\n".encode("utf-8"))
            ctx.emit(key, sum(values))

        def reduce_cleanup(ctx):
            ctx.state["stream"].close()

        job = Job(name="writes", input_format=TextRowInputFormat(KV_SCHEMA),
                  mapper=mapper, reducer=reducer,
                  reduce_setup=reduce_setup, reduce_cleanup=reduce_cleanup,
                  input_paths=["/in"], num_reducers=num_reducers)
        return fs, job

    fs, job = make()
    result = MapReduceEngine(fs).run(job)
    written = b"".join(fs.read_bytes(f"/out/part-{t.task_id}")
                       for t in result.task_stats if t.kind == "reduce")
    assert written == "".join(f"{k},{v}\n"
                              for k, v in result.output).encode("utf-8")
    assert sum(t.output_bytes for t in result.task_stats
               if t.kind == "reduce") == len(written) > 0


# ------------------------------------------------------- MDRQ session level
DAYS = [(datetime.date(2012, 12, 1)
         + datetime.timedelta(days=d)).isoformat() for d in range(8)]

METER_DDL = ("CREATE TABLE meterdata (userid bigint, regionid int, "
             "ts date, powerconsumed double) STORED AS TEXTFILE")

meter_row = st.tuples(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=4),
    st.sampled_from(DAYS),
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, width=32).map(lambda f: round(f, 2)),
)

predicate_strategy = st.fixed_dictionaries({
    "u_lo": st.integers(-5, 60),
    "u_width": st.integers(0, 40),
    "r_lo": st.integers(0, 4),
    "r_width": st.integers(0, 4),
    "d_lo": st.integers(0, 7),
    "d_width": st.integers(0, 7),
})


def index_sql(interval, precompute="sum(powerconsumed),count(*)"):
    props = (f"'userid'='0_{interval}', 'regionid'='0_1', "
             "'ts'='2012-12-01_2d'")
    if precompute:
        props += f", 'precompute'='{precompute}'"
    return ("CREATE INDEX d ON TABLE meterdata(userid, regionid, ts) "
            f"AS 'dgf' IDXPROPERTIES ({props})")


def mdrq_sql(select, predicate):
    day_lo = DAYS[predicate["d_lo"]]
    day_hi = DAYS[min(predicate["d_lo"] + predicate["d_width"], 7)]
    return (f"SELECT {select} FROM meterdata "
            f"WHERE userid >= {predicate['u_lo']} "
            f"AND userid < {predicate['u_lo'] + predicate['u_width']} "
            f"AND regionid >= {predicate['r_lo']} "
            f"AND regionid <= {predicate['r_lo'] + predicate['r_width']} "
            f"AND ts >= '{day_lo}' AND ts <= '{day_hi}'")


def assert_same_aggregate(indexed, scanned):
    """``sum(x), count(*)`` rows agree: counts exactly, sums to rounding
    (the index folds headers and slices in a different order)."""
    (indexed_sum, indexed_count), = indexed
    (scanned_sum, scanned_count), = scanned
    assert indexed_count == scanned_count
    if scanned_sum is None:
        assert indexed_sum is None
    else:
        assert indexed_sum == pytest.approx(scanned_sum, rel=1e-9)


@st.composite
def mdrq_workloads(draw):
    rows = tuple(sorted(draw(st.lists(meter_row, min_size=1, max_size=80)),
                        key=lambda r: r[2]))
    predicate = draw(predicate_strategy)
    interval = draw(st.sampled_from([5, 10, 25]))
    agg = mdrq_sql("sum(powerconsumed), count(*)", predicate)
    queries = [(agg, None), (agg, SCAN)]
    kind = draw(st.sampled_from(
        ["headers", "groupby", "noprecompute", "projection", "partial"]))
    if kind == "groupby":
        queries.append(
            (mdrq_sql("ts, sum(powerconsumed)", predicate) + " GROUP BY ts",
             None))
    elif kind == "noprecompute":
        queries.append((agg, QueryOptions(dgf_use_precompute=False)))
    elif kind == "projection":
        queries.append((mdrq_sql("userid, powerconsumed", predicate), None))
    elif kind == "partial":
        hi = predicate["u_lo"] + predicate["u_width"]
        queries.append(
            ("SELECT sum(powerconsumed), count(*) FROM meterdata "
             f"WHERE userid >= {predicate['u_lo']} AND userid < {hi}",
             None))
    return Workload(table="meterdata", ddl=METER_DDL, rows=rows,
                    queries=tuple(queries), index_sql=index_sql(interval),
                    index_name="d",
                    block_size=draw(st.sampled_from([1024, 2048])))


@settings(max_examples=45, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(workload=mdrq_workloads())
def test_mdrq_sessions_equivalent(workload):
    """Full sessions — load, DGF build, MDRQ queries over every planner
    path — answer the indexed aggregation exactly like a full scan."""
    fingerprint = run_workload(workload)
    assert fingerprint["build:d"]["stats"]["map_input_records"] \
        == len(workload.rows)
    indexed, scanned = fingerprint["query:0"], fingerprint["query:1"]
    assert indexed["index_used"]
    assert not scanned["index_used"]
    assert_same_aggregate(indexed["rows"], scanned["rows"])


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(meter_row, min_size=1, max_size=50),
       append=st.lists(meter_row, min_size=1, max_size=20),
       predicate=predicate_strategy)
def test_append_workloads_equivalent(rows, append, predicate):
    """The no-rebuild append path (incremental build job + slice merge)
    keeps the indexed answer equal to a scan of the appended table."""
    agg = mdrq_sql("sum(powerconsumed), count(*)", predicate)
    workload = Workload(
        table="meterdata", ddl=METER_DDL,
        rows=tuple(sorted(rows, key=lambda r: r[2])),
        queries=((agg, None), (agg, SCAN)),
        index_sql=index_sql(10, precompute="sum(powerconsumed)"),
        index_name="d",
        append_rows=tuple(sorted(append, key=lambda r: r[2])))
    fingerprint = run_workload(workload)
    assert fingerprint["query:0"]["index_used"]
    assert_same_aggregate(fingerprint["query:0"]["rows"],
                          fingerprint["query:1"]["rows"])


# ------------------------------------------------------ deterministic stress
def stress_rows():
    """A fixed, dense meter dataset big enough for multi-split jobs."""
    rows = []
    for userid in range(80):
        for day in range(6):
            rows.append((userid, userid % 5, DAYS[day],
                         round((userid * 7 + day * 3) % 50 + 0.25, 2)))
    return tuple(rows)


class TestDgfStressParallel:
    """Every DgfIndexHandler query path, plus joins and INSERT DIRECTORY,
    replayed against one dense dataset."""

    QUERIES = (
        # grid-aligned range: pure aggregation-header path
        ("SELECT sum(powerconsumed), count(*) FROM meterdata "
         "WHERE userid >= 0 AND userid < 50 AND regionid >= 0 "
         f"AND regionid <= 4 AND ts >= '{DAYS[0]}' AND ts <= '{DAYS[5]}'",
         None),
        # unaligned range: headers for interior GFUs + slice reads at edges
        ("SELECT sum(powerconsumed), count(*) FROM meterdata "
         "WHERE userid >= 3 AND userid < 47 AND regionid >= 1 "
         f"AND regionid <= 3 AND ts >= '{DAYS[1]}' AND ts <= '{DAYS[4]}'",
         None),
        # GROUP BY forces the slice-scan MapReduce path
        ("SELECT ts, sum(powerconsumed) FROM meterdata "
         "WHERE userid >= 5 AND userid < 40 AND regionid >= 0 "
         f"AND regionid <= 2 AND ts >= '{DAYS[0]}' AND ts <= '{DAYS[5]}' "
         "GROUP BY ts", None),
        # partial predicate: only one of three index dimensions bound
        ("SELECT sum(powerconsumed), count(*) FROM meterdata "
         "WHERE userid >= 10 AND userid < 30", None),
        # precompute disabled: header path must re-read slices
        ("SELECT sum(powerconsumed), count(*) FROM meterdata "
         "WHERE userid >= 0 AND userid < 25 AND regionid >= 0 "
         f"AND regionid <= 4 AND ts >= '{DAYS[0]}' AND ts <= '{DAYS[3]}'",
         QueryOptions(dgf_use_precompute=False)),
        # projection through filtered slices
        ("SELECT userid, powerconsumed FROM meterdata "
         "WHERE userid >= 70 AND userid < 75 AND regionid >= 0 "
         f"AND regionid <= 4 AND ts >= '{DAYS[2]}' AND ts <= '{DAYS[3]}'",
         None),
        # forced full scan for contrast
        ("SELECT count(*) FROM meterdata", SCAN),
        # sorted aggregate output
        ("SELECT ts, count(*) FROM meterdata GROUP BY ts "
         "ORDER BY ts DESC LIMIT 3", SCAN),
        # join against a dimension table (map-side hash join path)
        ("SELECT t2.username, sum(t1.powerconsumed) FROM meterdata t1 "
         "JOIN userinfo t2 ON t1.userid = t2.userid "
         "WHERE t1.userid < 3 GROUP BY t2.username", SCAN),
        # INSERT ... DIRECTORY writes job output back into HDFS
        ("INSERT OVERWRITE DIRECTORY '/tmp/diffout' "
         "SELECT userid FROM meterdata WHERE userid < 2 "
         f"AND ts = '{DAYS[0]}'", SCAN),
    )

    @pytest.fixture(scope="class")
    def fingerprint(self):
        workload = Workload(
            table="meterdata", ddl=METER_DDL, rows=stress_rows(),
            queries=self.QUERIES, index_sql=index_sql(10),
            index_name="d", block_size=2048, load_files=3,
            extra_tables=(
                ("userinfo",
                 "CREATE TABLE userinfo (userid bigint, username string)",
                 tuple((u, f"user{u}") for u in range(80))),))
        return run_workload(workload)

    def test_header_path_used(self, fingerprint):
        query = fingerprint["query:0"]
        assert query["index_used"]
        assert query["rows"][0][1] == 50 * 6  # 50 users x 6 days

    def test_slice_path_reads_data(self, fingerprint):
        assert fingerprint["query:2"]["index_used"]
        assert fingerprint["query:2"]["records_read"] > 0
        assert len(fingerprint["query:2"]["rows"]) == 6

    def test_partial_predicate_uses_index(self, fingerprint):
        assert fingerprint["query:3"]["index_used"]
        assert fingerprint["query:3"]["rows"][0][1] == 20 * 6

    def test_noprecompute_matches_scan_count(self, fingerprint):
        assert fingerprint["query:4"]["rows"][0][1] == 25 * 4
        assert fingerprint["query:4"]["index_used"]

    def test_scan_baseline(self, fingerprint):
        assert fingerprint["query:6"]["rows"] == [(480,)]

    def test_join_rows(self, fingerprint):
        assert len(fingerprint["query:8"]["rows"]) == 3

    def test_build_report_captured(self, fingerprint):
        report = fingerprint["build:d"]
        assert report["stats"]["map_input_records"] == 480
        assert report["index_size_bytes"] > 0

    def test_global_io_accounted(self, fingerprint):
        assert fingerprint["fs_io"]["bytes_read"] > 0
        assert fingerprint["fs_io"]["bytes_written"] > 0
        assert fingerprint["kv_ops"]["puts"] > 0
