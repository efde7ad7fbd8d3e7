"""One experiment per table/figure of the paper's evaluation section.

Every experiment returns an :class:`ExpResult` whose rows are exactly the
series the paper reports (systems x selectivities / interval sizes), with
simulated paper-scale seconds split into the paper's stacked components
("read index and other" / "read data and process") plus the measured raw
counters.  Result *values* are cross-checked between systems inside each
experiment — a reproduction that returns wrong answers fast would be
meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.lab import INTERVAL_CASES, SELECTIVITIES, MeterLab, TpchLab
from repro.common.tables import render_table
from repro.common.units import human_bytes
from repro.data.meter import METER_SCHEMA, MeterDataConfig, MeterDataGenerator
from repro.errors import BenchmarkError
from repro.hive.session import QueryOptions
from repro.rdbms.writer import measure_dbms_write, measure_hdfs_write


@dataclass
class ExpResult:
    """Rendered + structured outcome of one experiment."""

    exp_id: str
    title: str
    headers: List[str]
    rows: List[Sequence[Any]]
    notes: str = ""
    data: Dict[str, Any] = field(default_factory=dict)

    def markdown(self) -> str:
        table = render_table(self.headers, self.rows,
                             title=f"{self.exp_id}: {self.title}")
        if self.notes:
            return f"{table}\n\n{self.notes}"
        return table


def _sel_label(selectivity) -> str:
    return selectivity if selectivity == "point" \
        else f"{int(selectivity * 100)}%"


def _check_close(expected, actual, context: str, tolerance=1e-6) -> None:
    if expected is None and actual is None:
        return
    if expected is None or actual is None:
        raise BenchmarkError(f"{context}: {expected!r} vs {actual!r}")
    if abs(float(expected) - float(actual)) > tolerance * max(
            1.0, abs(float(expected))):
        raise BenchmarkError(
            f"{context}: results diverge: {expected} vs {actual}")


# ------------------------------------------------------------------- Figure 3
def fig3_write_throughput(num_rows: int = 30000) -> ExpResult:
    """DBMS-X (with/without index) vs HDFS write throughput (MB/s)."""
    config = MeterDataConfig(num_users=max(100, num_rows // 10),
                             num_days=10, readings_per_day=1)
    generator = MeterDataGenerator(config)
    rows = [row for _i, row in zip(range(num_rows), generator.iter_rows())]
    # Meter records carry random userIds relative to the B+-tree, because
    # records arrive time-ordered while the index is keyed by userId.
    key = METER_SCHEMA.index_of("userid")
    with_index = measure_dbms_write(rows, key, with_index=True)
    without_index = measure_dbms_write(rows, key, with_index=False)
    hdfs = measure_hdfs_write(rows)
    out_rows = [
        (r.label, round(r.mb_per_second, 2), r.rows, r.pool_misses,
         r.page_splits)
        for r in (with_index, without_index, hdfs)
    ]
    result = ExpResult(
        exp_id="fig3", title="Write throughput: DBMS-X vs HDFS (MB/s)",
        headers=["system", "MB/s", "rows", "pool_misses", "page_splits"],
        rows=out_rows,
        notes=("Paper (log2 axis): DBMS-X-with-index < DBMS-X-without-index "
               "<< HDFS, roughly 2-4 / 8-16 / 32-64 MB/s."),
        data={"throughputs": {r.label: r.mb_per_second
                              for r in (with_index, without_index, hdfs)}})
    t = result.data["throughputs"]
    if not (t["DBMS-X with index"] < t["DBMS-X without index"] < t["HDFS"]):
        raise BenchmarkError(f"fig3 ordering violated: {t}")
    return result


# -------------------------------------------------------------------- Table 2
def table2_index_build(lab: MeterLab) -> ExpResult:
    """Index size and construction time (real-world dataset)."""
    rows: List[Tuple] = []
    data: Dict[str, Dict[str, float]] = {}

    compact = lab.compact_session
    if not any(i.name == "cmp3d"
               for i in compact.metastore.indexes_on("meterdata")):
        compact.execute("CREATE INDEX cmp3d ON TABLE meterdata"
                        "(userid, regionid, ts) AS 'compact'")
    report3 = compact.build_report("meterdata", "cmp3d")
    report2 = compact.build_report("meterdata", "cmp_idx")
    base_size = compact.fs.total_size(
        compact.metastore.get_table("meterdata").data_location)
    for label, report, dims in (("Compact", report3, 3),
                                ("Compact", report2, 2)):
        rows.append((label, "RCFile", dims,
                     human_bytes(report.index_size_bytes),
                     round(report.build_time.total, 1)))
        data[f"compact-{dims}d"] = {
            "size": report.index_size_bytes,
            "seconds": report.build_time.total}
    for case in INTERVAL_CASES:
        session = lab.dgf_session(case)
        report = session.build_report("meterdata", "dgf_idx")
        rows.append((f"DGF-{case[0].upper()}", "TextFile", 3,
                     human_bytes(report.index_size_bytes),
                     round(report.build_time.total, 1)))
        data[f"dgf-{case}"] = {"size": report.index_size_bytes,
                               "seconds": report.build_time.total,
                               "gfus": report.details["gfus"]}

    # Invariants the paper reports that survive the scale-down (at paper
    # scale there are ~3300 records per GFU; at laptop scale the grid is
    # proportionally coarser, so absolute size *ratios* compress):
    # the 3-D compact index explodes relative to the 2-D one and dominates
    # DGF-L, and DGF sizes grow as the interval shrinks.
    if not data["compact-3d"]["size"] > 20 * data["compact-2d"]["size"]:
        raise BenchmarkError("table2: compact-3d did not explode vs 2-d")
    if not data["compact-3d"]["size"] > data["dgf-large"]["size"]:
        raise BenchmarkError("table2: compact-3d smaller than DGF-L")
    if not (data["dgf-large"]["size"] < data["dgf-medium"]["size"]
            < data["dgf-small"]["size"]):
        raise BenchmarkError("table2: DGF sizes not ordered L < M < S")
    data["base_table_size"] = base_size
    return ExpResult(
        exp_id="table2", title="Index size and construction time",
        headers=["index", "table type", "dims", "size", "build seconds"],
        rows=rows,
        notes=(f"Base RCFile table: {human_bytes(base_size)}.  Paper: "
               "Compact-3D 821GB (~= base table), Compact-2D 7MB, "
               "DGF L/M/S 0.94/3/13MB; build time DGF > Compact-3D "
               "because the base table is reorganized through a shuffle."),
        data=data)


# --------------------------------------------- Figures 8-10 + Table 3 (agg)
def aggregation_queries(lab: MeterLab) -> ExpResult:
    """Aggregation MDRQ across selectivities and interval sizes."""
    return _query_experiment(
        lab, kind="agg",
        exp_id="fig8-10+table3",
        title="Aggregation query (sum) — times and records read")


# ------------------------------------------- Figures 11-13 + Table 4 (group)
def groupby_queries(lab: MeterLab) -> ExpResult:
    return _query_experiment(
        lab, kind="groupby",
        exp_id="fig11-13+table4",
        title="GROUP BY query — times and records read")


# -------------------------------------------------- Figures 14-16 (join)
def join_queries(lab: MeterLab) -> ExpResult:
    return _query_experiment(
        lab, kind="join",
        exp_id="fig14-16",
        title="JOIN query (meterdata x userInfo) — times and records read")


def _query_experiment(lab: MeterLab, kind: str, exp_id: str,
                      title: str) -> ExpResult:
    rows: List[Tuple] = []
    data: Dict[str, Any] = {}
    for selectivity in SELECTIVITIES:
        label = _sel_label(selectivity)
        sql = lab.query_sql(kind, selectivity)
        accurate = lab.accurate_records(selectivity)

        scan = lab.scan_session.execute(sql, QueryOptions(use_index=False))
        reference = _reference_value(scan, kind)
        rows.append((label, "ScanTable", "-",
                     round(scan.stats.time.read_index_and_other, 1),
                     round(scan.stats.time.read_data_and_process, 1),
                     round(scan.stats.simulated_seconds, 1),
                     scan.stats.records_read, accurate))
        data[f"{label}/scan"] = _series(scan, accurate)

        for case in INTERVAL_CASES:
            result = lab.dgf_session(case).execute(
                sql, QueryOptions(index_name="dgf_idx"))
            _check_close(reference, _reference_value(result, kind),
                         f"{exp_id} {label} dgf-{case}")
            rows.append((label, f"DGF-{case[0].upper()}", case,
                         round(result.stats.time.read_index_and_other, 1),
                         round(result.stats.time.read_data_and_process, 1),
                         round(result.stats.simulated_seconds, 1),
                         result.stats.records_read, accurate))
            data[f"{label}/dgf-{case}"] = _series(result, accurate)

        compact = lab.compact_session.execute(
            sql, QueryOptions(index_name="cmp_idx"))
        _check_close(reference, _reference_value(compact, kind),
                     f"{exp_id} {label} compact")
        rows.append((label, "Compact-2D", "-",
                     round(compact.stats.time.read_index_and_other, 1),
                     round(compact.stats.time.read_data_and_process, 1),
                     round(compact.stats.simulated_seconds, 1),
                     compact.stats.records_read, accurate))
        data[f"{label}/compact"] = _series(compact, accurate)

        hdb = _run_hadoopdb(lab, kind, selectivity)
        _check_close(reference, hdb["reference"],
                     f"{exp_id} {label} hadoopdb")
        rows.append((label, "HadoopDB", "-",
                     round(hdb["time"].read_index_and_other, 1),
                     round(hdb["time"].read_data_and_process, 1),
                     round(hdb["time"].total, 1),
                     hdb["rows_examined"], accurate))
        data[f"{label}/hadoopdb"] = {
            "seconds": hdb["time"].total,
            "records_read": hdb["rows_examined"],
            "accurate": accurate,
        }
    notes = ("Per selectivity, the paper's ordering: DGF fastest (nearly "
             "flat for aggregation thanks to pre-computed headers), Compact "
             "and HadoopDB degrade toward ScanTable as selectivity grows.")
    return ExpResult(exp_id=exp_id, title=title,
                     headers=["selectivity", "system", "interval",
                              "index+other s", "data+process s", "total s",
                              "records read", "accurate"],
                     rows=rows, notes=notes, data=data)


def _series(result, accurate: int) -> Dict[str, Any]:
    return {
        "seconds": result.stats.simulated_seconds,
        "index_seconds": result.stats.time.read_index_and_other,
        "data_seconds": result.stats.time.read_data_and_process,
        "records_read": result.stats.records_read,
        "accurate": accurate,
        "index_used": result.stats.index_used,
    }


def _reference_value(result, kind: str):
    """A comparable scalar summary of a query result for cross-checking."""
    if kind == "agg":
        return result.rows[0][0]
    if kind == "groupby":
        return round(sum(v for _k, v in result.rows), 6)
    if kind == "join":
        return round(sum(row[1] for row in result.rows), 6)
    raise ValueError(kind)


def _run_hadoopdb(lab: MeterLab, kind: str, selectivity) -> Dict[str, Any]:
    intervals = lab.intervals_for(selectivity)
    value_pos = METER_SCHEMA.index_of("powerconsumed")
    if kind == "agg":
        res = lab.hadoopdb.aggregate(intervals, value_pos)
        reference = res.rows[0][0]
    elif kind == "groupby":
        res = lab.hadoopdb.group_by(intervals,
                                    METER_SCHEMA.index_of("ts"), value_pos)
        reference = round(sum(v for _k, v in res.rows), 6)
    elif kind == "join":
        key_pos = METER_SCHEMA.index_of("userid")
        res = lab.hadoopdb.join(
            intervals, key_pos,
            project=lambda fact, user: (user[1], fact[value_pos]))
        reference = round(sum(row[1] for row in res.rows), 6)
    else:
        raise ValueError(kind)
    return {"time": res.time, "rows_examined": res.stats.rows_examined,
            "reference": reference}


# ------------------------------------------------------------------ Figure 17
def partial_query(lab: MeterLab) -> ExpResult:
    """Partial-specified predicate: fewer predicate dims than index dims."""
    import datetime
    start = lab.generator.config.start_date
    day = (datetime.date.fromisoformat(start)
           + datetime.timedelta(days=lab.config.num_days // 2)).isoformat()
    sql = (f"SELECT sum(powerconsumed) FROM meterdata "
           f"WHERE regionid = 5 AND ts = '{day}'")
    rows: List[Tuple] = []
    data: Dict[str, Any] = {}

    scan = lab.scan_session.execute(sql, QueryOptions(use_index=False))
    reference = scan.rows[0][0]

    for case in INTERVAL_CASES:
        session = lab.dgf_session(case)
        pre = session.execute(sql, QueryOptions(index_name="dgf_idx"))
        nopre = session.execute(sql, QueryOptions(
            index_name="dgf_idx", dgf_use_precompute=False))
        _check_close(reference, pre.rows[0][0], f"fig17 {case} precompute")
        _check_close(reference, nopre.rows[0][0],
                     f"fig17 {case} noprecompute")
        rows.append((case, "DGF-precompute",
                     round(pre.stats.simulated_seconds, 1),
                     pre.stats.records_read))
        rows.append((case, "DGF-noprecompute",
                     round(nopre.stats.simulated_seconds, 1),
                     nopre.stats.records_read))
        data[f"{case}/pre"] = _series(pre, scan.stats.records_matched)
        data[f"{case}/nopre"] = _series(nopre, scan.stats.records_matched)
        if pre.stats.records_read > nopre.stats.records_read:
            raise BenchmarkError(
                "fig17: precompute read more data than noprecompute")

    compact = lab.compact_session.execute(sql,
                                          QueryOptions(index_name="cmp_idx"))
    _check_close(reference, compact.rows[0][0], "fig17 compact")
    rows.append(("-", "Compact-2D",
                 round(compact.stats.simulated_seconds, 1),
                 compact.stats.records_read))
    data["compact"] = _series(compact, scan.stats.records_matched)
    return ExpResult(
        exp_id="fig17",
        title="Partial-specified query (regionId + time only)",
        headers=["interval", "system", "total s", "records read"],
        rows=rows,
        notes=("The missing userId dimension is completed from the min/max "
               "standardized values in the key-value store.  Paper: DGF is "
               "2-4.6x faster than Compact; precompute saves the inner "
               "region's reads."),
        data=data)


# ------------------------------------------------ Tables 5-6 + Figure 18
def tpch_q6(lab: TpchLab) -> ExpResult:
    """TPC-H Q6: build costs, records read, query times."""
    sql = lab.q6()
    rows: List[Tuple] = []
    data: Dict[str, Any] = {}

    scan = lab.scan_session.execute(sql, QueryOptions(use_index=False))
    reference = scan.rows[0][0]
    accurate = scan.stats.records_matched
    total_records = scan.stats.records_read

    dgf_report = lab.dgf_session.build_report("lineitem", "dgf_q6")
    cmp2_report = lab.compact_session.build_report("lineitem", "cmp2")
    cmp3_report = lab.compact_session.build_report("lineitem", "cmp3")

    dgf = lab.dgf_session.execute(sql, QueryOptions(index_name="dgf_q6"))
    cmp2 = lab.compact_session.execute(sql, QueryOptions(index_name="cmp2"))
    cmp3 = lab.compact_session.execute(sql, QueryOptions(index_name="cmp3"))
    _check_close(reference, dgf.rows[0][0], "fig18 dgf", tolerance=1e-9)
    _check_close(reference, cmp2.rows[0][0], "fig18 cmp2", tolerance=1e-9)
    _check_close(reference, cmp3.rows[0][0], "fig18 cmp3", tolerance=1e-9)

    for label, report, result in (
            ("DGFIndex", dgf_report, dgf),
            ("Compact-2D", cmp2_report, cmp2),
            ("Compact-3D", cmp3_report, cmp3)):
        rows.append((label, human_bytes(report.index_size_bytes),
                     round(report.build_time.total, 1),
                     result.stats.records_read,
                     round(result.stats.time.read_index_and_other, 1),
                     round(result.stats.time.read_data_and_process, 1),
                     round(result.stats.simulated_seconds, 1)))
        data[label] = {"size": report.index_size_bytes,
                       "build_seconds": report.build_time.total,
                       "records_read": result.stats.records_read,
                       "seconds": result.stats.simulated_seconds}
    rows.append(("ScanTable", "-", 0.0, scan.stats.records_read, 0.0,
                 round(scan.stats.simulated_seconds, 1),
                 round(scan.stats.simulated_seconds, 1)))
    data["ScanTable"] = {"records_read": scan.stats.records_read,
                         "seconds": scan.stats.simulated_seconds}
    # Scanning the *RCFile* copy is the fair baseline for the Compact rows
    # (the paper's "slower than scanning the whole table" claim).
    rc_scan = lab.compact_session.execute(sql, QueryOptions(use_index=False))
    _check_close(reference, rc_scan.rows[0][0], "fig18 rc-scan",
                 tolerance=1e-9)
    rows.append(("ScanTable (RCFile)", "-", 0.0, rc_scan.stats.records_read,
                 0.0, round(rc_scan.stats.simulated_seconds, 1),
                 round(rc_scan.stats.simulated_seconds, 1)))
    data["ScanTable-RCFile"] = {
        "records_read": rc_scan.stats.records_read,
        "seconds": rc_scan.stats.simulated_seconds}
    data["accurate"] = accurate
    data["total_records"] = total_records

    # The paper's headline claims on TPC-H:
    if not data["DGFIndex"]["records_read"] < 0.2 * total_records:
        raise BenchmarkError("tpch: DGF did not prune lineitem reads")
    for label in ("Compact-2D", "Compact-3D"):
        if data[label]["records_read"] < total_records:
            raise BenchmarkError(
                f"tpch: {label} filtered splits on evenly-scattered data "
                "(the paper observes it cannot)")
    return ExpResult(
        exp_id="table5-6+fig18",
        title="TPC-H Q6: index sizes, records read, query times",
        headers=["system", "index size", "build s", "records read",
                 "index+other s", "data+process s", "total s"],
        rows=rows,
        notes=(f"accurate = {accurate} of {total_records} lineitems "
               "(~2% selectivity).  Paper: both Compact indexes read the "
               "whole table (slower than scanning), DGF reads ~2% and is "
               "~25x faster."),
        data=data)


# --------------------------------------------- vectorized engine speedup
def _scan_pipeline_timings(session, sql: str, rounds: int
                           ) -> Tuple[float, float]:
    """Best wall-clock of the map-side scan pipeline, row vs vector, on
    identical pre-decoded inputs.

    This isolates the per-record CPU hot path (filter evaluation +
    aggregate accumulation + map-side combine) that vectorization
    replaces with batch kernels: the row side runs the *actual* job
    mapper and combiner from :func:`repro.hive.exec.build_job` over the
    task's parsed rows, the vector side runs the *actual*
    :meth:`VectorSelectPlan.consume_batches` over the task's decoded
    batches.  Decode/parse cost is excluded from both sides symmetrically
    (rows pre-parsed, batches pre-built and warmed), so the ratio is the
    HAIL-style per-record pipeline win, independent of storage decoding.
    The two pipelines' map outputs are asserted identical before timing.
    """
    import time as _time

    from repro import vector
    from repro.hive import exec as hexec
    from repro.hive import formats
    from repro.hiveql import parse
    from repro.mapreduce.counters import Counters
    from repro.mapreduce.engine import MapReduceEngine
    from repro.mapreduce.job import TaskContext

    analysis = hexec.analyze(session.metastore, parse(sql))
    fmt = formats.input_format_for(analysis.table, columns=None)
    splits = fmt.get_splits(session.fs, [analysis.table.data_location])
    rows = [value for split in splits
            for _key, value in fmt.read_split(session.fs, split)]
    plan = vector.compile_select(analysis, fmt)
    if plan is None:
        raise BenchmarkError("vectorized_speedup: scan not vectorizable")
    batches = [batch for split in splits
               for batch in plan.reader.read_batches(session.fs, split)]
    job = hexec.build_job(analysis, splits, fmt, "vector-bench")

    def row_side():
        emits: List[Tuple[Any, Any]] = []
        counters = Counters()
        ctx = TaskContext(0, session.fs, counters,
                          lambda k, v: emits.append((k, v)))
        mapper = job.mapper
        for row in rows:
            mapper(None, row, ctx)
        if job.reducer is not None and job.combiner is not None:
            return MapReduceEngine._combine(job, emits, counters)
        return emits

    def vec_side():
        return plan.consume_batches(batches).emits

    if row_side() != vec_side():  # also warms lazy columns/arrays
        raise BenchmarkError(
            "vectorized_speedup: pipelines emit different map output")
    row_best = vec_best = float("inf")
    for _ in range(rounds):  # interleaved so load spikes hit both sides
        started = _time.perf_counter()
        row_side()
        row_best = min(row_best, _time.perf_counter() - started)
        started = _time.perf_counter()
        vec_side()
        vec_best = min(vec_best, _time.perf_counter() - started)
    return row_best, vec_best


def vectorized_speedup(meter_lab: MeterLab, tpch_lab: TpchLab,
                       rounds: int = 5) -> ExpResult:
    """Wall-clock win of a ``vectorized=True`` session on the
    Fig. 8–10 aggregation and TPC-H Q6 (Fig. 18) scan workloads.

    This measures the *reproduction's own* runtime, not simulated paper
    seconds (those are byte-identical by the differential-harness
    guarantee).  Two quantities per workload:

    * ``end_to_end`` — full ``session.execute`` wall-clock, row engine vs
      vectorized engine, interleaved rounds, best of each.  Includes
      parsing/planning/decode/shuffle/trace overheads common to both.
    * ``scan_pipeline`` — the per-record hot path alone (see
      :func:`_scan_pipeline_timings`), which is what the vector engine
      actually replaces and where the 10x-class win is asserted by
      ``benchmarks/test_vectorized_speedup.py``.

    Rows *and* full ``QueryStats`` are asserted identical between the two
    engines on every workload before any timing is reported.
    """
    import time as _time

    from repro.vector import runtime as vector_runtime

    if vector_runtime.numpy_module() is None:
        return ExpResult(
            exp_id="vectorized-speedup",
            title="Real engine wall-clock: row vs vectorized",
            headers=["workload"], rows=[],
            notes=("NumPy unavailable (or REPRO_VECTOR_DISABLE set): the "
                   "vectorized engine is disabled, nothing to measure."),
            data={"workloads": {}, "rounds": rounds})

    options = QueryOptions(use_index=False)
    meter_row = meter_lab.fresh_scan_session()
    meter_vec = meter_lab.fresh_scan_session(vectorized=True)
    tpch_row = tpch_lab.fresh_scan_session()
    tpch_vec = tpch_lab.fresh_scan_session(vectorized=True)
    workloads = [(f"meter agg {_sel_label(sel)}", meter_row, meter_vec,
                  meter_lab.query_sql("agg", sel))
                 for sel in ("point", 0.05, 0.12)]
    workloads.append(("tpch q6", tpch_row, tpch_vec, tpch_lab.q6()))

    table_rows: List[Sequence[Any]] = []
    data: Dict[str, Any] = {}
    for label, row_session, vec_session, sql in workloads:
        row_result = row_session.execute(sql, options)  # also warms
        vec_result = vec_session.execute(sql, options)
        if row_result.rows != vec_result.rows:
            raise BenchmarkError(f"vectorized_speedup: rows differ ({label})")
        if row_result.stats != vec_result.stats:
            raise BenchmarkError(f"vectorized_speedup: stats differ ({label})")
        row_best = vec_best = float("inf")
        for _ in range(rounds):
            started = _time.perf_counter()
            row_session.execute(sql, options)
            row_best = min(row_best, _time.perf_counter() - started)
            started = _time.perf_counter()
            vec_session.execute(sql, options)
            vec_best = min(vec_best, _time.perf_counter() - started)
        pipe_row, pipe_vec = _scan_pipeline_timings(row_session, sql, rounds)
        data[label] = {
            "end_to_end": {"row_s": row_best, "vectorized_s": vec_best,
                           "speedup": row_best / vec_best},
            "scan_pipeline": {"row_s": pipe_row, "vectorized_s": pipe_vec,
                              "speedup": pipe_row / pipe_vec},
        }
        table_rows.append(
            (label, round(row_best * 1000.0, 1), round(vec_best * 1000.0, 1),
             round(row_best / vec_best, 2), round(pipe_row * 1000.0, 1),
             round(pipe_vec * 1000.0, 2), round(pipe_row / pipe_vec, 2)))
    return ExpResult(
        exp_id="vectorized-speedup",
        title="Real engine wall-clock: row vs vectorized",
        headers=["workload", "e2e row ms", "e2e vec ms", "e2e speedup",
                 "pipeline row ms", "pipeline vec ms", "pipeline speedup"],
        rows=table_rows,
        notes=(f"min of {rounds} interleaved rounds; identical rows and "
               "QueryStats asserted per workload; 'pipeline' is the "
               "map-side filter+aggregate hot path on pre-decoded "
               "inputs."),
        data={"workloads": data, "rounds": rounds})


def replica_fleet(lab: MeterLab) -> ExpResult:
    """Per-layout rerun of the Fig. 8–16 query workloads over a
    multi-layout replica fleet (HAIL-style; see docs/replicas.md).

    One DGF session carries three physical organizations of the same
    index: the ``medium``-interval primary, a ``fine`` layout at the
    ``small`` interval, and a deliberately coarse layout
    (``num_users/5``-wide cells, 5-day time buckets).  Every Fig. 8–10
    aggregation, Fig. 11–13 GROUP BY and Fig. 14–16 join workload runs
    once forced onto each layout (``QueryOptions(dgf_layout=...)``) and
    once routed by the cost model; results are cross-checked against a
    full scan before any timing is reported.

    The paper-shape claims asserted by ``benchmarks/test_replica_speedup``:
    the best layout beats the worst by >= 2x in simulated seconds on at
    least one workload, no single layout is best everywhere (fine grids
    win selective queries but pay more index probes on wide ones — HAIL's
    motivation), and the router never picks the worst layout.
    """
    from repro.hdfs.layout import PRIMARY_LAYOUT

    session = lab.fresh_dgf_session("medium")
    start = lab.generator.config.start_date
    fleet = {
        "fine": dict(grid={"userid": f"0_{lab.interval_size('small')}",
                           "regionid": "0_1", "ts": f"{start}_1d"}),
        "coarse": dict(grid={"userid":
                             f"0_{max(1, lab.config.num_users // 5)}",
                             "regionid": "0_1", "ts": f"{start}_5d"}),
    }
    for name, spec in fleet.items():
        session.add_layout("meterdata", "dgf_idx", name, **spec)
    layouts = [PRIMARY_LAYOUT] + sorted(fleet)

    table_rows: List[Sequence[Any]] = []
    workloads: Dict[str, Any] = {}
    for kind in ("agg", "groupby", "join"):
        for selectivity in SELECTIVITIES:
            label = f"{kind} {_sel_label(selectivity)}"
            sql = lab.query_sql(kind, selectivity)
            scan = lab.scan_session.execute(sql,
                                            QueryOptions(use_index=False))
            reference = _reference_value(scan, kind)

            seconds: Dict[str, float] = {}
            records: Dict[str, int] = {}
            for layout in layouts:
                result = session.execute(sql, QueryOptions(
                    index_name="dgf_idx", dgf_layout=layout))
                _check_close(reference, _reference_value(result, kind),
                             f"replica-fleet {label} layout={layout}")
                seconds[layout] = result.stats.simulated_seconds
                records[layout] = result.stats.records_read
            routed = session.execute(sql,
                                     QueryOptions(index_name="dgf_idx"))
            _check_close(reference, _reference_value(routed, kind),
                         f"replica-fleet {label} routed")
            chosen = routed.plan.access.layout

            best = min(layouts, key=seconds.get)
            worst = max(layouts, key=seconds.get)
            speedup = seconds[worst] / seconds[best]
            workloads[label] = {
                "layouts": {name: {"seconds": seconds[name],
                                   "records_read": records[name]}
                            for name in layouts},
                "routed": {"chosen": chosen,
                           "seconds": routed.stats.simulated_seconds,
                           "records_read": routed.stats.records_read},
                "best": best, "worst": worst,
                "speedup_best_over_worst": speedup,
            }
            table_rows.append(
                (label,) + tuple(round(seconds[name], 1)
                                 for name in layouts)
                + (round(routed.stats.simulated_seconds, 1), chosen,
                   best, round(speedup, 2)))

    max_speedup = max(w["speedup_best_over_worst"]
                      for w in workloads.values())
    return ExpResult(
        exp_id="replica-fleet",
        title="Fig. 8-16 reruns per replica-fleet layout",
        headers=["workload"] + [f"{name} s" for name in layouts]
        + ["routed s", "routed choice", "best", "best/worst"],
        rows=table_rows,
        notes=("Simulated paper-scale seconds per forced layout plus the "
               "cost-based router's pick; identical query results "
               "cross-checked against a full scan on every cell.  No "
               "layout is best everywhere: fine grids win selective "
               "queries, the primary wins wide ones, and the coarse "
               "layout demonstrates what routing must avoid "
               f"(up to {max_speedup:.1f}x)."),
        data={"layouts": layouts, "workloads": workloads,
              "max_speedup": max_speedup})


def advisor_divergent(lab: MeterLab) -> ExpResult:
    """Workload-driven divergent advisor, end to end (docs/advisor.md).

    A fresh ``medium`` DGF session observes a mixed workload through the
    query log — frequent point lookups plus broad 5%/12% range
    aggregations — then ``Advisor.report()`` clusters the log,
    ``apply()`` builds one specialist replica layout per cluster, and
    the same workload reruns three ways: cost-routed over the advised
    fleet, and pinned uniformly to the primary and to each advised
    layout in turn.  Every result is cross-checked against a full table
    scan before any timing is trusted.

    The claim recorded by ``benchmarks/test_advisor_speedup``: the
    routed divergent fleet beats the **best** single uniform
    configuration by >= 1.3x on total (weighted) simulated seconds, and
    every query routes to exactly the specialist its report names —
    the router's cost formula *is* the advisor's what-if formula, so
    the layouts it builds are the choices it makes.
    """
    from repro.hdfs.layout import PRIMARY_LAYOUT
    from repro.service.advisor import Advisor

    session = lab.fresh_dgf_session("large")
    advisor = Advisor(session, "meterdata", "dgf_idx", max_layouts=2)
    advisor.observe()

    # The smart-grid mix with genuinely conflicting optima, observed
    # through a primary whose coarse ``large`` interval suits neither
    # side of it: per-user billing histories are slop-bound (cost grows
    # with the userid cell width, so they want a very fine userid grid)
    # while the 12%-selectivity regional GROUP BY is probe- and
    # boundary-bound (it wants moderate cells in every dimension).
    # Weights are query frequencies — histories dominate by count, the
    # wide report by bytes.
    def user_history(user: int) -> str:
        return (f"SELECT ts, sum(powerconsumed) FROM meterdata "
                f"WHERE userid = {user} GROUP BY ts")

    third = lab.config.num_users // 3
    workload = [(f"user {user} history", user_history(user),
                 "groupby", 15)
                for user in (42, third // 2, third, 2 * third)]
    workload.append(("groupby 12%", lab.query_sql("groupby", 0.12),
                     "groupby", 2))
    for _label, sql, _kind, weight in workload:
        for _ in range(weight):
            session.execute(sql, QueryOptions(index_name="dgf_idx"))
    report = advisor.report()
    built = advisor.apply(report)
    uniforms = [PRIMARY_LAYOUT] + built

    table_rows: List[Sequence[Any]] = []
    per_query: Dict[str, Any] = {}
    routed_total = 0.0
    uniform_totals = {name: 0.0 for name in uniforms}
    for label, sql, kind, weight in workload:
        scan = lab.scan_session.execute(sql, QueryOptions(use_index=False))
        reference = _reference_value(scan, kind)

        routed = session.execute(sql, QueryOptions(index_name="dgf_idx"))
        _check_close(reference, _reference_value(routed, kind),
                     f"advisor-divergent {label} routed")
        signature = advisor._signatures(advisor.entries()[-1:])[0]
        specialist = report.specialist_for(signature)
        chosen = routed.plan.access.layout
        routed_total += weight * routed.stats.simulated_seconds

        seconds: Dict[str, float] = {}
        for name in uniforms:
            forced = session.execute(sql, QueryOptions(
                index_name="dgf_idx", dgf_layout=name))
            _check_close(reference, _reference_value(forced, kind),
                         f"advisor-divergent {label} layout={name}")
            seconds[name] = forced.stats.simulated_seconds
            uniform_totals[name] += weight * seconds[name]

        per_query[label] = {
            "weight": weight, "chosen": chosen, "specialist": specialist,
            "routed_seconds": routed.stats.simulated_seconds,
            "uniform_seconds": seconds,
        }
        table_rows.append(
            (label, weight) + tuple(round(seconds[name], 1)
                                    for name in uniforms)
            + (round(routed.stats.simulated_seconds, 1), chosen,
               specialist))

    best_uniform = min(uniform_totals, key=uniform_totals.get)
    speedup = uniform_totals[best_uniform] / routed_total
    grids = {layout.name: layout.advice.cell_counts
             for layout in report.layouts}
    return ExpResult(
        exp_id="advisor-divergent",
        title="Divergent advisor fleet vs best uniform configuration",
        headers=["workload", "weight"] + [f"{name} s" for name in uniforms]
        + ["routed s", "routed choice", "specialist"],
        rows=table_rows,
        notes=(f"Advisor built {len(built)} specialist layout(s) "
               f"{grids}; weighted workload total routed over them is "
               f"{routed_total:.1f}s vs {uniform_totals[best_uniform]:.1f}s "
               f"on the best uniform ({best_uniform}): "
               f"{speedup:.2f}x.  Results scan-checked per query."),
        data={"uniforms": uniforms, "built": built, "grids": grids,
              "queries": per_query, "uniform_totals": uniform_totals,
              "routed_total": routed_total, "best_uniform": best_uniform,
              "speedup_vs_best_uniform": speedup,
              "predicted_speedup": report.predicted_speedup,
              "report": report.to_dict()})


# ----------------------------------------------------------------- ablations
def ablation_advisor(lab: MeterLab) -> ExpResult:
    """Splitting-policy advisor vs the fixed L/M/S policies."""
    from repro.core.dgf.advisor import PolicyAdvisor
    from repro.data.meter import METER_SCHEMA

    advisor = PolicyAdvisor(
        METER_SCHEMA, ["userid", "regionid", "ts"],
        # boundary over-read must be costed at paper-scale record volume
        records_per_unit_volume=len(lab.rows) * lab.data_scale)
    history = [lab.intervals_for(s) for s in (0.05, 0.12, 0.05)]
    sample = lab.rows[:: max(1, len(lab.rows) // 2000)]
    advice = advisor.advise(sample, history)
    properties = advice.properties

    session = lab._new_session()
    lab._load_meter(session, "TEXTFILE")
    props_sql = ", ".join(f"'{k}'='{v}'" for k, v in properties.items())
    session.execute(
        "CREATE INDEX dgf_adv ON TABLE meterdata(userid, regionid, ts) "
        f"AS 'dgf' IDXPROPERTIES ({props_sql}, "
        "'precompute'='sum(powerconsumed),count(*)')")

    rows: List[Tuple] = []
    data: Dict[str, Any] = {"policy": properties,
                            "advice": advice.to_dict()}
    for selectivity in (0.05, 0.12):
        label = _sel_label(selectivity)
        sql = lab.query_sql("agg", selectivity)
        advised = session.execute(sql, QueryOptions(index_name="dgf_adv"))
        rows.append((label, "DGF-advisor",
                     round(advised.stats.simulated_seconds, 1),
                     advised.stats.records_read))
        data[f"{label}/advisor"] = _series(advised, -1)
        for case in INTERVAL_CASES:
            result = lab.dgf_session(case).execute(
                sql, QueryOptions(index_name="dgf_idx"))
            rows.append((label, f"DGF-{case[0].upper()}",
                         round(result.stats.simulated_seconds, 1),
                         result.stats.records_read))
            data[f"{label}/{case}"] = _series(result, -1)
    return ExpResult(
        exp_id="ablation-advisor",
        title="Splitting-policy advisor vs fixed L/M/S policies",
        headers=["selectivity", "policy", "total s", "records read"],
        rows=rows,
        notes=f"Advisor chose: {properties} (paper future work, Section 8).",
        data=data)


def ablation_formats(lab: MeterLab) -> ExpResult:
    """DGFIndex over an RCFile base table (the paper: 'easy to extend')."""
    session = lab._new_session()
    lab._load_meter(session, "RCFILE")
    interval = lab.interval_size("medium")
    session.execute(
        "CREATE INDEX dgf_rc ON TABLE meterdata(userid, regionid, ts) "
        f"AS 'dgf' IDXPROPERTIES ('userid'='0_{interval}', "
        f"'regionid'='0_1', 'ts'='{lab.generator.config.start_date}_1d', "
        "'precompute'='sum(powerconsumed),count(*)')")
    rows: List[Tuple] = []
    data: Dict[str, Any] = {}
    for selectivity in ("point", 0.05):
        label = _sel_label(selectivity)
        sql = lab.query_sql("agg", selectivity)
        text_result = lab.dgf_session("medium").execute(
            sql, QueryOptions(index_name="dgf_idx"))
        rc_result = session.execute(sql, QueryOptions(index_name="dgf_rc"))
        _check_close(text_result.rows[0][0], rc_result.rows[0][0],
                     f"formats {label}")
        rows.append((label, "TextFile", text_result.stats.records_read,
                     round(text_result.stats.simulated_seconds, 1)))
        rows.append((label, "RCFile", rc_result.stats.records_read,
                     round(rc_result.stats.simulated_seconds, 1)))
        data[label] = {"text": text_result.stats.records_read,
                       "rcfile": rc_result.stats.records_read}
    return ExpResult(
        exp_id="ablation-formats",
        title="DGFIndex over TextFile vs RCFile base tables",
        headers=["selectivity", "base format", "records read", "total s"],
        rows=rows,
        notes="Slices are row-group aligned in RCFile; results identical.",
        data=data)


def partition_explosion(dims: int = 3, values_per_dim: int = 100) -> ExpResult:
    """The paper's NameNode argument: multi-dimensional partitioning
    creates ``values^dims`` directories at 150 bytes of heap each."""
    from repro.hdfs.filesystem import HDFS
    fs = HDFS(num_datanodes=2)
    # Creating 1M real directories is feasible but slow; create one full
    # plane and extrapolate exactly (the memory model is exactly linear).
    for first in range(values_per_dim):
        fs.mkdirs(f"/warehouse/part/a={first}")
    per_dir = 150
    total_dirs = values_per_dim ** dims
    projected = total_dirs * per_dir
    measured_plane = fs.namenode.metadata_memory_bytes()
    rows = [
        (f"{values_per_dim} dirs (1 dim, measured)",
         human_bytes(measured_plane)),
        (f"{total_dirs:,} dirs ({dims} dims, projected)",
         human_bytes(projected)),
    ]
    return ExpResult(
        exp_id="partition-explosion",
        title="NameNode memory of multi-dimensional partitioning",
        headers=["scenario", "NameNode heap"],
        rows=rows,
        notes=("Paper Section 2.2: 3 dimensions x 100 values = 1M "
               "directories = 143MB of NameNode memory, before files and "
               "blocks."),
        data={"projected_bytes": projected})
