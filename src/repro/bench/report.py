"""Runs every experiment and renders the EXPERIMENTS.md report."""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.bench import experiments as exps
from repro.bench.lab import (MeterLab, MeterLabConfig, TpchLab,
                             TpchLabConfig)

HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction of every table and figure in the evaluation of *DGFIndex for
Smart Grid* (Liu et al., VLDB 2014).  All systems run on the simulated
Hadoop/Hive/HBase stack described in DESIGN.md; "seconds" are paper-scale
simulated times produced by the calibrated cost model from *measured*
counters (records, bytes, splits, KV ops), which are reported alongside.
Absolute numbers are not expected to match the paper (different substrate);
the comparisons to check are orderings, flatness/growth trends, and
crossovers — each experiment asserts its paper-shape invariants and fails
if they do not hold.

Scale: meter data {meter_records:,} records standing in for the paper's 11
billion (data_scale {meter_scale:,.0f}); TPC-H lineitem {tpch_records:,}
records for the paper's 4.1 billion.  Regenerate with
`python -m repro.bench`.
"""

FOOTER = """\
## Appendix: paper-vs-measured checklist

| claim (paper) | paper numbers | reproduction | holds? |
|---|---|---|---|
| Fig. 3: HDFS write throughput dominates DBMS-X; an index makes DBMS-X worse | ~2-4 / 8-16 / 32-64 MB/s (log2 axis) | same ordering, same bands | yes (asserted) |
| Table 2: 3-D Compact index table ~ base table size; 2-D small; DGF sizes tiny, L < M < S; DGF build slower (shuffle) | 821GB / 7MB / 0.94-13MB; 23350s vs 25816s | ordering + explosion reproduced (absolute ratios compress at laptop scale: ~3300 records/GFU in the paper vs tens here) | yes (asserted) |
| Figs. 8-10 / Table 3: DGF aggregation 2-50x faster than Compact & HadoopDB, nearly flat vs selectivity; point queries read a whole GFU (>> accurate) | DGF ~25-42s flat; Compact 73->1700s; HadoopDB 60->1500s; scan ~1950s | DGF ~20-70s flat; Compact 211->965s; HadoopDB 52->2194s; scan ~1875s | yes (asserted) |
| Figs. 11-13 / Table 4: non-aggregation (GROUP BY) DGF 2-5x faster; reads L >= M >= S >= accurate; index-read time grows as intervals shrink | DGF reads 572-681M vs accurate 569M at 5% | same ordering; index-read growth visible though compressed (scaled-down grid has fewer GFUs) | yes (asserted) |
| Figs. 14-16: JOIN keeps the same ordering, plus build side + output write | DGF fastest at every selectivity | same | yes (asserted) |
| Fig. 17: partial-specified query completed from stored min/max; DGF 2-4.6x faster than Compact; precompute removes inner-region reads | 2-4.6x | precompute reads 0 records; DGF beats Compact at every interval size | yes (asserted) |
| Tables 5-6 / Fig. 18: on evenly-scattered TPC-H both Compact indexes read the whole table (no better than scanning); DGF reads ~2% and is ~25x faster | 85M of 4.1B read; ~25x | every record read by both Compact variants; DGF reads ~1-2%, ~18-20x faster | yes (asserted) |
| Sec. 2.2: 3-dim partitioning with 100 values each -> 1M directories -> 143MB NameNode heap | 143MB | 143.1MB (measured model, exact) | yes |

Known divergences (documented in DESIGN.md): slice byte ranges are
half-open; partition values are also stored in row data; date intervals
are day-granularity; the simulated "point" query selects one of thousands
of users rather than one of 14 million, so *every* system's point-query
time is inflated by the same factor (orderings unaffected).
"""


def run_all(meter_config: Optional[MeterLabConfig] = None,
            tpch_config: Optional[TpchLabConfig] = None,
            verbose: bool = True) -> str:
    """Run every experiment; return the full markdown report."""
    started = time.time()
    lab = MeterLab(meter_config or MeterLabConfig())
    tpch = TpchLab(tpch_config or TpchLabConfig())
    sections: List[str] = [HEADER.format(
        meter_records=len(lab.rows), meter_scale=lab.data_scale,
        tpch_records=len(tpch.rows))]

    plan = [
        ("Figure 3", lambda: exps.fig3_write_throughput()),
        ("Table 2", lambda: exps.table2_index_build(lab)),
        ("Figures 8-10 + Table 3", lambda: exps.aggregation_queries(lab)),
        ("Figures 11-13 + Table 4", lambda: exps.groupby_queries(lab)),
        ("Figures 14-16", lambda: exps.join_queries(lab)),
        ("Figure 17", lambda: exps.partial_query(lab)),
        ("Tables 5-6 + Figure 18", lambda: exps.tpch_q6(tpch)),
        ("Ablation: policy advisor", lambda: exps.ablation_advisor(lab)),
        ("Ablation: vectorized engine speedup",
         lambda: exps.vectorized_speedup(lab, tpch)),
        ("Ablation: replica-fleet layouts",
         lambda: exps.replica_fleet(lab)),
        ("Ablation: divergent advisor fleet",
         lambda: exps.advisor_divergent(lab)),
        ("Ablation: base formats", lambda: exps.ablation_formats(lab)),
        ("Partition explosion", lambda: exps.partition_explosion()),
    ]
    for label, runner in plan:
        if verbose:
            print(f"[{time.time() - started:7.1f}s] running {label} ...",
                  flush=True)
        result = runner()
        sections.append(f"## {label}\n\n{result.markdown()}\n")
    sections.append(FOOTER)
    if verbose:
        print(f"[{time.time() - started:7.1f}s] done", flush=True)
    return "\n".join(sections)


#: reference query shapes traced by :func:`collect_reference_traces`.
REFERENCE_TRACE_QUERIES = (
    ("agg-5pct", "agg", 0.05),
    ("agg-point", "agg", "point"),
    ("groupby-5pct", "groupby", 0.05),
)


def collect_reference_traces(lab: MeterLab,
                             case: str = "medium") -> Dict[str, Any]:
    """Trace the paper's reference MDRQs on a DGF-indexed session.

    Returns a JSON-able document (written as ``BENCH_TRACES.json`` by
    ``python -m repro.bench``) holding, per query: the SQL, the full
    versioned trace document (schema ``dgf-repro/trace``, see
    docs/observability.md) and the headline stats — plus the session's
    metrics snapshot.  Wall times are zeroed so the artifact is
    deterministic across hosts and runs.
    """
    from repro.obs.trace import validate_trace
    session = lab.dgf_session(case)
    traces: List[Dict[str, Any]] = []
    for label, kind, selectivity in REFERENCE_TRACE_QUERIES:
        sql = lab.query_sql(kind, selectivity)
        result = session.execute(sql)
        document = result.trace.normalized()
        validate_trace(document)
        traces.append({
            "label": label,
            "sql": sql,
            "trace": document,
            "stats": {
                "records_read": result.stats.records_read,
                "bytes_read": result.stats.bytes_read,
                "splits_processed": result.stats.splits_processed,
                "index_used": result.stats.index_used,
                "simulated_seconds": result.stats.simulated_seconds,
            },
        })
    return {"case": case, "traces": traces,
            "metrics": session.metrics.snapshot()}
