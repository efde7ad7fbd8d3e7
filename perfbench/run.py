"""The repository's end-to-end benchmark, with an outside-in per-layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mdrq_mix --seed 1 --seconds 18 --trace 0

``--trace 0`` sets the warehouse up several times (reporting the median
set-up time), runs one closed-loop timed phase and prints the end-to-end
metrics.  ``--trace 1`` sets up once, runs a warm-up, an untraced
half-phase and a traced half-phase, and prints the per-layer metrics (plus
the tracing overhead: traced minus untraced median read latency); spans are
written to ``perfbench/out/`` when the run ends.  The last line of
standard output is always one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")

#: set-ups per untraced run; setup_s is their median
SETUP_REPEATS = 3

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order
END_TO_END = [
    ("setup_s", "s"),
    ("read_qps", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p95_ms", "ms"),
    ("sim_s_per_read", "s"),
    ("index_space_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
]

#: (name, unit, better) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = [
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.reads", "count", "higher"),
    ("api.bind_ms", "ms", "lower"),
    ("hiveql.parse_ms", "ms", "lower"),
    ("hive.analyze_ms", "ms", "lower"),
    ("hive.execute_self_ms", "ms", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("dgf.plan_self_ms", "ms", "lower"),
    ("dgf.search_grid_ms", "ms", "lower"),
    ("pyramid.cover_ms", "ms", "lower"),
    ("pyramid.probes_per_read", "count", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.evictions_per_read", "count", "lower"),
    ("cache.ms_per_read", "ms", "lower"),
    ("kvstore.gets_per_read", "count", "lower"),
    ("kvstore.ms_per_read", "ms", "lower"),
    ("dgf.inner_gfus_per_read", "count", "higher"),
    ("dgf.boundary_gfus_per_read", "count", "lower"),
    ("dgf.scan_precision", "ratio", "higher"),
    ("mapreduce.job_self_ms", "ms", "lower"),
    ("mapreduce.splits_per_read", "count", "lower"),
    ("mapreduce.records_read_per_read", "count", "lower"),
    ("hdfs.read_ms", "ms", "lower"),
    ("hdfs.bytes_read_per_read", "bytes", "lower"),
    ("sim.index_s_per_read", "s", "lower"),
    ("sim.data_s_per_read", "s", "lower"),
    ("delta.rows_per_s", "rows/s", "higher"),
    ("delta.flush_ms", "ms", "lower"),
    ("kvstore.puts_per_row", "count", "lower"),
    ("hdfs.bytes_written_per_ingested_byte", "ratio", "lower"),
    ("delta.write_p95_ms", "ms", "lower"),
    ("delta.compact_ms", "ms", "lower"),
    ("delta.compactions", "count", "lower"),
    ("delta.folded_cells", "count", "lower"),
    ("delta.rewritten_cells", "count", "lower"),
    ("delta.merge_ms", "ms", "lower"),
    ("delta.resident_ops_at_read", "count", "lower"),
    ("setup.load_s", "s", "lower"),
    ("setup.index_build_s", "s", "lower"),
    ("setup.pyramid_build_s", "s", "lower"),
] + [(f"share.{layer}", "ratio", "lower") for layer in (
    "service", "api", "hiveql", "hive", "dgf", "pyramid", "cache",
    "kvstore", "mapreduce", "hdfs", "delta")]

#: span name -> layer, for the self-time shares.  A read's root span
#: keeps what no wrapped call covers: the query service's queue wait and
#: thread hand-off (nothing when the statement runs inline); a write's
#: root keeps the streaming writer's own buffering and admission.
LAYER_OF = {
    "read": "service", "write": "delta", "api.bind": "api",
    "hiveql.parse": "hiveql", "hive.analyze": "hive",
    "hive.execute": "hive", "dgf.plan": "dgf", "dgf.search_grid": "dgf",
    "pyramid.cover": "pyramid", "cache": "cache", "kvstore": "kvstore",
    "mapreduce.job": "mapreduce", "hdfs.read": "hdfs", "hdfs.write": "hdfs",
    "delta.flush": "delta", "delta.compact": "delta", "delta.merge": "delta",
}


def percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile as ``statistics.quantiles`` gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _counters(conn) -> Dict[str, float]:
    """Public counters the per-layer metrics difference over a phase."""
    session = conn.session
    cache = conn.cache.snapshot() if conn.cache is not None else {}
    kv = session.kvstore.snapshot_stats()
    wait = session.metrics.histogram("service_queue_wait_seconds")
    return {"cache_hits": cache.get("hits", 0),
            "cache_misses": cache.get("misses", 0),
            "cache_evictions": cache.get("evictions", 0),
            "kv_puts": kv.puts,
            "bytes_written": session.fs.io.snapshot().bytes_written,
            "wait_s": wait.sum(), "wait_n": wait.count()}


def end_to_end(workload, setups: List[float], phase,
               conn) -> Dict[str, float]:
    from workloads import space_ratio
    reads = sorted(phase.read_latencies)
    sims = phase.sims[:workload.sim_reads]
    ratio = phase.space_ratio
    if ratio is None:
        ratio = space_ratio(conn, workload.table)
    return {
        "setup_s": statistics.median(setups),
        "read_qps": len(reads) / phase.elapsed,
        "read_p50_ms": statistics.median(reads) * 1000,
        "read_p95_ms": percentile(reads, 95) * 1000,
        "sim_s_per_read": sum(i + d for i, d in sims) / len(sims),
        "index_space_ratio": ratio,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(parts: Dict[str, float], untraced, traced, tracer,
              before: Dict[str, float], after: Dict[str, float]
              ) -> Dict[str, float]:
    from tracer import END, NAME, OP, START
    delta = {k: after[k] - before[k] for k in before}
    n = len(traced.read_latencies)
    writes = len(traced.write_latencies)
    own = tracer.self_times()
    kind = {}
    self_ms: Dict[Tuple[str, str], float] = {}
    layer_s: Dict[str, float] = {}
    for span, seconds in zip(tracer.spans, own):
        if span[OP] is None:
            continue
        if span[OP] not in kind:
            kind[span[OP]] = tracer.spans[tracer.roots[span[OP]]][NAME]
        key = (kind[span[OP]], span[NAME])
        self_ms[key] = self_ms.get(key, 0.0) + seconds * 1000
        layer = LAYER_OF[span[NAME]]
        layer_s[layer] = layer_s.get(layer, 0.0) + seconds
    # a compaction is a stall: count its whole duration
    compact_ms = sum((span[END] - span[START]) * 1000
                     for span in tracer.spans
                     if span[NAME] == "delta.compact" and span[OP] is not None)
    read_counts: Dict[str, float] = {}
    for op, counts in tracer.counts.items():
        if kind.get(op) == "read":
            for key, amount in counts.items():
                read_counts[key] = read_counts.get(key, 0) + amount

    def per_read(name: str) -> float:
        return _ratio(self_ms.get(("read", name), 0.0), n)

    totals = traced.totals
    lookups = delta["cache_hits"] + delta["cache_misses"]
    sims = traced.sims
    compactions = totals.get("compactions", 0)
    records = totals.get("records_read", 0)
    out = {
        "trace.overhead_ms": (statistics.median(traced.read_latencies)
                              - statistics.median(untraced.read_latencies))
        * 1000,
        "trace.reads": n,
        "api.bind_ms": per_read("api.bind"),
        "hiveql.parse_ms": per_read("hiveql.parse"),
        "hive.analyze_ms": per_read("hive.analyze"),
        "hive.execute_self_ms": per_read("hive.execute"),
        "service.queue_wait_ms": _ratio(delta["wait_s"] * 1000,
                                        delta["wait_n"]),
        "dgf.plan_self_ms": per_read("dgf.plan"),
        "dgf.search_grid_ms": per_read("dgf.search_grid"),
        "pyramid.cover_ms": per_read("pyramid.cover"),
        "pyramid.probes_per_read": _ratio(
            read_counts.get("pyramid.probes", 0), n),
        "cache.hit_rate": _ratio(delta["cache_hits"], lookups),
        "cache.evictions_per_read": _ratio(delta["cache_evictions"], n),
        "cache.ms_per_read": per_read("cache"),
        "kvstore.gets_per_read": _ratio(
            read_counts.get("kvstore.gets", 0), n),
        "kvstore.ms_per_read": per_read("kvstore"),
        "dgf.inner_gfus_per_read": _ratio(totals.get("inner_gfus", 0), n),
        "dgf.boundary_gfus_per_read": _ratio(
            totals.get("boundary_gfus", 0), n),
        # header-only reads scan nothing, so waste nothing
        "dgf.scan_precision": (_ratio(totals.get("records_matched", 0),
                                      records) if records else 1.0),
        "mapreduce.job_self_ms": per_read("mapreduce.job"),
        "mapreduce.splits_per_read": _ratio(totals.get("splits", 0), n),
        "mapreduce.records_read_per_read": _ratio(records, n),
        "hdfs.read_ms": per_read("hdfs.read"),
        "hdfs.bytes_read_per_read": _ratio(totals.get("bytes_read", 0), n),
        "sim.index_s_per_read": _ratio(sum(i for i, _ in sims), len(sims)),
        "sim.data_s_per_read": _ratio(sum(d for _, d in sims), len(sims)),
        "delta.rows_per_s": _ratio(traced.rows_written,
                                   sum(traced.write_latencies)),
        "delta.flush_ms": _ratio(self_ms.get(("write", "delta.flush"), 0.0),
                                 writes),
        "kvstore.puts_per_row": _ratio(delta["kv_puts"],
                                       traced.rows_written),
        "hdfs.bytes_written_per_ingested_byte": _ratio(
            delta["bytes_written"], traced.bytes_ingested),
        "delta.write_p95_ms": (percentile(traced.write_latencies, 95) * 1000
                               if writes else 0.0),
        "delta.compact_ms": _ratio(compact_ms, compactions),
        "delta.compactions": compactions,
        "delta.folded_cells": totals.get("folded_cells", 0),
        "delta.rewritten_cells": totals.get("rewritten_cells", 0),
        "delta.merge_ms": per_read("delta.merge"),
        "delta.resident_ops_at_read": _ratio(
            totals.get("resident_ops", 0), n),
        "setup.load_s": parts["load_s"],
        "setup.index_build_s": parts["index_build_s"],
        "setup.pyramid_build_s": parts["pyramid_build_s"],
    }
    busy = sum(layer_s.values())
    for name, _unit, _better in PER_LAYER:
        if name.startswith("share."):
            out[name] = _ratio(layer_s.get(name[6:], 0.0), busy)
    return out


def _close(conn) -> None:
    conn.close()
    gc.collect()


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, spans_path: Optional[str] = None) -> Dict:
    """One benchmark run; returns the result object the CLI prints."""
    from workloads import WORKLOADS, NullTracer
    workload = WORKLOADS[name](seed, tiny=tiny)
    # The generated inputs and references live for the whole run: keep
    # them out of the collector's scans, which the program would pay for.
    gc.collect()
    gc.freeze()
    if not trace:
        setups = []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            conn, _parts = workload.setup()
            setups.append(time.perf_counter() - t0)
            if i < SETUP_REPEATS - 1:
                _close(conn)
        phase = workload.run(conn, seconds, NullTracer())
        values = end_to_end(workload, setups, phase, conn)
        _close(conn)
        units = END_TO_END
        attempted, failed, failures = (phase.attempted, phase.failed,
                                       phase.failures)
    else:
        from tracer import Tracer
        conn, part = workload.setup()
        # Warm caches first, so both measured halves see a filled cache.
        workload.run(conn, seconds / 2, NullTracer())
        untraced = workload.run(conn, seconds / 2, NullTracer())
        tracer = Tracer()
        before = _counters(conn)
        tracer.install()
        try:
            traced = workload.run(conn, seconds / 2, tracer)
        finally:
            tracer.remove()
        after = _counters(conn)
        values = per_layer(part, untraced, traced, tracer, before, after)
        _close(conn)
        if spans_path:
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            with open(spans_path, "w") as handle:
                json.dump(tracer.to_json(), handle, separators=(",", ":"))
        units = [(name, unit) for name, unit, _better in PER_LAYER]
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        failures = untraced.failures + traced.failures
    gc.unfreeze()
    for failure in failures:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {metric: {"value": values[metric], "unit": unit}
                        for metric, unit in units}}


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    spans = os.path.join(HERE, "out",
                         f"spans-{args.workload}-{args.seed}.json")
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), spans_path=spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
