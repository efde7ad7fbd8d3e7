"""Analytic cost model: measured counters -> paper-scale simulated seconds.

Experiments run on scaled-down data (``data_scale`` = paper records /
generated records) and scaled-down HDFS blocks (4 MiB vs the paper's 64 MB).
The model first rescales measured, data-proportional quantities to paper
scale, then applies a slot/wave execution model:

* map phase: ``waves * task_startup + io_time + cpu_time`` where the I/O and
  CPU terms divide paper-scale bytes/records over the occupied map slots;
* shuffle: paper-scale shuffle bytes over the aggregate network bandwidth;
* reduce phase: bytes over the reduce merge bandwidth plus startup waves;
* key-value store: per-op latencies (gets are issued by the single-threaded
  index handler on the master, as in the paper's implementation);
* a fixed job-launch overhead per MapReduce job ("HiveQL parsing time and
  launching task time" in the paper's figures).

Every experiment reports the *measured* counters alongside the modelled
seconds, so the raw reproduction data is never hidden behind the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.mapreduce.cluster import ClusterConfig, PAPER_CLUSTER


@dataclass
class JobStats:
    """Measured facts about one executed MapReduce job."""

    map_tasks: int = 0
    reduce_tasks: int = 0
    map_input_records: int = 0
    map_output_records: int = 0
    map_input_bytes: int = 0
    shuffle_bytes: int = 0
    reduce_input_records: int = 0
    output_bytes: int = 0

    def merge(self, other: "JobStats") -> None:
        self.map_tasks += other.map_tasks
        self.reduce_tasks += other.reduce_tasks
        self.map_input_records += other.map_input_records
        self.map_output_records += other.map_output_records
        self.map_input_bytes += other.map_input_bytes
        self.shuffle_bytes += other.shuffle_bytes
        self.reduce_input_records += other.reduce_input_records
        self.output_bytes += other.output_bytes


@dataclass(frozen=True)
class TaskStats:
    """Measured facts about one executed task (map or reduce).

    The engine records one entry per task in
    :attr:`repro.mapreduce.job.JobResult.task_stats`, in task order, so
    the cost model can consume measured per-task counters instead of
    assuming the even split that :class:`JobStats` aggregates imply.
    """

    task_id: int
    kind: str  # "map" | "reduce"
    input_records: int = 0
    output_records: int = 0
    input_bytes: int = 0
    output_bytes: int = 0


@dataclass
class KVStats:
    """Key-value store operations issued while planning/running a query."""

    gets: int = 0
    puts: int = 0
    rows_scanned: int = 0

    def merge(self, other: "KVStats") -> None:
        self.gets += other.gets
        self.puts += other.puts
        self.rows_scanned += other.rows_scanned


@dataclass
class TimeBreakdown:
    """Simulated seconds split the way the paper's stacked bars are.

    ``read_index_and_other`` = KV/index-table access + job launch overhead;
    ``read_data_and_process`` = map/shuffle/reduce work on base data.
    """

    read_index_and_other: float = 0.0
    read_data_and_process: float = 0.0

    @property
    def total(self) -> float:
        return self.read_index_and_other + self.read_data_and_process

    def __add__(self, other: "TimeBreakdown") -> "TimeBreakdown":
        return TimeBreakdown(
            self.read_index_and_other + other.read_index_and_other,
            self.read_data_and_process + other.read_data_and_process)


class CostModel:
    """Converts measured stats into paper-scale simulated seconds."""

    def __init__(self, cluster: ClusterConfig = PAPER_CLUSTER,
                 data_scale: float = 1.0, sim_block_size: Optional[int] = None):
        if data_scale <= 0:
            raise ValueError("data_scale must be positive")
        self.cluster = cluster
        self.data_scale = float(data_scale)
        self.sim_block_size = sim_block_size

    # ------------------------------------------------------------------ jobs
    def job_phases(self, stats: JobStats,
                   include_launch: bool = True) -> "dict[str, float]":
        """Per-phase simulated seconds of one MapReduce job.

        Returns ``{"launch", "map", "shuffle", "reduce"}``.  This is the
        single source of truth for :meth:`job_seconds` (which folds the
        phases into a :class:`TimeBreakdown` without re-deriving them), so
        per-phase numbers attached to trace spans reconcile bit-for-bit
        with the query's totals.
        """
        c = self.cluster
        scale = self.data_scale
        bytes_in = stats.map_input_bytes * scale
        records_in = stats.map_input_records * scale
        shuffle = stats.shuffle_bytes * scale
        reduce_in = shuffle  # sort-merge reads what was shuffled
        out_bytes = stats.output_bytes * scale

        map_tasks = self._paper_map_tasks(stats, bytes_in)
        map_slots_used = max(1, min(map_tasks, c.total_map_slots))
        map_waves = math.ceil(map_tasks / c.total_map_slots) if map_tasks else 0
        map_time = (map_waves * c.task_startup_seconds
                    + bytes_in / (map_slots_used * c.per_slot_disk_bandwidth)
                    + records_in * c.cpu_seconds_per_record / map_slots_used)

        shuffle_time = shuffle / (c.num_workers
                                  * c.per_worker_network_bandwidth)

        reduce_tasks = stats.reduce_tasks
        reduce_time = 0.0
        if reduce_tasks:
            reduce_slots_used = max(1, min(reduce_tasks,
                                           c.total_reduce_slots))
            reduce_waves = math.ceil(reduce_tasks / c.total_reduce_slots)
            reduce_time = (reduce_waves * c.task_startup_seconds
                           + (reduce_in + out_bytes)
                           * c.reduce_seconds_per_byte / reduce_slots_used)

        launch = c.job_launch_seconds if include_launch else 0.0
        return {"launch": launch, "map": map_time,
                "shuffle": shuffle_time, "reduce": reduce_time}

    def job_seconds(self, stats: JobStats,
                    include_launch: bool = True) -> TimeBreakdown:
        """Simulated duration of one MapReduce job over base data."""
        phases = self.job_phases(stats, include_launch=include_launch)
        return TimeBreakdown(
            read_index_and_other=phases["launch"],
            read_data_and_process=(phases["map"] + phases["shuffle"]
                                   + phases["reduce"]))

    def job_seconds_measured(self, stats: JobStats,
                             tasks: Sequence[TaskStats],
                             include_launch: bool = True) -> TimeBreakdown:
        """Slot/wave model fed by *measured per-task* counters.

        :meth:`job_seconds` assumes every map task processed an equal share
        of the input.  The engine measures each task's exact bytes and
        records, so here the map phase ends when the most-loaded slot
        drains: tasks are assigned to slots round-robin in task order and
        a wave is as slow as its largest straggler.  Shuffle and reduce
        reuse the balanced formulas (the in-memory shuffle does not
        attribute bytes per reduce task).  Falls back to :meth:`job_seconds`
        when no map tasks were recorded (e.g. results from older runs).
        """
        c = self.cluster
        map_tasks = [t for t in tasks if t.kind == "map"]
        if not map_tasks:
            return self.job_seconds(stats, include_launch=include_launch)
        scale = self.data_scale
        slots = max(1, min(len(map_tasks), c.total_map_slots))
        slot_seconds = [0.0] * slots
        for index, task in enumerate(map_tasks):
            slot_seconds[index % slots] += (
                task.input_bytes * scale / c.per_slot_disk_bandwidth
                + task.input_records * scale * c.cpu_seconds_per_record)
        map_waves = math.ceil(len(map_tasks) / c.total_map_slots)
        map_time = map_waves * c.task_startup_seconds + max(slot_seconds)

        shuffle = stats.shuffle_bytes * scale
        shuffle_time = shuffle / (c.num_workers
                                  * c.per_worker_network_bandwidth)
        reduce_time = 0.0
        if stats.reduce_tasks:
            reduce_slots_used = max(1, min(stats.reduce_tasks,
                                           c.total_reduce_slots))
            reduce_waves = math.ceil(stats.reduce_tasks
                                     / c.total_reduce_slots)
            reduce_time = (reduce_waves * c.task_startup_seconds
                           + (shuffle + stats.output_bytes * scale)
                           * c.reduce_seconds_per_byte / reduce_slots_used)

        launch = c.job_launch_seconds if include_launch else 0.0
        return TimeBreakdown(
            read_index_and_other=launch,
            read_data_and_process=map_time + shuffle_time + reduce_time)

    def _paper_map_tasks(self, stats: JobStats, paper_bytes: float) -> int:
        """Rescale the measured split count to the paper's block size.

        With 4 MiB simulated blocks and ``data_scale``-times-smaller data,
        the paper-scale run would have had roughly ``paper_bytes /
        paper_block_size`` tasks, floored at the measured count (tiny inputs
        keep their real split count).
        """
        if stats.map_tasks == 0:
            return 0
        by_bytes = math.ceil(paper_bytes / self.cluster.paper_block_size)
        return max(stats.map_tasks if self.data_scale == 1.0 else 1, by_bytes)

    # ------------------------------------------------------------- kv access
    def kv_seconds(self, stats: KVStats, scale_ops: bool = False
                   ) -> TimeBreakdown:
        """Index-access time.  ``scale_ops`` applies ``data_scale`` for ops
        whose count grows with data size (e.g. index build puts); query-time
        get counts depend on the grid, not the data volume, so they are not
        scaled."""
        c = self.cluster
        factor = self.data_scale if scale_ops else 1.0
        seconds = (stats.gets * c.kv_get_seconds
                   + stats.puts * c.kv_put_seconds
                   + stats.rows_scanned / c.kv_scan_rows_per_second) * factor
        return TimeBreakdown(read_index_and_other=seconds)

    # ----------------------------------------------------------- index scans
    def index_table_scan_seconds(self, index_bytes: int,
                                 index_records: int) -> TimeBreakdown:
        """Hive scans the whole index table (an MR job in real Hive; the
        paper counts it inside "read index and other")."""
        c = self.cluster
        scaled_bytes = index_bytes * self.data_scale
        scaled_records = index_records * self.data_scale
        tasks = max(1, math.ceil(scaled_bytes / c.paper_block_size))
        slots = max(1, min(tasks, c.total_map_slots))
        seconds = (math.ceil(tasks / c.total_map_slots)
                   * c.task_startup_seconds
                   + scaled_bytes / (slots * c.per_slot_disk_bandwidth)
                   + scaled_records * c.cpu_seconds_per_record / slots)
        return TimeBreakdown(read_index_and_other=seconds)

    # -------------------------------------------------------- layout routing
    def layout_route_seconds(self, kv_gets: int, est_records: float,
                             est_bytes: float) -> float:
        """Estimated query cost of scanning one replica layout: the GFU
        probes the grid search would issue, plus a map phase over the
        estimated paper-scale bytes/records the layout's slices hold.
        Used by the replica-fleet router (:mod:`repro.core.dgf.fleet`) to
        pick the cheapest surviving layout; the estimate only ranks
        layouts — the chosen plan's reported time is still measured.
        """
        c = self.cluster
        seconds = kv_gets * c.kv_get_seconds
        scaled_bytes = est_bytes * self.data_scale
        scaled_records = est_records * self.data_scale
        tasks = max(1, math.ceil(scaled_bytes / c.paper_block_size))
        slots = max(1, min(tasks, c.total_map_slots))
        seconds += (math.ceil(tasks / c.total_map_slots)
                    * c.task_startup_seconds
                    + scaled_bytes / (slots * c.per_slot_disk_bandwidth)
                    + scaled_records * c.cpu_seconds_per_record / slots)
        return seconds

    # --------------------------------------------------------------- what-if
    def whatif_seconds(self, kv_gets: float, est_records: float,
                       est_bytes: float) -> float:
        """Hypothetical-layout pricing: the cost a query *would* pay on a
        grid that has never been built.

        Deliberately the same formula as :meth:`layout_route_seconds` —
        the advisor's what-if evaluator (:mod:`repro.core.dgf.whatif`)
        must price candidate grids with the exact model the replica-fleet
        router will later use to choose between them, otherwise the
        advisor could recommend a layout the router never picks.  The
        only difference is that the caller *estimates* probes/records/
        bytes from a candidate grid's geometry instead of measuring them
        against stored per-layout statistics.
        """
        return self.layout_route_seconds(kv_gets, est_records, est_bytes)

    # ------------------------------------------------------- pyramid probes
    def pyramid_probe_count(self, extents: Sequence[int], fanout: int,
                            levels: int) -> int:
        """KV probes the aggregation pyramid pays for an inner region of
        ``extents[i]`` cells per dimension (vs ``prod(extents)`` flat
        header gets).

        Runs the planner's actual greedy decomposition
        (:func:`repro.pyramid.decompose.cover_box`) on a worst-case
        *misaligned* box (origin 1, not 0): an aligned box would cover
        with fewer, larger nodes, and the router/advisor must never
        under-price a layout.  Probe counts depend on grid geometry, not
        data volume, so ``data_scale`` does not apply.
        """
        # Imported here: repro.pyramid imports the DGF stack, which
        # imports this module.
        from repro.pyramid.decompose import cover_box
        lo = tuple(1 for _ in extents)
        hi = tuple(max(1, int(e)) for e in extents)
        nodes, leaves = cover_box(lo, hi, frozenset(), fanout, levels)
        return len(nodes) + len(leaves)

    # ------------------------------------------------------------ raw writes
    def sequential_write_seconds(self, nbytes: int,
                                 parallel_streams: int = 1) -> float:
        """Plain HDFS append time (used by the Fig. 3 write experiment)."""
        c = self.cluster
        streams = max(1, parallel_streams)
        return (nbytes * self.data_scale
                / (streams * c.per_slot_disk_bandwidth))
