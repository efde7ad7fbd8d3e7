"""Cluster configuration: the paper's testbed, expressed as parameters.

The paper runs 29 virtual nodes (1 master + 28 workers), 8 cores and 8 GB
each, Hadoop 1.2.1 with 5 map slots and 3 reduce slots per worker, HDFS
replication 2, 64 MB blocks, HBase 0.94 as the key-value store.  The numbers
below parameterize the cost model (:mod:`repro.mapreduce.cost`); they were
calibrated once so that a full scan of the paper's 1 TB meter table lands
near the paper's reported ~1950 s and are then *held fixed* for every
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import MiB


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the (simulated) cluster."""

    num_workers: int = 28
    map_slots_per_worker: int = 5
    reduce_slots_per_worker: int = 3
    #: HDFS block size the *paper* used; measured split counts are rescaled
    #: to this block size before the wave model is applied.
    paper_block_size: int = 64 * MiB
    #: Sequential scan bandwidth available to one task slot (bytes/s).
    per_slot_disk_bandwidth: float = 50e6
    #: Per-record CPU cost of Hive 0.10's interpreted row pipeline (s).
    cpu_seconds_per_record: float = 20e-6
    #: Shuffle: aggregate network bandwidth per worker (bytes/s).
    per_worker_network_bandwidth: float = 100e6
    #: Reduce-side merge + write cost per byte of reduce input (s/byte).
    reduce_seconds_per_byte: float = 1.0 / 80e6
    #: Launch overheads: JVM task start and Hive job submit (query parse,
    #: plan, MR job launch) — the paper's "other time".
    task_startup_seconds: float = 1.5
    job_launch_seconds: float = 15.0
    #: HBase access latencies.
    kv_get_seconds: float = 0.4e-3
    kv_put_seconds: float = 0.6e-3
    kv_scan_rows_per_second: float = 200e3

    @property
    def total_map_slots(self) -> int:
        return self.num_workers * self.map_slots_per_worker

    @property
    def total_reduce_slots(self) -> int:
        return self.num_workers * self.reduce_slots_per_worker


#: The paper's cluster, used by all experiments unless overridden.
PAPER_CLUSTER = ClusterConfig()

