"""Streaming ingestion: DualTable-style hybrid delta store for DGFIndex.

The paper's smart grid is a write-heavy stream (11B readings from 14M
meters), but the base write paths are bulk ``build`` and batch
``append_with_dgf`` — a live service cannot absorb late or corrected
meter readings without staging a whole append generation.  Following
*DualTable: A Hybrid Storage Model for Update Optimization in Hive*
(PAPERS.md), this package lands streamed inserts/upserts/deletes in the
KV side of the hybrid HDFS+KV store, merges base slices with resident
deltas at read time, and folds deltas back into slices in the background:

* :class:`~repro.delta.store.DeltaStore` — GFU-keyed delta cells in the
  KV store (``delta:<table>:<index>:<gfukey>``), so the grid pruning of
  Algorithm 3 applies to streamed data exactly as to base slices.
* :class:`~repro.delta.store.DeltaBinding` — the session-side attachment
  of one streaming delta to one (table, DGF index) pair; owns the
  sequence counter and the resident-cell registry.
* :class:`~repro.delta.overlay.DeltaOverlay` /
  :class:`~repro.delta.overlay.DeltaOverlayInputFormat` — the versioned
  merge-on-read layer: base splits are filtered against delta tombstones
  and per-cell synthetic splits append the surviving delta rows, on both
  the row and vectorized scan paths.
* :class:`~repro.delta.compact.Compactor` — a
  :class:`~repro.workflow.dag.Workflow` that folds resident deltas into
  new slices (reusing the append build job for insert-only cells and
  rewriting mixed cells), swaps slice locations atomically with a
  ``compacted_seq`` watermark, and prunes the folded ops.
* :class:`~repro.delta.writer.StreamingWriter` — the bounded ingest
  admission path beside :class:`~repro.service.queryservice.QueryService`
  query admission.

Correctness contract (`tests/test_delta_differential.py`): queries over
base+delta return rows byte-identical to the same logical data bulk-built
into base alone, vectorized on/off, before, during and after compaction
— and all per-query observables (rows, QueryStats, normalized traces)
are byte-identical across service concurrency and cache settings within
any one delta state.
"""

from repro.delta.compact import CompactionReport, Compactor
from repro.delta.overlay import (DELTA_ROWS_META_KEY, DeltaOverlay,
                                 DeltaOverlayInputFormat)
from repro.delta.store import DeltaBinding, DeltaStore
from repro.delta.writer import StreamingWriter

__all__ = [
    "CompactionReport",
    "Compactor",
    "DELTA_ROWS_META_KEY",
    "DeltaBinding",
    "DeltaOverlay",
    "DeltaOverlayInputFormat",
    "DeltaStore",
    "StreamingWriter",
]
