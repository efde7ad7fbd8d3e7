"""The structured query plan exposed by the public API.

One :class:`Plan` object backs all three plan surfaces — ``EXPLAIN``,
``EXPLAIN ANALYZE`` and ``QueryResult.plan`` — so callers inspect fields
instead of string-parsing.  The legacy plan *text* (``EXPLAIN`` rows,
``QueryResult.description``) is rendered **from** this object
(:meth:`Plan.render`), character-for-character what the session used to
assemble inline, so existing output and the differential harness's
fingerprints are unchanged.

``EXPLAIN ANALYZE`` is the same object with :attr:`Plan.trace` populated:
:meth:`Plan.render_analyze` appends the executed span tree
(:meth:`repro.obs.trace.Trace.render`) below the plan lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.hive.indexhandler import IndexAccessPlan
from repro.obs.trace import Trace


@dataclass
class Plan:
    """Everything decided before (and, when executed, measured during)
    one SELECT: table access, join strategy, index selection, split count
    and result shape."""

    #: table being read and its storage format
    table: str
    stored_as: str
    #: ``"group/aggregate"`` or ``"projection"``
    shape: str
    #: broadcast hash joins the query performs
    joins: int = 0
    #: splits handed to the MapReduce job (0 when the index rewrite or the
    #: header path answered the query without scanning)
    splits: int = 0
    #: the chosen index handler's access plan, or None for a full scan
    access: Optional[IndexAccessPlan] = None
    #: the scan job runs on the columnar engine (a ``vectorized=True``
    #: session and a batch-decodable scan)
    vectorized: bool = False
    #: merge-on-read: resident streaming-delta cells and rows composed
    #: into this scan (0/0 when no delta is resident — the plan then
    #: renders exactly as before streaming existed)
    delta_cells: int = 0
    delta_rows: int = 0
    #: executed span tree (populated only after execution, i.e. for
    #: ``QueryResult.plan`` and ``EXPLAIN ANALYZE``)
    trace: Optional[Trace] = None

    # ----------------------------------------------------------- shorthands
    @property
    def uses_index(self) -> bool:
        return self.access is not None

    @property
    def index_handler(self) -> Optional[str]:
        return self.access.handler if self.access is not None else None

    @property
    def index_mode(self) -> Optional[str]:
        return self.access.mode if self.access is not None else None

    @property
    def is_rewrite(self) -> bool:
        """Answered entirely from the index; the main job was skipped."""
        return (self.access is not None
                and self.access.rewrite_grouped is not None)

    @property
    def uses_headers(self) -> bool:
        """Inner region answered from pre-computed aggregate headers."""
        return (self.access is not None
                and self.access.header_states is not None)

    @property
    def splits_kept(self) -> Optional[int]:
        return len(self.access.splits) if self.access is not None else None

    @property
    def splits_total(self) -> Optional[int]:
        return self.access.total_splits if self.access is not None else None

    @property
    def splits_pruned(self) -> Optional[int]:
        if self.access is None or self.access.total_splits is None:
            return None
        return self.access.total_splits - len(self.access.splits)

    # ------------------------------------------------------------ rendering
    def render(self) -> str:
        """The canonical plan text (EXPLAIN output, result description)."""
        lines = [f"table: {self.table} ({self.stored_as})"]
        if self.joins:
            lines.append(f"join: broadcast hash join x{self.joins}")
        access = self.access
        if access is not None:
            lines.append(f"index: {access.description}")
            lines.append(f"  handler: {access.handler}"
                         + (f" mode={access.mode}" if access.mode else ""))
            if access.layout is not None:
                lines.append(f"  layout: {access.layout}")
            if access.inner_gfus or access.boundary_gfus:
                lines.append(f"  gfus: inner={access.inner_gfus} "
                             f"boundary={access.boundary_gfus}")
            if access.total_splits is not None:
                pruned = access.total_splits - len(access.splits)
                lines.append(f"  splits kept: {len(access.splits)} of "
                             f"{access.total_splits} ({pruned} pruned)")
            if access.rewrite_grouped is not None:
                lines.append("  rewrite: answered from index "
                             "(main job skipped)")
            elif access.header_states is not None:
                lines.append("  headers: inner region answered from "
                             "pre-computed aggregates")
                if access.pyramid_nodes or access.pyramid_leaves:
                    # Only emitted when the pyramid path ran, so flat
                    # header-path plan text (and every fingerprint built
                    # from it) is unchanged.
                    lines.append(f"  pyramid: levels={access.pyramid_levels}"
                                 f" nodes={access.pyramid_nodes}"
                                 f" leaves={access.pyramid_leaves}")
        else:
            lines.append("index: none (full scan)")
        lines.append(f"splits: {self.splits}")
        if self.delta_cells or self.delta_rows:
            # Only emitted when a delta is resident, so pre-streaming plan
            # text and fingerprints are unchanged.
            lines.append(f"delta: merge-on-read cells={self.delta_cells} "
                         f"rows={self.delta_rows}")
        if self.vectorized:
            # Only emitted when on, so the row engine's plan text (and
            # every fingerprint built from it) is unchanged.
            lines.append("vectorized: true")
        lines.append(f"shape: {self.shape}")
        return "\n".join(lines)

    def render_analyze(self) -> str:
        """Plan text plus the executed span tree (EXPLAIN ANALYZE body)."""
        text = self.render()
        if self.trace is not None:
            text = text + "\n" + self.trace.render()
        return text

    # ----------------------------------------------------------------- JSON
    def to_dict(self) -> Dict[str, Any]:
        """Scalar-only summary (stable, fingerprint- and JSON-friendly)."""
        access = self.access
        index: Optional[Dict[str, Any]] = None
        if access is not None:
            index = {
                "description": access.description,
                "handler": access.handler,
                "mode": access.mode,
                "inner_gfus": access.inner_gfus,
                "boundary_gfus": access.boundary_gfus,
                "splits_kept": len(access.splits),
                "splits_total": access.total_splits,
                "uses_headers": access.header_states is not None,
                "is_rewrite": access.rewrite_grouped is not None,
                "index_kv_gets": access.index_kv_gets,
                "index_records_scanned": access.index_records_scanned,
            }
            if access.layout is not None:
                # Only present with a replica fleet, so fleetless plan
                # dicts (and their fingerprints) are unchanged.
                index["layout"] = access.layout
            if access.pyramid_nodes or access.pyramid_leaves:
                # Only present when the pyramid path ran, so flat-path
                # plan dicts (and their fingerprints) are unchanged.
                index["pyramid_levels"] = access.pyramid_levels
                index["pyramid_nodes"] = access.pyramid_nodes
                index["pyramid_leaves"] = access.pyramid_leaves
        summary = {
            "table": self.table,
            "stored_as": self.stored_as,
            "shape": self.shape,
            "joins": self.joins,
            "splits": self.splits,
            "vectorized": self.vectorized,
            "index": index,
        }
        if self.delta_cells or self.delta_rows:
            summary["delta_cells"] = self.delta_cells
            summary["delta_rows"] = self.delta_rows
        return summary
