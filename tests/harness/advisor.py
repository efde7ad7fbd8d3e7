"""Advisor differential harness: tuning must never change answers.

The extension of :mod:`tests.harness.differential` for the workload-driven
divergent advisor (``repro.service.advisor``).  Three guarantees, each
proven byte-identically:

* **Observation is free.**  Attaching a :class:`~repro.service.querylog
  .QueryLog` to a session changes *no* observable of any query — rows,
  ``QueryStats`` (including simulated seconds), structured plans,
  normalized traces, global filesystem I/O and KV op counts are all
  byte-identical with and without the log.  Capture is pure bookkeeping:
  the region is computed from numbers the planner already has.

* **Advice is inert until routed.**  A session whose advisor has
  *applied* a report (replica layouts built) but whose queries are all
  pinned to the primary layout equals the fleetless baseline under
  :func:`advisor_view` — the projection that removes exactly the layout
  bookkeeping a fleet necessarily adds (the ``layout=`` plan annotations,
  the ``dgf.route`` span, and any ``advisor:*`` spans) plus global I/O
  (building replicas legitimately reads and writes bytes).  Everything
  else — rows, stats, simulated seconds, the rest of the trace — must
  match byte-for-byte.

* **Routing only relocates reads.**  The advised fleet with cost-based
  routing equals the pinned-primary run under
  :func:`~tests.harness.replicas.logical_view` — result columns/rows and
  output counts — because a specialist layout holds the same rows in a
  different organization (the replica-fleet guarantee of ISSUE 8, now
  reached through advisor-built layouts).
"""

from __future__ import annotations

import re
from dataclasses import asdict
from typing import Any, Dict, Sequence, Tuple

from repro.hive.session import HiveSession
from repro.service.advisor import Advisor

from tests.harness.differential import Workload, query_fingerprint

#: span names that exist only because a fleet / an advisor does
ROUTE_SPAN = "dgf.route"
ADVISOR_SPAN_PREFIX = "advisor:"

_LAYOUT_SUFFIX = re.compile(r" layout=\S+")
_LAYOUT_LINE = re.compile(r"^\s*layout: .*$\n?", re.MULTILINE)


def _scrub_layout_text(value: Any) -> Any:
    """Remove the ``layout=...`` annotations a fleet adds to plan text."""
    if not isinstance(value, str):
        return value
    return _LAYOUT_LINE.sub("", _LAYOUT_SUFFIX.sub("", value))


def strip_route_data(node: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of a span-document subtree without routing observability.

    Drops every child span named ``dgf.route`` or starting with
    ``advisor:``, recursively — the only spans the fleet/advisor layer
    adds to a query trace.  Applied to an advised run pinned to the
    primary, this recovers the byte-identical fleetless document.
    """
    node = dict(node)
    node["children"] = [strip_route_data(child)
                        for child in node["children"]
                        if child["name"] != ROUTE_SPAN
                        and not child["name"].startswith(
                            ADVISOR_SPAN_PREFIX)]
    return node


def advisor_view(fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    """The advised-vs-fleetless-comparable projection of a fingerprint.

    Keeps only the ``query:*`` entries (layout builds and the advisor's
    stats refresh legitimately change global I/O, KV op counts and job
    counts), scrubs the ``layout=`` text annotations from descriptions
    and structured plans, drops the plan's ``layout`` field, and strips
    ``dgf.route`` / ``advisor:*`` spans from traces.  Everything that
    survives — rows, every per-query stat, simulated seconds, the whole
    remaining trace — must be byte-identical.
    """
    view: Dict[str, Any] = {}
    for key, value in fingerprint.items():
        if not key.startswith("query:"):
            continue
        value = dict(value)
        value["description"] = _scrub_layout_text(value["description"])
        value["index_used"] = _scrub_layout_text(value["index_used"])
        plan = value.get("plan")
        if plan is not None:
            plan = dict(plan)
            index = plan.get("index")
            if index is not None:
                plan["index"] = {k: _scrub_layout_text(v)
                                 for k, v in index.items()
                                 if k != "layout"}
            value["plan"] = plan
        trace = value.get("trace")
        if trace is not None:
            trace = dict(trace)
            trace["root"] = strip_route_data(trace["root"])
            value["trace"] = trace
        view[key] = value
    return view


# --------------------------------------------------------------------- runner
def run_advised_workload(
        workload: Workload,
        prologue: Sequence[Tuple[str, Any]], *,
        observe: bool = True,
        apply: bool = False,
        max_layouts: int = 2) -> Tuple[Dict[str, Any], Advisor, Any]:
    """Replay one advised scenario in a fresh session.

    Build the workload's table and index, create an :class:`Advisor` for
    it, optionally attach the query log (``observe``), run the
    ``prologue`` queries (the workload the advisor learns from — run in
    *every* arm so the comparison isolates the advisor, not the
    prologue), optionally ``report()`` + ``apply()`` the divergent
    layouts, then run ``workload.queries`` and fingerprint them exactly
    like :func:`~tests.harness.differential.run_workload`.

    Returns ``(fingerprint, advisor, report)`` — ``report`` is None
    unless ``apply`` was requested.
    """
    if apply and not observe:
        raise ValueError("apply requires observe (the report needs a log)")
    session = HiveSession(num_datanodes=4)
    session.fs.block_size = workload.block_size
    session.execute(workload.ddl)
    rows = list(workload.rows)
    if rows:
        files = max(1, min(workload.load_files, len(rows)))
        chunk = -(-len(rows) // files)
        for start in range(0, len(rows), chunk):
            session.load_rows(workload.table, rows[start:start + chunk])
    if workload.index_sql:
        session.execute(workload.index_sql)

    advisor = Advisor(session, workload.table, workload.index_name,
                      max_layouts=max_layouts)
    if observe:
        advisor.observe()
    for sql, options in prologue:
        session.execute(sql, options)
    report = None
    if apply:
        report = advisor.report()
        advisor.apply(report)

    fingerprint: Dict[str, Any] = {}
    for position, (sql, options) in enumerate(workload.queries):
        result = session.execute(sql, options)
        fingerprint[f"query:{position}"] = query_fingerprint(result)
    fingerprint["fs_io"] = asdict(session.fs.io)
    fingerprint["kv_ops"] = asdict(session.kvstore.stats)
    fingerprint["jobs_run"] = session.engine.jobs_run
    return fingerprint, advisor, report
