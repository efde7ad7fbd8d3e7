"""Pyramid differential harness: pyramid on vs. off, byte-identical.

The extension of :mod:`tests.harness.differential` for the aggregation
pyramid (:mod:`repro.pyramid`): replay a workload with the pyramid built
and enabled and assert the observable outcome equals the flat-header run
*exactly* — result rows and row order, folded float aggregates, per-query
stats including the logical ``index_kv_gets`` and simulated cost-model
seconds, structured plans, global ``fs_io`` totals and ``jobs_run``, and
traces *modulo the pyramid observability layer* (the ``dgf.pyramid`` and
``pyramid:*`` spans, ``pyramid.*`` counters, the plan's ``pyramid_*``
fields and its ``  pyramid: ...`` text line are stripped before
comparison, exactly like vector data in the vector harness).

Unlike the vector harness, physical ``kv_ops`` are **dropped**: replacing
O(inner) header gets with O(log) node gets is the pyramid's whole point,
so physical op counts legitimately differ.  The *logical* ``kv.gets``
trace counters and ``index_kv_gets`` stats stay included — the pyramid
must replay the flat path's logical accounting exactly.

Three run modes are compared:

* **flat** — the pyramid is never built (the pre-pyramid baseline);
* **on**  — built via ``Workload.pyramid_fanout`` and used by default;
* **off** — built, but every query sets ``QueryOptions(dgf_pyramid=
  False)``; this mode must match the flat baseline *without* any
  stripping (building the pyramid may not perturb the disabled path).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

from repro.hive.session import QueryOptions
from repro.obs.trace import strip_pyramid_data

from tests.harness.differential import (Workload, _assert_same,
                                        run_workload)

#: prefix of the plan-text line the pyramid path adds (stripped).
_PLAN_LINE_PREFIX = "  pyramid: "


def _strip_query(value: Dict[str, Any]) -> Dict[str, Any]:
    """One query fingerprint, minus the pyramid observability layer."""
    value = dict(value)
    trace = value.get("trace")
    if trace is not None:
        trace = dict(trace)
        trace["root"] = strip_pyramid_data(trace["root"])
        value["trace"] = trace
    plan = value.get("plan")
    if plan is not None:
        plan = dict(plan)
        index = plan.get("index")
        if index is not None:
            index = dict(index)
            for key in ("pyramid_levels", "pyramid_nodes",
                        "pyramid_leaves"):
                index.pop(key, None)
            plan["index"] = index
        value["plan"] = plan
    description = value.get("description")
    if isinstance(description, str):
        value["description"] = "\n".join(
            line for line in description.split("\n")
            if not line.startswith(_PLAN_LINE_PREFIX))
    return value


def pyramid_view(fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    """The pyramid-comparable projection of a workload fingerprint.

    Drops physical ``kv_ops`` and the ``pyramid`` build summary, strips
    the pyramid layer out of every query entry (both the plain
    ``query:N`` keys and the streaming harness's ``phase:query:N``
    keys); everything else — including ``fs_io`` and the logical KV
    accounting — is kept and must match.
    """
    view: Dict[str, Any] = {}
    for key, value in fingerprint.items():
        if key in ("kv_ops", "pyramid"):
            continue
        if key.startswith("query:") or ":query:" in key:
            value = _strip_query(value)
        view[key] = value
    return view


def pyramid_off(workload: Workload) -> Workload:
    """The same workload with the pyramid built but disabled per query."""
    queries = tuple(
        (sql, replace(options, dgf_pyramid=False) if options is not None
         else QueryOptions(dgf_pyramid=False))
        for sql, options in workload.queries)
    return replace(workload, queries=queries)


def _flat_view(fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    """Comparison view for runs that never touch the pyramid read path:
    only the physical KV ops and the build summary may differ (the
    pyramid build itself performs puts)."""
    return {key: value for key, value in fingerprint.items()
            if key not in ("kv_ops", "pyramid")}


def assert_pyramid_equivalent(workload: Workload) -> Dict[str, Any]:
    """The ISSUE 10 differential contract for one workload.

    ``workload.pyramid_fanout`` must be set; the flat baseline is the
    same workload with it cleared.  Checks, in order:

    * pyramid **on** equals flat (pyramid view);
    * pyramid **built-but-disabled** equals flat byte-for-byte modulo
      physical KV ops — no stripping, proving ``dgf_pyramid=False``
      really is the flat path;
    * pyramid on with the GFU cache equals the same run without it
      (pyramid nodes ride the cache coherently);
    * the vectorized engine composes (vector view over pyramid view).

    Returns the flat baseline fingerprint (unprojected).
    """
    assert workload.pyramid_fanout, "workload must set pyramid_fanout"
    flat = run_workload(replace(workload, pyramid_fanout=None))
    baseline = pyramid_view(flat)
    cached = pyramid_view(run_workload(workload, cache=True))
    _assert_same(baseline, cached, "pyramid on")
    disabled = run_workload(pyramid_off(workload))
    _assert_same(_flat_view(flat), _flat_view(disabled),
                 "pyramid built but dgf_pyramid=False")
    uncached = pyramid_view(run_workload(workload, cache=False))
    _assert_same(uncached, cached, "pyramid cache=True")
    from tests.harness.vector import vector_view
    vec = run_workload(workload, vectorized=True)
    _assert_same(vector_view(baseline), vector_view(pyramid_view(vec)),
                 "pyramid vectorized")
    return flat
