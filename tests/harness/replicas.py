"""Replica-fleet differential harness: every layout, byte-identical.

The extension of :mod:`tests.harness.differential` for ISSUE 8: a
workload whose DGF index carries a multi-layout replica fleet
(:mod:`repro.core.dgf.fleet`) is replayed once per *layout choice* —
``"primary"``, each registered layout forced via
``QueryOptions(dgf_layout=...)``, and ``None`` for cost-based routing —
and each choice is proven byte-identical across the row and vectorized
engines, exactly like the earlier differential suites.

Across *different* layout choices, physical observables legitimately
diverge — that is the whole point of a fleet (a finer grid prunes more
splits, reads fewer bytes, probes more cells).  What must still agree is
everything the *query* can observe: :func:`logical_view` projects a
fingerprint down to result columns/rows and the logical match counters
(``records_matched``, ``output_records``), and the harness asserts those
byte-identical across every layout choice.  For float aggregates that
identity is honest, not approximate: workloads built with
:func:`dyadic_rows` draw ``powerconsumed`` from exact binary fractions
(k/64) whose sums stay well inside 2^53, so floating-point addition over
them is exact and therefore order-independent — no fold-order tolerance
is ever needed.  Scan queries canonicalize row order with ``ORDER BY``
over a unique key, since unordered physical row order is a property of
the layout being scanned (as in real Hive).

Chaos composes through :func:`assert_layout_chaos_equivalent`: a
:class:`~repro.faults.FaultSpec` kills a pinned datanode at the start of
a query's own MapReduce job (a deterministic mid-query point), the
session replans onto the surviving layouts, and
the run must equal — modulo ``fault:*`` spans/counters, ``fs_io``,
``kv_ops`` and ``jobs_run``, all of which the aborted attempt legitimately
touched — the same workload with that datanode dead before the first
query.
"""

from __future__ import annotations

import dataclasses
import datetime
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.faults import FaultInjector, FaultPlan, FaultRegistry
from repro.hdfs.layout import PRIMARY_LAYOUT
from repro.hive.session import QueryOptions

from tests.harness.chaos import chaos_view
from tests.harness.differential import (LayoutSpec, Workload, _assert_same,
                                        run_workload)
from tests.harness.vector import vector_view

# ------------------------------------------------------------------ workloads
def dyadic_rows(num_users: int = 120, num_days: int = 6, seed: int = 11,
                num_regions: int = 5) -> Tuple[Tuple, ...]:
    """Meter-shaped rows whose float column is *exact* in binary.

    ``powerconsumed`` is k/64 with k < 3200: every value, every partial
    sum and every total is exactly representable, so float addition over
    them is associative and the fold order imposed by a layout's physical
    row order cannot perturb a single bit of any aggregate.
    """
    rng = random.Random(seed)
    regions = [rng.randrange(num_regions) for _ in range(num_users)]
    rows = []
    start = datetime.date(2012, 12, 1)
    for day in range(num_days):
        ts = (start + datetime.timedelta(days=day)).isoformat()
        for user in range(num_users):
            rows.append((user, regions[user], ts,
                         rng.randrange(0, 3200) / 64))
    return tuple(rows)


def forced(workload: Workload, layout: Optional[str]) -> Workload:
    """The workload with every query pinned to one layout choice.

    ``layout`` is a layout name, :data:`PRIMARY_LAYOUT`, or None to keep
    the router's cost-based choice.
    """
    if layout is None:
        return workload
    queries = tuple(
        (sql, dataclasses.replace(options or QueryOptions(),
                                  dgf_layout=layout))
        for sql, options in workload.queries)
    return dataclasses.replace(workload, queries=queries)


def layout_choices(workload: Workload) -> List[Optional[str]]:
    """Every choice the differential sweep covers: routed, primary, and
    each fleet member by name."""
    return [None, PRIMARY_LAYOUT] + [spec.name for spec in workload.layouts]


# ---------------------------------------------------------------- projections
def logical_view(fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    """The cross-layout-comparable projection of a workload fingerprint.

    Keeps, per query, exactly what is independent of the physical
    organization being scanned: the result schema and rows, and the
    output row count.  Physical stats (bytes read, splits pruned, KV
    probes, simulated seconds — even ``records_matched``, which one
    layout may answer from pre-computed headers without scanning at all)
    and traces are *supposed* to differ between layouts — they are
    compared only within one layout choice, where full byte-identity
    holds.
    """
    view: Dict[str, Any] = {}
    for key, value in fingerprint.items():
        if key.startswith("query:"):
            view[key] = {
                "columns": value["columns"],
                "rows": value["rows"],
                "output_records": value["output_records"],
            }
    return view


def replica_chaos_view(fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    """The layout-failover-comparable projection.

    :func:`~tests.harness.chaos.chaos_view` minus ``kv_ops`` and
    ``jobs_run``: a mid-query layout downgrade abandons one planned
    attempt wholesale, and that attempt already issued real KV probes and
    started a real job before dying — unlike PR 4's pre-op fault points,
    which fire before the physical operation.  Everything else, including
    every per-query stat and simulated second of the *surviving* attempt,
    must match the dead-from-the-start baseline byte-for-byte.
    """
    view = chaos_view(fingerprint)
    view.pop("kv_ops", None)
    view.pop("jobs_run", None)
    return view


def chosen_layout(fingerprint: Dict[str, Any], position: int) -> Optional[str]:
    """The layout the plan of query ``position`` records (None = no fleet
    or full scan)."""
    plan = fingerprint[f"query:{position}"].get("plan")
    if not plan:
        return None
    index = plan.get("index") or {}
    return index.get("layout")


# ----------------------------------------------------------------- assertions
def assert_replica_equivalent(
        workload: Workload,
        vectorized: bool = True) -> Dict[Optional[str], Dict[str, Any]]:
    """The full ISSUE 8 sweep for one workload.

    For every layout choice (routed + primary + each fleet member): the
    row-engine baseline, byte-identical to the vectorized engine modulo
    the vector observability layer.  Across choices: byte-identical
    :func:`logical_view`, and every forced query's plan must record the
    layout it was pinned to.  Returns the baseline fingerprint per
    choice (``None`` key = routed) for extra assertions by the caller.
    """
    baselines: Dict[Optional[str], Dict[str, Any]] = {}
    for choice in layout_choices(workload):
        pinned = forced(workload, choice)
        baseline = run_workload(pinned)
        baselines[choice] = baseline
        if choice is not None:
            for position in range(len(workload.queries)):
                recorded = chosen_layout(baseline, position)
                if recorded is not None:
                    assert recorded == choice, (
                        f"query {position} pinned to {choice!r} but the "
                        f"plan recorded layout {recorded!r}")
        if vectorized:
            candidate = run_workload(pinned, vectorized=True)
            _assert_same(vector_view(baseline), vector_view(candidate),
                         f"layout={choice} vectorized")

    routed = logical_view(baselines[None])
    for choice, baseline in baselines.items():
        if choice is None:
            continue
        _assert_same(routed, logical_view(baseline),
                     f"logical view of layout={choice}")
    return baselines


def assert_layout_chaos_equivalent(
        workload: Workload, plan: FaultPlan, dead_datanodes: Sequence[int]
        ) -> Tuple[Dict[str, Any], FaultRegistry]:
    """Mid-query layout failover equals planned-around-the-outage.

    ``plan`` must schedule :data:`~repro.faults.plan.DATANODE_DEAD` specs
    that kill ``dead_datanodes`` at some query job's start; the baseline
    run kills the same datanodes after data/index/fleet placement but
    *before* the first query (via a plain ``dead_datanodes`` plan), so
    its router never sees the doomed layout alive.  The chaos run's
    :func:`replica_chaos_view` must equal the baseline's.  Returns
    ``(baseline_view, registry)`` — the chaos run's registry, so callers
    can assert the downgrade demonstrably fired.
    """
    baseline_plan = FaultPlan(seed=plan.seed,
                              dead_datanodes=tuple(dead_datanodes))
    baseline = replica_chaos_view(
        run_workload(workload, faults=FaultInjector(baseline_plan)))
    injector = FaultInjector(plan)
    fingerprint = run_workload(workload, faults=injector)
    _assert_same(baseline, replica_chaos_view(fingerprint), "layout chaos")
    return baseline, injector.registry
