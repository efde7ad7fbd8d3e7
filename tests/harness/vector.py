"""Row-vs-vector differential harness: columnar execution, byte-identical.

The extension of :mod:`tests.harness.differential` for the vectorized
engine: replay a workload on a ``vectorized=True`` session and assert the
observable outcome equals the row engine's run *exactly* — result rows and row order, folded float
aggregates, per-query stats including simulated cost-model seconds,
structured plans, global ``fs_io`` / ``kv_ops`` totals, and traces
*modulo the vector observability layer* (the ``vectorized`` span
attribute, ``vector.*`` counters, the plan's ``vectorized`` flag and its
``vectorized: true`` text line are stripped before comparison, exactly
like ``fault:*`` data in the chaos harness; everything else must match
byte-for-byte).

Unlike the chaos harness, ``fs_io`` stays **included**: the batch
decoders are required to issue the row readers' exact pread sequences,
so even global byte/seek totals may not drift.

:func:`assert_vector_chaos_equivalent` composes both layers — a seeded
:class:`~repro.faults.FaultPlan` under the vectorized engine must match
the same plan under the row engine (crashed attempts always replay on
the row path, so per-record crash timing is preserved).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.faults import FaultInjector, FaultPlan, FaultRegistry
from repro.obs.trace import strip_vector_data

from tests.harness.chaos import chaos_view
from tests.harness.differential import (Workload, _assert_same,
                                        run_workload)

#: the plan-text line the vector engine adds (stripped for comparison).
_PLAN_LINE = "\nvectorized: true"


def vector_view(fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    """The vector-comparable projection of a workload fingerprint.

    Strips the vector observability layer out of every query entry:
    ``vector.*`` trace counters and the ``vectorized`` span attribute
    (:func:`~repro.obs.trace.strip_vector_data`), the structured plan's
    ``vectorized`` flag, and the ``vectorized: true`` description line.
    Everything else — including ``fs_io`` — is kept and must match.
    """
    view: Dict[str, Any] = {}
    for key, value in fingerprint.items():
        if key.startswith("query:"):
            value = dict(value)
            trace = value.get("trace")
            if trace is not None:
                trace = dict(trace)
                trace["root"] = strip_vector_data(trace["root"])
                value["trace"] = trace
            plan = value.get("plan")
            if plan is not None:
                plan = dict(plan)
                plan.pop("vectorized", None)
                value["plan"] = plan
            description = value.get("description")
            if isinstance(description, str):
                value["description"] = description.replace(_PLAN_LINE, "")
        view[key] = value
    return view


def assert_vector_equivalent(workload: Workload) -> Dict[str, Any]:
    """Replay ``workload`` on the row engine, then vectorized; the vector
    view must equal the row baseline.

    Returns the row-engine baseline view.
    """
    baseline = vector_view(run_workload(workload))
    fingerprint = run_workload(workload, vectorized=True)
    _assert_same(baseline, vector_view(fingerprint), "vectorized")
    return baseline


def assert_vector_chaos_equivalent(
        workload: Workload, plan: FaultPlan
        ) -> Tuple[Dict[str, Any], FaultRegistry]:
    """Chaos overlap: the vectorized engine under a seeded fault plan must
    match the row engine under the *same* plan.

    Both runs strip fault data (and drop ``fs_io`` — crashed attempts
    re-read input) exactly like the chaos harness, plus the vector layer;
    the injected-fault and recovery registries must also agree, proving
    vectorization changed neither what was injected nor how recovery ran.

    Returns ``(baseline_view, registry)`` of the row+faults run.
    """
    injector = FaultInjector(plan)
    baseline = chaos_view(vector_view(run_workload(
        workload, faults=injector)))
    base_registry = injector.registry
    injector = FaultInjector(plan)
    fingerprint = run_workload(workload, vectorized=True, faults=injector)
    _assert_same(baseline, chaos_view(vector_view(fingerprint)),
                 "vectorized+chaos")
    registry = injector.registry
    assert registry.injected_counts() == base_registry.injected_counts(), (
        f"vectorization changed fault injection: "
        f"{registry.injected_counts()} != "
        f"{base_registry.injected_counts()}")
    assert registry.recovery_counts() == base_registry.recovery_counts()
    assert registry.backoff_seconds == base_registry.backoff_seconds
    return baseline, base_registry
