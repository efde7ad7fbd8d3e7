"""Chaos differential harness: faults on vs. faults off, byte-identical.

The extension of :mod:`tests.harness.differential` for ISSUE 5: replay a
workload under a seeded :class:`~repro.faults.FaultPlan` (task crashes,
stragglers, a dead datanode, KV timeouts) and assert the observable outcome
equals the fault-free run *exactly* — result rows and row order, folded
float aggregates, per-query stats including simulated cost-model seconds,
structured plans, and traces *modulo fault spans* (the ``fault:*`` event
spans and ``fault.*`` counters are stripped before comparison; everything
else in the trace must match byte-for-byte).

Two fingerprint deltas versus the plain differential harness:

* ``fs_io`` is excluded — crashed and speculative map attempts re-read
  their input, so global byte totals legitimately grow under faults.
* physical ``kv_ops`` stay **included** — injected timeouts fire *before*
  the physical operation and reduce attempts crash before their first put,
  so recovery never changes what the store actually performed.

The harness also returns the run's :class:`~repro.faults.FaultRegistry`
so tests can assert the faults demonstrably fired (nonzero injected and
recovery counts) and reconcile the simulated recovery overhead.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.faults import FaultInjector, FaultPlan, FaultRegistry
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import Job
from repro.obs.trace import strip_fault_data

from tests.harness.differential import (Workload, _assert_same,
                                        job_fingerprint, run_workload)


def chaos_view(fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    """The chaos-comparable projection of a workload fingerprint.

    Drops ``fs_io`` (re-executed attempts re-read bytes) and strips the
    fault observability layer out of every query trace; all other entries
    — including physical KV op counts and simulated times — must match
    the fault-free baseline exactly.
    """
    view: Dict[str, Any] = {}
    for key, value in fingerprint.items():
        if key == "fs_io":
            continue
        if key.startswith("query:"):
            value = dict(value)
            trace = value.get("trace")
            if trace is not None:
                trace = dict(trace)
                trace["root"] = strip_fault_data(trace["root"])
                value["trace"] = trace
        view[key] = value
    return view


def assert_chaos_equivalent(
        workload: Workload, plan: FaultPlan
        ) -> Tuple[Dict[str, Any], FaultRegistry]:
    """Replay ``workload`` fault-free, then under ``plan``; the chaos view
    must equal the fault-free baseline.

    Returns ``(baseline_view, registry)`` — the chaos run's registry, for
    fault/recovery count assertions by the caller.
    """
    baseline = chaos_view(run_workload(workload))
    injector = FaultInjector(plan)
    fingerprint = run_workload(workload, faults=injector)
    _assert_same(baseline, chaos_view(fingerprint), "chaos")
    return baseline, injector.registry


def assert_job_chaos_equivalent(
        make_fs_and_job: Callable[[], Tuple[Any, Job]], plan: FaultPlan
        ) -> Tuple[Dict[str, Any], FaultRegistry]:
    """Raw-job analogue: one MapReduce job, faults on vs. off.

    ``make_fs_and_job`` must build a fresh filesystem + job per call.
    Job fingerprints carry no trace and no global ``fs_io``, so they are
    compared whole.  Returns ``(baseline_fingerprint, registry)``.
    """
    fs, job = make_fs_and_job()
    baseline = job_fingerprint(MapReduceEngine(fs).run(job))
    fs, job = make_fs_and_job()
    injector = FaultInjector(plan)
    if plan.dead_datanodes:
        # Job inputs are written by make_fs_and_job before the engine
        # runs, so killing now still forces read-path failover.
        fs.faults = injector
        injector.activate_datanode_faults(fs)
    engine = MapReduceEngine(fs, faults=injector)
    candidate = job_fingerprint(engine.run(job))
    _assert_same(baseline, candidate, "chaos")
    return baseline, injector.registry
