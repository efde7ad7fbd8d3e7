"""Benchmark: the vectorized engine's wall-clock win, recorded as the
first ``BENCH_*.json`` perf-trajectory file.

Measures the Fig. 8–10 aggregation and TPC-H Q6 scan workloads at the
labs' full default scale (80k meter readings, 12k orders), row engine vs
a ``vectorized=True`` session, via
``repro.bench.experiments.vectorized_speedup``.  Two quantities per
workload:

* **scan pipeline** — the map-side filter+aggregate hot path on
  identical pre-decoded inputs (the per-record CPU cost HAIL identifies
  as dominant once split pruning has done its job; exactly what the
  batch kernels replace).  Asserted **>= 10x**.
* **end to end** — full ``session.execute`` wall-clock, which also pays
  parse/plan/decode/shuffle/trace costs common to both engines.
  Asserted >= the conservative ``E2E_FLOOR`` (observed 6–10x; a hard
  10x here would flake on loaded CI machines since decode is shared).

Rows and full ``QueryStats`` are asserted byte-identical inside the
experiment before any timing is trusted.  The measured trajectory is
written to ``BENCH_vectorized.json`` at the repo root — one entry per
day, so later PRs extend the series and must defend the baseline.
"""

import json
import time
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro.bench import experiments as exps
from repro.bench.lab import MeterLab, TpchLab

pytestmark = pytest.mark.slow

# the tentpole claim: the per-record hot path is 10x-class
PIPELINE_SPEEDUP_FLOOR = 10.0
# end-to-end keeps decode + fixed engine costs on both sides; assert a
# regression-catching floor rather than a flake-prone point estimate
E2E_FLOOR = 3.0

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_vectorized.json"


@pytest.fixture(scope="module")
def speedup_experiment():
    return exps.vectorized_speedup(MeterLab(), TpchLab())


def test_scan_pipeline_speedup_at_least_10x(speedup_experiment):
    for label, metrics in speedup_experiment.data["workloads"].items():
        speedup = metrics["scan_pipeline"]["speedup"]
        assert speedup >= PIPELINE_SPEEDUP_FLOOR, (
            f"{label}: scan pipeline only {speedup:.1f}x "
            f"(row {metrics['scan_pipeline']['row_s']*1000:.1f} ms vs "
            f"vector {metrics['scan_pipeline']['vectorized_s']*1000:.2f} ms)")


def test_end_to_end_speedup_floor(speedup_experiment):
    for label, metrics in speedup_experiment.data["workloads"].items():
        speedup = metrics["end_to_end"]["speedup"]
        assert speedup >= E2E_FLOOR, (
            f"{label}: end-to-end only {speedup:.1f}x "
            f"(row {metrics['end_to_end']['row_s']*1000:.0f} ms vs "
            f"vector {metrics['end_to_end']['vectorized_s']*1000:.0f} ms)")


def test_recorded_in_report(speedup_experiment):
    assert speedup_experiment.exp_id == "vectorized-speedup"
    rendered = speedup_experiment.markdown()
    assert "tpch q6" in rendered and "meter agg" in rendered


def test_writes_trajectory_file(speedup_experiment):
    """Record the run in BENCH_vectorized.json (one entry per day —
    re-runs on the same day replace that day's entry, so the committed
    trajectory grows one point per revision, not per invocation)."""
    if BENCH_PATH.exists():
        document = json.loads(BENCH_PATH.read_text())
    else:
        document = {"bench": "vectorized", "schema_version": 1,
                    "unit": "seconds (wall-clock, best of rounds)",
                    "trajectory": []}
    entry = {
        "date": time.strftime("%Y-%m-%d"),
        "rounds": speedup_experiment.data["rounds"],
        "workloads": speedup_experiment.data["workloads"],
    }
    trajectory = [e for e in document["trajectory"]
                  if e["date"] != entry["date"]]
    trajectory.append(entry)
    document["trajectory"] = trajectory
    BENCH_PATH.write_text(json.dumps(document, indent=2, sort_keys=True)
                          + "\n")
    assert json.loads(BENCH_PATH.read_text())["trajectory"][-1]["workloads"]
