"""Self-tests of the benchmark itself (not of the program).

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import END, OP, START, Tracer

ROOT = os.path.dirname(run.HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCH = json.load(handle)


def test_benchmark_json_names_what_run_prints():
    assert [w["name"] for w in BENCH["workloads"]] == list(
        workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCH["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric(name, trace):
    result = run.measure(name, seed=3, seconds=0.6, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for spec in expected:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, spec["name"]
    json.dumps(result)


def test_checker_flags_a_perturbed_result(monkeypatch):
    from repro.hive.session import HiveSession
    original = HiveSession.execute

    def perturbed(self, sql, options=None):
        result = original(self, sql, options)
        if sql.startswith("SELECT sum(v)"):
            total, count = result.rows[0]
            result.rows = [(total * (1 + 1e-5), count)]
        return result

    workload = workloads.GridAgg(seed=5, tiny=True)
    conn, _parts = workload.setup()
    monkeypatch.setattr(HiveSession, "execute", perturbed)
    phase = workload.run(conn, 0.3, workloads.NullTracer())
    conn.close()
    assert phase.attempted > 0
    assert phase.failed == phase.attempted


def test_rows_match_semantics():
    join = [("user_00000001", 1.5), ("user_00000002", 2.25)]
    assert workloads.rows_match(join, list(reversed(join)))
    assert not workloads.rows_match(join, join[:1])
    assert not workloads.rows_match(join, join + join[:1])
    assert workloads.rows_match([(1e6, 3)], [(1e6 * (1 + 1e-8), 3)])
    assert not workloads.rows_match([(1e6, 3)], [(1e6 * (1 + 1e-5), 3)])
    assert not workloads.rows_match([(1e6, 3)], [(1e6, 4)])
    assert workloads.rows_match([(None, 0)], [(None, 0)])
    assert not workloads.rows_match([(None,)], [(0.0,)])


@pytest.mark.parametrize("name", ["mdrq_mix", "point_lookup", "ingest"])
def test_span_self_times_add_up_to_each_root(name):
    workload = workloads.WORKLOADS[name](seed=7, tiny=True)
    conn, _parts = workload.setup()
    tracer = Tracer()
    tracer.install()
    try:
        workload.run(conn, 0.4, tracer)
    finally:
        tracer.remove()
    conn.close()
    own = tracer.self_times()
    assert tracer.roots
    for op, root in tracer.roots.items():
        total = sum(t for span, t in zip(tracer.spans, own) if span[OP] == op)
        duration = tracer.spans[root][END] - tracer.spans[root][START]
        assert total == pytest.approx(duration, rel=1e-9, abs=1e-9)
    # children nest inside their parent: no span has negative self time
    assert min(own) > -1e-6


def test_tracer_removes_every_wrapper():
    from repro import api
    from repro.hive.session import HiveSession
    from repro.kvstore.hbase import KVStore

    def entry_points():
        return HiveSession.execute, KVStore.get, api.bind_parameters
    before = entry_points()
    tracer = Tracer()
    tracer.install()
    assert all(now is not then
               for now, then in zip(entry_points(), before))
    tracer.remove()
    assert entry_points() == before


def test_same_seed_same_simulated_seconds_and_space():
    first = workloads.MdrqMix(seed=9, tiny=True)
    second = workloads.MdrqMix(seed=9, tiny=True)
    phases = []
    for workload in (first, second):
        conn, _parts = workload.setup()
        phase = workload.run(conn, 0.5, workloads.NullTracer())
        phases.append((phase.sims, workloads.space_ratio(conn, "meterdata")))
        conn.close()
    common = min(len(phases[0][0]), len(phases[1][0]))
    assert common > 0
    assert phases[0][0][:common] == phases[1][0][:common]
    assert phases[0][1] == phases[1][1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mdrq_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
