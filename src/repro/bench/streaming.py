"""Multi-tenant streaming-traffic scenarios over the delta subsystem.

Each scenario replays one archetypal smart-grid traffic shape against a
:class:`~repro.service.queryservice.QueryService` whose table carries a
DGF index and an attached streaming-delta binding:

* ``steady_ingest``    — tenants trickle small insert batches around the
  clock while monitoring dashboards poll aggregate windows;
* ``billing_scan``     — month-end billing sweeps the whole grid with
  heavy aggregations while a thin residue of late ops is still resident;
* ``outage_backfill``  — a collector outage ends and the missed window
  arrives late as a burst of upserts over historical cells;
* ``tariff_hotspot``   — a tariff correction rewrites a handful of hot
  cells over and over (upserts + tombstones concentrated on few GFUs).

Every scenario measures the *reproduction's own* wall-clock for its
query battery twice — once with the delta resident (merge-on-read) and
once after the compactor folded it into the base — and reports the
resident/compacted latency overhead.  Row content is asserted identical
between the two states first (the DualTable contract: base+delta is a
physical layout, never a logical change), so the timings compare equal
answers.  With ``chaos=True`` the whole scenario — ingest, queries,
compaction — runs under a seeded :class:`~repro.faults.FaultPlan` and
the injection/recovery registries are recorded per scenario.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.experiments import ExpResult
from repro.delta import Compactor
from repro.errors import BenchmarkError
from repro.faults import FaultInjector, FaultPlan
from repro.hive.session import HiveSession
from repro.service.queryservice import QueryService

TABLE = "meterstream"
INDEX = "idxstream"
KEY_COLUMNS = ("userid", "ts")

#: base grid: 60 meters x 6 collection slots (userid cells 0..6 wide 10,
#: ts cells wide 2 — the test-suite policy at ~3x the row volume).
NUM_USERS = 60
NUM_SLOTS = 6

DDL = (f"CREATE TABLE {TABLE} (userid bigint, regionid int, ts bigint, "
       "powerconsumed double) STORED AS TEXTFILE")
INDEX_SQL = (f"CREATE INDEX {INDEX} ON TABLE {TABLE}(userid, ts) AS 'dgf' "
             "IDXPROPERTIES ('userid'='0_10', 'ts'='100_2', "
             "'precompute'='sum(powerconsumed),count(*)')")


def _power(user: int, slot: int) -> float:
    """Exact binary fractions so folded aggregates are bit-stable."""
    return ((user * 7 + slot) % 640) / 64.0


def base_rows() -> List[Tuple]:
    return [(u, u % 4, 100 + t, _power(u, t))
            for u in range(1, NUM_USERS + 1) for t in range(NUM_SLOTS)]


# ------------------------------------------------------------- traffic shapes
def _steady_ingest(rng: random.Random) -> List[Tuple[str, Tuple]]:
    """Fresh readings from every tenant for two new collection slots."""
    ops: List[Tuple[str, Tuple]] = []
    for slot in (NUM_SLOTS, NUM_SLOTS + 1):  # new ts labels: grid growth
        users = list(range(1, NUM_USERS + 1))
        rng.shuffle(users)  # arrival order is not key order
        ops.extend(("insert", (u, u % 4, 100 + slot, _power(u, slot)))
                   for u in users)
    return ops


def _billing_scan(rng: random.Random) -> List[Tuple[str, Tuple]]:
    """A thin residue of late corrections right before the billing run."""
    users = rng.sample(range(1, NUM_USERS + 1), 12)
    ops: List[Tuple[str, Tuple]] = [
        ("upsert", (u, u % 4, 100 + rng.randrange(NUM_SLOTS),
                    _power(u, NUM_SLOTS) ))
        for u in users[:8]]
    ops.extend(("delete", (u, 100 + rng.randrange(NUM_SLOTS)))
               for u in users[8:])
    return ops


def _outage_backfill(rng: random.Random) -> List[Tuple[str, Tuple]]:
    """Collectors for two regions come back and re-send a whole slot."""
    outage_slot = NUM_SLOTS // 2
    users = [u for u in range(1, NUM_USERS + 1) if u % 4 in (1, 2)]
    rng.shuffle(users)
    return [("upsert", (u, u % 4, 100 + outage_slot,
                        _power(u, outage_slot) + 8 / 64.0))
            for u in users]


def _tariff_hotspot(rng: random.Random) -> List[Tuple[str, Tuple]]:
    """A tariff correction hammers three hot meters, slot by slot, with
    a final disconnect tombstoning one of them."""
    hot = rng.sample(range(1, NUM_USERS + 1), 3)
    ops: List[Tuple[str, Tuple]] = []
    for _pass in range(4):
        for u in hot:
            slot = rng.randrange(NUM_SLOTS)
            ops.append(("upsert", (u, u % 4, 100 + slot,
                                   _power(u, slot) + _pass / 64.0)))
    ops.extend(("delete", (hot[0], 100 + t)) for t in range(NUM_SLOTS))
    return ops


# ---------------------------------------------------------------- batteries
_MONITORING = (
    "SELECT sum(powerconsumed), count(*) FROM {t} "
    "WHERE userid >= 10 AND userid < 40 AND ts >= 100 AND ts < 108",
    "SELECT count(*) FROM {t} WHERE regionid = 2",
)
_BILLING = (
    "SELECT regionid, sum(powerconsumed), count(*) FROM {t} "
    "WHERE userid >= 0 AND userid < 70 GROUP BY regionid",
    "SELECT avg(powerconsumed) FROM {t} "
    "WHERE userid >= 0 AND userid < 70 AND ts >= 100 AND ts < 110",
)
_BACKFILL = (
    "SELECT sum(powerconsumed), count(*) FROM {t} "
    "WHERE userid >= 0 AND userid < 70 AND ts >= 103 AND ts < 104",
    "SELECT regionid, count(*) FROM {t} "
    "WHERE ts >= 103 AND ts < 104 GROUP BY regionid",
)
_HOTSPOT = (
    "SELECT userid, ts, powerconsumed FROM {t} "
    "WHERE userid >= 0 AND userid < 70 AND powerconsumed >= 9.0 "
    "ORDER BY userid, ts",
    "SELECT count(*) FROM {t}",
)

SCENARIOS: Tuple[Tuple[str, Callable, Tuple[str, ...]], ...] = (
    ("steady_ingest", _steady_ingest, _MONITORING),
    ("billing_scan", _billing_scan, _BILLING),
    ("outage_backfill", _outage_backfill, _BACKFILL),
    ("tariff_hotspot", _tariff_hotspot, _HOTSPOT),
)


# ------------------------------------------------------------------- running
def _battery_seconds(service: QueryService, queries: Sequence[str],
                     rounds: int) -> Tuple[float, List[List[Tuple]]]:
    """Best-of-rounds wall-clock of the whole battery submitted
    concurrently (the multi-tenant read side), plus its row sets."""
    statements = [sql.format(t=TABLE) for sql in queries]
    best = float("inf")
    rows: List[List[Tuple]] = []
    for _ in range(rounds):
        started = time.perf_counter()
        results = service.run_all(statements)
        best = min(best, time.perf_counter() - started)
        rows = [list(r.rows) for r in results]
    return best, rows


def _run_scenario(name: str, traffic: Callable, queries: Sequence[str],
                  plan: Optional[FaultPlan], rounds: int,
                  seed: int, workers: int) -> Dict[str, Any]:
    injector = FaultInjector(plan) if plan is not None else None
    session = HiveSession(num_datanodes=4, faults=injector)
    session.fs.block_size = 2048
    session.execute(DDL)
    session.load_rows(TABLE, base_rows())
    session.execute(INDEX_SQL)
    if injector is not None:
        injector.activate_datanode_faults(session.fs)

    ops = traffic(random.Random(seed))
    with QueryService(session, max_workers=workers,
                      queue_depth=max(len(queries), 4)) as service:
        writer = service.streaming_writer(
            TABLE, INDEX, key_columns=list(KEY_COLUMNS), batch_size=16)
        started = time.perf_counter()
        for kind, payload in ops:
            getattr(writer, kind)([payload])
        writer.flush()
        ingest_seconds = time.perf_counter() - started

        binding = session.delta_binding(TABLE)
        resident_ops = binding.resident_ops
        resident_cells = len(binding.resident_cells)
        resident_s, resident_rows = _battery_seconds(service, queries,
                                                     rounds)
        report = Compactor(binding).run()
        compacted_s, compacted_rows = _battery_seconds(service, queries,
                                                       rounds)

    if resident_rows != compacted_rows:
        raise BenchmarkError(
            f"{name}: compaction changed row content — merge-on-read and "
            "the folded base disagree")
    metrics: Dict[str, Any] = {
        "ops": len(ops),
        "ingest_ops_per_s": len(ops) / ingest_seconds,
        "resident_ops": resident_ops,
        "resident_cells": resident_cells,
        "resident_s": resident_s,
        "compacted_s": compacted_s,
        "overhead": resident_s / compacted_s,
        "compaction": {"folded_rows": report.folded_rows,
                       "rewritten_cells": report.rewritten_cells,
                       "suppressed_rows": report.suppressed_rows,
                       "dead_bytes": report.dead_bytes},
    }
    if injector is not None:
        metrics["faults"] = {
            "injected": dict(injector.registry.injected_counts()),
            "recovered": dict(injector.registry.recovery_counts()),
        }
    return metrics


def streaming_scenarios(rounds: int = 3, workers: int = 4,
                        chaos: bool = True, seed: int = 0) -> ExpResult:
    """Replay all four traffic shapes; see the module docstring."""
    plan = FaultPlan(seed=seed, task_crash_rate=0.2,
                     task_straggler_rate=0.15, kv_timeout_rate=0.1,
                     dead_datanodes=(2,)) if chaos else None
    rows: List[Tuple] = []
    data: Dict[str, Any] = {}
    for position, (name, traffic, queries) in enumerate(SCENARIOS):
        metrics = _run_scenario(name, traffic, queries, plan, rounds,
                                seed=seed + position, workers=workers)
        data[name] = metrics
        rows.append((name, metrics["ops"], metrics["resident_ops"],
                     round(metrics["resident_s"] * 1000.0, 1),
                     round(metrics["compacted_s"] * 1000.0, 1),
                     round(metrics["overhead"], 2),
                     metrics["compaction"]["folded_rows"],
                     metrics["compaction"]["rewritten_cells"]))
    return ExpResult(
        exp_id="streaming-scenarios",
        title="Multi-tenant streaming traffic: delta-resident vs compacted",
        headers=["scenario", "ops", "resident", "resident ms",
                 "compacted ms", "overhead", "folded rows",
                 "rewritten cells"],
        rows=rows,
        notes=(f"best of {rounds} concurrent battery rounds per state; "
               "identical rows asserted resident vs compacted"
               + ("; whole scenario under a seeded fault plan"
                  if chaos else "")),
        data={"scenarios": data, "rounds": rounds, "workers": workers,
              "chaos": chaos})
