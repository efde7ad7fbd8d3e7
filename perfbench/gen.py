"""Seeded inputs: meter rows, the user archive, the 2-D grid and queries.

Everything the program under test receives is produced here from the
``--seed`` argument: rows as plain tuples and statements as SQL text.  The
generator shares no code with ``src/`` so a change to the program's own
data generators cannot move the benchmark's inputs.
"""

from __future__ import annotations

import datetime
import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

START = datetime.date(2012, 12, 1)
NUM_REGIONS = 11

METER_DDL = (
    "CREATE TABLE meterdata (userid bigint, regionid int, ts date, "
    "powerconsumed double, pate_rate1 double, pate_rate2 double, "
    "pate_rate3 double, pate_rate4 double, rate_rate1 double, "
    "rate_rate2 double, rate_rate3 double, rate_rate4 double, "
    "voltage double, current double, powerfactor double, "
    "meterstatus int, collectorid int) STORED AS TEXTFILE")
USERINFO_DDL = (
    "CREATE TABLE userinfo (userid bigint, username string, regionid int, "
    "address string, tariffclass int, installdate date) STORED AS TEXTFILE")
GRID_DDL = ("CREATE TABLE cells (userid bigint, ts bigint, v double) "
            "STORED AS TEXTFILE")


def day(offset: int) -> str:
    return (START + datetime.timedelta(days=offset)).isoformat()


def date_offset(ts: str) -> int:
    return (datetime.date.fromisoformat(ts) - START).days


@dataclass(frozen=True)
class MeterShape:
    """The meter table's size: the paper's 3-D shape, scaled down (one
    daily reading per meter, as in the paper's experiments)."""

    users: int = 2000
    days: int = 10
    readings: int = 1
    #: userid cell width of the 3-D index (the *medium* interval case:
    #: 100 userid intervals)
    user_interval: int = 20

    def index_ddl(self) -> str:
        return ("CREATE INDEX dgf_idx ON TABLE meterdata"
                "(userid, regionid, ts) AS 'dgf' IDXPROPERTIES ("
                f"'userid'='0_{self.user_interval}', 'regionid'='0_1', "
                f"'ts'='{day(0)}_1d', "
                "'precompute'='sum(powerconsumed),count(*)')")


class MeterData:
    """Meter readings in collection order plus the user archive."""

    def __init__(self, shape: MeterShape, seed: int):
        self.shape = shape
        self.seed = seed
        rng = random.Random(f"meter-users-{seed}")
        self.region = [rng.randrange(NUM_REGIONS) for _ in range(shape.users)]
        self.base_load = [abs(rng.gauss(12.0, 6.0)) + 0.5
                          for _ in range(shape.users)]
        self.user_rows = [
            (u, f"user_{u:08d}", self.region[u],
             f"{rng.randint(1, 999)} Grid Road District {self.region[u]}",
             rng.randint(1, 4),
             (datetime.date(2008, 1, 1)
              + datetime.timedelta(days=rng.randint(0, 1500))).isoformat())
            for u in range(shape.users)]

    def day_rows(self, d: int) -> List[Tuple]:
        """All readings of day ``d`` (any d >= 0: the stream never ends)."""
        rng = random.Random(f"meter-day-{self.seed}-{d}")
        ts = day(d)
        rows = []
        for _ in range(self.shape.readings):
            for u in range(self.shape.users):
                base = self.base_load[u]
                used = round(max(0.0, rng.gauss(base, base * 0.25)), 2)
                rows.append((
                    u, self.region[u], ts, used,
                    round(used * 0.45, 2), round(used * 0.25, 2),
                    round(used * 0.2, 2), round(used * 0.1, 2),
                    round(rng.uniform(0.0, 0.3), 2),
                    round(rng.uniform(0.0, 0.3), 2),
                    round(rng.uniform(0.0, 0.3), 2),
                    round(rng.uniform(0.0, 0.3), 2),
                    round(rng.uniform(218.0, 242.0), 1),
                    round(rng.uniform(0.1, 40.0), 2),
                    round(rng.uniform(0.85, 1.0), 3),
                    0 if rng.random() > 0.001 else 1,
                    u % 977))
        return rows


# ------------------------------------------------------------------ queries
@dataclass(frozen=True)
class RangeQuery:
    """One MDRQ: half-open user range, inclusive region and day ranges."""

    kind: str            # agg | groupby | join
    users: Tuple[int, int]
    regions: Tuple[int, int]
    days: Tuple[int, int]
    point: bool = False

    def where(self, prefix: str = "") -> str:
        p = prefix
        if self.point:
            return (f"{p}regionid >= {self.regions[0]} AND "
                    f"{p}regionid <= {self.regions[1]} AND "
                    f"{p}userid = {self.users[0]} AND "
                    f"{p}ts = '{day(self.days[0])}'")
        return (f"{p}regionid >= {self.regions[0]} AND "
                f"{p}regionid <= {self.regions[1]} AND "
                f"{p}userid >= {self.users[0]} AND "
                f"{p}userid < {self.users[1]} AND "
                f"{p}ts >= '{day(self.days[0])}' AND "
                f"{p}ts <= '{day(self.days[1])}'")

    def sql(self) -> str:
        """The paper's Listings 4 (aggregation), 5 (group by), 6 (join)."""
        if self.kind == "agg":
            return ("SELECT sum(powerconsumed) FROM meterdata WHERE "
                    + self.where())
        if self.kind == "groupby":
            return ("SELECT ts, sum(powerconsumed) FROM meterdata WHERE "
                    + self.where() + " GROUP BY ts")
        return ("INSERT OVERWRITE DIRECTORY '/tmp/join-out' "
                "SELECT t2.username, t1.powerconsumed FROM meterdata t1 "
                "JOIN userinfo t2 ON t1.userid = t2.userid WHERE "
                + self.where("t1."))


def mdrq_stream(shape: MeterShape, seed: int) -> Iterator[RangeQuery]:
    """The paper's mix: {agg, groupby, join} x {point, ~5%, ~12%} in a
    fixed rotation, so any nine consecutive queries hold each combination
    once; each query sits at a seeded position.  Ranged queries keep 6 of
    11 regions and half the days, and the userid width is solved for the
    target selectivity (the paper varies it through the userid range)."""
    rng = random.Random(f"mdrq-{seed}")
    combos = [(k, s) for k in ("agg", "groupby", "join")
              for s in ("point", 0.05, 0.12)]
    for i in itertools.count():
        kind, sel = combos[i % len(combos)]
        if sel == "point":
            yield RangeQuery(kind, (rng.randrange(shape.users),) * 2,
                             (0, NUM_REGIONS - 1),
                             (rng.randrange(shape.days),) * 2, point=True)
            continue
        r0 = rng.randrange(NUM_REGIONS - 5)
        span = max(1, shape.days // 2)
        d0 = rng.randrange(shape.days - span + 1)
        fraction = min(0.95, sel / ((6 / NUM_REGIONS) * (span / shape.days)))
        width = max(1, round(shape.users * fraction))
        u0 = rng.randrange(shape.users - width + 1)
        yield RangeQuery(kind, (u0, u0 + width), (r0, r0 + 5),
                         (d0, d0 + span - 1))


POINT_SQL = ("SELECT sum(powerconsumed) FROM meterdata WHERE "
             "userid = ? AND ts = ?")


def point_stream(shape: MeterShape, seed: int) -> Iterator[Tuple[int, str]]:
    """Uniform single-meter single-day keys (bound into ``POINT_SQL``)."""
    rng = random.Random(f"point-{seed}")
    while True:
        yield rng.randrange(shape.users), day(rng.randrange(shape.days))


# --------------------------------------------------------------------- grid
@dataclass(frozen=True)
class GridShape:
    side: int = 112

    def index_ddl(self) -> str:
        return ("CREATE INDEX grid_idx ON TABLE cells(userid, ts) AS 'dgf' "
                "IDXPROPERTIES ('userid'='0_1', 'ts'='100_1', "
                "'precompute'='sum(v),count(*)')")


def grid_rows(shape: GridShape, seed: int) -> List[Tuple[int, int, float]]:
    """One row per cell of the side x side grid (ts starts at 100)."""
    rng = random.Random(f"grid-{seed}")
    return [(u, 100 + t, round(rng.uniform(0.0, 1000.0), 3))
            for u in range(shape.side) for t in range(shape.side)]


@dataclass(frozen=True)
class Window:
    """Inclusive cell window [u0, u1] x [t0, t1] (grid coordinates)."""

    u0: int
    u1: int
    t0: int
    t1: int

    def sql(self) -> str:
        return ("SELECT sum(v), count(*) FROM cells WHERE "
                f"userid >= {self.u0} AND userid <= {self.u1} AND "
                f"ts >= {100 + self.t0} AND ts <= {100 + self.t1}")


def window_stream(shape: GridShape, seed: int) -> Iterator[Window]:
    """Cell-aligned windows from a quarter to nearly the full extent per
    dimension, at seeded positions."""
    rng = random.Random(f"window-{seed}")
    n = shape.side
    while True:
        wu = rng.randint(n // 4, n - 1)
        wt = rng.randint(n // 4, n - 1)
        u0 = rng.randint(0, n - wu)
        t0 = rng.randint(0, n - wt)
        yield Window(u0, u0 + wu - 1, t0, t0 + wt - 1)


def recent_stream(shape: MeterShape, seed: int) -> Iterator[Tuple[int, int]]:
    """Ingest reads: a tenth of the meters at a seeded position, over the
    two latest days (the shape is fixed so reads cost alike)."""
    rng = random.Random(f"recent-{seed}")
    width = shape.users // 10
    while True:
        u0 = rng.randrange(shape.users - width + 1)
        yield u0, u0 + width


def per_day_user(rows) -> Dict[Tuple[str, int], Tuple[float, int]]:
    """(ts, userid) -> (sum(powerconsumed), count) over ``rows``."""
    out: Dict[Tuple[str, int], Tuple[float, int]] = {}
    for row in rows:
        key = (row[2], row[0])
        s, c = out.get(key, (0.0, 0))
        out[key] = (s + row[3], c + 1)
    return out
