"""Labs: fully-loaded system instances shared by experiments and benches.

A *lab* owns the generated dataset and one session per compared system —
exactly the paper's experimental setup scaled down:

* ``scan``    — TextFile table, no index (the ScanTable baseline);
* ``dgf[c]``  — TextFile table + 3-D DGFIndex for interval case c in
  {large, medium, small} (the paper's 100/1000/10000 userId intervals,
  scaled), pre-computing ``sum(powerconsumed)`` and ``count(*)``;
* ``compact`` — RCFile table + 2-D Compact Index on (regionId, ts) (the
  paper found the 3-D index table as big as the base table and kept 2-D);
* ``hadoopdb`` — 28 nodes, chunked by userId, composite index per chunk.

Every session also holds the user-info archive table for join queries, and
every cost model uses ``data_scale = paper records / generated records``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.units import KiB
from repro.data.meter import (METER_SCHEMA, USER_INFO_SCHEMA,
                              MeterDataConfig, MeterDataGenerator)
from repro.data.tpch import (LINEITEM_SCHEMA, LineitemGenerator, TPCHConfig,
                             q6_parameters, q6_sql)
from repro.hadoopdb.engine import HadoopDB, HadoopDBConfig
from repro.hive.session import HiveSession, QueryOptions
from repro.storage.schema import Schema

#: the paper's interval cases: userId split into 100 / 1000 / 10000
#: intervals (large/medium/small interval size); scaled to the lab's user
#: count keeping the 1:5:25 ratios so per-cell record densities stay
#: meaningful at laptop scale.
INTERVAL_CASES = ("large", "medium", "small")
_CASE_DIVISORS = {"large": 20, "medium": 100, "small": 500}

SELECTIVITIES = ("point", 0.05, 0.12)


def _schema_ddl(name: str, schema: Schema, stored_as: str = "TEXTFILE") -> str:
    cols = ", ".join(f"{c.name} {c.dtype.value}" for c in schema.columns)
    return f"CREATE TABLE {name} ({cols}) STORED AS {stored_as}"


@dataclass(frozen=True)
class MeterLabConfig:
    """Scaled-down shape of the real-world experiment (Section 5.3)."""

    num_users: int = 2000
    num_days: int = 10
    readings_per_day: int = 4
    block_bytes: int = 256 * KiB
    seed: int = 20140801

    def meter_config(self) -> MeterDataConfig:
        return MeterDataConfig(num_users=self.num_users,
                               num_days=self.num_days,
                               readings_per_day=self.readings_per_day,
                               seed=self.seed)


class MeterLab:
    """All systems loaded with the same meter dataset (built lazily)."""

    def __init__(self, config: MeterLabConfig = MeterLabConfig()):
        self.config = config
        self.generator = MeterDataGenerator(config.meter_config())
        self.rows: List[Tuple] = list(self.generator.iter_rows())
        self.user_rows = self.generator.user_info_rows()
        self.data_scale = (self.generator.config.paper_records
                           / len(self.rows))
        self._scan: Optional[HiveSession] = None
        self._dgf: Dict[str, HiveSession] = {}
        self._compact: Optional[HiveSession] = None
        self._hadoopdb: Optional[HadoopDB] = None

    # ------------------------------------------------------------- sessions
    def _new_session(self, vectorized: bool = False) -> HiveSession:
        session = HiveSession(data_scale=self.data_scale,
                              vectorized=vectorized)
        session.fs.block_size = self.config.block_bytes
        return session

    def fresh_scan_session(self, vectorized: bool = False) -> HiveSession:
        """A fresh, *uncached* TEXTFILE session on the row or the columnar
        engine — used by the vectorized-speedup benchmark to compare
        engine modes on equal data."""
        session = self._new_session(vectorized)
        self._load_meter(session, "TEXTFILE")
        return session

    def _load_meter(self, session: HiveSession, stored_as: str) -> None:
        session.execute(_schema_ddl("meterdata", METER_SCHEMA, stored_as))
        session.execute(_schema_ddl("userinfo", USER_INFO_SCHEMA))
        # One file per ~third of the month, as collection days accumulate.
        days = self.config.num_days
        per_file = max(1, days // 3)
        rows_per_day = len(self.rows) // days
        for first in range(0, days, per_file):
            chunk = self.rows[first * rows_per_day:
                              (first + per_file) * rows_per_day]
            session.load_rows("meterdata", chunk)
        session.load_rows("userinfo", self.user_rows)

    @property
    def scan_session(self) -> HiveSession:
        if self._scan is None:
            self._scan = self._new_session()
            self._load_meter(self._scan, "TEXTFILE")
        return self._scan

    def interval_size(self, case: str) -> int:
        return max(1, self.config.num_users // _CASE_DIVISORS[case])

    def _dgf_ddl(self, case: str) -> str:
        interval = self.interval_size(case)
        return ("CREATE INDEX dgf_idx ON TABLE meterdata"
                "(userid, regionid, ts) AS 'dgf' IDXPROPERTIES ("
                f"'userid'='0_{interval}', 'regionid'='0_1', "
                f"'ts'='{self.generator.config.start_date}_1d', "
                "'precompute'='sum(powerconsumed),count(*)')")

    def dgf_session(self, case: str) -> HiveSession:
        if case not in self._dgf:
            self._dgf[case] = self.fresh_dgf_session(case)
        return self._dgf[case]

    def fresh_dgf_session(self, case: str, *, faults=None) -> HiveSession:
        """A fresh, *uncached* DGF session — same data, chunking and index
        DDL as :meth:`dgf_session`, but never shared, so callers may wire
        in a :class:`~repro.faults.FaultPlan` without perturbing the
        cached sessions other experiments compare against (the
        recovery-overhead benchmark does)."""
        session = HiveSession(data_scale=self.data_scale, faults=faults)
        session.fs.block_size = self.config.block_bytes
        self._load_meter(session, "TEXTFILE")
        session.execute(self._dgf_ddl(case))
        return session

    @property
    def compact_session(self) -> HiveSession:
        """RCFile base table + 2-D Compact Index (regionid, ts)."""
        if self._compact is None:
            session = self._new_session()
            self._load_meter(session, "RCFILE")
            session.execute("CREATE INDEX cmp_idx ON TABLE meterdata"
                            "(regionid, ts) AS 'compact'")
            self._compact = session
        return self._compact

    @property
    def hadoopdb(self) -> HadoopDB:
        if self._hadoopdb is None:
            db = HadoopDB(METER_SCHEMA, ["userid", "regionid", "ts"],
                          partition_column="userid",
                          config=HadoopDBConfig(),
                          data_scale=self.data_scale)
            db.load(self.rows)
            db.load_archive(self.user_rows,
                            USER_INFO_SCHEMA.index_of("userid"))
            self._hadoopdb = db
        return self._hadoopdb

    # --------------------------------------------------------------- queries
    def predicate(self, selectivity) -> str:
        """The paper's MDRQ predicate shape: ranges on regionId, userId and
        time; selectivity is varied through the userId range."""
        import datetime
        start_date = datetime.date.fromisoformat(
            self.generator.config.start_date)
        num_regions = self.generator.config.num_regions
        if selectivity == "point":
            user = self.config.num_users // 3
            return (f"regionid >= 0 AND regionid <= {num_regions - 1} "
                    f"AND userid = {user} AND ts = '{start_date}'")
        # As in the paper, the predicate ranges over all three dimensions;
        # the region range keeps 6 of 11 regions and the time range half of
        # the days, and the userId width is solved so the overall fraction
        # of matching records hits the target selectivity.
        region_lo, region_hi = 2, 7
        region_fraction = (region_hi - region_lo + 1) / num_regions
        day_lo = self.config.num_days // 5
        day_hi = day_lo + max(1, self.config.num_days // 2)
        time_fraction = (day_hi - day_lo) / self.config.num_days
        user_fraction = min(0.95, selectivity
                            / (region_fraction * time_fraction))
        low, high = self.generator.user_range_for_selectivity(user_fraction)
        ts_lo = (start_date + datetime.timedelta(days=day_lo)).isoformat()
        ts_hi = (start_date + datetime.timedelta(days=day_hi)).isoformat()
        return (f"regionid >= {region_lo} AND regionid <= {region_hi} "
                f"AND userid >= {low} AND userid < {high} "
                f"AND ts >= '{ts_lo}' AND ts < '{ts_hi}'")

    def query_sql(self, kind: str, selectivity) -> str:
        """The paper's Listings 4 (aggregation), 5 (group by), 6 (join)."""
        where = self.predicate(selectivity)
        if kind == "agg":
            return f"SELECT sum(powerconsumed) FROM meterdata WHERE {where}"
        if kind == "groupby":
            return (f"SELECT ts, sum(powerconsumed) FROM meterdata "
                    f"WHERE {where} GROUP BY ts")
        if kind == "join":
            qualified = (where.replace("regionid", "t1.regionid")
                         .replace("userid", "t1.userid")
                         .replace("ts ", "t1.ts ").replace("ts=", "t1.ts="))
            return ("INSERT OVERWRITE DIRECTORY '/tmp/join-out' "
                    "SELECT t2.username, t1.powerconsumed FROM meterdata t1 "
                    "JOIN userinfo t2 ON t1.userid = t2.userid "
                    f"WHERE {qualified}")
        raise ValueError(f"unknown query kind {kind!r}")

    def intervals_for(self, selectivity):
        """The same predicate as per-column intervals (HadoopDB pushdown)."""
        from repro.hiveql.predicates import extract_ranges
        from repro.hiveql.parser import parse_expression
        return extract_ranges(
            parse_expression(self.predicate(selectivity))).intervals

    def accurate_records(self, selectivity) -> int:
        """Ground truth: records matching the predicate (a full count)."""
        sql = (f"SELECT count(*) FROM meterdata "
               f"WHERE {self.predicate(selectivity)}")
        result = self.scan_session.execute(sql,
                                           QueryOptions(use_index=False))
        return result.scalar()


# ---------------------------------------------------------------- TPC-H lab
@dataclass(frozen=True)
class TpchLabConfig:
    num_orders: int = 12000
    block_bytes: int = 512 * KiB
    seed: int = 19920101

    def tpch_config(self) -> TPCHConfig:
        return TPCHConfig(num_orders=self.num_orders, seed=self.seed)


class TpchLab:
    """Lineitem loaded into scan / DGF / Compact-2D / Compact-3D sessions."""

    def __init__(self, config: TpchLabConfig = TpchLabConfig()):
        self.config = config
        generator = LineitemGenerator(config.tpch_config())
        self.rows: List[Tuple] = list(generator.iter_rows())
        self.data_scale = (generator.config.paper_records / len(self.rows))
        self.params = q6_parameters()
        self._scan: Optional[HiveSession] = None
        self._dgf: Optional[HiveSession] = None
        self._compact: Optional[HiveSession] = None

    def _new_session(self, vectorized: bool = False) -> HiveSession:
        session = HiveSession(data_scale=self.data_scale,
                              vectorized=vectorized)
        session.fs.block_size = self.config.block_bytes
        return session

    def fresh_scan_session(self, vectorized: bool = False) -> HiveSession:
        """A fresh, *uncached* TEXTFILE session on the row or the columnar
        engine (mirrors :meth:`MeterLab.fresh_scan_session`)."""
        session = self._new_session(vectorized)
        self._load(session, "TEXTFILE")
        return session

    def _load(self, session: HiveSession, stored_as: str) -> None:
        session.execute(_schema_ddl("lineitem", LINEITEM_SCHEMA, stored_as))
        # dbgen writes several chunked files; lineitem has no physical order
        third = len(self.rows) // 3 + 1
        for i in range(0, len(self.rows), third):
            session.load_rows("lineitem", self.rows[i:i + third])

    @property
    def scan_session(self) -> HiveSession:
        if self._scan is None:
            self._scan = self._new_session()
            self._load(self._scan, "TEXTFILE")
        return self._scan

    @property
    def dgf_session(self) -> HiveSession:
        """The paper's policy: l_discount 0.01, l_quantity 1.0,
        l_shipdate 100 days."""
        if self._dgf is None:
            session = self._new_session()
            self._load(session, "TEXTFILE")
            session.execute(
                "CREATE INDEX dgf_q6 ON TABLE lineitem"
                "(l_discount, l_quantity, l_shipdate) AS 'dgf' "
                "IDXPROPERTIES ('l_discount'='0_0.01', "
                "'l_quantity'='0_1.0', 'l_shipdate'='1992-01-01_100d', "
                "'precompute'='sum(l_extendedprice * l_discount)')")
            self._dgf = session
        return self._dgf

    @property
    def compact_session(self) -> HiveSession:
        """RCFile lineitem + both 2-D and 3-D Compact indexes."""
        if self._compact is None:
            session = self._new_session()
            self._load(session, "RCFILE")
            session.execute("CREATE INDEX cmp2 ON TABLE lineitem"
                            "(l_discount, l_quantity) AS 'compact'")
            session.execute("CREATE INDEX cmp3 ON TABLE lineitem"
                            "(l_discount, l_quantity, l_shipdate) "
                            "AS 'compact'")
            self._compact = session
        return self._compact

    def q6(self) -> str:
        return q6_sql(self.params)
