"""repro — a full reproduction of *DGFIndex for Smart Grid: Enhancing Hive
with a Cost-Effective Multidimensional Range Index* (Liu et al., VLDB 2014)
on a simulated Hadoop/Hive/HBase stack.

Quick start (the stable public API — see ``docs/api.md``)::

    import repro

    conn = repro.connect()
    conn.execute("CREATE TABLE meterdata (userid bigint, regionid int, "
                 "ts date, powerconsumed double)")
    conn.load_rows("meterdata", rows)
    conn.execute("CREATE INDEX dgf_idx ON TABLE meterdata"
                 "(userid, regionid, ts) AS 'dgf' IDXPROPERTIES ("
                 "'userid'='0_200', 'regionid'='0_1', "
                 "'ts'='2012-12-01_1d', "
                 "'precompute'='sum(powerconsumed),count(*)')")
    result = conn.execute(
        "SELECT sum(powerconsumed) FROM meterdata "
        "WHERE userid >= ? AND userid < ? "
        "AND ts >= ? AND ts < ?",
        (100, 500, "2012-12-05", "2012-12-10"))
    print(result.rows, result.stats.records_read,
          result.stats.simulated_seconds)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured record of every table and figure.
"""

from repro.api import (Advice, Advisor, Connection, Cursor, apilevel,
                       connect, paramstyle, threadsafety)
from repro.hive.plan import Plan
from repro.hive.session import QueryOptions, QueryResult
from repro.core.dgf import (DgfIndexHandler, DimensionPolicy, PolicyAdvisor,
                            SplittingPolicy, add_precompute,
                            append_with_dgf)
from repro.core.dgf.advisor import AdvisorReport
from repro.mapreduce.cluster import PAPER_CLUSTER, ClusterConfig
from repro.mapreduce.cost import CostModel, TimeBreakdown
from repro.service import GfuMetadataCache, QueryLog, QueryService

__version__ = "1.2.0"

__all__ = [
    # stable public connection API
    "connect",
    "Connection",
    "Cursor",
    "apilevel",
    "paramstyle",
    "threadsafety",
    "Plan",
    "QueryOptions",
    "QueryResult",
    # serving layer
    "QueryService",
    "GfuMetadataCache",
    # workload-driven tuning (docs/advisor.md)
    "Advisor",
    "Advice",
    "AdvisorReport",
    "QueryLog",
    # index machinery
    "DgfIndexHandler",
    "DimensionPolicy",
    "SplittingPolicy",
    "PolicyAdvisor",
    "add_precompute",
    "append_with_dgf",
    # cluster / cost model
    "ClusterConfig",
    "PAPER_CLUSTER",
    "CostModel",
    "TimeBreakdown",
    "__version__",
]

