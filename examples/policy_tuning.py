#!/usr/bin/env python3
"""Splitting-policy tuning: the interval-size trade-off and the advisor.

The paper's experiments sweep three hand-picked interval sizes (large /
medium / small) and its future work asks for an algorithm that picks the
policy from the data distribution and query history.  This example shows
both: the measured trade-off across a sweep of interval sizes, and the
:class:`~repro.core.dgf.advisor.PolicyAdvisor` choosing a policy
automatically.

Run:  python examples/policy_tuning.py
"""

import repro
from repro import PolicyAdvisor, QueryOptions
from repro.data.meter import METER_SCHEMA, MeterDataConfig, MeterDataGenerator
from repro.hiveql.parser import parse_expression
from repro.hiveql.predicates import extract_ranges


def new_connection(rows, config):
    conn = repro.connect(data_scale=config.data_scale)
    conn.session.fs.block_size = 128 * 1024
    columns = ", ".join(f"{c.name} {c.dtype.value}"
                        for c in METER_SCHEMA.columns)
    conn.execute(f"CREATE TABLE meterdata ({columns})")
    conn.load_rows("meterdata", rows)
    return conn


def build_dgf(conn, config, user_interval, name="dgf_idx"):
    conn.execute(
        f"CREATE INDEX {name} ON TABLE meterdata(userid, regionid, ts) "
        f"AS 'dgf' IDXPROPERTIES ('userid'='0_{user_interval}', "
        f"'regionid'='0_1', 'ts'='{config.start_date}_1d', "
        "'precompute'='sum(powerconsumed),count(*)')")
    return conn.session.build_report("meterdata", name)


def main():
    config = MeterDataConfig(num_users=1000, num_days=8,
                             readings_per_day=2)
    rows = list(MeterDataGenerator(config).iter_rows())
    query = ("SELECT sum(powerconsumed) FROM meterdata "
             "WHERE userid >= 130 AND userid < 420 "
             "AND regionid >= 2 AND regionid <= 8 "
             "AND ts >= '2012-12-02' AND ts < '2012-12-06'")

    print("== interval-size sweep (the paper's L/M/S, extended)")
    print(f"{'interval':>9} {'GFUs':>7} {'index bytes':>12} "
          f"{'records read':>13} {'simulated s':>12}")
    for interval in (250, 100, 40, 10, 4):
        conn = new_connection(rows, config)
        report = build_dgf(conn, config, interval)
        result = conn.execute(
            query, options=QueryOptions(index_name="dgf_idx"))
        print(f"{interval:>9} {report.details['gfus']:>7} "
              f"{report.index_size_bytes:>12} "
              f"{result.stats.records_read:>13} "
              f"{result.stats.simulated_seconds:>12.1f}")
    print("  -> smaller cells: bigger index + more KV gets, but tighter "
          "reads;\n     larger cells: tiny index but wide boundary "
          "over-read.\n")

    print("== the advisor picks a policy from data + query history")
    history_sql = [query.split("WHERE", 1)[1],
                   ("userid >= 700 AND userid < 910 AND "
                    "ts >= '2012-12-03' AND ts < '2012-12-08'")]
    history = [extract_ranges(parse_expression(text)).intervals
               for text in history_sql]
    advisor = PolicyAdvisor(
        METER_SCHEMA, ["userid", "regionid", "ts"],
        records_per_unit_volume=len(rows) * config.data_scale)
    policy = advisor.advise(rows[::16], history).policy
    properties = PolicyAdvisor.properties_for(policy)
    print(f"  advisor chose: {properties}")

    conn = new_connection(rows, config)
    props_sql = ", ".join(f"'{k}'='{v}'" for k, v in properties.items())
    conn.execute(
        "CREATE INDEX dgf_adv ON TABLE meterdata(userid, regionid, ts) "
        f"AS 'dgf' IDXPROPERTIES ({props_sql}, "
        "'precompute'='sum(powerconsumed),count(*)')")
    advised = conn.execute(query, options=QueryOptions(index_name="dgf_adv"))
    baseline = conn.execute(query, options=QueryOptions(use_index=False))
    assert abs(advised.rows[0][0] - baseline.rows[0][0]) < 1e-6
    print(f"  advised policy: read {advised.stats.records_read} records, "
          f"{advised.stats.simulated_seconds:.1f}s simulated "
          f"(scan: {baseline.stats.simulated_seconds:.1f}s)")


if __name__ == "__main__":
    main()
