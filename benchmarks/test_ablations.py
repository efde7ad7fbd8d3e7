"""Ablation benches beyond the paper's tables/figures:

* splitting-policy advisor vs the fixed L/M/S policies (the paper's stated
  future work, DESIGN.md extension);
* DGFIndex over RCFile base tables (the paper: "easy to extend");
* interval-size sweep exposing the index-size / boundary-read trade-off;
* the NameNode partition-explosion argument, quantified.
"""

import pytest

from repro.bench import experiments as exps
from repro.hive.session import QueryOptions


@pytest.fixture(scope="session")
def advisor_experiment(meter_lab):
    return exps.ablation_advisor(meter_lab)


@pytest.fixture(scope="session")
def formats_experiment(meter_lab):
    return exps.ablation_formats(meter_lab)


class TestAdvisor:
    def test_advisor_recommend(self, meter_lab, benchmark):
        from repro.core.dgf.advisor import PolicyAdvisor
        from repro.data.meter import METER_SCHEMA
        advisor = PolicyAdvisor(
            METER_SCHEMA, ["userid", "regionid", "ts"],
            records_per_unit_volume=len(meter_lab.rows)
            * meter_lab.data_scale)
        history = [meter_lab.intervals_for(s) for s in (0.05, 0.12)]
        sample = meter_lab.rows[::max(1, len(meter_lab.rows) // 1000)]
        policy = benchmark.pedantic(
            lambda: advisor.advise(sample, history).policy,
            rounds=3, iterations=1)
        assert len(policy) == 3

    def test_advisor_competitive_with_best_fixed(self, advisor_experiment):
        """The advisor's policy should land within 3x of the best fixed
        policy on the query history it optimized for."""
        data = advisor_experiment.data
        for selectivity in ("5%", "12%"):
            advised = data[f"{selectivity}/advisor"]["seconds"]
            best_fixed = min(data[f"{selectivity}/{c}"]["seconds"]
                             for c in ("large", "medium", "small"))
            assert advised < 3 * best_fixed


class TestFormats:
    def test_rcfile_base_table(self, formats_experiment, benchmark):
        benchmark.pedantic(lambda: formats_experiment, rounds=1,
                           iterations=1)
        for label in ("point", "5%"):
            data = formats_experiment.data[label]
            assert data["text"] == data["rcfile"]


class TestIntervalSweep:
    def test_tradeoff(self, meter_lab, benchmark):
        """Smaller intervals: larger index, fewer boundary records."""
        sizes = {}
        reads = {}
        sql = meter_lab.query_sql("groupby", 0.05)

        def run():
            for case in ("large", "medium", "small"):
                session = meter_lab.dgf_session(case)
                report = session.build_report("meterdata", "dgf_idx")
                sizes[case] = report.index_size_bytes
                result = session.execute(
                    sql, QueryOptions(index_name="dgf_idx"))
                reads[case] = result.stats.records_read
            return sizes, reads

        benchmark.pedantic(run, rounds=1, iterations=1)
        assert sizes["large"] < sizes["medium"] < sizes["small"]
        assert reads["large"] >= reads["medium"] >= reads["small"]


class TestPartitionExplosion:
    def test_namenode_memory(self, benchmark):
        result = benchmark.pedantic(
            lambda: exps.partition_explosion(dims=3, values_per_dim=100),
            rounds=1, iterations=1)
        projected = result.data["projected_bytes"]
        assert projected == pytest.approx(143 * 1024 * 1024, rel=0.05)


class TestSlicePlacement:
    """The paper's second future-work item: optimal Slice placement.
    Z-order placement clusters grid-adjacent slices into the same output
    files, shrinking the splits a range query must touch."""

    def test_zorder_vs_hash(self, benchmark):
        from repro.hive.session import QueryOptions
        from repro.bench.lab import MeterLab, MeterLabConfig

        config = MeterLabConfig(num_users=800, num_days=8,
                                readings_per_day=2)

        def build(placement):
            lab = MeterLab(config)
            session = lab._new_session()
            lab._load_meter(session, "TEXTFILE")
            session.execute(
                "CREATE INDEX d ON TABLE meterdata"
                "(userid, regionid, ts) AS 'dgf' IDXPROPERTIES ("
                "'userid'='0_20', 'regionid'='0_1', "
                f"'ts'='{lab.generator.config.start_date}_1d', "
                f"'placement'='{placement}', "
                "'precompute'='sum(powerconsumed)')")
            return lab, session

        hash_lab, hash_session = build("hash")
        zorder_lab, zorder_session = build("zorder")
        sql = hash_lab.query_sql("groupby", 0.05)

        zorder_result = benchmark.pedantic(
            lambda: zorder_session.execute(sql,
                                           QueryOptions(index_name="d")),
            rounds=3, iterations=1)
        hash_result = hash_session.execute(sql,
                                           QueryOptions(index_name="d"))
        assert zorder_result.stats.splits_processed \
            <= hash_result.stats.splits_processed
        # identical answers (up to float summation order)
        for (zk, zv), (hk, hv) in zip(sorted(zorder_result.rows),
                                      sorted(hash_result.rows)):
            assert zk == hk
            assert zv == pytest.approx(hv)
