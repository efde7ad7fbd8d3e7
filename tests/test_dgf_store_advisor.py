"""Tests for the DGF key-value store wrapper and the policy advisor."""

import pytest

from repro.core.dgf.advisor import PolicyAdvisor
from repro.core.dgf.gfu import GFUValue, SliceLocation
from repro.core.dgf.policy import DimensionPolicy, SplittingPolicy
from repro.core.dgf.store import DgfStore
from repro.errors import DGFError
from repro.hiveql.predicates import Interval
from repro.kvstore.hbase import KVStore
from repro.storage.schema import DataType, Schema


def value(start=0, end=10):
    return GFUValue(header={"count(*)": 1},
                    locations=[SliceLocation("/f", start, end)], records=1)


class TestDgfStore:
    def test_put_get_namespaced(self):
        kv = KVStore()
        store_a = DgfStore(kv, "t1", "i")
        store_b = DgfStore(kv, "t2", "i")
        store_a.put_value("5_10", value())
        assert store_a.get_value("5_10") is not None
        assert store_b.get_value("5_10") is None

    def test_iter_entries_only_own_namespace(self):
        kv = KVStore()
        store = DgfStore(kv, "t", "i")
        other = DgfStore(kv, "t", "other")
        store.put_value("1_1", value())
        other.put_value("2_2", value())
        assert [k for k, _ in store.iter_entries()] == ["1_1"]

    def test_meta_roundtrip(self):
        store = DgfStore(KVStore(), "t", "i")
        store.put_meta("bounds", {"a": (0, 3)})
        assert store.load_bounds() == {"a": (0, 3)}

    def test_missing_meta(self):
        with pytest.raises(DGFError):
            DgfStore(KVStore(), "t", "i").get_meta("policy")

    def test_clear(self):
        store = DgfStore(KVStore(), "t", "i")
        store.put_value("1_1", value())
        store.put_meta("x", 1)
        store.clear()
        assert store.count_entries() == 0
        with pytest.raises(DGFError):
            store.get_meta("x")

    def test_merge_value_creates_or_merges(self):
        from repro.hive.aggregates import CountAgg
        store = DgfStore(KVStore(), "t", "i")
        store.merge_value("1_1", value(), {"count(*)": CountAgg()})
        store.merge_value("1_1", value(20, 30), {"count(*)": CountAgg()})
        merged = store.get_value("1_1")
        assert merged.header["count(*)"] == 2
        assert len(merged.locations) == 2

    def test_size_bytes_grows_with_entries(self):
        store = DgfStore(KVStore(), "t", "i")
        store.put_value("1_1", value())
        small = store.size_bytes()
        store.put_value("2_2", value())
        assert store.size_bytes() > small > 0


class TestAdvisor:
    @pytest.fixture
    def schema(self):
        return Schema.of(("u", DataType.BIGINT), ("r", DataType.INT),
                         ("d", DataType.DATE))

    @pytest.fixture
    def rows(self):
        import datetime
        out = []
        for day in range(10):
            date = (datetime.date(2012, 12, 1)
                    + datetime.timedelta(days=day)).isoformat()
            for u in range(0, 1000, 7):
                out.append((u, u % 11, date))
        return out

    def test_profile_data(self, schema, rows):
        advisor = PolicyAdvisor(schema, ["u", "r", "d"])
        stats = advisor.profile_data(rows)
        assert stats["u"].low == 0
        assert stats["u"].high == 994
        assert stats["d"].span == 9

    def test_profile_empty_rejected(self, schema):
        with pytest.raises(DGFError):
            PolicyAdvisor(schema, ["u"]).profile_data([])

    def test_advise_produces_valid_policy(self, schema, rows):
        advisor = PolicyAdvisor(schema, ["u", "r", "d"],
                                records_per_unit_volume=1e9)
        history = [{"u": Interval(low=100, high=200),
                    "d": Interval(low="2012-12-02", high="2012-12-05")}]
        policy = advisor.advise(rows, history).policy
        assert isinstance(policy, SplittingPolicy)
        assert policy.names == ["u", "r", "d"]
        # discrete dims get integer intervals
        assert policy.dimension("r").interval == int(
            policy.dimension("r").interval)

    def test_advise_needs_history(self, schema, rows):
        with pytest.raises(DGFError):
            PolicyAdvisor(schema, ["u"]).advise(rows, [])

    def test_advise_policy_matches_advice_properties(self, schema, rows):
        advisor = PolicyAdvisor(schema, ["u", "d"],
                                records_per_unit_volume=1e9)
        history = [{"u": Interval(low=100, high=200)}]
        advice = advisor.advise(rows, history)
        assert advisor.advise(rows, history).policy.to_dict() \
            == advice.policy.to_dict()
        assert PolicyAdvisor.properties_for(advice.policy) \
            == advice.properties

    def test_cost_tradeoff_visible(self, schema, rows):
        """More cells -> more gets; fewer cells -> more boundary read.
        The advisor's cost must reflect both directions."""
        advisor = PolicyAdvisor(schema, ["u", "r", "d"],
                                records_per_unit_volume=1e10)
        stats = advisor.profile_data(rows)
        profiles = advisor.profile_queries(
            [{"u": Interval(low=100, high=200)}], stats)
        tiny_cells = advisor.expected_query_cost(
            {"u": 1024, "r": 1024, "d": 1024}, stats, profiles)
        one_cell = advisor.expected_query_cost(
            {"u": 1, "r": 1, "d": 1}, stats, profiles)
        chosen = advisor.advise(
            rows, [{"u": Interval(low=100, high=200)}]).policy
        counts = {}
        for dim in chosen.dimensions:
            span = stats[dim.name.lower()].span
            counts[dim.name.lower()] = max(1, round(span / dim.interval))
        best = advisor.expected_query_cost(counts, stats, profiles)
        assert best <= tiny_cells
        assert best <= one_cell

    def test_properties_for_roundtrip(self, schema, rows):
        advisor = PolicyAdvisor(schema, ["u", "d"],
                                records_per_unit_volume=1e9)
        policy = advisor.advise(
            rows, [{"u": Interval(low=0, high=500)}]).policy
        properties = PolicyAdvisor.properties_for(policy)
        rebuilt = SplittingPolicy.from_properties(schema, ["u", "d"],
                                                  properties)
        assert rebuilt.dimension("u").interval \
            == policy.dimension("u").interval
