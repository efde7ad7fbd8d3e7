"""Tests for the MapReduce engine, splits, counters and cost model."""

import threading

import pytest

from repro.errors import MapReduceError
from repro.hdfs.filesystem import HDFS
from repro.mapreduce.cluster import PAPER_CLUSTER, ClusterConfig
from repro.mapreduce.cost import (CostModel, JobStats, KVStats, TaskStats,
                                  TimeBreakdown)
from repro.mapreduce.counters import Counters
from repro.mapreduce.engine import MapReduceEngine, estimate_size, stable_hash
from repro.mapreduce.job import Job
from repro.mapreduce.splits import FileSplit, TextRowInputFormat
from repro.storage.schema import DataType, Schema
from repro.storage.textfile import TextFileWriter


@pytest.fixture
def loaded_fs():
    fs = HDFS(num_datanodes=3, block_size=600)
    schema = Schema.of(("k", DataType.INT), ("v", DataType.INT))
    with fs.create("/in/part-0") as stream:
        writer = TextFileWriter(stream, schema)
        for i in range(200):
            writer.write_row((i % 10, i))
    return fs, schema


class TestCounters:
    def test_inc_and_get(self):
        c = Counters()
        c.inc("g", "n", 3)
        c.inc("g", "n")
        assert c.get("g", "n") == 4

    def test_missing_is_zero(self):
        assert Counters().get("x", "y") == 0

    def test_merge(self):
        a, b = Counters(), Counters()
        a.inc("g", "n", 1)
        b.inc("g", "n", 2)
        b.inc("g", "m", 5)
        a.merge(b)
        assert a.get("g", "n") == 3
        assert a.get("g", "m") == 5

    def test_items_sorted(self):
        c = Counters()
        c.inc("b", "y")
        c.inc("a", "x")
        assert [g for g, _, _ in c.items()] == ["a", "b"]

    def test_merge_order_independent(self):
        """Per-task counters merged at the barrier must not depend on the
        order tasks were merged in (integer addition commutes)."""
        parts = []
        for i in range(4):
            c = Counters()
            c.inc("g", "n", i + 1)
            c.inc(f"g{i}", "only", 7)
            parts.append(c)
        forward, backward = Counters(), Counters()
        for c in parts:
            forward.merge(c)
        for c in reversed(parts):
            backward.merge(c)
        assert forward.as_dict() == backward.as_dict()
        assert forward.get("g", "n") == 10

    def test_merge_empty_is_identity(self):
        c = Counters()
        c.inc("g", "n", 5)
        before = c.as_dict()
        c.merge(Counters())
        assert c.as_dict() == before


class TestSplits:
    def test_block_aligned_splits(self, loaded_fs):
        fs, schema = loaded_fs
        fmt = TextRowInputFormat(schema)
        splits = fmt.get_splits(fs, ["/in"])
        assert len(splits) == len(fs.status("/in/part-0").blocks)
        assert splits[0].start == 0
        total = sum(s.length for s in splits)
        assert total == fs.file_length("/in/part-0")

    def test_splits_cover_all_rows_exactly_once(self, loaded_fs):
        fs, schema = loaded_fs
        fmt = TextRowInputFormat(schema)
        rows = []
        for split in fmt.get_splits(fs, ["/in"]):
            rows.extend(r for _, r in fmt.read_split(fs, split))
        assert len(rows) == 200
        assert sorted(v for _, v in rows) == list(range(200))

    def test_directory_and_file_paths(self, loaded_fs):
        fs, schema = loaded_fs
        fmt = TextRowInputFormat(schema)
        by_dir = fmt.get_splits(fs, ["/in"])
        by_file = fmt.get_splits(fs, ["/in/part-0"])
        assert [(s.path, s.start) for s in by_dir] \
            == [(s.path, s.start) for s in by_file]

    def test_empty_file_has_no_splits(self):
        fs = HDFS(num_datanodes=1)
        fs.write_bytes("/empty", b"")
        assert TextRowInputFormat(
            Schema.of(("a", DataType.INT))).get_splits(fs, ["/empty"]) == []


class TestEngine:
    def test_map_only(self, loaded_fs):
        fs, schema = loaded_fs
        fmt = TextRowInputFormat(schema)

        def mapper(key, row, ctx):
            if row[1] < 5:
                ctx.emit(row[0], row[1])

        engine = MapReduceEngine(fs)
        result = engine.run(Job(name="m", input_format=fmt, mapper=mapper,
                                input_paths=["/in"], num_reducers=0))
        assert sorted(v for _, v in result.output) == [0, 1, 2, 3, 4]
        assert result.stats.map_input_records == 200
        assert result.stats.reduce_tasks == 0

    def test_full_job_with_combiner(self, loaded_fs):
        fs, schema = loaded_fs
        fmt = TextRowInputFormat(schema)

        def mapper(key, row, ctx):
            ctx.emit(row[0], 1)

        def reduce_fn(key, values, ctx):
            ctx.emit(key, sum(values))

        engine = MapReduceEngine(fs)
        with_combiner = engine.run(Job(
            name="c", input_format=fmt, mapper=mapper, combiner=reduce_fn,
            reducer=reduce_fn, input_paths=["/in"], num_reducers=3))
        without = engine.run(Job(
            name="nc", input_format=fmt, mapper=mapper,
            reducer=reduce_fn, input_paths=["/in"], num_reducers=3))
        assert sorted(with_combiner.output) == sorted(without.output)
        assert dict(with_combiner.output) == {k: 20 for k in range(10)}
        # the combiner shrinks shuffle volume
        assert with_combiner.stats.shuffle_bytes < without.stats.shuffle_bytes

    def test_partitioning_keeps_key_together(self, loaded_fs):
        fs, schema = loaded_fs
        fmt = TextRowInputFormat(schema)

        def mapper(key, row, ctx):
            ctx.emit(row[0], row[1])

        seen_keys = []

        def reducer(key, values, ctx):
            seen_keys.append(key)
            ctx.emit(key, len(values))

        engine = MapReduceEngine(fs)
        result = engine.run(Job(name="p", input_format=fmt, mapper=mapper,
                                reducer=reducer, input_paths=["/in"],
                                num_reducers=4))
        assert sorted(seen_keys) == list(range(10))  # each key reduced once
        assert result.stats.reduce_tasks <= 4

    def test_reduce_hooks(self, loaded_fs):
        fs, schema = loaded_fs
        fmt = TextRowInputFormat(schema)
        events = []

        def mapper(key, row, ctx):
            ctx.emit(0, 1)

        def reducer(key, values, ctx):
            assert ctx.state["open"]

        engine = MapReduceEngine(fs)
        engine.run(Job(
            name="h", input_format=fmt, mapper=mapper, reducer=reducer,
            input_paths=["/in"], num_reducers=1,
            reduce_setup=lambda ctx: (events.append("setup"),
                                      ctx.state.__setitem__("open", True)),
            reduce_cleanup=lambda ctx: events.append("cleanup")))
        assert events == ["setup", "cleanup"]

    def test_mapper_sees_split(self, loaded_fs):
        fs, schema = loaded_fs
        fmt = TextRowInputFormat(schema)
        paths = set()

        def mapper(key, row, ctx):
            paths.add(ctx.split.path)

        MapReduceEngine(fs).run(Job(name="s", input_format=fmt,
                                    mapper=mapper, input_paths=["/in"],
                                    num_reducers=0))
        assert paths == {"/in/part-0"}

    def test_presupplied_splits(self, loaded_fs):
        fs, schema = loaded_fs
        fmt = TextRowInputFormat(schema)
        splits = fmt.get_splits(fs, ["/in"])[:1]

        def mapper(key, row, ctx):
            ctx.emit(None, row)

        result = MapReduceEngine(fs).run(Job(
            name="ps", input_format=fmt, mapper=mapper, splits=splits,
            num_reducers=0))
        assert result.stats.map_tasks == 1
        assert 0 < result.stats.map_input_records < 200

    def test_validation_errors(self, loaded_fs):
        fs, schema = loaded_fs
        fmt = TextRowInputFormat(schema)
        with pytest.raises(MapReduceError):
            MapReduceEngine(fs).run(Job(name="bad", input_format=fmt,
                                        mapper=lambda k, v, c: None))
        with pytest.raises(MapReduceError):
            MapReduceEngine(fs).run(Job(
                name="bad2", input_format=fmt,
                mapper=lambda k, v, c: None, input_paths=["/in"],
                reduce_setup=lambda ctx: None))

    def test_stable_hash_deterministic(self):
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))
        assert stable_hash("x") != stable_hash("y")

    def test_estimate_size_shapes(self):
        assert estimate_size("abcd") == 4
        assert estimate_size(7) == 8
        assert estimate_size((1, "ab")) == 4 + 8 + 2
        assert estimate_size({1: "a"}) == 4 + 8 + 1
        assert estimate_size(None) == 1
        assert estimate_size({1, 2}) == 4 + 16

    def test_estimate_size_ignores_insertion_order(self):
        """Shuffle-byte accounting must be identical however a dict or set
        was populated — regression for stable counters across engines."""
        forward = {}
        backward = {}
        items = [("alpha", 1), ("b", 22.5), ("ccc", None), ("dd", "xyz")]
        for k, v in items:
            forward[k] = v
        for k, v in reversed(items):
            backward[k] = v
        assert estimate_size(forward) == estimate_size(backward)

        grow, shrink = set(), set()
        for token in ["a", "bb", "ccc", "dddd"]:
            grow.add(token)
        for token in ["dddd", "ccc", "bb", "a"]:
            shrink.add(token)
        assert estimate_size(grow) == estimate_size(shrink)

    def test_tasks_run_on_calling_thread(self, loaded_fs):
        """Every map, combine and reduce task of a multi-split,
        multi-partition job runs on the thread that called ``run``."""
        fs, schema = loaded_fs
        fmt = TextRowInputFormat(schema)
        threads = {"map": set(), "combine": set(), "reduce": set()}

        def mapper(key, row, ctx):
            threads["map"].add(threading.get_ident())
            ctx.emit(row[0], row[1])

        def combiner(key, values, ctx):
            threads["combine"].add(threading.get_ident())
            ctx.emit(key, sum(values))

        def reducer(key, values, ctx):
            threads["reduce"].add(threading.get_ident())
            ctx.emit(key, sum(values))

        result = MapReduceEngine(fs).run(Job(
            name="t", input_format=fmt, mapper=mapper, combiner=combiner,
            reducer=reducer, input_paths=["/in"], num_reducers=3))
        assert result.stats.map_tasks > 1
        assert result.stats.reduce_tasks > 1
        assert dict(result.output) == {
            k: sum(range(k, 200, 10)) for k in range(10)}
        caller = threading.get_ident()
        assert threads == {kind: {caller} for kind in threads}


class TestCostModel:
    def test_full_scan_lands_near_paper(self):
        """A 1 TB scan over the paper's cluster should land in the vicinity
        of the paper's ~1950 s ScanTable time (calibration anchor)."""
        model = CostModel(PAPER_CLUSTER, data_scale=137500.0)
        stats = JobStats(map_tasks=24, map_input_records=80000,
                         map_input_bytes=8_000_000, reduce_tasks=1)
        seconds = model.job_seconds(stats).total
        assert 1200 < seconds < 3000

    def test_time_scales_with_data(self):
        model_small = CostModel(PAPER_CLUSTER, data_scale=1000)
        model_big = CostModel(PAPER_CLUSTER, data_scale=100000)
        stats = JobStats(map_tasks=4, map_input_records=10000,
                         map_input_bytes=1_000_000)
        assert model_big.job_seconds(stats).total \
            > model_small.job_seconds(stats).total

    def test_launch_overhead_togglable(self):
        model = CostModel(PAPER_CLUSTER)
        stats = JobStats(map_tasks=1, map_input_records=10,
                         map_input_bytes=1000)
        with_launch = model.job_seconds(stats, include_launch=True)
        without = model.job_seconds(stats, include_launch=False)
        assert with_launch.read_index_and_other \
            == PAPER_CLUSTER.job_launch_seconds
        assert without.read_index_and_other == 0.0

    def test_kv_seconds(self):
        model = CostModel(PAPER_CLUSTER)
        time = model.kv_seconds(KVStats(gets=1000))
        assert time.read_index_and_other \
            == pytest.approx(1000 * PAPER_CLUSTER.kv_get_seconds)

    def test_kv_seconds_scaled_ops(self):
        model = CostModel(PAPER_CLUSTER, data_scale=10)
        unscaled = model.kv_seconds(KVStats(puts=100)).total
        scaled = model.kv_seconds(KVStats(puts=100), scale_ops=True).total
        assert scaled == pytest.approx(10 * unscaled)

    def test_breakdown_addition(self):
        total = (TimeBreakdown(1.0, 2.0) + TimeBreakdown(0.5, 0.25))
        assert total.read_index_and_other == 1.5
        assert total.read_data_and_process == 2.25
        assert total.total == 3.75

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            CostModel(PAPER_CLUSTER, data_scale=0)

    def test_cluster_slots(self):
        cluster = ClusterConfig(num_workers=28, map_slots_per_worker=5,
                                reduce_slots_per_worker=3)
        assert cluster.total_map_slots == 140
        assert cluster.total_reduce_slots == 84


class TestMeasuredCostModel:
    """CostModel.job_seconds_measured: per-task counters in, seconds out."""

    @staticmethod
    def _stats(map_tasks, total_bytes, total_records):
        return JobStats(map_tasks=map_tasks, map_input_bytes=total_bytes,
                        map_input_records=total_records)

    @staticmethod
    def _even_tasks(count, total_bytes, total_records):
        return [TaskStats(task_id=i, kind="map",
                          input_bytes=total_bytes // count,
                          input_records=total_records // count)
                for i in range(count)]

    def test_balanced_tasks_match_aggregate_model(self):
        """When every task did the same work, the measured model agrees
        with job_seconds' even-split assumption."""
        model = CostModel(PAPER_CLUSTER)
        stats = self._stats(4, 4_000_000, 40_000)
        tasks = self._even_tasks(4, 4_000_000, 40_000)
        balanced = model.job_seconds(stats).total
        measured = model.job_seconds_measured(stats, tasks).total
        assert measured == pytest.approx(balanced)

    def test_skew_costs_more_than_balance(self):
        """One straggler task holding most of the input must make the
        measured job slower than the balanced estimate."""
        model = CostModel(PAPER_CLUSTER)
        stats = self._stats(4, 4_000_000, 40_000)
        skewed = [TaskStats(task_id=0, kind="map",
                            input_bytes=3_700_000, input_records=37_000)]
        skewed += [TaskStats(task_id=i, kind="map",
                             input_bytes=100_000, input_records=1_000)
                   for i in range(1, 4)]
        assert model.job_seconds_measured(stats, skewed).total \
            > model.job_seconds(stats).total

    def test_no_map_tasks_falls_back(self):
        model = CostModel(PAPER_CLUSTER)
        stats = self._stats(3, 1_000_000, 10_000)
        fallback = model.job_seconds_measured(stats, [])
        direct = model.job_seconds(stats)
        assert fallback.total == direct.total
        assert fallback.read_index_and_other == direct.read_index_and_other

    def test_reduce_tasks_ignored_for_map_phase(self):
        """Reduce TaskStats must not be mistaken for map work."""
        model = CostModel(PAPER_CLUSTER)
        stats = self._stats(2, 2_000_000, 20_000)
        tasks = self._even_tasks(2, 2_000_000, 20_000)
        with_reduce = tasks + [TaskStats(task_id=0, kind="reduce",
                                         input_bytes=10**9,
                                         input_records=10**6)]
        assert model.job_seconds_measured(stats, with_reduce).total \
            == pytest.approx(model.job_seconds_measured(stats, tasks).total)

    def test_engine_task_stats_feed_the_model(self, loaded_fs):
        """End to end: real task stats from a job run plug straight in."""
        fs, schema = loaded_fs
        fmt = TextRowInputFormat(schema)

        def mapper(key, row, ctx):
            ctx.emit(row[0], row[1])

        def reducer(key, values, ctx):
            ctx.emit(key, sum(values))

        result = MapReduceEngine(fs).run(Job(
            name="mc", input_format=fmt, mapper=mapper, reducer=reducer,
            input_paths=["/in"], num_reducers=2))
        map_stats = [t for t in result.task_stats if t.kind == "map"]
        assert len(map_stats) == result.stats.map_tasks
        assert sum(t.input_records for t in map_stats) \
            == result.stats.map_input_records
        assert sum(t.input_bytes for t in map_stats) \
            == result.stats.map_input_bytes
        model = CostModel(PAPER_CLUSTER, data_scale=100.0)
        seconds = model.job_seconds_measured(result.stats,
                                             result.task_stats)
        assert seconds.total > 0.0
