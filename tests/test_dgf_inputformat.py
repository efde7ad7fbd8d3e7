"""Tests for slice->split mapping and the slice-skipping record reader."""

import pytest

from repro.core.dgf.gfu import GFUValue, SliceLocation
from repro.core.dgf.inputformat import (DgfSliceInputFormat, merge_ranges,
                                        slices_to_splits)
from repro.hdfs.filesystem import HDFS
from repro.hive.metastore import TableInfo
from repro.storage.schema import DataType, Schema
from repro.storage.textfile import TextFileWriter


class TestMergeRanges:
    def test_disjoint_sorted(self):
        assert merge_ranges([(10, 20), (0, 5)]) == [(0, 5), (10, 20)]

    def test_adjacent_coalesce(self):
        assert merge_ranges([(0, 5), (5, 9)]) == [(0, 9)]

    def test_overlapping(self):
        assert merge_ranges([(0, 7), (3, 10)]) == [(0, 10)]

    def test_empty_ranges_dropped(self):
        assert merge_ranges([(5, 5), (1, 2)]) == [(1, 2)]


class TestSliceLocation:
    def test_overlap_and_clip(self):
        location = SliceLocation(file="/f", start=10, end=30)
        assert location.overlaps(20, 40)
        assert not location.overlaps(30, 40)
        clipped = location.clip(20, 25)
        assert (clipped.start, clipped.end) == (20, 25)
        assert location.length == 20

    def test_gfu_value_merge(self):
        from repro.hive.aggregates import SumAgg
        a = GFUValue(header={"sum(v)": 1.0},
                     locations=[SliceLocation("/f", 0, 10)], records=2)
        b = GFUValue(header={"sum(v)": 2.5},
                     locations=[SliceLocation("/g", 0, 4)], records=1)
        a.merge(b, {"sum(v)": SumAgg()})
        assert a.header["sum(v)"] == 3.5
        assert len(a.locations) == 2
        assert a.records == 3


@pytest.fixture
def sliced_table():
    """A text table whose file has three known slices."""
    fs = HDFS(num_datanodes=2, block_size=300)
    schema = Schema.of(("k", DataType.INT), ("v", DataType.STRING))
    table = TableInfo(name="t", schema=schema)
    fs.mkdirs(table.location)
    path = f"{table.location}/g000-00000_0"
    slices = []
    with fs.create(path) as stream:
        writer = TextFileWriter(stream, schema)
        for gfu in range(3):
            start = writer.pos
            for i in range(12):
                writer.write_row((gfu * 100 + i, f"row-{gfu}-{i}"))
            slices.append(SliceLocation(path, start, writer.pos))
    return fs, table, slices


class TestSlicesToSplits:
    def test_chosen_splits_carry_clipped_ranges(self, sliced_table):
        fs, table, slices = sliced_table
        chosen, total = slices_to_splits(fs, table, [slices[0], slices[2]])
        assert total == len(fs.status(slices[0].file).blocks)
        assert 0 < len(chosen) <= total
        covered = merge_ranges(
            [r for split in chosen
             for r in split.meta["slices"]])
        expected = merge_ranges([(slices[0].start, slices[0].end),
                                 (slices[2].start, slices[2].end)])
        assert covered == expected
        for split in chosen:
            for start, end in split.meta["slices"]:
                assert split.start <= start < end <= split.end

    def test_no_slices_no_splits(self, sliced_table):
        fs, table, _ = sliced_table
        assert slices_to_splits(fs, table, []) == ([], 0) \
            or slices_to_splits(fs, table, [])[0] == []

    def test_slice_spanning_splits_is_divided(self, sliced_table):
        """A slice crossing a block boundary is split between mappers with
        no row lost or duplicated."""
        fs, table, slices = sliced_table
        spanning = [s for s in slices
                    if s.start // fs.block_size != (s.end - 1)
                    // fs.block_size]
        assert spanning, "fixture should produce a block-spanning slice"
        target = spanning[0]
        chosen, _ = slices_to_splits(fs, table, [target])
        assert len(chosen) >= 2
        fmt = DgfSliceInputFormat(table)
        rows = []
        for split in chosen:
            rows.extend(r for _, r in fmt.read_split(fs, split))
        assert len(rows) == 12
        assert len(set(rows)) == 12


class TestSliceReader:
    def test_reads_exactly_slice_rows(self, sliced_table):
        fs, table, slices = sliced_table
        chosen, _ = slices_to_splits(fs, table, [slices[1]])
        fmt = DgfSliceInputFormat(table)
        rows = [r for split in chosen
                for _, r in fmt.read_split(fs, split)]
        assert sorted(k for k, _ in rows) \
            == [100 + i for i in range(12)]

    def test_skips_margins_between_slices(self, sliced_table):
        fs, table, slices = sliced_table
        chosen, _ = slices_to_splits(fs, table, [slices[0], slices[2]])
        fmt = DgfSliceInputFormat(table)
        keys = sorted(k for split in chosen
                      for _, (k, _v) in fmt.read_split(fs, split))
        assert keys == [i for i in range(12)] \
            + [200 + i for i in range(12)]

    def test_empty_meta_reads_nothing(self, sliced_table):
        fs, table, slices = sliced_table
        chosen, _ = slices_to_splits(fs, table, [slices[0]])
        split = chosen[0]
        split.meta.pop("slices")
        fmt = DgfSliceInputFormat(table)
        assert list(fmt.read_split(fs, split)) == []

    def test_rcfile_slices(self):
        """Slices over an RCFile table align with row groups."""
        from repro.hive import formats
        fs = HDFS(num_datanodes=2, block_size=4096)
        schema = Schema.of(("k", DataType.INT), ("v", DataType.STRING))
        table = TableInfo(name="rc", schema=schema, stored_as="RCFILE")
        fs.mkdirs(table.location)
        path = f"{table.location}/f0"
        from repro.storage.rcfile import RCFileWriter
        slices = []
        with fs.create(path) as stream:
            writer = RCFileWriter(stream, schema, row_group_size=1000)
            for gfu in range(3):
                writer.flush()
                start = writer.pos
                for i in range(5):
                    writer.write_row((gfu * 10 + i, "x"))
                writer.flush()
                slices.append(SliceLocation(path, start, writer.pos))
        chosen, _ = slices_to_splits(fs, table, [slices[1]])
        fmt = DgfSliceInputFormat(table)
        keys = [k for split in chosen
                for _, (k, _v) in fmt.read_split(fs, split)]
        assert sorted(keys) == [10, 11, 12, 13, 14]


class TestConcurrentGetSplits:
    """Two sessions filtering splits for the same table at once (concurrent
    statements under the query service) must interfere with neither each
    other nor a sequential caller."""

    def test_concurrent_slices_to_splits_match_sequential(self,
                                                          sliced_table):
        from concurrent.futures import ThreadPoolExecutor

        fs, table, slices = sliced_table
        requests = [[slices[0], slices[2]], [slices[1]]] * 4

        def fingerprint(request):
            chosen, total = slices_to_splits(fs, table, request)
            return total, [(s.path, s.start, s.length,
                            tuple(s.meta["slices"])) for s in chosen]

        sequential = [fingerprint(request) for request in requests]
        with ThreadPoolExecutor(max_workers=2) as pool:
            concurrent = list(pool.map(fingerprint, requests))
        assert concurrent == sequential

    def test_concurrent_readers_share_splits(self, sliced_table):
        """Splits computed once can be read by two threads concurrently
        (fresh reader state per read_split call)."""
        from concurrent.futures import ThreadPoolExecutor

        fs, table, slices = sliced_table
        chosen, _ = slices_to_splits(fs, table, list(slices))
        fmt = DgfSliceInputFormat(table)

        def read_all():
            return sorted(k for split in chosen
                          for _, (k, _v) in fmt.read_split(fs, split))

        expected = read_all()
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = [pool.submit(read_all) for _ in range(4)]
            assert all(f.result() == expected for f in results)

    def test_two_sessions_same_table_parallel_queries(self):
        """Full-stack version: two HiveSessions over identical data run
        indexed queries concurrently through their query services; answers
        match the sequential run."""
        from repro.service.queryservice import QueryService
        from tests.conftest import METER_DDL, make_session, meter_rows

        sql = ("SELECT sum(powerconsumed), count(*) FROM meterdata "
               "WHERE userid >= 10 AND userid < 40 AND regionid >= 0 "
               "AND regionid <= 2 AND ts >= '2012-12-01' "
               "AND ts <= '2012-12-04'")

        def build_session():
            session = make_session(block_size=2048)
            session.execute(METER_DDL)
            session.load_rows("meterdata", meter_rows())
            session.execute(
                "CREATE INDEX d ON TABLE meterdata(userid, regionid, ts) "
                "AS 'dgf' IDXPROPERTIES ('userid'='0_25', "
                "'regionid'='0_1', 'ts'='2012-12-01_2d', "
                "'precompute'='sum(powerconsumed),count(*)')")
            return session

        baseline = build_session().execute(sql).rows
        services = [QueryService(build_session(), max_workers=4)
                    for _ in range(2)]
        try:
            futures = [service.submit(sql)
                       for _ in range(4) for service in services]
            for future in futures:
                assert future.result().rows == baseline
        finally:
            for service in services:
                service.close()
