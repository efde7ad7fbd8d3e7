"""Tests for the simulated HDFS: namespace, blocks, I/O accounting."""

import warnings

import pytest

from repro.errors import (FileAlreadyExists, FileNotFoundInHDFS,
                          HDFSError, IsADirectory, NotADirectory)
from repro.hdfs.filesystem import HDFS, ReplicationClampWarning
from repro.hdfs.namenode import METADATA_BYTES_PER_OBJECT, NameNode


class TestNameNode:
    def test_mkdirs_creates_parents(self):
        nn = NameNode()
        nn.mkdirs("/a/b/c")
        assert nn.exists("/a")
        assert nn.exists("/a/b/c")
        assert nn.num_dirs == 4  # root + a + b + c

    def test_mkdirs_idempotent(self):
        nn = NameNode()
        nn.mkdirs("/a/b")
        nn.mkdirs("/a/b")
        assert nn.num_dirs == 3

    def test_create_file(self):
        nn = NameNode()
        nn.create_file("/dir/file")
        assert nn.exists("/dir/file")
        assert nn.num_files == 1

    def test_create_existing_fails(self):
        nn = NameNode()
        nn.create_file("/f")
        with pytest.raises(FileAlreadyExists):
            nn.create_file("/f")

    def test_create_overwrite(self):
        nn = NameNode()
        nn.create_file("/f")
        nn.create_file("/f", overwrite=True)
        assert nn.num_files == 1

    def test_create_over_directory_fails(self):
        nn = NameNode()
        nn.mkdirs("/d")
        with pytest.raises(IsADirectory):
            nn.create_file("/d")

    def test_file_as_parent_fails(self):
        nn = NameNode()
        nn.create_file("/f")
        with pytest.raises(NotADirectory):
            nn.mkdirs("/f/sub")

    def test_relative_path_rejected(self):
        nn = NameNode()
        with pytest.raises(FileNotFoundInHDFS):
            nn.mkdirs("relative/path")

    def test_get_missing_raises(self):
        nn = NameNode()
        with pytest.raises(FileNotFoundInHDFS):
            nn.get("/nope")

    def test_delete_file(self):
        nn = NameNode()
        nn.create_file("/f")
        nn.delete("/f")
        assert not nn.exists("/f")
        assert nn.num_files == 0

    def test_delete_nonempty_dir_needs_recursive(self):
        nn = NameNode()
        nn.create_file("/d/f")
        with pytest.raises(NotADirectory):
            nn.delete("/d")
        nn.delete("/d", recursive=True)
        assert not nn.exists("/d")
        assert nn.num_files == 0

    def test_list_dir_sorted(self):
        nn = NameNode()
        nn.create_file("/d/b")
        nn.create_file("/d/a")
        assert nn.list_dir("/d") == ["a", "b"]

    def test_walk_files(self):
        nn = NameNode()
        nn.create_file("/d/x/1")
        nn.create_file("/d/2")
        assert list(nn.walk_files("/d")) == ["/d/2", "/d/x/1"]

    def test_metadata_memory_rule(self):
        nn = NameNode()
        for i in range(10):
            nn.mkdirs(f"/p/dir{i}")
        objects = nn.num_dirs + nn.num_files + nn.num_blocks
        assert nn.metadata_memory_bytes() == \
            objects * METADATA_BYTES_PER_OBJECT

    def test_partition_explosion_projection(self):
        """The paper's example: 1M directories -> ~143 MB of heap."""
        assert 1_000_000 * METADATA_BYTES_PER_OBJECT \
            == pytest.approx(143 * 1024 * 1024, rel=0.05)


class TestHDFS:
    def test_roundtrip(self, fs):
        fs.write_bytes("/f", b"hello world")
        assert fs.read_bytes("/f") == b"hello world"

    def test_multi_block_file(self, fs):
        data = bytes(range(256)) * 20  # 5120 bytes > 5 blocks of 1024
        fs.write_bytes("/big", data)
        status = fs.status("/big")
        assert status.length == len(data)
        assert len(status.blocks) == 5
        assert fs.read_bytes("/big") == data

    def test_pread_within_and_across_blocks(self, fs):
        data = b"".join(bytes([i % 251]) * 1 for i in range(4000))
        fs.write_bytes("/f", data)
        with fs.open("/f") as reader:
            assert reader.pread(100, 50) == data[100:150]
            assert reader.pread(1000, 100) == data[1000:1100]  # crosses
            assert reader.pread(3990, 100) == data[3990:]  # clipped at EOF
            assert reader.pread(9999, 10) == b""

    def test_sequential_read_and_seek(self, fs):
        fs.write_bytes("/f", b"0123456789")
        with fs.open("/f") as reader:
            assert reader.read(4) == b"0123"
            assert reader.tell() == 4
            reader.seek(8)
            assert reader.read() == b"89"

    def test_replication_places_copies(self, fs):
        fs.write_bytes("/f", b"x" * 3000)
        status = fs.status("/f")
        for block in status.blocks:
            assert len(block.datanodes) == fs.replication
            for node in block.datanodes:
                assert fs.datanodes[node].has_block(block.block_id)

    def test_delete_frees_datanode_space(self, fs):
        fs.write_bytes("/f", b"x" * 3000)
        used_before = sum(dn.used_bytes for dn in fs.datanodes)
        assert used_before > 0
        fs.delete("/f")
        assert sum(dn.used_bytes for dn in fs.datanodes) == 0

    def test_io_stats_reads(self, fs):
        fs.write_bytes("/f", b"x" * 2048)
        before = fs.io.snapshot()
        fs.read_bytes("/f")
        delta = fs.io.delta(before)
        assert delta.bytes_read == 2048

    def test_io_stats_seek_accounting(self, fs):
        fs.write_bytes("/f", b"x" * 2048)
        with fs.open("/f") as reader:
            reader.pread(0, 10)
            before = fs.io.seeks
            reader.pread(1000, 10)  # non-contiguous -> seek
            assert fs.io.seeks == before + 1
            after = fs.io.seeks
            reader.pread(1010, 10)  # contiguous -> no seek
            assert fs.io.seeks == after

    def test_open_directory_fails(self, fs):
        fs.mkdirs("/d")
        with pytest.raises(IsADirectory):
            fs.open("/d")

    def test_write_to_closed_writer_fails(self, fs):
        writer = fs.create("/f")
        writer.close()
        with pytest.raises(HDFSError):
            writer.write(b"x")

    def test_list_files_recursive(self, fs):
        fs.write_bytes("/t/a/f1", b"1")
        fs.write_bytes("/t/f2", b"2")
        assert fs.list_files("/t") == ["/t/a/f1", "/t/f2"]

    def test_total_size(self, fs):
        fs.write_bytes("/t/f1", b"123")
        fs.write_bytes("/t/f2", b"4567")
        assert fs.total_size("/t") == 7

    def test_writer_pos_tracks_offsets(self, fs):
        with fs.create("/f") as writer:
            assert writer.pos == 0
            writer.write(b"abc")
            assert writer.pos == 3
            writer.write(b"x" * 2000)
            assert writer.pos == 2003

    def test_needs_at_least_one_datanode(self):
        with pytest.raises(HDFSError):
            HDFS(num_datanodes=0)

    def test_replication_capped_by_datanodes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ReplicationClampWarning)
            fs = HDFS(num_datanodes=1, replication=3)
        assert fs.replication == 1
        assert fs.replication_requested == 3


class TestIOStatsTaskScopes:
    """IOStats merging and the task-local capture scopes that concurrent
    statements rely on for race-free accounting."""

    def test_merge_adds_every_field(self):
        from repro.hdfs.metrics import IOStats
        total = IOStats(bytes_read=1, bytes_written=2, read_ops=3,
                        write_ops=4, seeks=5)
        total.merge(IOStats(bytes_read=10, bytes_written=20, read_ops=30,
                            write_ops=40, seeks=50))
        assert total == IOStats(bytes_read=11, bytes_written=22,
                                read_ops=33, write_ops=44, seeks=55)

    def test_merge_order_independent(self):
        from repro.hdfs.metrics import IOStats
        parts = [IOStats(bytes_read=i, read_ops=1) for i in (3, 7, 11)]
        forward, backward = IOStats(), IOStats()
        for part in parts:
            forward.merge(part)
        for part in reversed(parts):
            backward.merge(part)
        assert forward == backward

    def test_scope_buffers_until_exit(self, fs):
        """Inside a scope, updates are captured task-locally and only
        reach the shared instance when the scope exits."""
        from repro.hdfs.metrics import task_io_scope
        fs.write_bytes("/f", b"x" * 1000)
        outside = fs.io.snapshot()
        with task_io_scope() as scope:
            fs.read_bytes("/f")
            captured = scope.captured(fs.io)
            assert captured.bytes_read == 1000
            # shared totals not yet touched
            assert fs.io.snapshot().bytes_read == outside.bytes_read
        assert fs.io.bytes_read == outside.bytes_read + 1000

    def test_scope_captures_writes(self, fs):
        from repro.hdfs.metrics import task_io_scope
        with task_io_scope() as scope:
            fs.write_bytes("/w", b"y" * 512)
            assert scope.captured(fs.io).bytes_written == 512
        assert fs.io.bytes_written >= 512

    def test_untouched_stats_capture_zero(self, fs):
        from repro.hdfs.metrics import IOStats, task_io_scope
        with task_io_scope() as scope:
            assert scope.captured(fs.io) == IOStats()

    def test_nested_scope_flushes_to_parent(self, fs):
        from repro.hdfs.metrics import task_io_scope
        fs.write_bytes("/f", b"x" * 300)
        before = fs.io.snapshot()
        with task_io_scope() as outer:
            with task_io_scope() as inner:
                fs.read_bytes("/f")
                assert inner.captured(fs.io).bytes_read == 300
            # the inner task's I/O now belongs to the outer scope ...
            assert outer.captured(fs.io).bytes_read == 300
            # ... and still hasn't hit the shared instance
            assert fs.io.snapshot().bytes_read == before.bytes_read
        assert fs.io.bytes_read == before.bytes_read + 300

    def test_threads_capture_independently(self, fs):
        """Two threads reading different volumes under their own scopes
        each see exactly their own bytes; the shared total sees the sum."""
        import threading

        from repro.hdfs.metrics import task_io_scope
        fs.write_bytes("/a", b"a" * 1000)
        fs.write_bytes("/b", b"b" * 3000)
        before = fs.io.snapshot()
        captured = {}
        barrier = threading.Barrier(2)

        def worker(name, path):
            with task_io_scope() as scope:
                barrier.wait()
                fs.read_bytes(path)
                captured[name] = scope.captured(fs.io).bytes_read

        threads = [threading.Thread(target=worker, args=("a", "/a")),
                   threading.Thread(target=worker, args=("b", "/b"))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert captured == {"a": 1000, "b": 3000}
        assert fs.io.bytes_read == before.bytes_read + 4000



class TestReplicationClamp:
    """Regression tests for the once-silent replication clamp: the
    requested factor is now recorded, reported, and warned about once."""

    @pytest.fixture(autouse=True)
    def _fresh_warning_state(self):
        from repro.hdfs import filesystem
        saved = filesystem._clamp_warned
        filesystem._clamp_warned = False
        yield
        filesystem._clamp_warned = saved

    @staticmethod
    def _clamp_warnings(records):
        from repro.hdfs.filesystem import ReplicationClampWarning
        return [w for w in records
                if issubclass(w.category, ReplicationClampWarning)]

    def test_clamp_records_requested_vs_effective(self):
        from repro.hdfs.filesystem import ReplicationClampWarning
        with pytest.warns(ReplicationClampWarning, match="clamped to 1"):
            fs = HDFS(num_datanodes=1, replication=2)
        assert fs.replication_requested == 2
        assert fs.replication == 1
        report = fs.replication_report()
        assert report["requested"] == 2
        assert report["effective"] == 1

    def test_clamp_warns_only_once_per_process(self):
        import warnings as warnings_module
        from repro.hdfs.filesystem import ReplicationClampWarning
        with pytest.warns(ReplicationClampWarning):
            HDFS(num_datanodes=1, replication=2)
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            fs = HDFS(num_datanodes=2, replication=5)  # clamped, silent
        assert self._clamp_warnings(caught) == []
        # ...but the clamp is still recorded on the instance
        assert fs.replication_requested == 5
        assert fs.replication == 2

    def test_unclamped_replication_never_warns(self):
        import warnings as warnings_module
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            fs = HDFS(num_datanodes=3, replication=2)
        assert self._clamp_warnings(caught) == []
        assert fs.replication_requested == fs.replication == 2

    def test_replication_report_counts_block_health(self):
        fs = HDFS(num_datanodes=3, replication=2, block_size=256)
        fs.write_bytes("/f", b"x" * 1000)  # 4 blocks, 2 replicas each
        report = fs.replication_report()
        assert report == {"requested": 2, "effective": 2, "blocks": 4,
                          "under_replicated": 0, "unavailable": 0}
        fs.kill_datanode(0)
        degraded = fs.replication_report()
        assert degraded["blocks"] == 4
        assert degraded["under_replicated"] > 0
        assert degraded["unavailable"] == 0  # the second replica is live
        assert fs.read_bytes("/f") == b"x" * 1000  # reads fail over


class TestDataNodeFailover:
    """Dead datanodes: reads fail over to live replicas; a block with no
    live replica surfaces the transient DataNodeUnavailable."""

    def test_read_fails_over_past_dead_primary(self):
        fs = HDFS(num_datanodes=3, replication=2, block_size=256)
        fs.write_bytes("/f", b"y" * 600)
        primary = fs.status("/f").blocks[0].datanodes[0]
        fs.kill_datanode(primary)
        assert fs.read_bytes("/f") == b"y" * 600
        assert primary not in fs.live_datanodes()

    def test_all_replicas_dead_raises_transient(self):
        from repro.errors import DataNodeUnavailable, TransientError
        fs = HDFS(num_datanodes=2, replication=1)
        fs.write_bytes("/f", b"z" * 100)
        for node_id in fs.status("/f").blocks[0].datanodes:
            fs.kill_datanode(node_id)
        with pytest.raises(DataNodeUnavailable) as excinfo:
            fs.read_bytes("/f")
        assert isinstance(excinfo.value, TransientError)

    def test_revive_restores_reads(self):
        fs = HDFS(num_datanodes=2, replication=1)
        fs.write_bytes("/f", b"w" * 100)
        node = fs.status("/f").blocks[0].datanodes[0]
        fs.kill_datanode(node)
        fs.revive_datanode(node)
        assert fs.read_bytes("/f") == b"w" * 100
        assert sorted(fs.live_datanodes()) == [0, 1]

    def test_writes_avoid_dead_datanodes(self):
        fs = HDFS(num_datanodes=3, replication=2, block_size=256)
        fs.kill_datanode(1)
        fs.write_bytes("/f", b"q" * 600)
        for block in fs.status("/f").blocks:
            assert 1 not in block.datanodes
            assert len(block.datanodes) == 2

    def test_no_live_datanode_fails_writes(self):
        from repro.errors import DataNodeUnavailable
        fs = HDFS(num_datanodes=1, replication=1)
        fs.kill_datanode(0)
        with pytest.raises(DataNodeUnavailable):
            fs.write_bytes("/f", b"a")
