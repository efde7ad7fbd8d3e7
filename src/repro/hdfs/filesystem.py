"""The HDFS facade: create/open/list/delete plus writer and reader streams.

Blocks default to 4 MiB — a documented 1:16 scale-down of the paper's 64 MB
HDFS blocks, so that the scaled-down datasets still produce multiple input
splits per file.  Replication defaults to 2, the paper's setting.
"""

from __future__ import annotations

import threading
import warnings
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.units import MiB
from repro.errors import (DataNodeUnavailable, FileNotFoundInHDFS, HDFSError,
                          IsADirectory)
from repro.hdfs.datanode import DataNode
from repro.hdfs.metrics import IOStats
from repro.hdfs.namenode import BlockInfo, INode, NameNode

DEFAULT_BLOCK_SIZE = 4 * MiB
DEFAULT_REPLICATION = 2


class ReplicationClampWarning(UserWarning):
    """A requested replication factor exceeded the datanode count and was
    clamped (HDFS cannot place two replicas of one block on one node)."""


_clamp_warned = False


def _warn_clamp_once(requested: int, effective: int,
                     num_datanodes: int) -> None:
    """Warn the first time a replication factor is clamped (per process;
    every clamp is still recorded on the instance as
    ``replication_requested`` vs. ``replication``)."""
    global _clamp_warned
    if _clamp_warned:
        return
    _clamp_warned = True
    warnings.warn(
        f"requested replication {requested} exceeds {num_datanodes} "
        f"datanode(s); clamped to {effective}",
        ReplicationClampWarning, stacklevel=3)


@dataclass
class FileStatus:
    """Result of :meth:`HDFS.status`: path, length and block layout."""

    path: str
    length: int
    is_dir: bool
    block_size: int
    blocks: List[BlockInfo]


class HDFSWriter:
    """Append-only output stream; flushes full blocks to DataNodes."""

    def __init__(self, fs: "HDFS", node: INode, path: str):
        self._fs = fs
        self._node = node
        self.path = path
        self._buffer = bytearray()
        self._closed = False
        self._written = 0

    @property
    def pos(self) -> int:
        """Current byte offset in the file (bytes written so far)."""
        return self._written

    def write(self, data: bytes) -> int:
        if self._closed:
            raise HDFSError(f"write to closed file {self.path!r}")
        self._buffer.extend(data)
        self._written += len(data)
        block_size = self._fs.block_size
        while len(self._buffer) >= block_size:
            self._fs._flush_block(self._node, bytes(self._buffer[:block_size]))
            del self._buffer[:block_size]
        return len(data)

    def close(self) -> None:
        if self._closed:
            return
        if self._buffer:
            self._fs._flush_block(self._node, bytes(self._buffer))
            self._buffer.clear()
        self._closed = True

    def __enter__(self) -> "HDFSWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class HDFSReader:
    """Byte-addressed read stream over a file's blocks."""

    def __init__(self, fs: "HDFS", node: INode, path: str):
        self._fs = fs
        self._node = node
        self.path = path
        self._pos = 0
        self._last_end = 0  # used to detect seeks for accounting

    @property
    def length(self) -> int:
        return self._node.length

    def seek(self, offset: int) -> None:
        if offset < 0:
            raise HDFSError(f"negative seek offset {offset}")
        self._pos = offset

    def tell(self) -> int:
        return self._pos

    def read(self, length: int = -1) -> bytes:
        if length < 0:
            length = self.length - self._pos
        data = self.pread(self._pos, length)
        self._pos += len(data)
        return data

    def pread(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` without moving the cursor."""
        if length <= 0 or offset >= self._node.length:
            return b""
        is_seek = offset != self._last_end
        out = bytearray()
        block_start = 0
        remaining = min(length, self._node.length - offset)
        for block in self._node.blocks:
            block_end = block_start + block.length
            if block_end > offset and remaining > 0:
                local_off = max(0, offset - block_start)
                take = min(block.length - local_off, remaining)
                out.extend(self._fs._read_block(block, local_off, take,
                                                seek=is_seek))
                is_seek = False
                remaining -= take
                offset += take
            block_start = block_end
            if remaining <= 0:
                break
        self._last_end = offset
        return bytes(out)

    def __enter__(self) -> "HDFSReader":
        return self

    def __exit__(self, *exc) -> None:
        pass


class HDFS:
    """The simulated distributed filesystem.

    Namespace mutations and block flushes are serialized by a lock so
    concurrent statements under the query service can create and write
    distinct files safely; reads stay lock-free (block bytes are immutable
    once flushed, and read accounting is task-local — see
    :func:`repro.hdfs.metrics.task_io_scope`).
    """

    def __init__(self, num_datanodes: int = 4,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 replication: int = DEFAULT_REPLICATION):
        if num_datanodes < 1:
            raise HDFSError("need at least one datanode")
        self.block_size = int(block_size)
        #: the factor the caller asked for, before any clamping.
        self.replication_requested = int(replication)
        self.replication = min(self.replication_requested, num_datanodes)
        if self.replication < self.replication_requested:
            _warn_clamp_once(self.replication_requested, self.replication,
                             num_datanodes)
        self.namenode = NameNode()
        self.datanodes = [DataNode(i) for i in range(num_datanodes)]
        self.io = IOStats()
        #: optional :class:`repro.obs.trace.Tracer`; when set, each block
        #: read/write also lands as ``hdfs.*`` counters on the calling
        #: thread's active trace span (each service thread has its own
        #: span stack, so per-op trace accounting stays race-free).
        self.tracer = None
        #: optional :class:`repro.faults.FaultInjector`; records datanode
        #: deaths and replica failovers when set.
        self.faults = None
        self._mutate_lock = threading.RLock()

    # ------------------------------------------------------------- namespace
    def mkdirs(self, path: str) -> None:
        with self._mutate_lock:
            self.namenode.mkdirs(path)

    def exists(self, path: str) -> bool:
        return self.namenode.exists(path)

    def list_dir(self, path: str) -> List[str]:
        return self.namenode.list_dir(path)

    def list_files(self, path: str) -> List[str]:
        """All file paths under ``path``, recursively, in sorted order."""
        return list(self.namenode.walk_files(path))

    def delete(self, path: str, recursive: bool = False) -> None:
        with self._mutate_lock:
            freed = self.namenode.delete(path, recursive=recursive)
            for block in freed:
                for node_id in block.datanodes:
                    self.datanodes[node_id].drop(block.block_id)

    def status(self, path: str) -> FileStatus:
        node = self.namenode.get(path)
        return FileStatus(path=path, length=node.length, is_dir=node.is_dir,
                          block_size=self.block_size,
                          blocks=list(node.blocks))

    def file_length(self, path: str) -> int:
        return self.namenode.get(path).length

    def total_size(self, path: str) -> int:
        """Total bytes of all files under ``path``."""
        return sum(self.file_length(p) for p in self.list_files(path))

    # ----------------------------------------------------------------- files
    def create(self, path: str, overwrite: bool = False) -> HDFSWriter:
        with self._mutate_lock:
            node = self.namenode.create_file(path, overwrite=overwrite)
            layout = self.namenode.layout_of(path)
            if layout is not None and layout.pinned:
                node.pinned = tuple(layout.datanodes)
        return HDFSWriter(self, node, path)

    def open(self, path: str) -> HDFSReader:
        node = self.namenode.get(path)
        if node.is_dir:
            raise IsADirectory(path)
        return HDFSReader(self, node, path)

    def write_bytes(self, path: str, data: bytes,
                    overwrite: bool = False) -> None:
        with self.create(path, overwrite=overwrite) as writer:
            writer.write(data)

    def read_bytes(self, path: str) -> bytes:
        with self.open(path) as reader:
            return reader.read()

    # ------------------------------------------------------------- datanodes
    def kill_datanode(self, node_id: int) -> None:
        """Mark one datanode dead (fault injection).  Its replicas become
        unreadable until :meth:`revive_datanode`; reads fail over to the
        surviving replicas, writes avoid the node."""
        self.datanodes[node_id].mark_dead()
        if self.faults is not None:
            self.faults.datanode_killed(node_id)

    def revive_datanode(self, node_id: int) -> None:
        self.datanodes[node_id].revive()

    def live_datanodes(self) -> List[int]:
        return [d.node_id for d in self.datanodes if d.alive]

    def replication_report(self) -> Dict[str, int]:
        """Requested vs. effective replication plus current block health.

        ``under_replicated`` counts blocks with fewer live replicas than
        the effective factor; ``unavailable`` counts blocks with none.
        """
        under = unavailable = total = 0
        for block in self.namenode.iter_blocks():
            total += 1
            live = sum(1 for node_id in block.datanodes
                       if self.datanodes[node_id].alive)
            if live == 0:
                unavailable += 1
            if live < self.replication:
                under += 1
        return {"requested": self.replication_requested,
                "effective": self.replication,
                "blocks": total,
                "under_replicated": under,
                "unavailable": unavailable}

    # --------------------------------------------------------------- layouts
    def register_layout(self, descriptor) -> None:
        """Register a :class:`~repro.hdfs.layout.LayoutDescriptor`.  Files
        created under its root are pinned to its datanodes; effective
        replication there is the pin-set size (never warned about — the
        clamp is the point of pinning, not an accident)."""
        for node_id in descriptor.datanodes:
            if not 0 <= node_id < len(self.datanodes):
                raise HDFSError(
                    f"layout {descriptor.name!r} pins unknown datanode "
                    f"{node_id} (cluster has {len(self.datanodes)})")
        with self._mutate_lock:
            self.namenode.register_layout(descriptor)

    def unregister_layout(self, root: str) -> None:
        with self._mutate_lock:
            self.namenode.unregister_layout(root)

    def layout_of(self, path: str):
        return self.namenode.layout_of(path)

    def layouts(self) -> List:
        return self.namenode.layouts()

    def layout_alive(self, name: str) -> bool:
        """Whether every datanode a layout is pinned to is alive (an
        unpinned or unknown layout is trivially alive — its blocks are
        replicated normally and fail over replica-by-replica)."""
        for descriptor in self.namenode.layouts():
            if descriptor.name == name:
                return all(self.datanodes[i].alive
                           for i in descriptor.datanodes)
        return True

    def layout_report(self) -> List[Dict[str, object]]:
        """One row per registered layout: root, format, pins, liveness."""
        return [{"name": d.name, "root": d.root, "stored_as": d.stored_as,
                 "datanodes": list(d.datanodes),
                 "alive": self.layout_alive(d.name)}
                for d in self.namenode.layouts()]

    # ---------------------------------------------------------------- blocks
    def _pick_datanodes(self, node: INode) -> List[int]:
        # A pinned file (a layout replica) places blocks only on its pin
        # set: the layout's bytes deliberately have no copies elsewhere,
        # so a dead pinned node means the layout is down, not degraded.
        if node.pinned:
            live = [i for i in node.pinned if self.datanodes[i].alive]
            if not live:
                raise DataNodeUnavailable(
                    f"layout datanodes {list(node.pinned)} for "
                    f"{node.name!r} are all dead")
            start = (zlib.crc32(node.name.encode())
                     + len(node.blocks)) % len(live)
            rotated = live[start:] + live[:start]
            return rotated[:min(self.replication, len(rotated))]
        n = len(self.datanodes)
        # Placement is a pure function of (file name, block ordinal), not a
        # shared round-robin cursor: concurrent writers (statements flushing
        # output blocks on several service threads) would otherwise
        # interleave cursor advances nondeterministically, making which
        # blocks land on a soon-to-die datanode — and therefore later
        # failover counts — vary run to run.  Scanning from the derived start still skips
        # dead nodes so the write pipeline only targets live replicas,
        # and consecutive blocks of one file still rotate across nodes.
        start = (zlib.crc32(node.name.encode()) + len(node.blocks)) % n
        picked: List[int] = []
        for i in range(n):
            node_id = (start + i) % n
            if self.datanodes[node_id].alive:
                picked.append(node_id)
                if len(picked) == self.replication:
                    break
        if not picked:
            raise DataNodeUnavailable("no live datanode to place a block on")
        return picked

    def _flush_block(self, node: INode, data: bytes) -> None:
        with self._mutate_lock:
            locations = self._pick_datanodes(node)
            block = self.namenode.allocate_block(node, len(data), locations)
            for node_id in locations:
                self.datanodes[node_id].store(block.block_id, data)
        # Global accounting counts the logical write once (not per replica);
        # replica traffic is modelled by the cost model's replication factor.
        self.io.record_write(len(data))
        tracer = self.tracer
        if tracer is not None:
            span = tracer.current()
            if span is not None:
                counters = span.counters
                counters["hdfs.bytes_written"] = \
                    counters.get("hdfs.bytes_written", 0) + len(data)
                counters["hdfs.write_ops"] = \
                    counters.get("hdfs.write_ops", 0) + 1

    def _read_block(self, block: BlockInfo, offset: int, length: int,
                    seek: bool) -> bytes:
        if not block.datanodes:
            raise FileNotFoundInHDFS(f"block {block.block_id} has no replicas")
        # Read from the first replica (locality is handled by the cost
        # model), failing over replica-by-replica past dead datanodes.
        data = None
        for index, node_id in enumerate(block.datanodes):
            datanode = self.datanodes[node_id]
            if not datanode.alive:
                continue
            data = datanode.read(block.block_id, offset, length, seek=seek)
            if index > 0:
                self._note_failover(block, node_id)
            break
        if data is None:
            raise DataNodeUnavailable(
                f"block {block.block_id}: all replicas on dead datanodes "
                f"{block.datanodes}")
        self.io.record_read(len(data), seek=seek)
        tracer = self.tracer
        if tracer is not None:
            span = tracer.current()
            if span is not None:
                counters = span.counters
                counters["hdfs.bytes_read"] = \
                    counters.get("hdfs.bytes_read", 0) + len(data)
                counters["hdfs.read_ops"] = \
                    counters.get("hdfs.read_ops", 0) + 1
                if seek:
                    counters["hdfs.seeks"] = counters.get("hdfs.seeks", 0) + 1
        return data

    def _note_failover(self, block: BlockInfo, used_node: int) -> None:
        if self.faults is not None:
            self.faults.replica_failover(block.block_id, used_node)
        tracer = self.tracer
        if tracer is not None:
            span = tracer.current()
            if span is not None:
                span.add("fault.hdfs_failovers")
