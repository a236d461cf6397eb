"""Write-ahead logging and the framed record files behind durable storage.

Durability in minidb follows the classic snapshot-plus-redo-log recipe
(the disk-based-structured-storage direction of EMBANKS): every logical
mutation is appended to a write-ahead log *before* the owning process is
allowed to forget it, dirty pages are flushed lazily, and recovery
replays the log over the last checkpoint snapshot.

Two file formats share one framing scheme:

* a **record frame** is ``<u32 payload length><u32 crc32><payload>``.
  The CRC covers the payload only; a frame whose length field runs past
  the end of the file, or whose checksum does not match, marks the
  *torn tail* left by a crash mid-append.  Iteration stops cleanly at
  the first bad frame and reports the safe truncation offset, so a
  reopened log can cut the tail and keep appending.
* every file starts with an 8-byte magic/version header; the WAL
  additionally stores an **epoch** number that ties it to the snapshot
  it extends.  A checkpoint bumps the epoch in both places; finding a
  WAL whose epoch disagrees with the snapshot means the log belongs to
  a different (older or half-finished) checkpoint generation and must
  be discarded rather than replayed.

Payloads are pickled Python tuples.  The WAL is *logical*: it records
table-level operations (insert/update/delete/DDL), not page images, so
replaying it against the exactly-restored snapshot state reproduces
record ids deterministically.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Any, BinaryIO, Optional

from .errors import StorageError

#: Frame header: payload length and CRC32, both little-endian u32.
_FRAME = struct.Struct("<II")

FRAME_HEADER_SIZE = _FRAME.size


class FileOps:
    """The file-operation seam of the durable storage layer.

    Every *mutating* file operation — opening for write, writing,
    truncating, fsyncing, renaming, removing — goes through one of these
    objects so tests can substitute a fault-injecting implementation
    (:class:`repro.minidb.testing.FaultInjector`) that crashes the
    process model at an arbitrary I/O point.  Reads are not routed: a
    crash during a read leaves no durability hazard.

    Files are opened unbuffered: the crash model is a process kill with
    the OS surviving, so everything handed to the OS before the crash
    point persists and nothing lingers in user-space buffers.
    """

    def open(self, path: str | os.PathLike, mode: str) -> BinaryIO:
        return open(path, mode, buffering=0)

    def fsync(self, fh: BinaryIO) -> None:
        fh.flush()
        os.fsync(fh.fileno())

    def replace(self, src: str | os.PathLike, dst: str | os.PathLike) -> None:
        os.replace(src, dst)

    def remove(self, path: str | os.PathLike) -> None:
        os.remove(path)

#: File magics (8 bytes: 4 magic + 2 version + 2 reserved).
WAL_MAGIC = b"MDBW\x01\x00\x00\x00"
SEGMENT_MAGIC = b"MDBS\x01\x00\x00\x00"

#: The WAL header stores the epoch right after the magic, as u64.
_EPOCH = struct.Struct("<Q")
WAL_HEADER_SIZE = len(WAL_MAGIC) + _EPOCH.size


def write_frame(fh: BinaryIO, payload: bytes) -> int:
    """Append one framed record at the current position; returns its offset."""
    offset = fh.tell()
    fh.write(_FRAME.pack(len(payload), zlib.crc32(payload)))
    fh.write(payload)
    return offset


def read_frame_at(fh: BinaryIO, offset: int) -> bytes:
    """Read and verify the frame at *offset*, raising :class:`StorageError` on damage."""
    fh.seek(offset)
    header = fh.read(_FRAME.size)
    if len(header) < _FRAME.size:
        raise StorageError(f"truncated frame header at offset {offset}")
    length, crc = _FRAME.unpack(header)
    payload = fh.read(length)
    if len(payload) < length or zlib.crc32(payload) != crc:
        raise StorageError(f"corrupt frame at offset {offset}")
    return payload


@dataclass
class TailScan:
    """Result of scanning a framed file: payloads plus the safe end offset."""

    payloads: list[bytes]
    good_end: int
    torn: bool


def scan_frames(fh: BinaryIO, start: int) -> TailScan:
    """Read frames from *start* until EOF or the first damaged frame.

    A damaged frame (short header, short payload, or CRC mismatch) is the
    torn tail of a crashed append; everything before it is intact and
    everything after it is unrecoverable, so the scan stops there.
    """
    payloads: list[bytes] = []
    offset = start
    fh.seek(0, io.SEEK_END)
    file_end = fh.tell()
    torn = False
    while offset < file_end:
        header_end = offset + _FRAME.size
        if header_end > file_end:
            torn = True
            break
        fh.seek(offset)
        length, crc = _FRAME.unpack(fh.read(_FRAME.size))
        payload_end = header_end + length
        if payload_end > file_end:
            torn = True
            break
        payload = fh.read(length)
        if zlib.crc32(payload) != crc:
            torn = True
            break
        payloads.append(payload)
        offset = payload_end
    return TailScan(payloads=payloads, good_end=offset, torn=torn)


class WriteAheadLog:
    """An append-only logical redo log with epoch-stamped truncation.

    Records are arbitrary picklable tuples.  ``append`` flushes to the
    OS after every record (the simulated durability boundary); ``sync``
    additionally fsyncs, and is called by checkpoints.

    *fsync_batch* adds group commit on top: ``0`` (the default) keeps
    the behaviour above — no per-record fsync, durability only at
    checkpoints; ``N >= 1`` guarantees an fsync at least once every N
    appended records, so ``1`` is classic fsync-per-commit durability
    and larger N coalesces the fsyncs of a whole write burst (e.g. one
    engine round) into one disk barrier.  ``syncs_performed`` counts
    the fsyncs issued either way.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        fsync_batch: int = 0,
        ops: Optional[FileOps] = None,
    ) -> None:
        self.path = os.fspath(path)
        self.fsync_batch = max(int(fsync_batch), 0)
        self.ops = ops if ops is not None else FileOps()
        self.bytes_written = 0
        self.records_written = 0
        self.syncs_performed = 0
        self._pending_records = 0
        self._epoch = 0
        if os.path.exists(self.path):
            self._fh = self.ops.open(self.path, "r+b")
            self._epoch = self._read_header()
            self._fh.seek(0, io.SEEK_END)
        else:
            self._fh = self.ops.open(self.path, "w+b")
            self._write_header(0)

    # -- header ----------------------------------------------------------
    def _write_header(self, epoch: int) -> None:
        self._fh.seek(0)
        self._fh.truncate()
        self._fh.write(WAL_MAGIC)
        self._fh.write(_EPOCH.pack(epoch))
        self._fh.flush()
        self._epoch = epoch

    def _read_header(self) -> int:
        self._fh.seek(0)
        header = self._fh.read(WAL_HEADER_SIZE)
        if len(header) < WAL_HEADER_SIZE:
            # A header shorter than expected is the torn remnant of a crash
            # during creation or reset — both windows where the log holds no
            # records yet.  Rewrite it as an empty epoch-0 log; if a newer
            # snapshot exists, its epoch check discards this log anyway.
            # A *full-length* header with the wrong magic stays fatal: that
            # is a foreign file, not a torn write.
            if WAL_MAGIC.startswith(header[: len(WAL_MAGIC)]):
                self._write_header(0)
                return 0
            raise StorageError(f"{self.path} is not a minidb WAL (bad magic)")
        if header[: len(WAL_MAGIC)] != WAL_MAGIC:
            raise StorageError(f"{self.path} is not a minidb WAL (bad magic)")
        return _EPOCH.unpack(header[len(WAL_MAGIC) :])[0]

    @property
    def epoch(self) -> int:
        return self._epoch

    # -- appending -------------------------------------------------------
    def append(self, record: tuple) -> None:
        """Serialise and append one logical record, flushing to the OS.

        With group commit enabled (``fsync_batch > 0``) every N-th append
        also fsyncs, so at most N records are ever exposed to a power
        loss between explicit :meth:`sync` points.
        """
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        self._fh.seek(0, io.SEEK_END)
        write_frame(self._fh, payload)
        self._fh.flush()
        self.bytes_written += _FRAME.size + len(payload)
        self.records_written += 1
        if self.fsync_batch:
            self._pending_records += 1
            if self._pending_records >= self.fsync_batch:
                self.sync()

    def sync(self) -> None:
        self.ops.fsync(self._fh)
        self.syncs_performed += 1
        self._pending_records = 0

    # -- replay / truncation ---------------------------------------------
    def replay(self, expected_epoch: Optional[int] = None) -> list[tuple]:
        """Return every intact record, truncating any torn tail in place.

        When *expected_epoch* is given and disagrees with the log's own
        epoch, the log belongs to a different checkpoint generation: its
        records are already folded into (or superseded by) the snapshot,
        so it is reset instead of replayed.
        """
        if expected_epoch is not None and expected_epoch != self._epoch:
            self.reset(expected_epoch)
            return []
        scan = scan_frames(self._fh, WAL_HEADER_SIZE)
        if scan.torn:
            self._fh.truncate(scan.good_end)
            self._fh.flush()
        self._fh.seek(0, io.SEEK_END)
        return [pickle.loads(payload) for payload in scan.payloads]

    def reset(self, epoch: int) -> None:
        """Discard every record and stamp the log with a new epoch."""
        self._write_header(epoch)
        self.ops.fsync(self._fh)
        self._pending_records = 0

    def close(self) -> None:
        if not self._fh.closed:
            if self._pending_records:
                # Don't leave an un-fsynced group-commit tail behind.
                self.sync()
            self._fh.flush()
            self._fh.close()


def dump_record(record: Any) -> bytes:
    """Pickle a snapshot/segment payload (shared helper)."""
    return pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)


def load_record(payload: bytes) -> Any:
    return pickle.loads(payload)
