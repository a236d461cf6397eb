"""Pluggable page stores under the buffer pool: in-memory and durable.

The buffer pool caches hot pages and counts transfers; where evicted
pages *go* is the :class:`StorageBackend`'s business.  Two backends are
provided:

* :class:`MemoryBackend` — the original behaviour: evicted pages live in
  a dict, nothing survives the process.  This is the default and keeps
  the seed semantics (and I/O accounting) bit for bit.
* :class:`DurableBackend` — pages are pickled into an append-only
  *segment file*; a page directory maps each page id to its latest
  image offset.  A logical :class:`~repro.minidb.wal.WriteAheadLog`
  records every table mutation, and a checkpoint writes an atomic
  snapshot (format number + catalog metadata + page directory + WAL
  epoch; the directory, an entry per page, zlib-compressed) so
  :meth:`repro.minidb.database.Database.open` can restore the last
  checkpoint and replay the log over it.  A snapshot of any other
  format is refused by name (:data:`SNAPSHOT_FORMAT`).

The segment file is never rewritten in place — superseded page images
simply become garbage — so a crash can at worst leave an unreferenced
tail, never a corrupt directory.  Garbage does not accumulate forever,
though: a :class:`~repro.minidb.compactor.Compactor` decides at
checkpoint time whether to rewrite the live images into a fresh
epoch-stamped segment file and atomically swap it in (the snapshot
rename is the commit point; stale segment files are fenced — deleted —
on the next open).  All file mutation goes through a pluggable
:class:`~repro.minidb.wal.FileOps` so crash-recovery tests can inject
faults at every individual I/O point.
"""

from __future__ import annotations

import os
import re
import zlib
from typing import Any, Optional

from .compactor import Compactor, SegmentEntry
from .errors import BufferPoolError, StorageError
from .pages import Page, PageId
from .wal import (
    FRAME_HEADER_SIZE,
    SEGMENT_MAGIC,
    FileOps,
    WriteAheadLog,
    dump_record,
    load_record,
    read_frame_at,
    write_frame,
)

#: File names inside a durable database directory.
SEGMENT_FILE = "segments.dat"
WAL_FILE = "wal.dat"
SNAPSHOT_FILE = "snapshot.dat"

#: The layout of the snapshot record and of everything it references: the
#: compressed ``(offset, length)`` directory, the segment epoch and
#: column-chunk page images, every directory entry a table page's, and the
#: ``app_state`` pickled on its own (so an open never unpickles it).  A
#: snapshot without this number, or with another, is refused at open.
SNAPSHOT_FORMAT = 3

#: Segment files carry the epoch of the compaction that wrote them;
#: epoch 0 is the database's original (never-compacted) segment file.
_SEGMENT_NAME = re.compile(r"^segments(?:\.(\d+))?\.dat$")


def segment_file_name(segment_epoch: int) -> str:
    """The on-disk name of the segment file written at *segment_epoch*."""
    if segment_epoch == 0:
        return SEGMENT_FILE
    return f"segments.{segment_epoch:06d}.dat"


def read_snapshot(path: str) -> Optional[dict[str, Any]]:
    """The snapshot record of the database directory *path*; None when it has none.

    Reads one file and writes nothing.  A snapshot of another format is
    refused by its number; the page directory is left compressed.
    """
    snapshot_path = os.path.join(path, SNAPSHOT_FILE)
    if not os.path.exists(snapshot_path):
        return None
    with open(snapshot_path, "rb") as fh:
        meta = load_record(read_frame_at(fh, 0))
    found = meta.get("format")
    if found != SNAPSHOT_FORMAT:
        named = "an unversioned" if found is None else f"a format {found}"
        raise StorageError(
            f"{snapshot_path} holds {named} minidb snapshot; "
            f"this build reads format {SNAPSHOT_FORMAT}"
        )
    return meta


class StorageBackend:
    """Where pages live when they are not resident in the buffer pool."""

    #: Whether this backend can persist state across processes.
    persistent = False

    # -- page transfer ----------------------------------------------------
    def load_page(self, page_id: PageId) -> Page:
        """Fetch a page image (a physical read); raises if unknown."""
        raise NotImplementedError

    def store_page(self, page: Page) -> None:
        """Take ownership of an evicted page (a physical write if dirty)."""
        raise NotImplementedError

    def write_back(self, page: Page) -> None:
        """Persist a resident page's image without evicting it (flush)."""
        raise NotImplementedError

    def remove_page(self, page_id: PageId) -> None:
        """Forget a page entirely (table drop/truncate)."""
        raise NotImplementedError

    def contains(self, page_id: PageId) -> bool:
        raise NotImplementedError

    def page_count(self) -> int:
        raise NotImplementedError

    # -- durability --------------------------------------------------------
    @property
    def wal_bytes_written(self) -> int:
        return 0

    @property
    def wal_fsyncs(self) -> int:
        return 0

    @property
    def pages_flushed(self) -> int:
        return 0

    @property
    def segment_bytes_total(self) -> int:
        """Current size of the segment file's payload (live + dead images)."""
        return 0

    @property
    def segment_bytes_live(self) -> int:
        """Bytes of the segment file still referenced by the page directory."""
        return 0

    @property
    def segment_bytes_dead(self) -> int:
        """Superseded image bytes a compaction would reclaim."""
        return 0

    @property
    def compactions_run(self) -> int:
        return 0

    @property
    def bytes_reclaimed(self) -> int:
        return 0

    def log(self, record: tuple) -> None:
        """Append one logical mutation record to the WAL (no-op in memory)."""

    def close(self) -> None:
        """Release any file handles."""


class MemoryBackend(StorageBackend):
    """The seed behaviour: an in-memory dict of evicted pages.

    What matters for the experiments is not persistence but the
    *counting* of page transfers between the pool and this "disk".
    """

    persistent = False

    def __init__(self) -> None:
        self._pages: dict[PageId, Page] = {}

    def load_page(self, page_id: PageId) -> Page:
        try:
            page = self._pages.pop(page_id)
        except KeyError:
            raise BufferPoolError(f"{page_id} does not exist") from None
        return page

    def store_page(self, page: Page) -> None:
        self._pages[page.page_id] = page

    def write_back(self, page: Page) -> None:
        # Memory *is* the store: the resident object stays authoritative.
        pass

    def remove_page(self, page_id: PageId) -> None:
        self._pages.pop(page_id, None)

    def contains(self, page_id: PageId) -> bool:
        return page_id in self._pages

    def page_count(self) -> int:
        return len(self._pages)


class DurableBackend(StorageBackend):
    """Append-only segment file + WAL + atomic snapshot in one directory."""

    persistent = True

    def __init__(
        self,
        path: str | os.PathLike,
        wal_fsync_batch: int = 0,
        ops: Optional[FileOps] = None,
        compact_every: int = 1,
        compact_min_garbage_ratio: float = 0.5,
    ) -> None:
        self.path = os.fspath(path)
        self.wal_fsync_batch = max(int(wal_fsync_batch), 0)
        self.ops = ops if ops is not None else FileOps()
        self.compactor = Compactor(
            compact_every=compact_every, min_garbage_ratio=compact_min_garbage_ratio
        )
        os.makedirs(self.path, exist_ok=True)
        self._snapshot_path = os.path.join(self.path, SNAPSHOT_FILE)
        #: page id -> (offset, frame length) of the latest image.
        self._directory: dict[PageId, SegmentEntry] = {}
        self._pages_flushed = 0
        self.snapshot_meta: Optional[dict[str, Any]] = None

        epoch = 0
        segment_epoch = 0
        # Refused (another format) before anything in the directory is touched.
        self.snapshot_meta = read_snapshot(self.path)
        if self.snapshot_meta is not None:
            self.snapshot_meta["directory"] = load_record(
                zlib.decompress(self.snapshot_meta["directory"])
            )
            epoch = self.snapshot_meta["epoch"]
            segment_epoch = self.snapshot_meta["segment_epoch"]

        self._segment_epoch = segment_epoch
        self._segment_path = os.path.join(self.path, segment_file_name(segment_epoch))
        if os.path.exists(self._segment_path):
            self._segments = self.ops.open(self._segment_path, "r+b")
            magic = self._segments.read(len(SEGMENT_MAGIC))
            if magic != SEGMENT_MAGIC:
                raise StorageError(f"{self._segment_path} is not a minidb segment file")
            self._segments.seek(0, os.SEEK_END)
            self._segment_end = self._segments.tell()
        elif self.snapshot_meta is not None and self.snapshot_meta["directory"]:
            raise StorageError(
                f"snapshot references missing segment file {self._segment_path}"
            )
        else:
            self._segments = self.ops.open(self._segment_path, "w+b")
            self._segments.write(SEGMENT_MAGIC)
            self._segments.flush()
            self._segment_end = len(SEGMENT_MAGIC)

        self._live_bytes = 0
        if self.snapshot_meta is not None:
            # Offsets are snapshot-scoped: images appended after the last
            # checkpoint are unreachable garbage (their logical content is
            # re-created by WAL replay), so the directory comes from the
            # snapshot alone.
            for (file_id, page_no), entry in self.snapshot_meta["directory"].items():
                self._directory[PageId(file_id, page_no)] = entry
                self._live_bytes += entry[1]

        self._fence_stale_segments()
        self.wal = WriteAheadLog(
            os.path.join(self.path, WAL_FILE),
            fsync_batch=self.wal_fsync_batch,
            ops=self.ops,
        )
        self._snapshot_epoch = epoch

    def _fence_stale_segments(self) -> None:
        """Delete segment files from other epochs.

        Two crash windows leave them behind: a compaction that died
        before its snapshot rename (the new, unpublished file is stale)
        and one that died after the rename but before the unlink (the
        old file is stale).  Either way only the snapshot's own segment
        epoch is authoritative; removal is idempotent, so a crash during
        the fence itself just repeats it on the next open.  A snapshot
        temp file torn by a crash before its rename is swept up too.
        """
        snapshot_tmp = self._snapshot_path + ".tmp"
        if os.path.exists(snapshot_tmp):
            self.ops.remove(snapshot_tmp)
        for name in sorted(os.listdir(self.path)):
            match = _SEGMENT_NAME.match(name)
            if match is None:
                continue
            file_epoch = int(match.group(1) or 0)
            if file_epoch != self._segment_epoch:
                self.ops.remove(os.path.join(self.path, name))

    # -- page transfer ----------------------------------------------------
    def load_page(self, page_id: PageId) -> Page:
        entry = self._directory.get(page_id)
        if entry is None:
            raise BufferPoolError(f"{page_id} does not exist")
        page = Page.from_image(load_record(read_frame_at(self._segments, entry[0])))
        return page

    def store_page(self, page: Page) -> None:
        # A clean evicted page whose image is already on disk needs no new
        # segment record; anything else gets appended.
        if page.dirty or page.page_id not in self._directory:
            self._append_image(page)

    def write_back(self, page: Page) -> None:
        self._append_image(page)

    def _append_image(self, page: Page) -> None:
        """Append *page*'s image as the latest record of its directory entry."""
        payload = dump_record(page.image())
        self._segments.seek(0, os.SEEK_END)
        offset = write_frame(self._segments, payload)
        self._segments.flush()
        frame_len = FRAME_HEADER_SIZE + len(payload)
        superseded = self._directory.get(page.page_id)
        if superseded is not None:
            self._live_bytes -= superseded[1]
        self._directory[page.page_id] = (offset, frame_len)
        self._live_bytes += frame_len
        self._segment_end = offset + frame_len
        self._pages_flushed += 1

    def remove_page(self, page_id: PageId) -> None:
        entry = self._directory.pop(page_id, None)
        if entry is not None:
            self._live_bytes -= entry[1]

    def contains(self, page_id: PageId) -> bool:
        return page_id in self._directory

    def page_count(self) -> int:
        return len(self._directory)

    # -- durability --------------------------------------------------------
    @property
    def wal_bytes_written(self) -> int:
        return self.wal.bytes_written

    @property
    def wal_fsyncs(self) -> int:
        return self.wal.syncs_performed

    @property
    def pages_flushed(self) -> int:
        return self._pages_flushed

    @property
    def segment_bytes_total(self) -> int:
        return self._segment_end - len(SEGMENT_MAGIC)

    @property
    def segment_bytes_live(self) -> int:
        return self._live_bytes

    @property
    def segment_bytes_dead(self) -> int:
        return self.segment_bytes_total - self._live_bytes

    @property
    def compactions_run(self) -> int:
        return self.compactor.compactions_run

    @property
    def bytes_reclaimed(self) -> int:
        return self.compactor.bytes_reclaimed

    @property
    def segment_epoch(self) -> int:
        return self._segment_epoch

    def log(self, record: tuple) -> None:
        self.wal.append(record)

    def sync_wal(self) -> None:
        """Fsync the WAL tail so everything logged so far survives a crash."""
        self.wal.sync()

    def replay_wal(self, discard: bool = False) -> list[tuple]:
        """Records appended since the last checkpoint (torn tail removed).

        ``discard=True`` resets the log instead: used when a coordinator
        (e.g. the crawl checkpoint manager) wants the database exactly as
        of the snapshot, with post-checkpoint writes dropped.
        """
        if discard:
            self.wal.reset(self._snapshot_epoch)
            return []
        return self.wal.replay(expected_epoch=self._snapshot_epoch)

    def checkpoint(self, catalog_meta: dict[str, Any]) -> None:
        """Atomically publish a snapshot of the current state, then reset the WAL.

        The caller must have flushed every dirty page first (so the
        directory covers the full database image).  When the compactor
        deems it worthwhile, the live images are first rewritten into a
        new epoch-stamped segment file (fully fsynced before anything is
        published).  Either way the snapshot — which carries the page
        directory *and* the segment epoch it refers to — is written to a
        temp file and renamed over the old one; that rename is the
        single commit point, so directory and segment file can never
        disagree.  The epoch bump ties the snapshot to the freshly reset
        WAL: a crash between rename and reset leaves a WAL with a stale
        epoch, which recovery detects and discards (its records are
        inside the snapshot).  Stale segment files are unlinked last;
        a crash before the unlink leaves them for the next open's fence.
        """
        self._segments.flush()
        self.ops.fsync(self._segments)
        new_epoch = self._snapshot_epoch + 1
        stale_segment: Optional[str] = None
        reclaimed = 0
        if self.compactor.due(self._live_bytes, self.segment_bytes_dead):
            reclaimed = self.segment_bytes_dead
            stale_segment = self._segment_path
            # The segment epoch normally tracks the snapshot epoch, but a
            # checkpoint whose *publish* failed (e.g. ENOSPC — the process
            # keeps running) leaves the segment epoch ahead of it; taking
            # the max keeps the rewrite target strictly newer, so it can
            # never open — and truncate — the current segment file itself.
            new_segment_epoch = max(new_epoch, self._segment_epoch + 1)
            new_path = os.path.join(self.path, segment_file_name(new_segment_epoch))
            new_fh, new_directory, end = self.compactor.rewrite(
                self.ops, self._segments, self._directory, new_path
            )
            self._segments.close()
            self._segments = new_fh
            self._segment_path = new_path
            self._segment_epoch = new_segment_epoch
            self._directory = new_directory
            self._segment_end = end
            self._live_bytes = end - len(SEGMENT_MAGIC)
        meta = dict(catalog_meta)
        meta["format"] = SNAPSHOT_FORMAT
        meta["epoch"] = new_epoch
        meta["segment_epoch"] = self._segment_epoch
        directory = {
            (page_id.file_id, page_id.page_no): entry
            for page_id, entry in self._directory.items()
        }
        # The directory is re-written whole at every checkpoint, and it is
        # most of the record: compressed, an entry costs ~8 bytes, not ~16.
        meta["directory"] = zlib.compress(dump_record(directory))
        tmp_path = self._snapshot_path + ".tmp"
        fh = self.ops.open(tmp_path, "w+b")
        try:
            write_frame(fh, dump_record(meta))
            fh.flush()
            self.ops.fsync(fh)
        finally:
            fh.close()
        self.ops.replace(tmp_path, self._snapshot_path)
        # -- committed: everything below is post-publish bookkeeping ------
        meta["directory"] = directory
        self.snapshot_meta = meta
        self._snapshot_epoch = new_epoch
        self.wal.reset(new_epoch)
        if stale_segment is not None:
            self.compactor.note_committed(reclaimed)
            self.ops.remove(stale_segment)

    def close(self) -> None:
        self.wal.close()
        if not self._segments.closed:
            self._segments.flush()
            self._segments.close()
