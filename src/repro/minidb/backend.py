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
  snapshot (catalog metadata + page directory + WAL epoch) so
  :meth:`repro.minidb.database.Database.open` can restore the last
  checkpoint and replay the log over it.

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

Beside page images the segment file carries **frames**: opaque payloads
a coordinator stores (:meth:`DurableBackend.put_frame`) and the
directory tracks under the reserved :data:`FRAME_FILE_ID`.  They share
the page images' whole life cycle — one commit point, compaction, the
open-time fence, the fault seam — without a file format of their own;
the crawl checkpoint's base-plus-delta chain is stored this way.
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass
from typing import Any, BinaryIO, Dict, Optional

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

#: Directory entries of this file id address *frames* (see
#: :meth:`DurableBackend.put_frame`).  No table owns the id, and a frame
#: is located, published, compacted and fenced exactly like a page image
#: because it is one more ``PageId -> (offset, length)`` entry.
FRAME_FILE_ID = -1

#: Segment files carry the epoch of the compaction that wrote them;
#: epoch 0 is the database's original (never-compacted) segment file.
_SEGMENT_NAME = re.compile(r"^segments(?:\.(\d+))?\.dat$")


def segment_file_name(segment_epoch: int) -> str:
    """The on-disk name of the segment file written at *segment_epoch*."""
    if segment_epoch == 0:
        return SEGMENT_FILE
    return f"segments.{segment_epoch:06d}.dat"


@dataclass
class _PreparedCompaction:
    """A fully rewritten (fsynced, unpublished) segment file awaiting adoption.

    ``base_directory`` is the page directory snapshot the rewrite copied
    from; at adoption time the checkpoint folds in only the pages whose
    entry changed since, so the pause cost is proportional to the delta,
    not the database.  ``base_segment_epoch`` fences a prepare that a
    concurrent adoption made obsolete (it is simply discarded).
    """

    fh: BinaryIO
    path: str
    segment_epoch: int
    base_segment_epoch: int
    base_directory: Dict[PageId, SegmentEntry]
    directory: Dict[PageId, SegmentEntry]
    end: int


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
    def compactions_prepared(self) -> int:
        """Background segment rewrites prepared (adopted or not yet)."""
        return 0

    @property
    def compactions_refreshed(self) -> int:
        """Background re-bases of a pending prepare (delta folds off-pause)."""
        return 0

    @property
    def bytes_reclaimed(self) -> int:
        return 0

    def log(self, record: tuple) -> None:
        """Append one logical mutation record to the WAL (no-op in memory)."""

    def begin_checkpoint(self) -> None:
        """Hook run before the checkpoint's dirty-page flush (maintenance)."""

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
        background_compaction: bool = False,
        compact_wal_bytes: int = 0,
    ) -> None:
        self.path = os.fspath(path)
        self.wal_fsync_batch = max(int(wal_fsync_batch), 0)
        self.ops = ops if ops is not None else FileOps()
        self.compactor = Compactor(
            compact_every=compact_every, min_garbage_ratio=compact_min_garbage_ratio
        )
        self.compact_wal_bytes = max(int(compact_wal_bytes), 0)
        self._bg_enabled = bool(background_compaction)
        #: Serialises prepare (worker) against adoption (checkpoint): a
        #: checkpoint that finds the lock busy simply skips adoption.
        self._compaction_lock = threading.Lock()
        #: Guards page-directory mutation so the worker can snapshot it.
        self._dir_lock = threading.Lock()
        self._prepared: Optional[_PreparedCompaction] = None
        self._pending_adoption: Optional[tuple[Optional[str], int]] = None
        self._checkpoint_active = False
        self._compactions_prepared = 0
        self._compaction_refreshes = 0
        self._wal_bytes_at_prepare = 0
        self._compaction_wake = threading.Event()
        self._compaction_stop = False
        self._compaction_thread: Optional[threading.Thread] = None
        self.compaction_error: Optional[BaseException] = None
        os.makedirs(self.path, exist_ok=True)
        self._snapshot_path = os.path.join(self.path, SNAPSHOT_FILE)
        #: page id -> (offset, frame length) of the latest image.
        self._directory: dict[PageId, SegmentEntry] = {}
        self._pages_flushed = 0
        self.snapshot_meta: Optional[dict[str, Any]] = None

        epoch = 0
        segment_epoch = 0
        if os.path.exists(self._snapshot_path):
            with open(self._snapshot_path, "rb") as fh:
                self.snapshot_meta = load_record(read_frame_at(fh, 0))
            epoch = self.snapshot_meta["epoch"]
            # Pre-compaction snapshots carry no segment epoch: their
            # directory refers to the original segments.dat.
            segment_epoch = self.snapshot_meta.get("segment_epoch", 0)

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
                if isinstance(entry, int):
                    # Pre-compaction snapshot: a bare offset.  Re-read the
                    # frame (recovery-time only) to recover its length —
                    # CRC-verified, so damage surfaces here, not later.
                    payload = read_frame_at(self._segments, entry)
                    entry = (entry, FRAME_HEADER_SIZE + len(payload))
                else:
                    entry = tuple(entry)
                self._directory[PageId(file_id, page_no)] = entry
                self._live_bytes += entry[1]
        frame_sizes = [
            entry[1]
            for page_id, entry in self._directory.items()
            if page_id.file_id == FRAME_FILE_ID
        ]
        self._frames = len(frame_sizes)
        #: Frame bytes the directory references, and frame bytes dropped
        #: or superseded since the segment file was last rewritten.
        self._frame_bytes_live = sum(frame_sizes)
        self._frame_bytes_dead = 0

        self._fence_stale_segments()
        self.wal = WriteAheadLog(
            os.path.join(self.path, WAL_FILE),
            fsync_batch=self.wal_fsync_batch,
            ops=self.ops,
        )
        self._snapshot_epoch = epoch
        if self._bg_enabled:
            self._start_compaction_worker()

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
        self._append(page.page_id, dump_record(page.image()))
        self._pages_flushed += 1

    def _append(self, page_id: PageId, payload: bytes) -> None:
        """Append *payload* as the latest record of directory key *page_id*."""
        self._segments.seek(0, os.SEEK_END)
        offset = write_frame(self._segments, payload)
        self._segments.flush()
        frame_len = FRAME_HEADER_SIZE + len(payload)
        with self._dir_lock:
            superseded = self._directory.get(page_id)
            if superseded is not None:
                self._live_bytes -= superseded[1]
            self._directory[page_id] = (offset, frame_len)
            self._live_bytes += frame_len
        self._segment_end = offset + frame_len
        self._poke_compaction_worker()

    def remove_page(self, page_id: PageId) -> None:
        with self._dir_lock:
            entry = self._directory.pop(page_id, None)
            if entry is not None:
                self._live_bytes -= entry[1]

    def contains(self, page_id: PageId) -> bool:
        return page_id in self._directory

    def page_count(self) -> int:
        return len(self._directory) - self._frames

    # -- frames ------------------------------------------------------------
    def put_frame(self, frame_no: int, payload: bytes) -> None:
        """Append an opaque payload as frame *frame_no* (superseding an old one).

        The frame is a CRC-framed record like a page image and is
        tracked in the page directory under :data:`FRAME_FILE_ID`, so it
        becomes durable with — and only with — the next checkpoint's
        snapshot rename, is copied by inline and background compaction
        while it is live, and is torn-tail garbage if the process dies
        first.  It is not WAL-logged: recovery knows exactly the frames
        the last snapshot names.
        """
        self.drop_frame(frame_no)
        self._append(PageId(FRAME_FILE_ID, frame_no), payload)
        self._frames += 1
        self._frame_bytes_live += FRAME_HEADER_SIZE + len(payload)

    def read_frame(self, frame_no: int) -> bytes:
        """The payload of a live frame (CRC-verified)."""
        entry = self._directory.get(PageId(FRAME_FILE_ID, frame_no))
        if entry is None:
            raise StorageError(f"no live frame {frame_no} in {self._segment_path}")
        return read_frame_at(self._segments, entry[0])

    def frame_size(self, frame_no: int) -> int:
        """Bytes frame *frame_no* occupies in the segment file (0: not live)."""
        entry = self._directory.get(PageId(FRAME_FILE_ID, frame_no))
        return 0 if entry is None else entry[1]

    def drop_frame(self, frame_no: int) -> None:
        """Stop tracking a frame; its bytes are garbage from the next checkpoint on.

        Until that checkpoint publishes, a recovery still finds the
        frame: the old snapshot names it and the segment file is
        append-only.
        """
        size = self.frame_size(frame_no)
        if size:
            self.remove_page(PageId(FRAME_FILE_ID, frame_no))
            self._frames -= 1
            self._frame_bytes_live -= size
            self._frame_bytes_dead += size

    def _page_bytes(self) -> tuple[int, int]:
        """``(live, dead)`` bytes of page images: what the compaction policy weighs.

        Frames are left out of both sides.  Counted as live they would
        dilute ``compact_min_garbage_ratio`` — the more coordinator
        state a store carries, the more superseded page images it would
        tolerate — and their own garbage is bounded by their owner (a
        dropped chain) and reclaimed by whichever rewrite the pages
        trigger next.
        """
        return (
            self._live_bytes - self._frame_bytes_live,
            self.segment_bytes_dead - self._frame_bytes_dead,
        )

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
    def compactions_prepared(self) -> int:
        return self._compactions_prepared

    @property
    def compactions_refreshed(self) -> int:
        return self._compaction_refreshes

    @property
    def bytes_reclaimed(self) -> int:
        return self.compactor.bytes_reclaimed

    @property
    def segment_epoch(self) -> int:
        return self._segment_epoch

    @property
    def epoch(self) -> int:
        return self._snapshot_epoch

    def log(self, record: tuple) -> None:
        self.wal.append(record)
        self._poke_compaction_worker()

    def sync_wal(self) -> None:
        """Fsync the WAL tail so everything logged so far survives a crash."""
        self.wal.sync()

    def replay_wal(
        self, discard: bool = False, upto_cut: Optional[int] = None
    ) -> list[tuple]:
        """Records appended since the last checkpoint (torn tail removed).

        ``discard=True`` resets the log instead: used when a coordinator
        (e.g. the crawl checkpoint manager) wants the database exactly as
        of the snapshot, with post-checkpoint writes dropped.
        ``upto_cut`` replays only through the last cut marker ``<= upto_cut``
        (see :meth:`WriteAheadLog.replay`), truncating newer records.
        """
        if discard:
            self.wal.reset(self._snapshot_epoch)
            return []
        return self.wal.replay(expected_epoch=self._snapshot_epoch, upto_cut=upto_cut)

    # -- background compaction ---------------------------------------------
    def _start_compaction_worker(self) -> None:
        if self._compaction_thread is not None:
            return
        thread = threading.Thread(
            target=self._compaction_loop, name="minidb-compaction", daemon=True
        )
        self._compaction_thread = thread
        thread.start()

    def configure_background_compaction(
        self, enabled: bool, compact_wal_bytes: int = 0
    ) -> None:
        """(Re-)apply the background-compaction policy after an open.

        Used by crawl resume, which learns the storage policy from the
        checkpoint *after* the database was already opened with defaults.
        """
        self._bg_enabled = bool(enabled)
        self.compact_wal_bytes = max(int(compact_wal_bytes), 0)
        if self._bg_enabled:
            self._start_compaction_worker()

    @property
    def background_compaction(self) -> bool:
        return self._bg_enabled

    def _compaction_loop(self) -> None:
        while True:
            self._compaction_wake.wait()
            self._compaction_wake.clear()
            if self._compaction_stop:
                return
            try:
                if not self.run_compaction_once():
                    self.refresh_prepared_compaction()
            except BaseException as exc:  # noqa: BLE001 - surfaced via attribute
                # A failed prepare must not kill the worker (the old
                # segment file is untouched; the next trigger retries).
                self.compaction_error = exc

    def _poke_compaction_worker(self) -> None:
        if self._compaction_thread is None:
            return
        if self._background_compaction_due() or self._refresh_due():
            self._compaction_wake.set()

    def _background_compaction_due(self) -> bool:
        """Whether a background rewrite is worth preparing right now.

        Fires on the inline policy's garbage-ratio threshold, or — so a
        checkpoint-poor write-heavy run still gets compacted — once
        ``compact_wal_bytes`` of WAL have accumulated since the last
        prepare.  ``compact_every=0`` disables compaction entirely, as
        it does inline.
        """
        if not self._bg_enabled or not self.compactor.compact_every:
            return False
        if self._prepared is not None or self._checkpoint_active:
            # While a checkpoint is flushing, its appends would otherwise
            # trigger a prepare that competes with the pause for the CPU;
            # the post-checkpoint writes re-poke the worker immediately.
            return False
        live, dead = self._page_bytes()
        if dead <= 0:
            return False
        if dead / (live + dead) >= self.compactor.min_garbage_ratio:
            return True
        if self.compact_wal_bytes:
            return (
                self.wal.bytes_written - self._wal_bytes_at_prepare
                >= self.compact_wal_bytes
            )
        return False

    def _refresh_due(self) -> bool:
        """Whether the pending prepare has gone stale enough to re-base.

        Uses the same WAL-byte budget as the prepare trigger:
        ``_wal_bytes_at_prepare`` marks the last prepare *or* refresh,
        so every ``compact_wal_bytes`` of new WAL buys one background
        fold and the checkpoint-time fold stays a small residual.
        """
        if self._prepared is None or not self.compact_wal_bytes:
            return False
        if self._checkpoint_active:
            return False
        return (
            self.wal.bytes_written - self._wal_bytes_at_prepare
            >= self.compact_wal_bytes
        )

    def run_compaction_once(self, force: bool = False) -> bool:
        """Prepare one background rewrite synchronously; True if prepared.

        This is the worker thread's unit of work, exposed so tests (and
        the fault-injection crash walk) can drive the exact same code on
        the calling thread, keeping every I/O point deterministic.  The
        rewrite reads a locked snapshot of the page directory through a
        *separate* read handle — appends to the live segment file only
        ever add new offsets, so the snapshot's frames are stable.
        """
        if not self._bg_enabled or not self.compactor.compact_every:
            return False
        with self._compaction_lock:
            if self._prepared is not None:
                return False
            if not force and not self._background_compaction_due():
                return False
            with self._dir_lock:
                base_directory = dict(self._directory)
            base_epoch = self._segment_epoch
            # Strictly newer than both epochs: the target can never open
            # (and "w+b"-truncate) the segment file it is reading from.
            target_epoch = max(self._snapshot_epoch + 1, base_epoch + 1)
            new_path = os.path.join(self.path, segment_file_name(target_epoch))
            self._wal_bytes_at_prepare = self.wal.bytes_written
            source = self.ops.open(self._segment_path, "rb")
            try:
                new_fh, new_directory, end = self.compactor.rewrite(
                    self.ops, source, base_directory, new_path
                )
            finally:
                source.close()
            self._prepared = _PreparedCompaction(
                fh=new_fh,
                path=new_path,
                segment_epoch=target_epoch,
                base_segment_epoch=base_epoch,
                base_directory=base_directory,
                directory=new_directory,
                end=end,
            )
            self._compactions_prepared += 1
            return True

    def refresh_prepared_compaction(self, force: bool = False) -> bool:
        """Fold the accumulated delta into the prepared file off-pause.

        With an eager trigger the worker prepares right after each
        adoption, so by the next checkpoint the prepare snapshot is a
        whole inter-checkpoint interval stale and the adoption fold
        re-copies most of the live directory — nearly as slow as the
        inline rewrite it replaces.  Re-basing the prepared file here,
        on the worker, keeps the checkpoint-time fold proportional to
        the writes of the last ``compact_wal_bytes`` window only.

        Concurrency-safe for the same reasons the prepare is: the
        prepared file is unpublished until the snapshot rename (a crash
        leaves it to be fenced at the next open), the live segment is
        append-only so the snapshot's frames sit at stable offsets and
        are read through a private handle, and frames a later fold
        supersedes are bounded garbage reclaimed by the next rewrite.
        """
        with self._compaction_lock:
            prepared = self._prepared
            if prepared is None or not (force or self._refresh_due()):
                return False
            with self._dir_lock:
                current = dict(self._directory)
            self._wal_bytes_at_prepare = self.wal.bytes_written
            if current == prepared.base_directory:
                # The WAL grew but no page image moved (the logical writes
                # are still buffered): nothing to fold, only the budget
                # marker needed resetting.
                return False
            source = self.ops.open(self._segment_path, "rb")
            try:
                directory, end = self._fold_delta_into(prepared, current, source)
            finally:
                source.close()
            prepared.fh.flush()
            self.ops.fsync(prepared.fh)
            prepared.base_directory = current
            prepared.directory = directory
            prepared.end = end
            self._compaction_refreshes += 1
            return True

    def begin_checkpoint(self) -> None:
        """Adopt any pending background rewrite *before* the dirty-page flush.

        Ordering is the whole point: adopting first re-points the live
        segment at the prepared file while the since-prepare delta is
        still the small mid-interval residual, so the flush that
        follows appends the checkpoint's dirty pages straight into the
        adopted file — none of them pay the fold's read-copy-write.
        Nothing is published here: the snapshot rename in
        :meth:`checkpoint` remains the commit point, and a crash
        anywhere in between recovers from the old snapshot over the old
        (still intact, not yet unlinked) segment file.
        """
        if self._bg_enabled:
            self._checkpoint_active = True
            self._pending_adoption = self._adopt_prepared_compaction()

    def _adopt_prepared_compaction(self) -> tuple[Optional[str], int]:
        """Swap in a prepared rewrite at checkpoint time, folding the delta.

        Returns ``(stale_segment_path, reclaimed_bytes)`` — the same
        contract the inline rewrite hands the checkpoint — or
        ``(None, 0)`` when there is nothing to adopt (no prepare is
        pending, or the worker is mid-prepare; the next checkpoint
        picks it up).  Nothing is published here: the snapshot rename
        that follows in :meth:`checkpoint` remains the commit point, so
        a crash anywhere inside leaves the unpublished new file to be
        fenced at the next open.
        """
        if not self._compaction_lock.acquire(blocking=False):
            return None, 0
        try:
            prepared = self._prepared
            if prepared is None:
                return None, 0
            self._prepared = None
            if prepared.base_segment_epoch != self._segment_epoch:
                # A concurrent adoption already replaced the file this
                # prepare was based on (defensive; cannot happen while
                # adoption itself holds the lock).
                prepared.fh.close()
                try:
                    os.remove(prepared.path)
                except OSError:  # pragma: no cover - cleanup is best-effort
                    pass
                return None, 0
            old_payload = self.segment_bytes_total
            try:
                final_directory, end = self._fold_compaction_delta(prepared)
                prepared.fh.flush()
                self.ops.fsync(prepared.fh)
            except Exception as exc:
                # Mirror Compactor.rewrite's abort semantics: close the
                # handle always; remove the file only on a live-process
                # abort — an injected crash leaves it for the fence.
                prepared.fh.close()
                if isinstance(exc, (StorageError, OSError)):
                    try:
                        os.remove(prepared.path)
                    except OSError:  # pragma: no cover - best-effort
                        pass
                raise
            stale_segment = self._segment_path
            self._segments.close()
            self._segments = prepared.fh
            self._segment_path = prepared.path
            self._segment_epoch = prepared.segment_epoch
            with self._dir_lock:
                self._directory = final_directory
                self._live_bytes = sum(e[1] for e in final_directory.values())
            self._frame_bytes_dead = 0
            self._segment_end = end
            reclaimed = max(old_payload - (end - len(SEGMENT_MAGIC)), 0)
            return stale_segment, reclaimed
        finally:
            self._compaction_lock.release()

    def _fold_compaction_delta(
        self, prepared: _PreparedCompaction
    ) -> tuple[Dict[PageId, SegmentEntry], int]:
        """Bring a prepared rewrite up to date with the current directory.

        Pages whose entry changed since the prepare snapshot (rewritten
        or newly created) are re-copied from the live segment file;
        pages that disappeared are dropped.  The caller still holds all
        dirty pages flushed, so the fold covers the full database image.
        """
        return self._fold_delta_into(prepared, dict(self._directory), self._segments)

    def _fold_delta_into(
        self,
        prepared: _PreparedCompaction,
        current: Dict[PageId, SegmentEntry],
        source: BinaryIO,
    ) -> tuple[Dict[PageId, SegmentEntry], int]:
        """Append *current*'s since-prepare delta to the prepared file.

        ``source`` is whichever handle on the live segment file the
        calling thread may safely seek: the backend's own at checkpoint
        time, a private read handle on the worker (the main thread keeps
        appending through — and repositioning — the shared one).
        """
        final_directory = dict(prepared.directory)
        changed = [
            (page_id, entry)
            for page_id, entry in current.items()
            if prepared.base_directory.get(page_id) != entry
        ]
        prepared.fh.seek(0, os.SEEK_END)
        end = prepared.end
        for page_id, entry in sorted(changed, key=lambda item: item[1][0]):
            payload = read_frame_at(source, entry[0])
            offset = write_frame(prepared.fh, payload)
            frame_len = FRAME_HEADER_SIZE + len(payload)
            final_directory[page_id] = (offset, frame_len)
            end = offset + frame_len
        for page_id in prepared.base_directory:
            if page_id not in current:
                final_directory.pop(page_id, None)
        return final_directory, end

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
        try:
            self._checkpoint(catalog_meta)
        finally:
            # Re-arm the worker even when the publish failed but the
            # process survives (e.g. ENOSPC): background maintenance
            # must not stay defused.
            self._checkpoint_active = False

    def _checkpoint(self, catalog_meta: dict[str, Any]) -> None:
        self._segments.flush()
        self.ops.fsync(self._segments)
        new_epoch = self._snapshot_epoch + 1
        stale_segment: Optional[str] = None
        reclaimed = 0
        if self._bg_enabled:
            # Background mode: the rewrite already happened off-line and
            # (normally) was adopted by begin_checkpoint before the
            # dirty-page flush; publish its outcome.  A direct caller
            # that skipped begin_checkpoint still adopts here — same
            # result, just with the whole flush in the fold.
            pending, self._pending_adoption = self._pending_adoption, None
            if pending is None:
                pending = self._adopt_prepared_compaction()
            stale_segment, reclaimed = pending
        elif self.compactor.due(*self._page_bytes()):
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
            self._frame_bytes_dead = 0
        meta = dict(catalog_meta)
        meta["epoch"] = new_epoch
        meta["segment_epoch"] = self._segment_epoch
        meta["directory"] = {
            (page_id.file_id, page_id.page_no): entry
            for page_id, entry in self._directory.items()
        }
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
        self.snapshot_meta = meta
        self._snapshot_epoch = new_epoch
        self.wal.reset(new_epoch)
        if stale_segment is not None:
            self.compactor.note_committed(reclaimed)
            self.ops.remove(stale_segment)

    def close(self) -> None:
        if self._compaction_thread is not None:
            self._compaction_stop = True
            self._compaction_wake.set()
            self._compaction_thread.join(timeout=10.0)
            self._compaction_thread = None
        if self._prepared is not None:
            # An orderly close discards an unadopted prepare; a crash
            # would instead leave the file for the open-time fence.
            prepared, self._prepared = self._prepared, None
            prepared.fh.close()
            try:
                os.remove(prepared.path)
            except OSError:  # pragma: no cover - cleanup is best-effort
                pass
        self.wal.close()
        if not self._segments.closed:
            self._segments.flush()
            self._segments.close()
