"""Heap files: unordered collections of rows stored on column-chunk pages.

A :class:`HeapFile` owns a contiguous sequence of page numbers within one
file id and routes every access through the shared :class:`BufferPool`,
so scans and point reads are charged the appropriate logical/physical
page I/O.  It hands out and resolves the int record ids of
:mod:`~repro.minidb.pages` by arithmetic against its first id.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import accumulate
from typing import Iterator, Sequence

from .buffer_pool import BufferPool
from .errors import StorageError
from .pages import DEFAULT_PAGE_SIZE, MAX_PAGES, SLOT_BITS, SLOT_MASK, SLOT_OVERHEAD
from .pages import Page, PageId, check_layout, rid_of
from .types import Schema


class HeapFile:
    """An append-friendly heap of rows for one table.

    Rows are identified by stable int record ids.  Inserts go to the
    last page with room (or a fresh page); deletes leave tombstones.
    The heap keeps the :class:`PageId` of each page it owns, made once
    when the page is allocated, so resolving an id builds no object.
    """

    def __init__(
        self,
        file_id: int,
        schema: Schema,
        buffer_pool: BufferPool,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        check_layout(file_id, page_size)
        self.file_id = file_id
        self.schema = schema
        self.buffer_pool = buffer_pool
        self.page_size = page_size
        #: The record id of slot 0 on page 0; page *p*'s start ``p << SLOT_BITS`` later.
        self._first_rid = rid_of(file_id, 0, 0)
        self._page_ids: list[PageId] = []
        self._row_count = 0

    # -- properties -------------------------------------------------------
    @property
    def page_count(self) -> int:
        return len(self._page_ids)

    @property
    def row_count(self) -> int:
        return self._row_count

    # -- record ids -------------------------------------------------------
    def locate(self, rid: int) -> tuple[int, int]:
        """``(page_no, slot)`` of *rid*, its journal and snapshot encoding (checked as below)."""
        page_id, slot = self.page_of(rid)
        return page_id.page_no, slot

    def page_of(self, rid: int) -> tuple[PageId, int]:
        """The page and slot *rid* names (ownership and extent checked, not the slot)."""
        offset = rid - self._first_rid
        page_no = offset >> SLOT_BITS
        if not 0 <= page_no < len(self._page_ids):
            self._reject(page_no)
        return self._page_ids[page_no], offset & SLOT_MASK

    def _reject(self, page_no: int) -> None:
        """Raise for a page number outside the heap: another file's, or past the end."""
        if not 0 <= page_no < MAX_PAGES:
            raise StorageError(f"record id does not belong to file {self.file_id}")
        raise StorageError(f"page({self.file_id}:{page_no}) is beyond the heap")

    # -- mutation ----------------------------------------------------------
    def append_columns(self, columns: Sequence[Sequence], sizes: Sequence[int]) -> list[int]:
        """Append a batch of rows given as columns, returning their record ids.

        *columns* holds one equally long sequence per schema column and
        *sizes* each row's byte size, already validated and checked by
        the caller.  Rows land where inserting them one at a time would
        put them — on the last page while the next row fits, else on a
        fresh page, a page's tombstones first — and placement is
        arithmetic on *sizes*; but each page is fetched once and takes
        its rows as one slice per column, so a bulk load of N rows
        touches O(pages) frames rather than O(N).
        Between page switches no other pool activity happens, so holding
        the page object is safe.
        """
        n_rows = len(sizes)
        if not n_rows:
            return []
        # ends[i]: bytes rows 0..i need, slot overhead included.
        ends = list(accumulate([size + SLOT_OVERHEAD for size in sizes]))
        rids: list[int] = []
        position = 0
        page = self._page_with_room(sizes[0])
        while True:
            page_rid = self._first_rid + (page.page_id.page_no << SLOT_BITS)
            if page.dead:
                # Tombstone reuse picks a slot per row.
                while position < n_rows and page.fits(sizes[position]):
                    row = [column[position] for column in columns]
                    rids.append(page_rid + page.append_row(row, sizes[position]))
                    position += 1
            else:
                taken = ends[position - 1] if position else 0
                stop = bisect_right(ends, taken + page.free_bytes(), position)
                if stop > position:
                    first = page_rid + page.append_columns(columns, position, stop, ends[stop - 1] - taken)
                    rids.extend(range(first, first + stop - position))
                    position = stop
            if position == n_rows:
                break
            # Re-fetch through the pool so the bulk load is charged one
            # logical page access per page it fills (a sequential write
            # pattern), keeping the I/O cost model meaningful.
            page = self.buffer_pool.get_page(self._new_page().page_id)
        self._row_count += n_rows
        return rids

    def assign_column(self, position: int, rids: Sequence[int], values: Sequence) -> None:
        """Set column *position* of the rows at *rids* to (validated) *values*, in place.

        All or nothing: every record id is checked (ownership, extent,
        live slot) before the first value is written.  The rows of one
        page are checked and written together, so a batch costs two page
        requests per page it touches, however its rows are ordered; a
        row named twice ends up with its later value.
        """
        by_page: dict[int, tuple[list[int], list]] = {}
        first_rid = self._first_rid
        for rid, value in zip(rids, values):
            offset = rid - first_rid
            group = by_page.get(offset >> SLOT_BITS)
            if group is None:
                group = by_page[offset >> SLOT_BITS] = ([], [])
            group[0].append(offset & SLOT_MASK)
            group[1].append(value)
        page_ids = self._page_ids
        get_page = self.buffer_pool.get_page
        for page_no, (page_slots, _values) in by_page.items():
            if not 0 <= page_no < len(page_ids):
                self._reject(page_no)
            get_page(page_ids[page_no]).check_live(page_slots)
        bytes_of = partial(self.schema.column_bytes, position)
        for page_no, (page_slots, page_values) in by_page.items():
            # Fetched again: a batch wider than the pool may have evicted
            # the page checked above, and a write to a detached page
            # object would be lost on a durable backend.
            get_page(page_ids[page_no]).assign(position, page_slots, page_values, bytes_of)

    def check_row_size(self, row_size: int) -> None:
        """Reject rows too large for a page."""
        if row_size > self.page_size // 2:
            raise StorageError(
                f"row of {row_size} bytes too large for page size {self.page_size}"
            )

    def read(self, rid: int) -> tuple:
        page_id, slot = self.page_of(rid)
        return self.buffer_pool.get_page(page_id).read(slot)

    def delete(self, rid: int) -> tuple:
        """Delete the row at *rid* and return it."""
        page_id, slot = self.page_of(rid)
        page = self.buffer_pool.get_page(page_id)
        row = page.read(slot)
        page.delete(slot, self.schema.row_size(row))
        self.buffer_pool.mark_dirty(page_id)
        self._row_count -= 1
        return row

    def truncate(self) -> None:
        """Drop every page, leaving an empty heap."""
        for page_id in self._page_ids:
            self.buffer_pool.drop_page(page_id)
        self._page_ids = []
        self._row_count = 0

    def restore(self, page_count: int, row_count: int) -> None:
        """Adopt heap extents recovered from a snapshot.

        The pages themselves already live in the storage backend; only the
        in-memory bookkeeping (which pages and how many rows this heap
        owns) needs to be re-established before scans and appends can
        resume.
        """
        self._page_ids = [PageId(self.file_id, page_no) for page_no in range(page_count)]
        self._row_count = row_count

    # -- scans --------------------------------------------------------------
    def scan_pages(self) -> Iterator[Page]:
        """Yield every page in order (sequential I/O).

        The page-at-a-time read: a consumer takes whole column chunks
        (``page.columns``, ``page.dead``) instead of one row per step.
        """
        get_page = self.buffer_pool.get_page
        # A copy: pages appended mid-scan are not part of it.
        for page_id in list(self._page_ids):
            yield get_page(page_id)

    def scan(self) -> Iterator[tuple[int, tuple]]:
        """Yield ``(rid, row)`` for every live row, page by page."""
        for page in self.scan_pages():
            yield from zip(page.rids(), page.live(zip(*page.columns)))

    def scan_rows(self) -> Iterator[tuple]:
        """Yield every live row, zipped out of each page's columns."""
        for page in self.scan_pages():
            yield from page.live(zip(*page.columns))

    # -- internals ------------------------------------------------------------
    def _page_with_room(self, row_size: int) -> Page:
        if self._page_ids:
            page = self.buffer_pool.get_page(self._page_ids[-1])
            if page.fits(row_size):
                return page
        return self._new_page()

    def _new_page(self) -> Page:
        page_no = len(self._page_ids)
        if page_no == MAX_PAGES:
            raise StorageError(f"file {self.file_id} has no page number left")
        page_id = PageId(self.file_id, page_no)
        self._page_ids.append(page_id)
        return self.buffer_pool.create_page(page_id, self.page_size)
