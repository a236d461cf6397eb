"""Heap files: unordered collections of rows stored on column-chunk pages.

A :class:`HeapFile` owns a contiguous sequence of page numbers within one
file id and routes every access through the shared :class:`BufferPool`,
so scans and point reads are charged the appropriate logical/physical
page I/O.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import accumulate, repeat
from typing import Iterator, Optional, Sequence

from .buffer_pool import BufferPool
from .errors import StorageError
from .pages import DEFAULT_PAGE_SIZE, SLOT_OVERHEAD, Page, PageId, RecordId
from .types import Schema


class HeapFile:
    """An append-friendly heap of rows for one table.

    Rows are identified by stable :class:`RecordId`s.  Inserts go to the
    last page with room (or a fresh page); deletes leave tombstones.
    """

    def __init__(
        self,
        file_id: int,
        schema: Schema,
        buffer_pool: BufferPool,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        self.file_id = file_id
        self.schema = schema
        self.buffer_pool = buffer_pool
        self.page_size = page_size
        self._page_count = 0
        self._row_count = 0

    # -- properties -------------------------------------------------------
    @property
    def page_count(self) -> int:
        return self._page_count

    @property
    def row_count(self) -> int:
        return self._row_count

    # -- mutation ----------------------------------------------------------
    def insert(self, row: tuple) -> RecordId:
        """Append *row*, returning its record id."""
        row_size = self.schema.row_size(row)
        self.check_row_size(row_size)
        page = self._page_with_room(row_size)
        slot = page.insert(row, row_size)
        self.buffer_pool.mark_dirty(page.page_id)
        self._row_count += 1
        return RecordId(page.page_id, slot)

    def append_columns(
        self, columns: Sequence[Sequence], sizes: Sequence[int]
    ) -> list[RecordId]:
        """Append a batch of rows given as columns, returning their record ids.

        *columns* holds one equally long sequence per schema column and
        *sizes* each row's byte size, already validated and checked by
        the caller.  Rows land where repeated :meth:`insert` would put
        them — placement is arithmetic on *sizes* — but each page is
        pinned once and takes its rows as one slice per column, so a
        bulk load of N rows touches O(pages) frames rather than O(N).
        Between page switches no other pool activity happens, so holding
        the page object is safe.
        """
        n_rows = len(sizes)
        if not n_rows:
            return []
        # ends[i]: bytes rows 0..i need, slot overhead included.
        ends = list(accumulate([size + SLOT_OVERHEAD for size in sizes]))
        rids: list[RecordId] = []
        position = 0
        page = self._page_with_room(sizes[0])
        while True:
            page_id = page.page_id
            if page.dead:
                # Tombstone reuse picks a slot per row.
                while position < n_rows and page.fits(sizes[position]):
                    row = [column[position] for column in columns]
                    rids.append(RecordId(page_id, page.append_row(row, sizes[position])))
                    position += 1
            else:
                taken = ends[position - 1] if position else 0
                stop = bisect_right(ends, taken + page.free_bytes(), position)
                if stop > position:
                    first = page.append_columns(columns, position, stop, ends[stop - 1] - taken)
                    slots = range(first, first + stop - position)
                    rids.extend(map(RecordId._make, zip(repeat(page_id), slots)))
                    position = stop
            if position == n_rows:
                break
            new_id = PageId(self.file_id, self._page_count)
            self._page_count += 1
            self.buffer_pool.create_page(new_id, self.page_size)
            # Re-fetch through the pool so the bulk load is charged one
            # logical page access per page it fills (a sequential write
            # pattern), keeping the I/O cost model meaningful.
            page = self.buffer_pool.get_page(new_id)
        self._row_count += n_rows
        return rids

    def assign_column(self, position: int, rids: Sequence[RecordId], values: Sequence) -> None:
        """Set column *position* of the rows at *rids* to (validated) *values*, in place.

        All or nothing: every record id is checked (ownership, extent,
        live slot) before the first value is written.  The rows of one
        page are checked and written together, so a batch costs two page
        requests per page it touches, however its rows are ordered; a
        row named twice ends up with its later value.
        """
        by_page: dict[PageId, tuple[list[int], list]] = {}
        for (page_id, slot), value in zip(rids, values):
            group = by_page.get(page_id)
            if group is None:
                group = by_page[page_id] = ([], [])
            group[0].append(slot)
            group[1].append(value)
        get_page = self.buffer_pool.get_page
        for page_id, (page_slots, _values) in by_page.items():
            self.check_page(page_id)
            get_page(page_id).check_live(page_slots)
        bytes_of = partial(self.schema.column_bytes, position)
        for page_id, (page_slots, page_values) in by_page.items():
            # Fetched again: a batch wider than the pool may have evicted
            # the page checked above, and a write to a detached page
            # object would be lost on a durable backend.
            get_page(page_id).assign(position, page_slots, page_values, bytes_of)

    def check_row_size(self, row_size: int) -> None:
        """Reject rows too large for a page (shared by single and bulk inserts)."""
        if row_size > self.page_size // 2:
            raise StorageError(
                f"row of {row_size} bytes too large for page size {self.page_size}"
            )

    def read(self, rid: RecordId) -> tuple:
        self.check_page(rid.page_id)
        page = self.buffer_pool.get_page(rid.page_id)
        return page.read(rid.slot)

    def update(self, rid: RecordId, row: tuple) -> None:
        """Overwrite the row at *rid*."""
        self.check_page(rid.page_id)
        page = self.buffer_pool.get_page(rid.page_id)
        old = page.read(rid.slot)
        page.update(
            rid.slot, row, old_size=self.schema.row_size(old), new_size=self.schema.row_size(row)
        )
        self.buffer_pool.mark_dirty(rid.page_id)

    def delete(self, rid: RecordId) -> tuple:
        """Delete the row at *rid* and return it."""
        self.check_page(rid.page_id)
        page = self.buffer_pool.get_page(rid.page_id)
        row = page.read(rid.slot)
        page.delete(rid.slot, self.schema.row_size(row))
        self.buffer_pool.mark_dirty(rid.page_id)
        self._row_count -= 1
        return row

    def truncate(self) -> None:
        """Drop every page, leaving an empty heap."""
        for page_no in range(self._page_count):
            self.buffer_pool.drop_page(PageId(self.file_id, page_no))
        self._page_count = 0
        self._row_count = 0

    def restore(self, page_count: int, row_count: int) -> None:
        """Adopt heap extents recovered from a snapshot.

        The pages themselves already live in the storage backend; only the
        in-memory bookkeeping (how many pages/rows this heap owns) needs
        to be re-established before scans and appends can resume.
        """
        self._page_count = page_count
        self._row_count = row_count

    # -- scans --------------------------------------------------------------
    def scan_pages(self, start_page: int = 0, stop_page: Optional[int] = None) -> Iterator[Page]:
        """Yield the pages ``[start_page, stop_page)`` in order (sequential I/O).

        The page-at-a-time read: a consumer takes whole column chunks
        (``page.columns``, ``page.dead``) instead of one row per step.
        ``stop_page=None`` scans to the end of the heap; an explicit
        bound supports delta scans that must stop at a recorded
        watermark.
        """
        stop = self._page_count if stop_page is None else min(stop_page, self._page_count)
        get_page = self.buffer_pool.get_page
        for page_no in range(start_page, stop):
            yield get_page(PageId(self.file_id, page_no))

    def scan(self) -> Iterator[tuple[RecordId, tuple]]:
        """Yield ``(rid, row)`` for every live row, page by page."""
        for page in self.scan_pages():
            yield from zip(page.rids(), page.live(zip(*page.columns)))

    def scan_rows(self) -> Iterator[tuple]:
        """Yield every live row, zipped out of each page's columns."""
        for page in self.scan_pages():
            yield from page.live(zip(*page.columns))

    # -- internals ------------------------------------------------------------
    def _page_with_room(self, row_size: int) -> Page:
        if self._page_count > 0:
            last_id = PageId(self.file_id, self._page_count - 1)
            page = self.buffer_pool.get_page(last_id)
            if page.fits(row_size):
                return page
        new_id = PageId(self.file_id, self._page_count)
        self._page_count += 1
        return self.buffer_pool.create_page(new_id, self.page_size)

    def check_page(self, page_id: PageId) -> None:
        """Raise unless *page_id* names a page of this heap (ownership and extent)."""
        if page_id.file_id != self.file_id:
            raise StorageError(f"{page_id} does not belong to file {self.file_id}")
        if page_id.page_no >= self._page_count:
            raise StorageError(f"{page_id} is beyond the heap")
