"""Column-chunk pages and record identifiers.

minidb stores every table as a heap file made of fixed-capacity pages.
A page holds its rows as *column chunks* — one list per schema column,
all of one length, a row being the values at one slot number — so a
bulk writer appends or overwrites a column slice at a time and a scan
hands whole columns to array code.  A delete leaves a tombstone so
that the record ids of other rows remain stable.
Pages track their approximate byte usage so the storage layer can
decide when to allocate a new page — this is what makes the buffer-pool
experiments (paper Figure 8b) meaningful: a table's size in pages, not
in rows, drives I/O.  Placement is a function of row sizes alone, so it
is the same whichever way the values are laid out inside the page.

A record id is one ``int``, ``((file_id << 32 | page_no) << 16) | slot``
(:func:`rid_of`; only this module and the heap file do arithmetic on
one), and every holder stores the int: the cyclic collector never tracks
an int, nor a dict whose keys are all ints, while a tuple subclass such
as a NamedTuple stays tracked for life — one per row.  Ids sort as their
``(file_id, page_no, slot)`` tuples would.  :class:`RecordId` is a
decoded view, never stored.  The slot bits bound the page size
(:data:`MAX_PAGE_SIZE`), the file bits the file ids (:data:`MAX_FILE_ID`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import StorageError

#: Default page capacity in bytes.  4 KiB mirrors the paper's DB2 buffer
#: pool accounting ("Buffer Pool (x 4kB)" on the x-axis of Figure 8b).
DEFAULT_PAGE_SIZE = 4096

#: Fixed per-slot overhead (slot directory entry), in bytes.
SLOT_OVERHEAD = 8

#: Fixed per-page overhead (header), in bytes.
PAGE_HEADER = 24

#: Record id layout: the low bits hold the slot, the next the page number.
SLOT_BITS = 16
PAGE_BITS = 32
SLOT_MASK = (1 << SLOT_BITS) - 1
MAX_PAGES = 1 << PAGE_BITS
#: A slot costs at least :data:`SLOT_OVERHEAD` bytes: 512 KiB hold ``1 << SLOT_BITS``.
MAX_PAGE_SIZE = SLOT_OVERHEAD << SLOT_BITS
#: Fifteen file bits keep every id below ``2**63``.
MAX_FILE_ID = (1 << 15) - 1


def rid_of(file_id: int, page_no: int, slot: int) -> int:
    """The record id of *slot* on page *page_no* of file *file_id*."""
    return ((file_id << PAGE_BITS | page_no) << SLOT_BITS) | slot


def rid_fields(rid: int) -> tuple[int, int, int]:
    """``(file_id, page_no, slot)`` of a record id, unchecked."""
    return rid >> (PAGE_BITS + SLOT_BITS), (rid >> SLOT_BITS) & (MAX_PAGES - 1), rid & SLOT_MASK


def check_layout(file_id: int, page_size: int) -> None:
    """Raise :class:`StorageError` unless every id of such a heap fits the layout."""
    if not 0 <= file_id <= MAX_FILE_ID:
        raise StorageError(f"file id {file_id} outside the record id layout (0..{MAX_FILE_ID})")
    if not 0 < page_size <= MAX_PAGE_SIZE:
        raise StorageError(f"page size {page_size} outside the record id layout (1..{MAX_PAGE_SIZE})")


class PageId(NamedTuple):
    """Identifies a page: which file (table/index) and which page number within it."""

    file_id: int
    page_no: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"page({self.file_id}:{self.page_no})"


class RecordId(NamedTuple):
    """A record id decoded into its parts, for reading one; never stored."""

    file_id: int
    page_no: int
    slot: int

    @classmethod
    def decode(cls, rid: int) -> "RecordId":
        return cls(*rid_fields(rid))


@dataclass
class Page:
    """An in-memory page of column chunks.

    ``columns[c][s]`` is the value of schema column *c* in slot *s*; the
    lists are created by the first row stored (a page does not know its
    table).  ``dead`` names the slots emptied by deletes — their values
    are ``None`` placeholders, not rows.  ``used_bytes`` approximates
    how full the page is; the heap file uses it to decide whether
    another row fits.
    """

    page_id: PageId
    capacity: int = DEFAULT_PAGE_SIZE
    columns: list[list] = field(default_factory=list)
    used_bytes: int = PAGE_HEADER
    dirty: bool = False
    #: Slots left empty by deletes; insert reuses the lowest one first.
    #: Empty for append-only tables such as CRAWL and LINK.
    dead: set[int] = field(default_factory=set)

    def slot_count(self) -> int:
        """Slots handed out so far, live or dead."""
        return len(self.columns[0]) if self.columns else 0

    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    def fits(self, row_size: int) -> bool:
        return self.free_bytes() >= row_size + SLOT_OVERHEAD

    def _widen(self, width: int) -> list[list]:
        """Create the column lists on first use (dead slots keep their numbers)."""
        count = max(self.dead) + 1 if self.dead else 0
        self.columns = [[None] * count for _ in range(width)]
        return self.columns

    def append_row(self, row: Sequence, row_size: int) -> int:
        """Store *row* in the lowest tombstone slot (or a new one); return the slot number.

        The caller has checked that the row :meth:`fits`.  A bulk insert
        takes this path only on a page with tombstones to reuse; rows
        bound for a page without any arrive as column slices
        (:meth:`append_columns`).
        """
        self.used_bytes += row_size + SLOT_OVERHEAD
        self.dirty = True
        columns = self.columns or self._widen(len(row))
        if self.dead:
            slot = min(self.dead)
            self.dead.discard(slot)
            for column, value in zip(columns, row):
                column[slot] = value
            return slot
        for column, value in zip(columns, row):
            column.append(value)
        return len(columns[0]) - 1

    def append_columns(self, columns: Sequence[Sequence], start: int, stop: int, used: int) -> int:
        """Append rows ``[start, stop)`` of a column batch; return their first slot.

        *used* is what they occupy, slot overhead included; the caller
        has checked that it fits and that there is no tombstone to
        reuse first.
        """
        own = self.columns or self._widen(len(columns))
        first = len(own[0])
        for mine, theirs in zip(own, columns):
            mine.extend(theirs[start:stop])
        self.used_bytes += used
        self.dirty = True
        return first

    def check_live(self, slots: Sequence[int]) -> None:
        """Raise :class:`StorageError` unless every one of *slots* holds a row."""
        if (
            min(slots) < 0
            or max(slots) >= self.slot_count()
            or (self.dead and not self.dead.isdisjoint(slots))
        ):
            for slot in slots:  # name the first offender
                self.check_slot(slot)

    def assign(self, position: int, slots: Sequence[int], values: Sequence, bytes_of) -> None:
        """Overwrite column *position* at (live) *slots* with *values*.

        ``bytes_of(values)`` gives what a list of values occupies.  A
        slot named twice keeps its later value.
        """
        if len(set(slots)) != len(slots):
            last = dict(zip(slots, values))
            slots, values = list(last), list(last.values())
        column = self.columns[position]
        old = [column[slot] for slot in slots]
        for slot, value in zip(slots, values):
            column[slot] = value
        self.used_bytes += bytes_of(values) - bytes_of(old)
        self.dirty = True

    def check_slot(self, slot: int) -> None:
        if slot < 0 or slot >= self.slot_count():
            raise StorageError(f"slot {slot} out of range for {self.page_id}")
        if slot in self.dead:
            raise StorageError(f"slot {slot} of {self.page_id} is empty")

    def read(self, slot: int) -> tuple:
        self.check_slot(slot)
        return tuple([column[slot] for column in self.columns])

    def delete(self, slot: int, row_size: int) -> None:
        self.check_slot(slot)
        for column in self.columns:
            column[slot] = None
        self.dead.add(slot)
        self.used_bytes -= row_size + SLOT_OVERHEAD
        self.dirty = True

    def live(self, per_slot: Iterable) -> Iterable:
        """*per_slot* — one item per slot, in slot order — without the dead slots' items."""
        if not self.dead:
            return per_slot
        dead = self.dead
        return (item for slot, item in enumerate(per_slot) if slot not in dead)

    def rows(self) -> Iterable[tuple[int, tuple]]:
        """``(slot, row)`` for every live row on the page."""
        return self.live(enumerate(zip(*self.columns)))

    def rids(self) -> Iterable[int]:
        """The record id of every live row on the page."""
        first = rid_of(*self.page_id, 0)
        return self.live(range(first, first + self.slot_count()))

    # -- durable images ---------------------------------------------------
    def image(self) -> tuple:
        """A compact, serialisable image of the page (for durable backends).

        ``(file_id, page_no, capacity, columns, used_bytes, dead slots)``.
        """
        return (
            self.page_id.file_id,
            self.page_id.page_no,
            self.capacity,
            [column[:] for column in self.columns],
            self.used_bytes,
            sorted(self.dead),
        )

    @classmethod
    def from_image(cls, image: tuple) -> "Page":
        """Rebuild a (clean) page from :meth:`image` output."""
        file_id, page_no, capacity, columns, used_bytes, dead = image
        return cls(
            page_id=PageId(file_id, page_no),
            capacity=capacity,
            columns=columns,
            used_bytes=used_bytes,
            dirty=False,
            dead=set(dead),
        )

    def live_count(self) -> int:
        return self.slot_count() - len(self.dead)
