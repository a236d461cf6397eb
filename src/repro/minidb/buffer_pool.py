"""An LRU buffer pool with I/O accounting.

The paper's key systems argument is that writing the classifier and the
distiller as set-oriented database programs turns a random-I/O-bound
workload into a sequential, sort-merge-friendly one (Figure 8).  To make
that argument measurable without a real disk, minidb routes every page
access through this buffer pool and counts *logical reads*, *physical
reads* (misses), *physical writes*, and hits.  A simulated per-page I/O
cost lets experiments report stable "relative time" numbers that do not
depend on the host machine.

The pool uses page-level LRU caching — the same granularity the paper
blames for the classifier's poor locality ("most storage managers use
page-level caching") — so the SingleProbe vs. BulkProbe contrast shows
up in the miss counts exactly as it does in the paper's running times.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import BufferPoolError
from .pages import Page, PageId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .backend import StorageBackend


@dataclass
class IOStats:
    """Counters for buffer-pool activity.

    ``logical_reads`` counts every page request; ``physical_reads`` counts
    the subset that missed the pool; ``physical_writes`` counts dirty-page
    write-backs (on eviction or flush).
    """

    logical_reads: int = 0
    physical_reads: int = 0
    sequential_reads: int = 0
    physical_writes: int = 0
    evictions: int = 0

    #: Simulated cost charged per physical page transfer, in arbitrary "I/O
    #: units".  A physical read that continues the previous miss within the
    #: same file (a scan) is charged ``sequential_read_cost``; any other
    #: miss pays the full random-seek ``read_cost``.  Logical (cached)
    #: accesses are charged ``cpu_cost``.  The random/sequential asymmetry
    #: is what makes the paper's sort-merge-vs-probe comparison meaningful.
    read_cost: float = 1.0
    sequential_read_cost: float = 0.2
    write_cost: float = 1.0
    cpu_cost: float = 0.01

    def hit_ratio(self) -> float:
        if self.logical_reads == 0:
            return 1.0
        return 1.0 - self.physical_reads / self.logical_reads

    @property
    def random_reads(self) -> int:
        return self.physical_reads - self.sequential_reads

    def simulated_cost(self) -> float:
        """Total simulated I/O cost: the unit used for 'relative time' in Figure 8."""
        return (
            self.random_reads * self.read_cost
            + self.sequential_reads * self.sequential_read_cost
            + self.physical_writes * self.write_cost
            + self.logical_reads * self.cpu_cost
        )

    def snapshot(self) -> dict[str, float]:
        return {
            "logical_reads": self.logical_reads,
            "physical_reads": self.physical_reads,
            "sequential_reads": self.sequential_reads,
            "physical_writes": self.physical_writes,
            "evictions": self.evictions,
            "hit_ratio": self.hit_ratio(),
            "simulated_cost": self.simulated_cost(),
        }

    def reset(self) -> None:
        self.logical_reads = 0
        self.physical_reads = 0
        self.sequential_reads = 0
        self.physical_writes = 0
        self.evictions = 0

    def diff(self, earlier: "IOStats") -> "IOStats":
        """Return a new IOStats holding the counter deltas since *earlier*."""
        return IOStats(
            logical_reads=self.logical_reads - earlier.logical_reads,
            physical_reads=self.physical_reads - earlier.physical_reads,
            sequential_reads=self.sequential_reads - earlier.sequential_reads,
            physical_writes=self.physical_writes - earlier.physical_writes,
            evictions=self.evictions - earlier.evictions,
            read_cost=self.read_cost,
            sequential_read_cost=self.sequential_read_cost,
            write_cost=self.write_cost,
            cpu_cost=self.cpu_cost,
        )

    def copy(self) -> "IOStats":
        return IOStats(
            logical_reads=self.logical_reads,
            physical_reads=self.physical_reads,
            sequential_reads=self.sequential_reads,
            physical_writes=self.physical_writes,
            evictions=self.evictions,
            read_cost=self.read_cost,
            sequential_read_cost=self.sequential_read_cost,
            write_cost=self.write_cost,
            cpu_cost=self.cpu_cost,
        )


class BufferPool:
    """A fixed-capacity, LRU-replacement page cache over a storage backend.

    Evicted pages are handed to a pluggable
    :class:`~repro.minidb.backend.StorageBackend` — an in-memory dict by
    default (what matters for the experiments is the *counting* of page
    transfers, not persistence), or a durable segment file.  There is no
    pinning: the victim is always the least recently used page, and a
    caller that holds a page object across another pool access must
    fetch it again before writing to it (see ``Table.update_rows``).
    """

    def __init__(
        self,
        capacity_pages: int = 256,
        stats: Optional[IOStats] = None,
        backend: Optional["StorageBackend"] = None,
    ) -> None:
        if capacity_pages < 1:
            raise BufferPoolError("buffer pool needs at least one frame")
        if backend is None:
            from .backend import MemoryBackend

            backend = MemoryBackend()
        self.capacity_pages = capacity_pages
        self.stats = stats if stats is not None else IOStats()
        self.backend = backend
        #: Resident pages, least recently used first.
        self._frames: OrderedDict[PageId, Page] = OrderedDict()
        self._last_miss: Optional[PageId] = None

    # -- page lifecycle --------------------------------------------------
    def create_page(self, page_id: PageId, capacity: int) -> Page:
        """Allocate a brand-new page (not yet on disk) and cache it."""
        if page_id in self._frames or self.backend.contains(page_id):
            raise BufferPoolError(f"{page_id} already exists")
        page = Page(page_id=page_id, capacity=capacity, dirty=True)
        self._admit(page_id, page)
        return page

    def get_page(self, page_id: PageId) -> Page:
        """Fetch a page, counting a logical read and possibly a physical read."""
        self.stats.logical_reads += 1
        page = self._frames.get(page_id)
        if page is not None:
            self._frames.move_to_end(page_id)
            return page
        page = self.backend.load_page(page_id)
        self.stats.physical_reads += 1
        if (
            self._last_miss is not None
            and page_id.file_id == self._last_miss.file_id
            and page_id.page_no == self._last_miss.page_no + 1
        ):
            self.stats.sequential_reads += 1
        self._last_miss = page_id
        self._admit(page_id, page)
        return page

    def mark_dirty(self, page_id: PageId) -> None:
        page = self._frames.get(page_id)
        if page is None:
            raise BufferPoolError(f"{page_id} is not resident, cannot mark dirty")
        page.dirty = True

    def drop_page(self, page_id: PageId) -> None:
        """Remove a page entirely (table drop); no write-back is charged."""
        self._frames.pop(page_id, None)
        self.backend.remove_page(page_id)

    def flush_all(self) -> None:
        """Write back every dirty resident page without evicting it."""
        for page in self._frames.values():
            if page.dirty:
                self.stats.physical_writes += 1
                self.backend.write_back(page)
                page.dirty = False

    def resize(self, capacity_pages: int) -> None:
        """Change the pool size, evicting LRU pages if shrinking."""
        if capacity_pages < 1:
            raise BufferPoolError("buffer pool needs at least one frame")
        self.capacity_pages = capacity_pages
        while len(self._frames) > self.capacity_pages:
            self._evict_one()

    def clear_cache(self) -> None:
        """Evict everything (cold-start a measurement run)."""
        while self._frames:
            self._evict_one()

    # -- introspection ---------------------------------------------------
    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    @property
    def disk_pages(self) -> int:
        """Pages held only by the backend (not resident).

        A durable backend keeps its directory entry when a page is loaded
        (the image is the recovery source), so resident pages must be
        subtracted; the memory backend's dict is already exclusive.
        """
        return self.backend.page_count() - self._resident_overlap()

    def total_pages(self) -> int:
        return len(self._frames) + self.backend.page_count() - self._resident_overlap()

    def _resident_overlap(self) -> int:
        return sum(1 for page_id in self._frames if self.backend.contains(page_id))

    def is_resident(self, page_id: PageId) -> bool:
        return page_id in self._frames

    # -- internals ---------------------------------------------------------
    def _admit(self, page_id: PageId, page: Page) -> None:
        while len(self._frames) >= self.capacity_pages:
            self._evict_one()
        self._frames[page_id] = page

    def _evict_one(self) -> None:
        _page_id, victim = self._frames.popitem(last=False)
        if victim.dirty:
            self.stats.physical_writes += 1
        # The backend inspects the dirty flag to decide whether a fresh
        # image must be written, so clear it only after the hand-off.
        self.backend.store_page(victim)
        victim.dirty = False
        self.stats.evictions += 1
