"""Unit tests for the LRU buffer pool and its I/O accounting."""

import pytest

from repro.minidb import BufferPoolError
from repro.minidb.buffer_pool import BufferPool, IOStats
from repro.minidb.pages import PageId


def fill(pool: BufferPool, count: int, file_id: int = 0):
    pages = []
    for i in range(count):
        pages.append(pool.create_page(PageId(file_id, i), capacity=4096))
    return pages


class TestBufferPool:
    def test_create_and_get_counts_logical_reads(self):
        pool = BufferPool(4)
        fill(pool, 2)
        pool.get_page(PageId(0, 0))
        pool.get_page(PageId(0, 1))
        assert pool.stats.logical_reads == 2
        assert pool.stats.physical_reads == 0

    def test_eviction_and_refetch_counts_physical_read(self):
        pool = BufferPool(2)
        fill(pool, 3)  # capacity 2 → one eviction
        assert pool.stats.evictions >= 1
        assert pool.resident_pages == 2
        # the first page was evicted (LRU); touching it again is a miss
        pool.get_page(PageId(0, 0))
        assert pool.stats.physical_reads == 1

    def test_dirty_pages_written_back_on_eviction(self):
        pool = BufferPool(1)
        fill(pool, 1)
        pool.mark_dirty(PageId(0, 0))
        pool.create_page(PageId(0, 1), 4096)  # forces eviction of page 0
        assert pool.stats.physical_writes >= 1

    def test_lru_order_follows_access(self):
        pool = BufferPool(2)
        fill(pool, 2)
        pool.get_page(PageId(0, 0))  # page 0 becomes most recent
        pool.create_page(PageId(0, 2), 4096)  # evicts page 1
        assert pool.is_resident(PageId(0, 0))
        assert not pool.is_resident(PageId(0, 1))

    def test_a_full_pool_always_admits_a_new_page(self):
        # Nothing holds a page resident, so a full pool never refuses one.
        pool = BufferPool(2)
        for i in range(20):
            pool.create_page(PageId(0, i), 4096).append_row((i, "x"), 16)
        assert pool.resident_pages == 2
        assert pool.stats.evictions == 18
        assert [pool.get_page(PageId(0, i)).read(0) for i in range(20)] == [(i, "x") for i in range(20)]

    def test_clean_pages_are_evicted_without_a_write(self):
        pool = BufferPool(2)
        fill(pool, 2)
        pool.flush_all()
        writes = pool.stats.physical_writes
        fill(pool, 2, file_id=1)  # evicts both clean pages
        assert pool.stats.evictions == 2
        assert pool.stats.physical_writes == writes

    def test_resize_keeps_the_most_recently_used_pages(self):
        pool = BufferPool(4)
        fill(pool, 4)
        pool.get_page(PageId(0, 2))
        pool.get_page(PageId(0, 0))
        pool.resize(2)
        assert [pool.is_resident(PageId(0, i)) for i in range(4)] == [True, False, True, False]

    def test_sequential_miss_detection(self):
        pool = BufferPool(2)
        fill(pool, 6)
        pool.clear_cache()
        stats_before = pool.stats.copy()
        for i in range(6):
            pool.get_page(PageId(0, i))
        delta = pool.stats.diff(stats_before)
        assert delta.physical_reads == 6
        # All but the first miss continue the scan, so they are sequential.
        assert delta.sequential_reads == 5
        assert delta.simulated_cost() < 6 * pool.stats.read_cost + 6 * pool.stats.cpu_cost

    def test_random_misses_cost_more_than_sequential(self):
        stats = IOStats(physical_reads=10, sequential_reads=0, logical_reads=10)
        sequential = IOStats(physical_reads=10, sequential_reads=9, logical_reads=10)
        assert stats.simulated_cost() > sequential.simulated_cost()

    def test_resize_shrinks_and_evicts(self):
        pool = BufferPool(8)
        fill(pool, 8)
        pool.resize(2)
        assert pool.resident_pages == 2
        assert pool.total_pages() == 8

    def test_clear_cache_preserves_data(self):
        pool = BufferPool(4)
        pages = fill(pool, 3)
        pages[0].append_row((1, "x"), 16)
        pool.mark_dirty(PageId(0, 0))
        pool.clear_cache()
        assert pool.resident_pages == 0
        page = pool.get_page(PageId(0, 0))
        assert page.read(0) == (1, "x")

    def test_missing_page_raises(self):
        pool = BufferPool(2)
        with pytest.raises(BufferPoolError):
            pool.get_page(PageId(0, 99))

    def test_duplicate_create_rejected(self):
        pool = BufferPool(2)
        fill(pool, 1)
        with pytest.raises(BufferPoolError):
            pool.create_page(PageId(0, 0), 4096)

    def test_capacity_must_be_positive(self):
        with pytest.raises(BufferPoolError):
            BufferPool(0)

    def test_stats_reset_and_hit_ratio(self):
        pool = BufferPool(2)
        fill(pool, 2)
        pool.get_page(PageId(0, 0))
        assert pool.stats.hit_ratio() == 1.0
        pool.stats.reset()
        assert pool.stats.logical_reads == 0
        assert pool.stats.hit_ratio() == 1.0

    def test_drop_page_removes_without_write(self):
        pool = BufferPool(2)
        fill(pool, 1)
        pool.drop_page(PageId(0, 0))
        with pytest.raises(BufferPoolError):
            pool.get_page(PageId(0, 0))

    def test_flush_all_writes_dirty_pages(self):
        pool = BufferPool(4)
        fill(pool, 2)  # freshly created pages start dirty
        pool.flush_all()
        assert pool.stats.physical_writes == 2
        pool.flush_all()  # everything clean now: nothing to write
        assert pool.stats.physical_writes == 2
        pool.mark_dirty(PageId(0, 1))
        pool.flush_all()
        assert pool.stats.physical_writes == 3
