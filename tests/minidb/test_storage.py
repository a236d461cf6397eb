"""Unit tests for slotted pages, heap files, and record ids."""

import os

import pytest

from repro.minidb import Database, INTEGER, TEXT, StorageConfig, StorageError, make_schema
from repro.minidb.backend import SEGMENT_FILE
from repro.minidb.buffer_pool import BufferPool
from repro.minidb.pages import MAX_FILE_ID, MAX_PAGE_SIZE, Page, PageId, rid_fields, rid_of
from repro.minidb.storage import HeapFile
from repro.minidb.wal import SEGMENT_MAGIC


def make_heap(page_size=512, pool_pages=8):
    schema = make_schema(("k", INTEGER, False), ("payload", TEXT))
    pool = BufferPool(pool_pages)
    return HeapFile(file_id=0, schema=schema, buffer_pool=pool, page_size=page_size), schema, pool


def append(heap, *rows):
    """Append *rows* to *heap* as one validated column batch; returns their record ids."""
    schema = heap.schema
    columns = [
        schema.validate_column(position, [row[position] for row in rows])
        for position in range(len(schema.columns))
    ]
    return heap.append_columns(columns, schema.row_sizes(columns))


class TestPage:
    def test_append_read_assign_delete(self):
        page = Page(PageId(0, 0), capacity=256)
        slot = page.append_row((1, "a"), 16)
        assert page.read(slot) == (1, "a")
        page.assign(1, [slot], ["bc"], lambda values: 4 * len(values) + sum(map(len, values)))
        assert page.read(slot) == (1, "bc") and page.used_bytes == 24 + 16 + 8 + 1
        page.delete(slot, 17)
        with pytest.raises(StorageError):
            page.read(slot)

    def test_fits_respects_capacity(self):
        page = Page(PageId(0, 0), capacity=64)
        assert page.fits(8)
        assert not page.fits(1000)

    def test_deleted_slot_is_reused(self):
        page = Page(PageId(0, 0), capacity=4096)
        first = page.append_row((1,), 8)
        page.append_row((2,), 8)
        page.delete(first, 8)
        reused = page.append_row((3,), 8)
        assert reused == first
        assert page.live_count() == 2

    def test_out_of_range_slot(self):
        page = Page(PageId(0, 0))
        with pytest.raises(StorageError):
            page.read(5)


class TestHeapFile:
    def test_append_and_read(self):
        heap, _schema, _ = make_heap()
        [rid] = append(heap, (1, "hello"))
        assert heap.read(rid) == (1, "hello")
        assert heap.row_count == 1

    def test_rows_spill_to_new_pages(self):
        heap, _schema, _ = make_heap(page_size=256)
        for i in range(50):
            append(heap, (i, "x" * 20))
        assert heap.page_count > 1
        assert heap.row_count == 50
        assert sorted(row[0] for row in heap.scan_rows()) == list(range(50))

    def test_assign_and_delete(self):
        heap, schema, _ = make_heap()
        [rid] = append(heap, (1, "a"))
        heap.assign_column(1, [rid], ["bb"])
        assert heap.read(rid) == (1, "bb")
        deleted = heap.delete(rid)
        assert deleted == (1, "bb")
        assert heap.row_count == 0
        with pytest.raises(StorageError):
            heap.read(rid)
        with pytest.raises(StorageError, match="is empty"):
            heap.assign_column(1, [rid], ["cc"])

    def test_rid_stability_across_other_deletes(self):
        heap, _schema, _ = make_heap()
        rids = append(heap, *[(i, "p") for i in range(10)])
        heap.delete(rids[0])
        heap.delete(rids[5])
        assert heap.read(rids[7]) == (7, "p")

    def test_a_batch_refills_tombstones_lowest_first_then_appends(self):
        heap, schema, pool = make_heap()
        rids = append(heap, *[(i, "p") for i in range(6)])
        for rid in (rids[4], rids[1]):
            heap.delete(rid)
        page = pool.get_page(heap.page_of(rids[0])[0])
        used = page.used_bytes
        assert append(heap, (10, "q"), (11, "q"), (12, "q")) == [rids[1], rids[4], rids[5] + 1]
        assert page.dead == set() and page.used_bytes == used + 3 * (schema.row_size((10, "q")) + 8)
        assert [row[0] for row in heap.scan_rows()] == [0, 10, 2, 3, 11, 5, 12]

    def test_foreign_rid_rejected(self):
        heap, _schema, _ = make_heap()
        append(heap, (1, "a"))
        foreign = rid_of(99, 0, 0)
        with pytest.raises(StorageError):
            heap.read(foreign)
        with pytest.raises(StorageError, match="does not belong"):
            heap.assign_column(1, [foreign], ["b"])

    def test_oversized_row_rejected(self):
        table = Database(page_size=128).create_table("T", make_heap()[1])
        with pytest.raises(StorageError, match="too large"):
            table.insert_many([(1, "ok"), (2, "y" * 500)])
        with pytest.raises(StorageError, match="too large"):
            table.insert((3, "y" * 61))  # 8 + 65 bytes: more than half a page
        assert len(table) == 0 and table.page_count == 0

    def test_truncate_clears_everything(self):
        heap, _schema, _ = make_heap()
        for i in range(20):
            append(heap, (i, "z"))
        heap.truncate()
        assert heap.row_count == 0
        assert heap.page_count == 0
        assert list(heap.scan()) == []

    def test_scan_yields_rid_row_pairs(self):
        heap, _schema, _ = make_heap()
        [rid] = append(heap, (3, "q"))
        pairs = list(heap.scan())
        assert pairs == [(rid, (3, "q"))]


class TestRecordIdLayout:
    """A record id is ``((file_id << 32 | page_no) << 16) | slot``: what does not fit is refused."""

    def test_a_page_size_beyond_the_slot_bits_is_refused(self):
        schema = make_schema(("k", INTEGER))
        HeapFile(0, schema, BufferPool(4), page_size=MAX_PAGE_SIZE)
        for size in (MAX_PAGE_SIZE + 1, 4 * MAX_PAGE_SIZE, 0):
            with pytest.raises(StorageError, match="page size"):
                HeapFile(0, schema, BufferPool(4), page_size=size)
            with pytest.raises(StorageError, match="page size"):
                Database(page_size=size)

    def test_the_largest_page_gives_every_slot_its_own_id(self):
        table = Database(page_size=MAX_PAGE_SIZE).create_table("T", make_schema(("k", INTEGER)))
        rids = table.insert_many([(None,)] * 60_000)  # 9 bytes a row: 58 k slots on page 0
        assert table.page_count == 2 and len(set(rids)) == len(rids)
        first_page = [rid_fields(rid) for rid in rids if rid_fields(rid)[1] == 0]
        assert [slot for _file, _page, slot in first_page] == list(range(len(first_page)))
        assert len(first_page) > 1 << 15 and rid_fields(rids[-1])[1] == 1
        assert table.read(rids[len(first_page) - 1]) == (None,)

    def test_a_file_id_beyond_the_file_bits_is_refused(self):
        schema = make_schema(("k", INTEGER))
        heap = HeapFile(MAX_FILE_ID, schema, BufferPool(4))
        assert [rid_fields(rid) for rid in append(heap, (7,))] == [(MAX_FILE_ID, 0, 0)]
        with pytest.raises(StorageError, match="file id"):
            HeapFile(MAX_FILE_ID + 1, schema, BufferPool(4))
        database = Database()
        database._next_file_id = MAX_FILE_ID  # as if that many tables had been made
        database.create_table("last", schema)
        with pytest.raises(StorageError, match="file id"):
            database.create_table("one_too_many", schema)
        assert database.table_names() == ["last"]


class TestSegmentAccounting:
    """The segment-file size baseline behind the compactor's live/dead split."""

    def test_io_snapshot_reports_segment_bytes_total(self, tmp_path):
        schema = make_schema(("k", INTEGER, False), ("payload", TEXT))
        with Database.open(
            tmp_path / "db",
            buffer_pool_pages=2,
            page_size=512,
            storage=StorageConfig(compact_every=0),
        ) as db:
            table = db.create_table("T", schema)
            for i in range(200):  # spill through the 2-frame pool
                table.insert((i, "x" * 20))
            # Rewrites supersede earlier page images: dead bytes appear.
            table.update_rows([(rid, {"payload": "y" * 20}) for rid, _ in table.scan()])
            db.checkpoint()
            snap = db.io_snapshot()
            assert snap["segment_bytes_total"] > 0
            # Total is exactly what is on disk (minus the magic header)...
            on_disk = os.path.getsize(tmp_path / "db" / SEGMENT_FILE)
            assert snap["segment_bytes_total"] == on_disk - len(SEGMENT_MAGIC)
            # ... and decomposes into the live/dead split.
            assert (
                snap["segment_bytes_total"]
                == snap["segment_bytes_live"] + snap["segment_bytes_dead"]
            )
            # The eviction churn re-wrote pages, so some bytes are dead.
            assert snap["segment_bytes_dead"] > 0

    def test_memory_database_reports_zero_segment_bytes(self):
        snap = Database().io_snapshot()
        assert snap["segment_bytes_total"] == 0.0
        assert snap["segment_bytes_live"] == 0.0
        assert snap["segment_bytes_dead"] == 0.0
        assert snap["compactions_run"] == 0.0
        assert snap["bytes_reclaimed"] == 0.0
