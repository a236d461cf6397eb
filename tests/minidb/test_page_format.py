"""Column-chunk pages: same placement, same rows, and the bytes they leave on disk.

A page keeps one list per schema column; its durable image is
``(file_id, page_no, capacity, columns, used_bytes, dead slots)``, and a
bulk single-column update is journaled as one ``("update_column", …)``
record.  A store reopens from those bytes to the table it held.
"""

import pickle
from functools import partial

import pytest

from repro.minidb import Database, FLOAT, INTEGER, TEXT, make_schema
from repro.minidb.errors import StorageError
from repro.minidb.pages import PAGE_HEADER, SLOT_OVERHEAD, Page, PageId, rid_of


def facts(page):
    return (page.columns, page.dead, page.used_bytes, page.capacity, page.page_id, list(page.rows()))


class TestColumnChunkPage:
    def test_rows_are_slots_across_the_column_lists(self):
        schema = make_schema(("k", INTEGER), ("name", TEXT))
        page = Page(PageId(0, 0), capacity=256)
        assert page.slot_count() == 0 and list(page.rows()) == [] and page.live_count() == 0
        assert [page.append_row((k, f"r{k}"), 14) for k in range(3)] == [0, 1, 2]
        assert page.columns == [[0, 1, 2], ["r0", "r1", "r2"]]
        assert page.used_bytes == PAGE_HEADER + 3 * (14 + SLOT_OVERHEAD)
        for position, value in enumerate((10, "ten")):
            page.assign(position, [1], [value], partial(schema.column_bytes, position))
        assert page.read(1) == (10, "ten") and page.used_bytes == PAGE_HEADER + 67
        assert list(page.rows()) == [(0, (0, "r0")), (1, (10, "ten")), (2, (2, "r2"))]
        assert list(page.rids()) == [rid_of(0, 0, slot) for slot in range(3)]
        image = page.image()
        page.append_row((3, "r3"), 14)
        assert image[3] == [[0, 10, 2], ["r0", "ten", "r2"]]  # a copy: it does not follow the page

    def test_a_delete_leaves_a_tombstone_the_lowest_of_which_is_reused_first(self):
        page = Page(PageId(0, 0))
        for k in range(5):
            page.append_row((k, float(k)), 16)
        page.delete(3, 16)
        page.delete(1, 16)
        assert page.dead == {1, 3} and page.live_count() == 3
        assert [slot for slot, _row in page.rows()] == [0, 2, 4]
        assert list(page.live("abcde")) == ["a", "c", "e"]
        assert page.columns[0][1] is None  # a placeholder, not a row
        for slot in (1, 3):
            with pytest.raises(StorageError, match="is empty"):
                page.read(slot)
            with pytest.raises(StorageError, match="is empty"):
                page.delete(slot, 16)
        with pytest.raises(StorageError, match="out of range"):
            page.check_live([0, 7])
        assert page.append_row((11, 1.5), 16) == 1
        assert page.append_row((13, 3.5), 16) == 3
        assert page.append_row((5, 5.0), 16) == 5
        assert page.dead == set() and page.read(3) == (13, 3.5)

    def test_column_appends_and_assignments_account_like_row_writes(self):
        by_rows, by_columns = Page(PageId(0, 0)), Page(PageId(0, 0))
        rows = [(k, None if k % 3 == 0 else float(k)) for k in range(10)]
        sizes = [9 if row[1] is None else 16 for row in rows]
        for row, size in zip(rows, sizes):
            by_rows.append_row(row, size)
        used = sum(sizes) + len(sizes) * SLOT_OVERHEAD
        assert by_columns.append_columns(list(zip(*rows)), 0, 4, sum(sizes[:4]) + 4 * 8) == 0
        assert by_columns.append_columns(list(zip(*rows)), 4, 10, sum(sizes[4:]) + 6 * 8) == 4
        assert facts(by_columns) == facts(by_rows) and by_rows.used_bytes == PAGE_HEADER + used
        bytes_of = lambda values: 8 * len(values) - 7 * values.count(None)  # noqa: E731
        by_columns.assign(1, [0, 5, 0], [2.5, None, 7.5], bytes_of)
        by_rows.assign(1, [0], [7.5], bytes_of)  # named twice: the later value
        by_rows.assign(1, [5], [None], bytes_of)
        assert facts(by_columns) == facts(by_rows)
        assert by_rows.columns[1][:6] == [7.5, 1.0, 2.0, None, 4.0, None]
        assert by_rows.used_bytes == PAGE_HEADER + used

    @pytest.mark.parametrize("deleted", [(), (1, 3), (0, 1, 2, 3, 4)])
    def test_an_image_loads_to_the_same_page(self, deleted):
        page = Page(PageId(3, 7), capacity=512)
        for k in range(5):
            page.append_row((k, float(k), f"row{k}"), 24)
        for slot in deleted:
            page.delete(slot, 24)
        page.dirty = False
        image = page.image()
        assert image[3] == page.columns and image[5] == sorted(deleted)
        loaded = Page.from_image(image)
        assert facts(loaded) == facts(page)
        # The next inserts land where they would have on the original.
        for fresh in (page, loaded):
            slots = [fresh.append_row((9, 9.0, "new"), 24) for _ in range(3)]
            assert slots == (sorted(deleted) + [5, 6, 7])[:3]
        assert facts(loaded) == facts(page)


def people():
    return make_schema(("oid", INTEGER, False), ("score", FLOAT), ("name", TEXT), primary_key=["oid"])


def mutate(database):
    """A checkpointed base plus a WAL tail of every bulk mutation kind."""
    table = database.create_table("P", people())
    table.create_index("p_name", ["name"], kind="hash")
    rids = table.insert_many([(oid, oid * 0.5, f"n{oid % 7}") for oid in range(300)])
    for rid in rids[10:40:3]:
        table.delete_row(rid)
    database.checkpoint()
    table.insert_many([(oid, None, f"late{oid}") for oid in range(300, 340)])  # reuses tombstones
    table.update_column("score", [(rid, -1.0 - table.heap.locate(rid)[1]) for rid in rids[100:220:2]])
    table.update_rows([(rid, {"name": "renamed", "score": None}) for rid in rids[50:60]])
    table.delete_row(rids[70])
    table.insert({"oid": 1000, "name": "single"})
    database.sync_wal()


def state(database):
    table = database.table("P")
    return {
        "rows": list(table.scan()),
        "used": [page.used_bytes for page in table.heap.scan_pages()],
        "dead": [sorted(page.dead) for page in table.heap.scan_pages()],
        "extent": (table.page_count, len(table)),
        "renamed": sorted(table.lookup("p_name", ("renamed",))),
        "n3": sorted(table.lookup_rids("p_name", ("n3",))),
        "pk": [table.get_by_key((oid,)) for oid in (0, 13, 55, 150, 320, 1000)],
    }


class TestStoredShapes:
    def test_a_store_reopens_to_the_same_table(self, tmp_path):
        """Column-shaped page images under the snapshot and a log of every
        bulk mutation kind reopen to the table that wrote them."""
        written = Database.open(tmp_path / "db", buffer_pool_pages=8)
        mutate(written)
        expected = state(written)
        del written  # abandoned: what reopens is the snapshot plus the log

        assert _wal_ops(tmp_path / "db") >= {"insert", "update", "update_column", "delete"}
        assert _image_shapes(tmp_path / "db") == {list}
        with Database.open(tmp_path / "db", buffer_pool_pages=8) as reopened:
            assert state(reopened) == expected
            # ...and keeps going.
            reopened.table("P").update_column(
                "score", [(rid, 0.0) for rid in reopened.table("P").lookup_rids("p_name", ("n3",))]
            )
            reopened.checkpoint()
            after = state(reopened)
        with Database.open(tmp_path / "db", buffer_pool_pages=8) as again:
            assert state(again) == after

    def test_journal_records_keep_their_shapes(self):
        """Record ids are ints in memory; on the journal they stay ``(page_no, slot)``
        tuples and page/slot lists — the records the tuple-id commits logged."""
        table = Database(page_size=512).create_table("P", people())
        journal = []
        table.set_journal(journal.append)
        rids = table.insert_many([(oid, 0.5, "n") for oid in range(40)])  # 16 rows a page
        table.insert((40, 1.0, "x"))
        table.update_row(rids[3], {"score": 2.0})
        table.update_rows([(rids[30], {"name": "y"}), (rids[4], {"score": None})])
        table.update_column("score", [(rids[1], 3.0), (rids[35], 4.0)])
        table.delete_row(rids[2])
        expected = [
            ("insert", "P", [(40, 1.0, "x")]),
            ("update", "P", [((0, 3), {"score": 2.0})]),
            ("update", "P", [((1, 14), {"name": "y"}), ((0, 4), {"score": None})]),
            ("update_column", "P", "score", [0, 2], [1, 3], [3.0, 4.0]),
            ("delete", "P", [(0, 2)]),
        ]
        # Equal as pickles: the same values in the same container types.
        assert journal[1:] == expected and pickle.dumps(journal[1:]) == pickle.dumps(expected)

    def test_an_update_column_record_replays_with_its_checks(self, tmp_path):
        with Database.open(tmp_path / "db") as database:
            table = database.create_table("P", people())
            table.insert_many([(oid, 0.0, "n") for oid in range(5)])
            database.backend.log(("update_column", "P", "score", (0, 0), (1, 99), (2.0, 3.0)))
            database.sync_wal()
        with pytest.raises(StorageError, match="slot 99 out of range"):
            Database.open(tmp_path / "db")


def _wal_ops(path):
    from repro.minidb.backend import WAL_FILE
    from repro.minidb.wal import WriteAheadLog

    log = WriteAheadLog(path / WAL_FILE)
    try:
        return {record[0] for record in log.replay()}
    finally:
        log.close()


def _image_shapes(path):
    """The type of the last field of every page image in the segment files."""
    from repro.minidb.wal import SEGMENT_MAGIC, scan_frames

    shapes = set()
    for segment in path.glob("segments*.dat"):
        with open(segment, "rb") as handle:
            for payload in scan_frames(handle, len(SEGMENT_MAGIC)).payloads:
                image = pickle.loads(payload)
                if isinstance(image, tuple) and len(image) == 6:
                    shapes.add(type(image[5]))
    return shapes
