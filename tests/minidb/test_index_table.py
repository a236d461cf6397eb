"""Unit tests for secondary indexes and the Table layer."""

import importlib.util

import pytest

from repro.minidb import (
    CatalogError,
    ConstraintError,
    Database,
    FLOAT,
    INTEGER,
    QueryError,
    TEXT,
    make_schema,
)
from repro.minidb.expressions import ColumnRef, Comparison, Literal
from repro.minidb.index import HashIndex, OrderedIndex, build_index
from repro.minidb.pages import rid_of


def rid(n: int) -> int:
    return rid_of(0, 0, n)


SCHEMA = make_schema(("oid", INTEGER, False), ("sid", INTEGER), ("score", FLOAT))


class TestHashIndex:
    def test_insert_search_delete(self):
        index = HashIndex("ix", SCHEMA, ["sid"])
        index.insert_key((10,), rid(0))
        index.insert_many([(10,), (20,)], [rid(1), rid(2)])
        assert set(index.search((10,))) == {rid(0), rid(1)}
        assert index.search((99,)) == []
        index.delete((1, 10, 0.5), rid(0))
        assert index.search((10,)) == [rid(1)]
        assert len(index) == 2

    def test_delete_missing_entry_raises(self):
        index = HashIndex("ix", SCHEMA, ["sid"])
        with pytest.raises(Exception):
            index.delete((1, 10, 0.5), rid(0))

    def test_probe_count_increments(self):
        index = HashIndex("ix", SCHEMA, ["sid"])
        index.search((1,))
        index.search((2,))
        assert index.probe_count == 2


class TestOrderedIndex:
    def test_range_search_in_order(self):
        index = OrderedIndex("ox", SCHEMA, ["oid"])
        for i in (5, 1, 3, 2, 4):
            index.insert_key((i,), rid(i))
        keys = [key for key, _ in index.range_search((2,), (4,))]
        assert keys == [(2,), (3,), (4,)]

    def test_open_ended_ranges(self):
        index = OrderedIndex("ox", SCHEMA, ["oid"])
        index.insert_many([(i,) for i in range(5)], [rid(i) for i in range(5)])
        assert len(list(index.range_search(low=(3,)))) == 2
        assert len(list(index.range_search(high=(1,)))) == 2
        assert index.ordered_keys()[::4] == [(0,), (4,)]

    def test_delete_removes_key_when_empty(self):
        index = OrderedIndex("ox", SCHEMA, ["oid"])
        index.insert_key((1,), rid(0))
        index.delete((1, 0, 0.0), rid(0))
        assert index.ordered_keys() == []

    def test_build_index_factory(self):
        assert isinstance(build_index("hash", "a", SCHEMA, ["oid"]), HashIndex)
        assert isinstance(build_index("ordered", "b", SCHEMA, ["oid"]), OrderedIndex)
        with pytest.raises(CatalogError):
            build_index("btree", "c", SCHEMA, ["oid"])

    def test_index_requires_key_columns(self):
        with pytest.raises(CatalogError):
            HashIndex("bad", SCHEMA, [])


class TestTable:
    def make_table(self):
        db = Database(buffer_pool_pages=32)
        return db.create_table(
            "CRAWL",
            make_schema(
                ("oid", INTEGER, False),
                ("url", TEXT),
                ("relevance", FLOAT),
                primary_key=["oid"],
            ),
        )

    def test_insert_and_get_by_key(self):
        table = self.make_table()
        table.insert({"oid": 1, "url": "http://a", "relevance": 0.3})
        assert table.get_by_key((1,)) == (1, "http://a", 0.3)
        assert table.get_by_key((2,)) is None

    def test_duplicate_primary_key_rejected(self):
        table = self.make_table()
        table.insert({"oid": 1, "url": "a"})
        with pytest.raises(ConstraintError):
            table.insert({"oid": 1, "url": "b"})

    def test_null_primary_key_rejected(self):
        # Even when the schema column itself is nullable, the primary-key
        # constraint must refuse NULL key values.
        db = Database()
        table = db.create_table(
            "T",
            make_schema(("oid", INTEGER, True), ("url", TEXT), primary_key=["oid"]),
        )
        with pytest.raises(ConstraintError):
            table.insert({"oid": None, "url": "a"})

    def test_secondary_index_backfilled_and_maintained(self):
        table = self.make_table()
        for i in range(10):
            table.insert({"oid": i, "url": f"u{i}", "relevance": i / 10})
        index = table.create_index("by_url", ["url"])
        assert len(index) == 10
        assert table.lookup("by_url", ("u3",)) == [(3, "u3", 0.3)]
        rid_, _ = next(table.scan())
        table.update_row(rid_, {"url": "changed"})
        assert table.lookup("by_url", ("changed",)) != []

    def test_duplicate_index_name_rejected(self):
        table = self.make_table()
        table.create_index("ix", ["url"])
        with pytest.raises(CatalogError):
            table.create_index("ix", ["url"])
        table.drop_index("ix")
        with pytest.raises(CatalogError):
            table.drop_index("ix")

    def test_delete_where(self):
        table = self.make_table()
        for i in range(10):
            table.insert({"oid": i, "url": f"u{i}", "relevance": i / 10})
        deleted = table.delete_where(Comparison(">", ColumnRef("relevance"), Literal(0.7)))
        assert deleted == 2
        assert len(table) == 8

    def test_delete_where_removes_rows_from_every_index(self):
        table = self.make_table()
        table.create_index("by_url", ["url"])
        for i in range(6):
            table.insert({"oid": i, "url": f"u{i % 2}", "relevance": i / 10})
        assert table.delete_where(Comparison("=", ColumnRef("url"), Literal("u1"))) == 3
        assert table.lookup("by_url", ("u1",)) == []
        assert len(table.lookup("by_url", ("u0",))) == 3
        assert table.get_by_key((1,)) is None
        table.insert({"oid": 1, "url": "again"})  # the primary key is free again
        assert table.lookup("by_url", ("again",)) == [(1, "again", None)]

    def test_update_rows_moves_secondary_and_primary_keys(self):
        table = self.make_table()
        table.create_index("by_url", ["url"])
        rids = [table.insert({"oid": i, "url": f"u{i}", "relevance": 0.0}) for i in range(3)]
        # A change set without the primary key is written column by column.
        assert table.update_rows([(rids[0], {"url": "moved"}), (rids[1], {"relevance": 1.0})]) == 2
        assert table.lookup("by_url", ("u0",)) == []
        assert table.lookup("by_url", ("moved",)) == [(0, "moved", 0.0)]
        assert table.lookup("by_url", ("u1",)) == [(1, "u1", 1.0)]
        # One that changes it goes through the checked row-at-a-time path.
        assert table.update_rows([(rids[2], {"oid": 7})]) == 1
        assert table.get_by_key((2,)) is None
        assert table.lookup("CRAWL_pk", (7,)) == [(7, "u2", 0.0)]
        with pytest.raises(ConstraintError):
            table.update_rows([(rids[1], {"oid": 7})])
        assert table.get_by_key((1,)) == (1, "u1", 1.0)

    def test_update_preserving_pk_and_changing_pk(self):
        table = self.make_table()
        rid_ = table.insert({"oid": 1, "url": "a"})
        table.update_row(rid_, {"url": "b"})
        table.insert({"oid": 2, "url": "c"})
        with pytest.raises(ConstraintError):
            table.update_row(rid_, {"oid": 2})

    def test_truncate_resets_indexes(self):
        table = self.make_table()
        table.create_index("by_url", ["url"])
        table.insert({"oid": 1, "url": "a"})
        table.truncate()
        assert len(table) == 0
        assert table.lookup("by_url", ("a",)) == []

    def test_lookup_without_primary_key_raises(self):
        db = Database()
        table = db.create_table("NOPK", make_schema(("a", INTEGER)))
        with pytest.raises(QueryError):
            table.get_by_key((1,))

    def test_rows_as_dicts(self):
        table = self.make_table()
        table.insert({"oid": 1, "url": "a", "relevance": 0.5})
        assert list(table.rows_as_dicts()) == [{"oid": 1, "url": "a", "relevance": 0.5}]


class TestDatabaseCatalog:
    def test_create_drop_and_missing_table(self):
        db = Database()
        db.create_table("T", make_schema(("a", INTEGER)))
        assert db.has_table("T")
        assert db.table_names() == ["T"]
        with pytest.raises(CatalogError):
            db.create_table("T", make_schema(("a", INTEGER)))
        db.drop_table("T")
        with pytest.raises(CatalogError):
            db.table("T")

    def test_trigger_and_listener_api_is_gone(self):
        # The crawl engine runs the distiller itself, every distill_every
        # fetches; nothing in minidb calls back on a write.
        import repro.minidb as minidb

        assert importlib.util.find_spec("repro.minidb.triggers") is None
        assert importlib.util.find_spec("repro.minidb.testing") is None  # now under tests/
        assert not hasattr(minidb, "Trigger")
        db = Database()
        table = db.create_table("T", make_schema(("a", INTEGER)))
        for name in ("create_trigger", "drop_trigger", "triggers"):
            assert not hasattr(db, name), name
        for name in ("add_mutation_listener", "mutation_listeners"):
            assert not hasattr(table, name), name

    def test_io_snapshot_and_total_pages(self):
        db = Database(buffer_pool_pages=16)
        table = db.create_table("T", make_schema(("a", INTEGER), ("b", TEXT)))
        for i in range(200):
            table.insert({"a": i, "b": "x" * 30})
        snapshot = db.io_snapshot()
        assert snapshot["logical_reads"] > 0
        assert db.total_pages() == table.page_count > 0
