"""Tests for minidb's bulk mutation paths: atomic insert_many (of rows or of a
column batch) and update_rows."""

import re

import pytest

from repro.minidb import ColumnBatch, Database, FLOAT, INTEGER, TEXT, make_schema
from repro.minidb.errors import ConstraintError, SchemaError


def make_table(db=None, primary_key=("k",)):
    db = db or Database(buffer_pool_pages=64)
    table = db.create_table(
        "T",
        make_schema(
            ("k", INTEGER, False),
            ("v", FLOAT),
            ("s", TEXT),
            primary_key=list(primary_key),
        ),
    )
    return db, table


class TestInsertManyAtomicity:
    def test_returns_record_ids_in_order(self):
        _, table = make_table()
        rids = table.insert_many({"k": i, "v": float(i), "s": f"row{i}"} for i in range(5))
        assert len(rids) == 5
        for i, rid in enumerate(rids):
            assert table.read(rid)[0] == i

    def test_a_fresh_batch_is_checked_in_one_probe_and_posted_whole(self):
        _, table = make_table()
        table.insert_many([(1, 0.0, "a")])
        index = table._pk_index
        before = index.probe_count
        rids = table.insert_many([(k, 0.0, "b") for k in range(2, 1502)])
        assert index.probe_count == before + 1
        assert len(index) == index.key_count == 1501
        assert [table.lookup_rids(index.name, (k,)) for k in (1, 2, 1501)] == [
            [0], [rids[0]], [rids[-1]]
        ]
        table.truncate()  # a score table's rewrite: the same keys again
        assert table.insert_many([(k, 1.0, "c") for k in range(1, 1502)])
        assert table.get_by_key((750,)) == (750, 1.0, "c")

    def test_insert_many_names_the_offending_key(self):
        _, table = make_table()
        table.insert_many([(1, 0.0, "a"), (2, 0.0, "b")])
        before = list(table.rows())
        failing = {
            "table 'T': duplicate primary key (2,)": [(5, 0.0, "x"), (2, 0.0, "y")],
            "table 'T': duplicate primary key (6,) within batch": [(6, 0.0, "x"), (6, 0.0, "y")],
        }
        for message, rows in failing.items():
            with pytest.raises(ConstraintError, match=re.escape(message)):
                table.insert_many(rows)
        assert list(table.rows()) == before

    def test_duplicate_key_within_batch_leaves_table_unchanged(self):
        _, table = make_table()
        table.insert({"k": 1, "v": 1.0, "s": "one"})
        with pytest.raises(ConstraintError):
            table.insert_many(
                [
                    {"k": 2, "v": 2.0, "s": "two"},
                    {"k": 3, "v": 3.0, "s": "three"},
                    {"k": 2, "v": 2.5, "s": "dup"},
                ]
            )
        # Nothing from the failed batch is visible.
        assert len(table) == 1
        assert table.get_by_key((2,)) is None
        assert table.get_by_key((3,)) is None

    def test_conflict_with_existing_row_is_atomic(self):
        _, table = make_table()
        table.insert({"k": 7, "v": 7.0, "s": "seven"})
        with pytest.raises(ConstraintError):
            table.insert_many(
                [
                    {"k": 8, "v": 8.0, "s": "eight"},
                    {"k": 7, "v": 0.0, "s": "conflict"},
                ]
            )
        assert len(table) == 1
        assert table.get_by_key((8,)) is None

    def test_type_error_mid_batch_is_atomic(self):
        _, table = make_table()
        with pytest.raises(SchemaError):
            table.insert_many(
                [
                    {"k": 1, "v": 1.0, "s": "ok"},
                    {"k": 2, "v": "not-a-float", "s": "bad"},
                ]
            )
        assert len(table) == 0

    def test_indexes_consistent_after_bulk_insert(self):
        _, table = make_table()
        table.create_index("t_s", ["s"], kind="hash")
        table.insert_many({"k": i, "v": 0.0, "s": "even" if i % 2 == 0 else "odd"} for i in range(10))
        assert len(table.lookup("t_s", ("even",))) == 5
        assert len(table.lookup("t_s", ("odd",))) == 5

    def test_empty_batch_is_noop(self):
        _, table = make_table()
        assert table.insert_many([]) == []
        assert len(table) == 0


class TestColumnBatch:
    ROWS = [(3, 0.5, "c"), (1, 1.5, "a"), (2, 2.5, None)]

    @staticmethod
    def journaled(table):
        journal = []
        table.set_journal(journal.append)
        return journal

    def test_a_column_batch_inserts_what_its_rows_would(self):
        by_rows, by_columns = make_table()[1], make_table()[1]
        for table in (by_rows, by_columns):
            table.create_index("t_s", ["s"], kind="hash")
            table.insert((9, 9.0, "z"))
        journals = [self.journaled(by_rows), self.journaled(by_columns)]
        columns = [list(column) for column in zip(*self.ROWS)]
        batch = ColumnBatch(columns)
        assert len(batch) == 3
        assert by_columns.insert_many(batch) == by_rows.insert_many(self.ROWS)
        assert list(by_columns.rows()) == list(by_rows.rows())
        assert journals[1] == journals[0] and len(journals[0]) == 1
        assert by_columns.lookup_rids("t_s", ("a",)) == by_rows.lookup_rids("t_s", ("a",))
        assert by_columns.get_by_key((2,)) == (2, 2.5, None)

    def test_a_malformed_column_batch_leaves_table_and_journal_unchanged(self):
        _, table = make_table()
        table.insert((9, 9.0, "z"))
        journal = self.journaled(table)
        before = list(table.rows())
        failing = {
            "batch has 2 columns, schema has 3": [[1, 2], [0.0, 0.0]],
            "columns of unequal length [2, 1, 2]": [[1, 2], [0.0], ["a", "b"]],
            "expected FLOAT, got 'not-a-float'": [[1, 2], [0.0, "not-a-float"], ["a", "b"]],
        }
        for message, columns in failing.items():
            with pytest.raises(SchemaError, match=re.escape(message)):
                table.insert_many(ColumnBatch(columns))
        with pytest.raises(ConstraintError):
            table.insert_many(ColumnBatch([[1, 9], [0.0, 0.0], ["a", "b"]]))
        assert list(table.rows()) == before and len(table) == 1
        assert table.get_by_key((1,)) is None
        assert journal == []

    def test_an_empty_column_batch_is_noop(self):
        _, table = make_table()
        journal = self.journaled(table)
        assert len(ColumnBatch([[], [], []])) == 0
        assert table.insert_many(ColumnBatch([[], [], []])) == []
        assert len(table) == 0 and journal == []


class TestUpdateRows:
    def test_updates_values_and_returns_count(self):
        _, table = make_table()
        rids = table.insert_many({"k": i, "v": float(i), "s": "x"} for i in range(4))
        updated = table.update_rows([(rid, {"v": 9.5}) for rid in rids])
        assert updated == 4
        assert all(table.read(rid)[1] == 9.5 for rid in rids)

    def test_indexed_column_change_moves_buckets(self):
        _, table = make_table()
        table.create_index("t_s", ["s"], kind="hash")
        rids = table.insert_many({"k": i, "v": 0.0, "s": "frontier"} for i in range(6))
        table.update_rows([(rid, {"s": "visited"}) for rid in rids[:4]])
        assert len(table.lookup("t_s", ("frontier",))) == 2
        assert len(table.lookup("t_s", ("visited",))) == 4

    def test_unindexed_column_change_skips_index_maintenance(self):
        _, table = make_table()
        index = table.create_index("t_s", ["s"], kind="hash")
        rids = table.insert_many({"k": i, "v": 0.0, "s": "a"} for i in range(3))
        before = index.probe_count
        table.update_rows([(rid, {"v": 1.25}) for rid in rids])
        assert index.probe_count == before
        assert len(table.lookup("t_s", ("a",))) == 3

    def test_text_growth_updates_page_accounting(self):
        db, table = make_table()
        [rid] = table.insert_many([{"k": 1, "v": 0.0, "s": "short"}])
        page = db.buffer_pool.get_page(table.heap.page_of(rid)[0])
        used_before = page.used_bytes
        table.update_rows([(rid, {"s": "a much longer replacement string"})])
        grown = len("a much longer replacement string") - len("short")
        assert page.used_bytes == used_before + grown

    def test_a_failing_key_move_leaves_every_row_of_the_batch_unchanged(self):
        _, table = make_table()
        rids = table.insert_many([(1, 0.0, "a"), (2, 0.0, "b"), (3, 0.0, "c")])
        before = list(table.rows())
        failing = {
            "duplicate primary key (3,)": [(rids[0], {"k": 10}), (rids[1], {"k": 3})],
            "duplicate primary key (2,)": [(rids[0], {"k": 2})],
            "duplicate primary key (10,) within batch": [(rids[0], {"k": 10}), (rids[2], {"k": 10})],
        }
        for message, updates in failing.items():
            with pytest.raises(ConstraintError, match=re.escape(message)):
                table.update_rows(updates)
        with pytest.raises(ConstraintError):
            table.update_row(rids[2], {"k": 1})
        assert list(table.rows()) == before
        assert [table.get_by_key((k,)) for k in (1, 2, 3, 10)] == [*before, None]

    def test_a_null_key_is_refused_before_anything_is_written(self):
        db = Database()
        table = db.create_table("N", make_schema(("k", INTEGER), ("v", FLOAT), primary_key=["k"]))
        rids = table.insert_many([(1, 0.5), (2, 0.5)])
        with pytest.raises(ConstraintError, match="cannot be NULL"):
            table.update_rows([(rids[0], {"v": 1.5}), (rids[1], {"k": None})])
        with pytest.raises(ConstraintError, match="cannot be NULL"):
            table.insert((None, 0.5))
        assert list(table.rows()) == [(1, 0.5), (2, 0.5)]

    def test_a_two_row_key_swap_succeeds(self):
        _, table = make_table()
        rids = table.insert_many([(1, 0.0, "a"), (2, 0.0, "b")])
        assert table.update_rows([(rids[0], {"k": 2}), (rids[1], {"k": 1})]) == 2
        assert table.get_by_key((1,)) == (1, 0.0, "b") and table.get_by_key((2,)) == (2, 0.0, "a")
        assert table.update_row(rids[0], {"k": 7, "v": 0.5}) == (7, 0.5, "a")
        assert table.get_by_key((2,)) is None and table.get_by_key((7,)) == (7, 0.5, "a")

    def test_wide_batch_survives_pool_eviction_on_durable_backend(self, tmp_path):
        """Updates spanning more pages than the buffer pool must not be lost.

        Regression test: caching Page objects across the batch's reads let
        later reads evict earlier pages; writes then mutated detached
        objects and a durable backend silently dropped them.
        """
        db = Database.open(str(tmp_path / "db"), buffer_pool_pages=2)
        table = db.create_table(
            "T",
            make_schema(
                ("k", INTEGER, False),
                ("v", FLOAT),
                ("pad", TEXT),
                primary_key=["k"],
            ),
        )
        # Large rows -> a couple of rows per page -> far more pages than frames.
        rids = table.insert_many((i, 0.0, "x" * 1500) for i in range(40))
        table.update_rows([(rid, {"v": 1.0}) for rid in rids])
        assert all(row[1] == 1.0 for row in table.rows())
        db.checkpoint()
        db.close()
        reopened = Database.open(str(tmp_path / "db"))
        assert all(row[1] == 1.0 for row in reopened.table("T").rows())
        reopened.close()

    def test_update_column_wide_batch_on_durable_backend(self, tmp_path):
        db = Database.open(str(tmp_path / "db"), buffer_pool_pages=2)
        table = db.create_table(
            "T",
            make_schema(("k", INTEGER, False), ("v", FLOAT), ("pad", TEXT)),
        )
        rids = table.insert_many((i, 0.0, "y" * 1500) for i in range(40))
        table.update_column("v", [(rid, 2.5) for rid in rids])
        assert all(row[1] == 2.5 for row in table.rows())
        db.close()

    def test_unknown_column_raises(self):
        _, table = make_table()
        rids = table.insert_many([{"k": 1, "v": 0.0, "s": "a"}])
        with pytest.raises(SchemaError):
            table.update_rows([(rids[0], {"nope": 1})])

    def test_empty_updates_is_noop(self):
        _, table = make_table()
        assert table.update_rows([]) == 0
