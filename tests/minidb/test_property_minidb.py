"""Property-based tests for the minidb engine (hypothesis)."""

import glob
import os
import shutil
import tempfile
from collections import Counter, defaultdict

import pytest
from hypothesis import given, seed as seed_hypothesis, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.minidb import Database, FLOAT, INTEGER, TEXT, StorageConfig, col, lit, make_schema
from repro.minidb.errors import ConstraintError, SchemaError, StorageError
from repro.minidb.pages import rid_of
from repro.minidb.sql import execute_select, parse_sql
from repro.minidb.operators import (
    Aggregate,
    GroupByAggregate,
    HashJoin,
    NestedLoopJoin,
    RowSource,
    SortMergeJoin,
)

rows_strategy = st.lists(
    st.tuples(st.integers(0, 30), st.floats(0, 1, allow_nan=False), st.text(max_size=6)),
    max_size=60,
)

pairs_strategy = st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=40)


class TestTableProperties:
    @given(rows=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_inserted_rows_round_trip_through_heap(self, rows):
        db = Database(buffer_pool_pages=8)
        table = db.create_table(
            "T", make_schema(("k", INTEGER, False), ("v", FLOAT), ("s", TEXT))
        )
        table.insert_many({"k": k, "v": v, "s": s} for k, v, s in rows)
        fetched = sorted((r["k"], r["v"], r["s"]) for r in table.rows_as_dicts())
        assert fetched == sorted(rows)
        assert len(table) == len(rows)

    @given(rows=rows_strategy, threshold=st.floats(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_delete_where_equals_python_filter(self, rows, threshold):
        db = Database(buffer_pool_pages=8)
        table = db.create_table("T", make_schema(("k", INTEGER), ("v", FLOAT)))
        table.insert_many({"k": k, "v": v} for k, v, _ in rows)
        from repro.minidb import lit

        deleted = table.delete_where(col("v") > lit(threshold))
        expected_remaining = [(k, v) for k, v, _ in rows if not v > threshold]
        assert deleted == len(rows) - len(expected_remaining)
        assert sorted((r["k"], r["v"]) for r in table.rows_as_dicts()) == sorted(
            expected_remaining
        )


class TestJoinProperties:
    @given(left=pairs_strategy, right=pairs_strategy)
    @settings(max_examples=40, deadline=None)
    def test_all_join_algorithms_agree(self, left, right):
        left_rows = [{"lk": a, "lv": b} for a, b in left]
        right_rows = [{"rk": a, "rv": b} for a, b in right]

        def run(cls):
            result = cls(
                RowSource(list(left_rows)),
                RowSource(list(right_rows)),
                [col("lk")],
                [col("rk")],
            ).to_list()
            return Counter((r["lk"], r["lv"], r["rk"], r["rv"]) for r in result)

        hash_result = run(HashJoin)
        merge_result = run(SortMergeJoin)
        nested = NestedLoopJoin(
            RowSource(list(left_rows)),
            RowSource(list(right_rows)),
            col("lk") == col("rk"),
        ).to_list()
        nested_result = Counter((r["lk"], r["lv"], r["rk"], r["rv"]) for r in nested)
        assert hash_result == merge_result == nested_result

    @given(rows=pairs_strategy)
    @settings(max_examples=40, deadline=None)
    def test_group_by_sum_matches_python(self, rows):
        source = [{"k": a, "v": b} for a, b in rows]
        plan = GroupByAggregate(
            RowSource(source),
            [("k", col("k"))],
            [Aggregate("sum", col("v"), "total"), Aggregate("count", None, "n")],
        )
        result = {r["k"]: (r["total"], r["n"]) for r in plan.to_list()}
        expected = defaultdict(lambda: [0, 0])
        for a, b in rows:
            expected[a][0] += b
            expected[a][1] += 1
        assert set(result) == set(expected)
        for key, (total, count) in result.items():
            assert count == expected[key][1]
            assert total == pytest.approx(expected[key][0])


class TestSQLProperties:
    @given(rows=st.lists(st.integers(-100, 100), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_sql_aggregates_match_python(self, rows):
        db = Database()
        table = db.create_table("T", make_schema(("v", INTEGER)))
        table.insert_many({"v": v} for v in rows)
        result = db.sql("select count(*) n, sum(v) s, min(v) lo, max(v) hi from T")[0]
        assert result["n"] == len(rows)
        assert result["s"] == sum(rows)
        assert result["lo"] == min(rows)
        assert result["hi"] == max(rows)

    @given(rows=st.lists(st.integers(0, 20), max_size=50), cutoff=st.integers(0, 20))
    @settings(max_examples=30, deadline=None)
    def test_sql_where_matches_python_filter(self, rows, cutoff):
        db = Database()
        table = db.create_table("T", make_schema(("v", INTEGER)))
        table.insert_many({"v": v} for v in rows)
        result = db.sql("select v from T where v >= :cut order by v", {"cut": cutoff})
        assert [r["v"] for r in result] == sorted(v for v in rows if v >= cutoff)


# -- a model-based harness for the table over column-chunk pages ----------------------
#
# Random operation sequences against a durable table (tiny pages, a pool
# smaller than the table) and a plain-Python model of it: a dict of row
# tuples by (page_no, slot), and a heap that places one row at a time by
# the placement rules — last page if the row and its slot entry fit, else
# a new one; lowest emptied slot first.  After every step the table, its
# pages' byte accounting, every index kind and the planner must agree
# with the model.  Hypothesis runs from a fixed seed (0, or each of
# ``REPRO_TORTURE_SEEDS``), so a failure reproduces locally as it did in CI.

PAGE_SIZE = 256
PAGE_HEADER = 24
SLOT_OVERHEAD = 8
MODEL_SEEDS = [int(seed) for seed in os.environ.get("REPRO_TORTURE_SEEDS", "0").split(",")]

#: (name, kind, nullable) — ``k`` is the primary key; ``s`` has a hash
#: index, ``g`` an ordered one, ``(k, g)`` an interval one; ``v`` none.
MODEL_COLUMNS = (("k", "int", False), ("v", "float", True), ("s", "text", True), ("g", "int", False))
MODEL_NAMES = [name for name, _kind, _nullable in MODEL_COLUMNS]
MODEL_KINDS = {name: (kind, nullable) for name, kind, nullable in MODEL_COLUMNS}

def rarely(rare, usual):
    """*usual* values, one time in eight a *rare* one (most batches should succeed)."""
    return st.integers(0, 7).flatmap(lambda roll: rare if roll == 0 else usual)


#: Values a writer may hand over: exact, coercible or NULL ...
key_values = st.one_of(st.integers(0, 10**9), st.integers(0, 10**9).map(float))
COLUMN_VALUES = {
    "k": key_values,
    "v": st.one_of(st.floats(0, 1, allow_nan=False), st.integers(0, 5), st.none()),
    "s": st.one_of(st.text(max_size=24), st.text(max_size=6), st.just("é" * 20), st.none()),
    "g": st.one_of(st.integers(0, 40), st.booleans(), st.just(3.0)),
}
model_rows = st.tuples(*COLUMN_VALUES.values())
#: ... and, one to a batch at most, plainly wrong ("z" * 150: too long for half a page).
WRONG_VALUES = {
    "k": st.sampled_from(["x", 2.5, None]),
    "v": st.sampled_from(["x", True]),
    "s": st.sampled_from([7, b"raw", "z" * 150]),
    "g": st.sampled_from(["x", 2.5, None]),
}


def model_coerce(kind, nullable, value):
    """What the column stores for *value* — written apart from ``Column.validate``."""
    if value is None:
        if not nullable:
            raise SchemaError("NOT NULL")
        return None
    if kind == "int":
        if isinstance(value, int):
            return int(value)
        if isinstance(value, float) and value.is_integer():
            return int(value)
    elif kind == "float":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif isinstance(value, str):
        return value
    raise SchemaError(f"bad {kind}: {value!r}")


def model_row(values):
    return tuple(model_coerce(*MODEL_KINDS[name], value) for name, value in zip(MODEL_NAMES, values))


def model_size(row):
    return sum(
        1 if value is None else 4 + len(value.encode("utf-8")) if isinstance(value, str) else 8
        for value in row
    )


class ModelHeap:
    """Row-at-a-time reference placement: ``pages[p] = [used_bytes, slot sizes]``."""

    def __init__(self):
        self.pages = []

    def insert(self, size):
        if not self.pages or PAGE_SIZE - self.pages[-1][0] < size + SLOT_OVERHEAD:
            self.pages.append([PAGE_HEADER, []])
        page = self.pages[-1]
        page[0] += size + SLOT_OVERHEAD
        if None in page[1]:
            slot = page[1].index(None)
            page[1][slot] = size
        else:
            slot = len(page[1])
            page[1].append(size)
        return len(self.pages) - 1, slot

    def resize(self, key, size):
        page = self.pages[key[0]]
        page[0] += size - page[1][key[1]]
        page[1][key[1]] = size

    def delete(self, key):
        page = self.pages[key[0]]
        page[0] -= page[1][key[1]] + SLOT_OVERHEAD
        page[1][key[1]] = None


class TableAgainstModel(RuleBasedStateMachine):
    #: Storage policy of the store under test (None: the defaults).
    storage = None

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="minidb-model-")
        self.database = self.open()
        table = self.database.create_table(
            "T",
            make_schema(
                ("k", INTEGER, False), ("v", FLOAT), ("s", TEXT), ("g", INTEGER, False), primary_key=["k"]
            ),
        )
        table.create_index("t_s", ["s"], kind="hash")
        table.create_index("t_g", ["g"], kind="ordered")
        table.create_index("t_tree", ["k", "g"], kind="interval")
        # A second table: its record ids are well formed but not T's.
        self.database.create_table("U", make_schema(("u", INTEGER, False))).insert_many(
            [(u,) for u in range(40)]
        )
        self.rows = {}  # (page_no, slot) -> row
        self.heap = ModelHeap()
        #: Set by a step that ends in a checkpoint, cleared by the invariant that reads it.
        self.checkpointed = False

    def open(self):
        return Database.open(
            self.directory, buffer_pool_pages=3, page_size=PAGE_SIZE, storage=self.storage
        )

    def teardown(self):
        self.database.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    @property
    def table(self):
        return self.database.table("T")

    def rid(self, key):
        return rid_of(self.table.heap.file_id, *key)

    def key(self, rid):
        """The ``(page_no, slot)`` a record id of T names."""
        return self.table.heap.locate(rid)

    def expect(self, error, call):
        """Run *call*: it must raise *error*, or — when None — return."""
        if error is None:
            return call()
        with pytest.raises(error):
            call()
        return None

    # -- inserts --------------------------------------------------------------------
    def insert_outcome(self, batch):
        """``(error, coerced rows)`` for inserting *batch*: types, then keys, then sizes."""
        try:
            rows = [model_row(values) for values in batch]
        except SchemaError:
            return SchemaError, None
        keys = [row[0] for row in rows]
        if len(set(keys)) < len(keys) or {row[0] for row in self.rows.values()} & set(keys):
            return ConstraintError, None
        if any(model_size(row) > PAGE_SIZE // 2 for row in rows):
            return StorageError, None
        return None, rows

    @staticmethod
    def shaped(values, as_mapping):
        if not as_mapping:
            return tuple(values)
        # A NULL may also be said by leaving the column out.
        return {name: value for name, value in zip(MODEL_NAMES, values) if value is not None or name == "s"}

    def spoil(self, data, batch):
        """Sometimes, give *batch* (a list of value lists) one wrong value or a taken key."""
        if batch and data.draw(rarely(st.just(True), st.just(False))):
            values = data.draw(st.sampled_from(batch))
            at = data.draw(st.integers(0, len(values) - 1))
            values[at] = data.draw(WRONG_VALUES[MODEL_NAMES[at]])
        if batch and data.draw(rarely(st.just(True), st.just(False))):
            taken = [row[0] for row in self.rows.values()] + [values[0] for values in batch[:-1]]
            if taken:
                batch[-1][0] = data.draw(st.sampled_from(taken))

    @rule(data=st.data(), values=model_rows, as_mapping=st.booleans())
    def insert(self, data, values, as_mapping):
        values = list(values)
        self.spoil(data, [values])
        error, rows = self.insert_outcome([values])
        rid = self.expect(error, lambda: self.table.insert(self.shaped(values, as_mapping)))
        if error is None:
            self.place(rows, [rid])

    @initialize(count=st.integers(0, 60))
    def load(self, count):
        """Start from a table of a few pages, so the first steps already cross them."""
        rows = [(10**7 + k, k / 8 if k % 5 else None, "s" * (k % 11), k % 9) for k in range(count)]
        self.place(rows, self.table.insert_many(rows))

    @rule(data=st.data(), count=st.integers(0, 30), lazily=st.booleans())
    def insert_many(self, data, count, lazily):
        batch = [list(data.draw(model_rows)) for _ in range(count)]
        self.spoil(data, batch)
        error, rows = self.insert_outcome(batch)
        shaped = [self.shaped(values, data.draw(st.booleans())) for values in batch]
        rids = self.expect(error, lambda: self.table.insert_many(iter(shaped) if lazily else shaped))
        if error is None:
            self.place(rows, rids)

    def place(self, rows, rids):
        assert len(rids) == len(rows)
        for row, rid in zip(rows, rids):
            key = self.heap.insert(model_size(row))
            assert self.key(rid) == key
            assert key not in self.rows
            self.rows[key] = row

    # -- updates --------------------------------------------------------------------
    def draw_targets(self, data, count):
        """Up to *count* live rids (repeats allowed) and, sometimes, one that is not."""
        keys = sorted(self.rows)
        targets = [data.draw(st.sampled_from(keys)) for _ in range(count)] if keys else []
        emptied = [
            (page_no, slot)
            for page_no, (_used, slots) in enumerate(self.heap.pages)
            for slot, size in enumerate(slots)
            if size is None
        ]
        strays = [(len(self.heap.pages) + 3, 0), (0, 200), *emptied[:2]]
        stray = data.draw(rarely(st.sampled_from(strays), st.none()))
        if stray is not None:
            targets.insert(data.draw(st.integers(0, len(targets))), stray)
        return targets, stray

    def apply_changes(self, changes):
        """Fold ``[(key, {name: stored value})]`` into the model, in order."""
        for key, change in changes:
            row = list(self.rows[key])
            for name, value in change.items():
                row[MODEL_NAMES.index(name)] = value
            self.rows[key] = tuple(row)
            self.heap.resize(key, model_size(self.rows[key]))

    def draw_values(self, data, names, clean):
        """A value for each of *names* and, unless *clean*, sometimes one wrong one among them.

        Returns ``(values, stored)``: what to hand the table and what it
        should store — ``None`` when the batch must raise ``SchemaError``.
        """
        wrong_at = None if clean or not names else data.draw(rarely(st.integers(0, len(names) - 1), st.none()))
        values = [
            data.draw((WRONG_VALUES if at == wrong_at else COLUMN_VALUES)[name])
            for at, name in enumerate(names)
        ]
        try:
            return values, [model_coerce(*MODEL_KINDS[name], value) for name, value in zip(names, values)]
        except SchemaError:
            return values, None

    @rule(data=st.data(), column=st.sampled_from(["v", "v", "s", "g"]), count=st.integers(0, 12))
    def update_column(self, data, column, count):
        targets, stray = self.draw_targets(data, count)
        # One kind of badness a batch: clean values beside a stray rid.
        values, stored = self.draw_values(data, [column] * len(targets), clean=stray)
        error = SchemaError if stored is None else StorageError if stray else None
        updates = [(self.rid(key), value) for key, value in zip(targets, values)]
        count = self.expect(error, lambda: self.table.update_column(column, updates))
        if error is None:
            assert count == len(updates)
            self.apply_changes([(key, {column: value}) for key, value in zip(targets, stored)])

    @rule(data=st.data(), count=st.integers(0, 8))
    def update_rows(self, data, count):
        targets, stray = self.draw_targets(data, count)
        error = StorageError if stray else None
        updates, changes = [], []
        for key in targets:
            names = data.draw(st.lists(st.sampled_from(["v", "s", "g"]), min_size=1, max_size=3, unique=True))
            values, stored = self.draw_values(data, names, clean=stray)
            if stored is None:
                error = SchemaError
            else:
                changes.append((key, dict(zip(names, stored))))
            updates.append((self.rid(key), dict(zip(names, values))))
        count = self.expect(error, lambda: self.table.update_rows(updates))
        if error is None:
            assert count == len(updates)
            self.apply_changes(changes)

    @precondition(lambda self: self.rows)
    @rule(data=st.data())
    def delete_row(self, data):
        key = data.draw(st.sampled_from(sorted(self.rows)))
        assert self.table.delete_row(self.rid(key)) == self.rows.pop(key)
        self.heap.delete(key)

    @precondition(lambda self: self.rows)
    @rule(data=st.data())
    def delete_where(self, data):
        """Empty a whole ``g`` key at once (every index loses its postings under it)."""
        g = data.draw(st.sampled_from(sorted({row[3] for row in self.rows.values()})))
        doomed = [key for key, row in self.rows.items() if row[3] == g]
        assert self.table.delete_where(col("g") == lit(g)) == len(doomed)
        for key in doomed:
            del self.rows[key]
            self.heap.delete(key)

    @rule(data=st.data(), count=st.integers(2, 4))
    def churn(self, data, count):
        """Walk one fresh ``s`` key through absent → one row → several → one → absent."""
        value = "churn"
        while any(row[2] == value for row in self.rows.values()):
            value += "+"
        index = self.table.indexes["t_s"]
        keys = []
        first_k = max((row[0] for row in self.rows.values()), default=0) + 1
        for k in range(first_k, first_k + count):
            row = (k, None, value, data.draw(st.integers(0, 40)))
            rid = self.table.insert(row)
            self.place([row], [rid])
            keys.append(self.key(rid))
            assert sorted(map(self.key, index.search((value,)))) == sorted(keys)
        for key in data.draw(st.permutations(keys)):
            assert self.table.delete_row(self.rid(key)) == self.rows.pop(key)
            self.heap.delete(key)
            keys.remove(key)
            assert sorted(map(self.key, index.search((value,)))) == sorted(keys)
        assert not index.contains((value,)) and index.search((value,)) == []

    # -- indexes ----------------------------------------------------------------------
    @precondition(lambda self: "t_extra" not in self.table.indexes)
    @rule(kind=st.sampled_from(["hash", "ordered", "interval"]))
    def create_index(self, kind):
        """An index created mid-run is backfilled from the heap and journaled."""
        columns = ["s", "g"] if kind == "hash" else ["g", "k"]
        self.table.create_index("t_extra", columns, kind=kind)

    @precondition(lambda self: "t_extra" in self.table.indexes)
    @rule()
    def drop_index(self):
        self.table.drop_index("t_extra")

    @rule()
    def rebuild_indexes(self):
        """A bulk rebuild posts what incremental maintenance did, key for key.

        Order too, while the index says its postings are in heap order
        (what the planner's joins rely on); a rebuild restores that order.
        """
        table = self.table
        indexes = [table._pk_index, *table.indexes.values()]
        rows = [row for _key, row in sorted(self.rows.items())]

        def postings(index):
            return {key: index.search(key) for key in map(index.key_of, rows)}

        before = [(postings(index), index.in_heap_order, index.key_count) for index in indexes]
        table.rebuild_indexes()
        for index, (old, in_order, key_count) in zip(indexes, before):
            new = postings(index)
            assert index.in_heap_order and index.key_count == key_count and len(index) == len(rows)
            assert old.keys() == new.keys()
            for key, rids in old.items():
                assert rids == new[key] if in_order else sorted(rids) == sorted(new[key])

    @rule(
        data=st.data(),
        op=st.sampled_from(["read", "update_row", "update_rows", "update_column", "delete_row"]),
    )
    def foreign_rid(self, data, op):
        """A record id of another table is refused, and nothing is written or journaled."""
        other = self.database.table("U")
        other_rows = list(other.scan())
        foreign = data.draw(st.sampled_from([rid for rid, _row in other_rows]))
        batch = [self.rid(key) for key in sorted(self.rows)[:3]]
        batch.insert(data.draw(st.integers(0, len(batch))), foreign)
        calls = {
            "read": lambda: self.table.read(foreign),
            "update_row": lambda: self.table.update_row(foreign, {"v": 0.5}),
            "update_rows": lambda: self.table.update_rows([(rid, {"v": 0.5}) for rid in batch]),
            "update_column": lambda: self.table.update_column("v", [(rid, 0.5) for rid in batch]),
            "delete_row": lambda: self.table.delete_row(foreign),
        }
        journaled = self.database.backend.wal_bytes_written
        with pytest.raises(StorageError):
            calls[op]()
        assert self.database.backend.wal_bytes_written == journaled
        assert list(other.scan()) == other_rows

    # -- durability -----------------------------------------------------------------
    @rule()
    def checkpoint(self):
        """Checkpoint and keep the handle."""
        self.database.checkpoint()
        self.checkpointed = True

    @rule(checkpoint=st.booleans())
    def reopen(self, checkpoint):
        """Checkpoint and close — or abandon the handle with only the log synced."""
        if checkpoint:
            self.database.checkpoint()
            self.database.close()
        else:
            self.database.sync_wal()
            self.database.backend.wal.close()
        self.database = self.open()
        self.checkpointed = checkpoint

    # -- what must hold after every step ----------------------------------------------
    @invariant()
    def table_equals_model(self):
        table = self.table
        scanned = [(self.key(rid), row) for rid, row in table.scan()]
        assert scanned == sorted(self.rows.items())
        assert list(table.rows()) == [row for _key, row in scanned]
        assert len(table) == len(self.rows)
        assert table.page_count == len(self.heap.pages)
        pages = list(table.heap.scan_pages())
        assert [page.used_bytes for page in pages] == [used for used, _slots in self.heap.pages]
        assert [sorted(page.dead) for page in pages] == [
            [slot for slot, size in enumerate(slots) if size is None] for _used, slots in self.heap.pages
        ]

    @invariant()
    def indexes_equal_model(self):
        table = self.table
        by_s, by_g = defaultdict(list), defaultdict(list)
        for key, row in sorted(self.rows.items()):
            by_s[row[2]].append(key)
            by_g[row[3]].append(key)
            assert table.get_by_key((row[0],)) == row
            assert list(map(self.key, table.lookup_rids("t_tree", (row[0], row[3])))) == [key]
        for index in (*table.indexes.values(), table._pk_index):
            assert len(index) == len(self.rows)
        for value, keys in by_s.items():
            assert sorted(map(self.key, table.lookup_rids("t_s", (value,)))) == keys
        assert table.indexes["t_s"].key_count == len(by_s)
        assert table.indexes["t_g"].ordered_keys() == [(g,) for g in sorted(by_g)]
        for value, keys in by_g.items():
            assert sorted(map(self.key, table.lookup_rids("t_g", (value,)))) == keys
        assert table.get_by_key((-1,)) is None and table.lookup("t_s", ("no such",)) == []
        extra = table.indexes.get("t_extra")
        if extra is not None:
            by_extra = defaultdict(list)
            for key, row in sorted(self.rows.items()):
                by_extra[extra.key_of(row)].append(key)
            assert len(extra) == len(self.rows) and extra.key_count == len(by_extra)
            for value, keys in by_extra.items():
                assert sorted(map(self.key, extra.search(value))) == keys

    @invariant()
    def checkpoint_left_one_live_segment(self):
        """Right after a checkpoint of a store that compacts at every one, the
        directory holds a single segment file and it holds no dead bytes."""
        checkpointed, self.checkpointed = self.checkpointed, False
        if not checkpointed or self.storage is None or self.storage.compact_min_garbage_ratio > 0:
            return
        segments = glob.glob(os.path.join(self.directory, "segments*.dat"))
        assert len(segments) == 1, segments
        assert self.database.backend.segment_bytes_dead == 0

    @invariant()
    def planner_equals_scan(self):
        some = next(iter(self.rows.values()), (0, None, "", 0))
        for sql, params in (
            ("select k, v from T where s = :s order by k", {"s": some[2]}),
            ("select k from T where g >= :lo and g < :hi order by k", {"lo": some[3], "hi": some[3] + 5}),
            ("select k, s from T where k = :k", {"k": some[0]}),
            ("select g, count(*) n from T group by g order by g", {}),
        ):
            planned = self.database.sql(sql, params)
            assert planned == execute_select(self.database, parse_sql(sql), params, mode="scan"), sql
        expected = sorted(row[0] for row in self.rows.values() if row[2] == some[2] and some[2] is not None)
        assert [row["k"] for row in self.database.sql("select k from T where s = :s order by k", {"s": some[2]})] == expected


class CompactingTableAgainstModel(TableAgainstModel):
    """The same machine over a store that compacts at every checkpoint."""

    storage = StorageConfig(compact_every=1, compact_min_garbage_ratio=0.0)


def run_model(machine_class, seed):
    machine = seed_hypothesis(seed)(type(f"{machine_class.__name__}{seed}", (machine_class,), {}))
    run_state_machine_as_test(
        machine,
        settings=settings(max_examples=25, stateful_step_count=30, deadline=None, database=None),
    )


@pytest.mark.parametrize("seed", MODEL_SEEDS)
def test_random_operation_sequences_agree_with_the_model(seed):
    run_model(TableAgainstModel, seed)


@pytest.mark.parametrize("seed", MODEL_SEEDS)
def test_compacting_store_agrees_with_the_model(seed):
    run_model(CompactingTableAgainstModel, seed)
