"""The interval (pre/post window) index: encoding, queries, durability."""

import pytest

from repro.minidb import Database, INTEGER, IntervalIndex, StorageConfig, make_schema
from fault_injection import FaultInjector, SimulatedCrash, hard_close


def edge_schema():
    return make_schema(("child", INTEGER, False), ("parent", INTEGER))


def make_tree(database, edges, name="TREE"):
    """Create an edge table carrying an interval index and load *edges*."""
    table = database.create_table(name, edge_schema())
    table.create_index("tree", ["child", "parent"], kind="interval")
    table.insert_many([{"child": c, "parent": p} for c, p in edges])
    return table


#: A small two-level taxonomy: 1 -> (2, 3); 2 -> (4, 5); 3 -> (6,).
TAXONOMY_EDGES = [(1, None), (2, 1), (3, 1), (4, 2), (5, 2), (6, 3)]


@pytest.fixture()
def db():
    return Database(buffer_pool_pages=32)


class TestEncoding:
    def test_windows_nest(self, db):
        index = make_tree(db, TAXONOMY_EDGES).indexes["tree"]
        root = index.window(1)
        for child in (2, 3):
            lo, hi = index.window(child)
            assert root[0] < lo < hi < root[1]
        # Sibling windows are disjoint.
        w2, w3 = index.window(2), index.window(3)
        assert w2[1] < w3[0] or w3[1] < w2[0]

    def test_descendants_are_one_range_scan(self, db):
        index = make_tree(db, TAXONOMY_EDGES).indexes["tree"]
        assert set(index.descendant_ids(1)) == {2, 3, 4, 5, 6}
        assert set(index.descendant_ids(2)) == {4, 5}
        assert index.descendant_ids(2, include_self=True)[0] == 2
        assert index.descendant_ids(4) == []
        assert index.range_scans > 0

    def test_descendant_count_matches_descendant_ids(self, db):
        index = make_tree(db, TAXONOMY_EDGES).indexes["tree"]
        for node in (1, 2, 3, 4):
            assert index.descendant_count(node) == len(index.descendant_ids(node))
        assert index.descendant_count(2, include_self=True) == 3
        assert index.descendant_count(999) == 0

    def test_ancestor_chain_walks_nearest_first(self, db):
        index = make_tree(db, TAXONOMY_EDGES).indexes["tree"]
        assert index.ancestor_ids(4) == [2, 1]
        assert index.ancestor_ids(6) == [3, 1]
        assert index.ancestor_ids(1) == []

    def test_window_shrinking_skips_whole_subtrees(self, db):
        # A wide tree: the walk from the last leaf must skip each earlier
        # sibling's subtree in one jump rather than node by node.
        edges = [(1, None)]
        for s in range(2, 12):
            edges.append((s, 1))
            edges.append((s + 100, s))
        index = make_tree(db, edges).indexes["tree"]
        assert index.ancestor_ids(111) == [11, 1]
        assert index.window_shrink_skips > 0

    def test_is_descendant(self, db):
        index = make_tree(db, TAXONOMY_EDGES).indexes["tree"]
        assert index.is_descendant(4, 1)
        assert index.is_descendant(4, 2)
        assert not index.is_descendant(4, 3)
        assert not index.is_descendant(1, 4)


class TestGraphShapes:
    def test_extra_edges_feed_reachability(self, db):
        # 6 -> 4 is a cross edge: 3's side reaches into 2's subtree.
        edges = TAXONOMY_EDGES + [(4, 6)]
        index = make_tree(db, edges).indexes["tree"]
        assert set(index.descendant_ids(3)) == {6}  # tree shape unchanged
        assert set(index.reachable_ids(3)) == {3, 6, 4}
        assert set(index.reachable_ids(1)) == {1, 2, 3, 4, 5, 6}
        assert index.extra_edge_count() == 1

    def test_cycles_terminate(self, db):
        edges = [(1, None), (2, 1), (3, 2), (1, 3)]  # 3 -> 1 closes a cycle
        index = make_tree(db, edges).indexes["tree"]
        assert set(index.reachable_ids(1)) == {1, 2, 3}
        assert set(index.reachable_ids(3)) == {3, 1, 2}

    def test_synthetic_root_is_adopted_by_first_real_in_edge(self, db):
        # 5 appears first as a parent (a seed), later gains an in-edge.
        edges = [(6, 5), (1, None), (5, 1)]
        index = make_tree(db, edges).indexes["tree"]
        assert set(index.descendant_ids(1)) == {5, 6}
        assert index.ancestor_ids(6) == [5, 1]

    def test_multi_parent_keeps_first_edge_as_tree_edge(self, db):
        edges = [(1, None), (2, 1), (3, 1), (4, 2), (4, 3)]
        index = make_tree(db, edges).indexes["tree"]
        assert set(index.descendant_ids(2)) == {4}
        assert set(index.descendant_ids(3)) == set()
        assert set(index.reachable_ids(3)) == {3, 4}


class TestMaintenance:
    def test_incremental_batches_rarely_renumber(self, db):
        table = db.create_table("TREE", edge_schema())
        table.create_index("tree", ["child", "parent"], kind="interval")
        index = table.indexes["tree"]
        table.insert({"child": 1, "parent": None})
        assert set(index.descendant_ids(1)) == set()
        # Folding later batches extends the numbering without a rebuild.
        table.insert_many([{"child": c, "parent": 1} for c in range(2, 30)])
        assert len(index.descendant_ids(1)) == 28
        table.insert_many([{"child": c + 100, "parent": c} for c in range(2, 30)])
        assert len(index.descendant_ids(1)) == 56
        # Gap-based allocation absorbs the batches with at most a stray
        # renumber (each sibling halves the parent gap), never one per row.
        assert index.renumbers <= 2

    def test_gap_exhaustion_triggers_full_renumber(self, db):
        table = make_tree(db, [(1, None)])
        index = table.indexes["tree"]
        # A deep chain halves the parent gap at every level; it must
        # eventually renumber rather than run out of integers.
        node = 1
        for depth in range(2, 60):
            table.insert({"child": depth, "parent": node})
            node = depth
        assert index.descendant_count(1) == 58
        assert index.ancestor_ids(node)[-1] == 1
        assert index.renumbers > 0

    def test_delete_replays_surviving_edges(self, db):
        table = make_tree(db, TAXONOMY_EDGES)
        index = table.indexes["tree"]
        assert set(index.descendant_ids(2)) == {4, 5}
        # Remove the 4 -> 2 edge: 4 leaves the subtree entirely.
        deleted = [
            rid
            for rid, row in table.scan()
            if table.schema.row_to_mapping(row)["child"] == 4
        ]
        for rid in deleted:
            table.delete_row(rid)
        assert set(index.descendant_ids(2)) == {5}
        assert 4 not in set(index.reachable_ids(1))

    def test_clear_resets_inl_safety_counter(self, db):
        table = make_tree(db, TAXONOMY_EDGES)
        index = table.indexes["tree"]
        rid = next(iter(table.scan()))[0]
        table.delete_row(rid)
        assert index.in_heap_order  # a delete leaves the rest in order
        table.insert({"child": 7, "parent": 6})  # into the tombstone: below every posting
        assert not index.in_heap_order
        table.rebuild_indexes()
        assert index.in_heap_order
        assert isinstance(index, IntervalIndex)


class TestDurability:
    def queries(self, database, name="TREE"):
        index = database.table(name).indexes["tree"]
        return (
            index.descendant_ids(1, include_self=True),
            index.reachable_ids(1),
            index.ancestor_ids(4),
        )

    def test_checkpoint_resume_preserves_graph_answers(self, tmp_path):
        db = Database.open(str(tmp_path / "db"))
        make_tree(db, TAXONOMY_EDGES + [(4, 6)])
        expected = self.queries(db)
        db.checkpoint()
        db.close()

        recovered = Database.open(str(tmp_path / "db"))
        assert self.queries(recovered) == expected
        recovered.close()

    def test_wal_only_recovery_preserves_graph_answers(self, tmp_path):
        db = Database.open(str(tmp_path / "db"))
        make_tree(db, TAXONOMY_EDGES)
        expected = self.queries(db)
        db.close()  # no checkpoint: recovery replays the WAL, index and all

        recovered = Database.open(str(tmp_path / "db"))
        assert self.queries(recovered) == expected
        recovered.close()

    def test_crash_walk_through_checkpoint(self, tmp_path):
        """Crash at each early I/O point of a checkpoint; recovery must agree."""
        baseline = Database(buffer_pool_pages=32)
        make_tree(baseline, TAXONOMY_EDGES + [(4, 6)])
        expected = self.queries(baseline)

        for crash_at in range(0, 12, 3):
            injector = FaultInjector()
            path = str(tmp_path / f"db-{crash_at}")
            db = Database.open(path, storage=StorageConfig(ops=injector))
            make_tree(db, TAXONOMY_EDGES + [(4, 6)])
            injector.crash_at = injector.op_count + crash_at
            try:
                db.checkpoint()
            except SimulatedCrash:
                pass
            hard_close(db)

            recovered = Database.open(path)
            assert self.queries(recovered) == expected, f"crash at +{crash_at}"
            recovered.close()

    def test_compaction_rebuild_preserves_graph_answers(self, tmp_path):
        storage = StorageConfig(compact_every=1, compact_min_garbage_ratio=0.0)
        db = Database.open(str(tmp_path / "db"), storage=storage)
        table = make_tree(db, TAXONOMY_EDGES + [(4, 6), (7, 4)])
        # Churn: delete the 7 -> 4 leaf so compaction has garbage to drop
        # and the index has processed a real delete.
        for rid, row in list(table.scan()):
            if table.schema.row_to_mapping(row)["child"] == 7:
                table.delete_row(rid)
        expected = self.queries(db)
        db.checkpoint()  # compacts (ratio floor 0) and rebuilds indexes
        assert self.queries(db) == expected
        db.close()

        recovered = Database.open(str(tmp_path / "db"), storage=storage)
        assert self.queries(recovered) == expected
        recovered.close()
