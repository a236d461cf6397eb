"""The graph (``kind="interval"``) index: queries, a reference model, durability."""

import pytest
from hypothesis import given, settings, strategies as st

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
        # Each subtree is one contiguous run of its ancestor's preorder,
        # and sibling subtrees are disjoint runs.
        index = make_tree(db, TAXONOMY_EDGES).indexes["tree"]
        root = index.descendant_ids(1)
        for child in (2, 3):
            run = index.descendant_ids(child, include_self=True)
            start = root.index(child)
            assert root[start:start + len(run)] == run
        assert not set(index.descendant_ids(2, include_self=True)) & set(
            index.descendant_ids(3, include_self=True)
        )

    def test_descendants_are_one_range_scan(self, db):
        index = make_tree(db, TAXONOMY_EDGES).indexes["tree"]
        assert set(index.descendant_ids(1)) == {2, 3, 4, 5, 6}
        assert set(index.descendant_ids(2)) == {4, 5}
        assert index.descendant_ids(2, include_self=True)[0] == 2
        assert index.descendant_ids(4) == []

    def test_is_descendant(self, db):
        index = make_tree(db, TAXONOMY_EDGES).indexes["tree"]
        assert 4 in index.descendant_ids(1)
        assert 4 in index.descendant_ids(2)
        assert 4 not in index.descendant_ids(3)
        assert 1 not in index.descendant_ids(4)


class TestGraphShapes:
    def test_extra_edges_feed_reachability(self, db):
        # 6 -> 4 is a cross edge: 3's side reaches into 2's subtree.
        edges = TAXONOMY_EDGES + [(4, 6)]
        index = make_tree(db, edges).indexes["tree"]
        assert set(index.descendant_ids(3)) == {6}  # tree shape unchanged
        assert set(index.reachable_ids(3)) == {3, 6, 4}
        assert set(index.reachable_ids(1)) == {1, 2, 3, 4, 5, 6}

    def test_cycles_terminate(self, db):
        edges = [(1, None), (2, 1), (3, 2), (1, 3)]  # 3 -> 1 closes a cycle
        index = make_tree(db, edges).indexes["tree"]
        assert set(index.reachable_ids(1)) == {1, 2, 3}
        assert set(index.reachable_ids(3)) == {3, 1, 2}

    def test_synthetic_root_is_adopted_by_first_real_in_edge(self, db):
        # 5 appears first as a parent (a seed), later gains an in-edge.
        edges = [(6, 5), (1, None), (5, 1)]
        index = make_tree(db, edges).indexes["tree"]
        assert index.descendant_ids(1) == [5, 6]

    def test_multi_parent_keeps_first_edge_as_tree_edge(self, db):
        edges = [(1, None), (2, 1), (3, 1), (4, 2), (4, 3)]
        index = make_tree(db, edges).indexes["tree"]
        assert set(index.descendant_ids(2)) == {4}
        assert set(index.descendant_ids(3)) == set()
        assert set(index.reachable_ids(3)) == {3, 4}


def reference_forest(edges):
    """Tree parents and children of *edges* ((child, parent) pairs, in order).

    The first in-edge is a node's tree edge.  A node first seen as a parent
    starts as a root and moves under its first real in-edge, unless that
    edge's source lies below it.  Self-loops add nothing.
    """
    parent, children, adoptable = {}, {}, set()

    def below(node, ancestor):
        while node is not None:
            node = parent[node]
            if node == ancestor:
                return True
        return False

    for child, source in edges:
        if source == child:
            continue
        if source is not None and source not in parent:
            parent[source], children[source] = None, []
            adoptable.add(source)
        if child not in parent:
            parent[child], children[child] = source, []
        elif source is None or child not in adoptable or below(source, child):
            continue
        adoptable.discard(child)
        parent[child] = source
        if source is not None:
            children[source].append(child)
    return parent, children


def reference_descendants(children, node):
    """Preorder DFS below *node*, children in the order they were attached."""
    order, stack = [], list(reversed(children.get(node, ())))
    while stack:
        current = stack.pop()
        order.append(current)
        stack.extend(reversed(children[current]))
    return order


def reference_reachable(edges, node):
    """Every id a BFS over all edges reaches from *node* (itself included)."""
    nodes = {n for c, p in edges if c != p for n in (c, p) if n is not None}
    if node not in nodes:
        return set()
    seen, queue = {node}, [node]
    for current in queue:
        for child, source in edges:
            if source == current and child not in seen:
                seen.add(child)
                queue.append(child)
    return seen


edge_ids = st.integers(0, 9)
edge_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.lists(st.tuples(edge_ids, st.none() | edge_ids), min_size=1, max_size=6),
        ),
        st.tuples(st.just("delete"), st.integers(0, 1 << 16)),
    ),
    max_size=12,
)


class TestAgainstReference:
    @given(ops=edge_ops)
    @settings(max_examples=150, deadline=None, database=None)
    def test_lazy_and_eager_indexes_match_the_reference(self, ops):
        table = make_tree(Database(buffer_pool_pages=8), [])
        index = table.indexes["tree"]
        live: dict = {}  # distinct edge -> row count, in the order edges were first posted
        for op, arg in ops:
            if op == "insert":
                table.insert_many([{"child": c, "parent": p} for c, p in arg])
                for edge in arg:
                    live[edge] = live.get(edge, 0) + 1
            else:
                rows = list(table.scan())
                if not rows:
                    continue
                rid, row = rows[arg % len(rows)]
                table.delete_row(rid)
                edge = (row[0], row[1])
                live[edge] -= 1
                if not live[edge]:
                    del live[edge]
            scanned = list(table.scan())
            eager = IntervalIndex("tree", table.schema, index.key_columns)
            eager.insert_many([(row[0], row[1]) for _rid, row in scanned], [rid for rid, _row in scanned])
            heap_edges = list(dict.fromkeys((row[0], row[1]) for _rid, row in scanned))
            for built, edges in ((index, list(live)), (eager, heap_edges)):
                _parent, children = reference_forest(edges)
                for node in range(11):
                    assert built.descendant_ids(node) == reference_descendants(children, node)
                    assert set(built.reachable_ids(node)) == reference_reachable(edges, node)


class TestMaintenance:
    def test_incremental_batches_rarely_renumber(self, db, monkeypatch):
        table = db.create_table("TREE", edge_schema())
        table.create_index("tree", ["child", "parent"], kind="interval")
        index = table.indexes["tree"]
        folded = []
        add_edge = index._add_edge
        monkeypatch.setattr(index, "_add_edge", lambda c, p: (folded.append((c, p)), add_edge(c, p)))
        table.insert({"child": 1, "parent": None})
        assert set(index.descendant_ids(1)) == set()
        # Folding later batches extends the forest without replaying it:
        # each distinct edge is added once, in insertion order.
        table.insert_many([{"child": c, "parent": 1} for c in range(2, 30)])
        assert len(index.descendant_ids(1)) == 28
        table.insert_many([{"child": c + 100, "parent": c} for c in range(2, 30)])
        assert len(index.descendant_ids(1)) == 56
        assert folded == (
            [(1, None)]
            + [(c, 1) for c in range(2, 30)]
            + [(c + 100, c) for c in range(2, 30)]
        )

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
