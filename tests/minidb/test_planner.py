"""The index-aware planner: plan shapes, EXPLAIN stability, bit-identity."""

import pytest

from repro.minidb import (
    Database,
    FLOAT,
    INTEGER,
    QueryError,
    TEXT,
    make_schema,
)
from repro.minidb.planner import plan_select
from repro.minidb.sql import execute_select, parse_sql


@pytest.fixture()
def db():
    """A miniature crawl store: CRAWL rows, a LINK chain, a taxonomy."""
    database = Database(buffer_pool_pages=64)

    crawl = database.create_table(
        "CRAWL",
        make_schema(
            ("oid", INTEGER, False),
            ("kcid", INTEGER),
            ("relevance", FLOAT),
            ("status", TEXT),
            primary_key=["oid"],
        ),
    )
    crawl.insert_many(
        [
            {
                "oid": i,
                "kcid": 1 + i % 6,
                "relevance": (i % 10) / 10.0,
                "status": "visited" if i % 3 else "frontier",
            }
            for i in range(40)
        ]
    )

    link = database.create_table(
        "LINK",
        make_schema(("oid_src", INTEGER, False), ("oid_dst", INTEGER, False)),
    )
    link.create_index("link_src", ["oid_src"], kind="hash")
    link.create_index("link_graph", ["oid_dst", "oid_src"], kind="interval")
    link.insert_many(
        [{"oid_src": i, "oid_dst": i + 1} for i in range(39)]
        + [{"oid_src": 0, "oid_dst": 999}]
    )

    taxonomy = database.create_table(
        "TAXONOMY",
        make_schema(("kcid", INTEGER, False), ("pcid", INTEGER), primary_key=["kcid"]),
    )
    taxonomy.create_index("taxonomy_tree", ["kcid", "pcid"], kind="interval")
    taxonomy.insert_many(
        [
            {"kcid": 1, "pcid": None},
            {"kcid": 2, "pcid": 1},
            {"kcid": 3, "pcid": 1},
            {"kcid": 4, "pcid": 2},
            {"kcid": 5, "pcid": 2},
            {"kcid": 6, "pcid": 3},
        ]
    )
    return database


def explain_text(database, sql, params=None):
    return "\n".join(row["plan"] for row in database.sql(f"explain {sql}", params))


def scan_rows(database, sql, params=None):
    """The statement through the reference scan-and-filter pipeline."""
    return execute_select(database, parse_sql(sql), params or {}, mode="scan")


BIT_IDENTITY_QUERIES = [
    ("select oid, relevance from CRAWL where oid = :k", {"k": 7}),
    ("select oid from CRAWL where oid in (:a, :b, :c)", {"a": 3, "b": 17, "c": 999}),
    ("select oid, status from CRAWL where relevance > 0.5 order by oid", None),
    (
        "select kcid from TAXONOMY where descendant_of(kcid, :root)",
        {"root": 1},
    ),
    (
        "select oid, kcid from CRAWL where in_subtree(kcid, :root) order by oid",
        {"root": 2},
    ),
    (
        "select oid from CRAWL where reachable_from(oid, :root, 'link_graph')",
        {"root": 0},
    ),
    (
        "select C.oid, L.oid_dst from CRAWL C, LINK L "
        "where C.oid = L.oid_src and C.oid in (:a, :b)",
        {"a": 5, "b": 6},
    ),
    (
        "select oid from CRAWL where oid in "
        "(select oid_dst from LINK where oid_src < :cap)",
        {"cap": 4},
    ),
    ("select status, count(*) n from CRAWL group by status order by status", None),
]


class TestPlanShapes:
    def test_point_lookup_uses_pk_index(self, db):
        plan = explain_text(db, "select oid from CRAWL where oid = 7")
        assert "IndexKeysLookup(CRAWL.CRAWL_pk" in plan
        assert "TableScan" not in plan

    def test_in_list_uses_keys_lookup(self, db):
        plan = explain_text(
            db, "select oid from CRAWL where oid in (:a, :b)", {"a": 1, "b": 2}
        )
        assert "IndexKeysLookup(CRAWL.CRAWL_pk" in plan

    def test_taxonomy_descendants_is_an_index_range_scan(self, db):
        plan = explain_text(
            db,
            "select kcid from TAXONOMY where descendant_of(kcid, :root)",
            {"root": 1},
        )
        assert "IndexKeysLookup(TAXONOMY.TAXONOMY_pk" in plan
        assert "TableScan" not in plan

    def test_reachability_drives_the_crawl_lookup(self, db):
        plan = explain_text(
            db,
            "select oid from CRAWL where reachable_from(oid, :root, 'link_graph')",
            {"root": 0},
        )
        # The reachable id-set from LINK's interval index keys a batched
        # pk lookup into CRAWL — no full scan on either side.
        assert "IndexKeysLookup(CRAWL.CRAWL_pk" in plan
        assert "TableScan" not in plan

    def test_selective_join_uses_index_nested_loop(self, db):
        plan = explain_text(
            db,
            "select C.oid, L.oid_dst from CRAWL C, LINK L "
            "where C.oid = L.oid_src and C.oid in (:a, :b)",
            {"a": 5, "b": 6},
        )
        assert "IndexNestedLoopJoin(L.link_src" in plan
        assert "IndexKeysLookup(C.CRAWL_pk" in plan

    def test_bulk_join_keeps_hash_join(self, db):
        plan = explain_text(
            db,
            "select C.oid, L.oid_dst from CRAWL C, LINK L where C.oid = L.oid_src",
        )
        # Whole-table outer: the cost gate must refuse per-row probes.
        assert "HashJoin" in plan
        assert "IndexNestedLoopJoin" not in plan

    def test_projection_pushdown_names_columns(self, db):
        plan = explain_text(db, "select oid from CRAWL where relevance > 0.5")
        assert "TableScan(CRAWL cols=[oid, relevance])" in plan

    def test_scan_mode_never_touches_indexes(self, db):
        statement = parse_sql("select oid from CRAWL where oid = 7")
        plan = plan_select(db, statement, {}, mode="scan").explain()
        assert plan.mode == "scan"
        assert "TableScan(CRAWL" in plan.text
        assert not plan.uses_index_path

    def test_unknown_mode_rejected(self, db):
        with pytest.raises(QueryError, match="unknown planner mode"):
            execute_select(
                db, parse_sql("select oid from CRAWL where oid = 7"), {}, mode="oracle"
            )


class TestExplainStability:
    def test_explain_is_deterministic(self, db):
        sql = "select kcid from TAXONOMY where descendant_of(kcid, :root)"
        first = explain_text(db, sql, {"root": 1})
        second = explain_text(db, sql, {"root": 1})
        assert first == second

    def test_explain_survives_unrelated_writes(self, db):
        sql = "select C.oid from CRAWL C, LINK L where C.oid = L.oid_src and C.oid = 3"
        before = explain_text(db, sql)
        other = db.create_table(
            "OTHER", make_schema(("k", INTEGER, False), primary_key=["k"])
        )
        other.insert_many([{"k": i} for i in range(50)])
        assert explain_text(db, sql) == before

    def test_explain_does_not_execute(self, db):
        reads_before = db.stats.logical_reads
        db.sql("explain select * from CRAWL where relevance > 0.1")
        # Planning may touch catalog metadata but must not drag the
        # whole heap through the pool.
        assert db.stats.logical_reads - reads_before < 5

    def test_last_plan_exposed(self, db):
        db.sql("select oid from CRAWL where oid = 7")
        plan = db.last_plan
        assert plan is not None
        assert plan.mode == "index"
        assert plan.explain().uses_index_path


class TestBitIdentity:
    @pytest.mark.parametrize("sql,params", BIT_IDENTITY_QUERIES)
    def test_planner_matches_scan_path(self, db, sql, params):
        assert db.sql(sql, params) == scan_rows(db, sql, params)

    def test_identity_survives_deletes(self, db):
        db.sql("delete from CRAWL where oid = 7")
        sql = "select oid from CRAWL where oid in (:a, :b)"
        params = {"a": 7, "b": 8}
        indexed = db.sql(sql, params)
        assert indexed == scan_rows(db, sql, params)
        assert [row["oid"] for row in indexed] == [8]

    def test_identity_survives_a_reused_tombstone_after_a_rebuild(self):
        """A rebuild (what recovery does) puts postings back in heap order;
        an insert into an older tombstone then posts a record id below
        the rest of its key's — the index must stop driving joins."""
        database = Database()
        outer = database.create_table("A", make_schema(("x", INTEGER, False), primary_key=["x"]))
        inner = database.create_table("B", make_schema(("y", INTEGER, False), ("z", INTEGER, False)))
        inner.create_index("b_y", ["y"], kind="hash")
        outer.insert_many([(x,) for x in range(2000)])
        inner.insert_many([(z % 2000, z) for z in range(20000)])
        inner.delete_row([rid for rid, _row in inner.scan()][-3])
        inner.rebuild_indexes()
        sql = "select A.x, B.z from A, B where A.x = B.y and A.x in (:p)"
        assert "IndexNestedLoopJoin(B.b_y" in explain_text(database, sql, {"p": 1999})
        inner.insert((1999, -1))  # the tombstone: between 1999's last two rows
        assert database.sql(sql, {"p": 1999}) == scan_rows(database, sql, {"p": 1999})
        assert [row["z"] for row in scan_rows(database, sql, {"p": 1999})][-3:] == [17999, -1, 19999]
