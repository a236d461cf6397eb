"""Unit tests for relational operators and the fluent query builder."""

import pytest

from repro.minidb import Aggregate, Database, FLOAT, INTEGER, QueryError, col, lit, make_schema
from repro.minidb.operators import (
    Distinct,
    Filter,
    GroupByAggregate,
    HashJoin,
    IndexLookup,
    LeftOuterJoin,
    Limit,
    NestedLoopJoin,
    Project,
    RowSource,
    Sort,
    SortMergeJoin,
    TableScan,
)


@pytest.fixture()
def db():
    database = Database(buffer_pool_pages=64)
    crawl = database.create_table(
        "CRAWL",
        make_schema(
            ("oid", INTEGER, False),
            ("sid", INTEGER),
            ("relevance", FLOAT),
            primary_key=["oid"],
        ),
    )
    link = database.create_table(
        "LINK",
        make_schema(("oid_src", INTEGER), ("oid_dst", INTEGER), ("wgt", FLOAT)),
    )
    for i in range(20):
        crawl.insert({"oid": i, "sid": i % 4, "relevance": (i % 10) / 10})
    for i in range(19):
        link.insert({"oid_src": i, "oid_dst": i + 1, "wgt": 0.5})
    link.insert({"oid_src": 0, "oid_dst": 999, "wgt": 0.1})  # dangling edge
    return database


class TestBasicOperators:
    def test_table_scan_qualifies_columns(self, db):
        rows = TableScan(db.table("CRAWL"), "C").to_list()
        assert len(rows) == 20
        assert rows[0]["C.oid"] == rows[0]["oid"]

    def test_filter_and_project(self, db):
        plan = Project(
            Filter(TableScan(db.table("CRAWL")), col("relevance") > lit(0.8)),
            [("oid", col("oid")), ("double", col("relevance") * lit(2))],
        )
        rows = plan.to_list()
        assert all(set(r) == {"oid", "double"} for r in rows)
        assert all(r["double"] > 1.6 for r in rows)

    def test_sort_orders_and_nulls_last(self):
        source = RowSource([{"x": 3}, {"x": None}, {"x": 1}])
        rows = Sort(source, [(col("x"), True)]).to_list()
        assert [r["x"] for r in rows] == [1, 3, None]

    def test_limit_and_offset(self, db):
        rows = Limit(TableScan(db.table("CRAWL")), limit=5, offset=10).to_list()
        assert len(rows) == 5
        with pytest.raises(QueryError):
            Limit(TableScan(db.table("CRAWL")), limit=-1)

    def test_distinct(self):
        source = RowSource([{"a": 1}, {"a": 1}, {"a": 2}])
        assert len(Distinct(source).to_list()) == 2

    def test_index_lookup(self, db):
        rows = IndexLookup(db.table("CRAWL"), "CRAWL_pk", (7,)).to_list()
        assert len(rows) == 1 and rows[0]["oid"] == 7

    def test_rows_out_counter(self, db):
        scan = TableScan(db.table("CRAWL"))
        scan.to_list()
        assert scan.rows_out == 20


class TestJoins:
    def join_inputs(self, db):
        left = TableScan(db.table("LINK"), "LINK")
        right = TableScan(db.table("CRAWL"), "CRAWL")
        return left, right

    def test_hash_join_matches_nested_loop(self, db):
        hash_rows = HashJoin(
            TableScan(db.table("LINK"), "LINK"),
            TableScan(db.table("CRAWL"), "CRAWL"),
            [col("oid_dst")],
            [col("CRAWL.oid")],
        ).to_list()
        nested_rows = NestedLoopJoin(
            TableScan(db.table("LINK"), "LINK"),
            TableScan(db.table("CRAWL"), "CRAWL"),
            col("oid_dst") == col("CRAWL.oid"),
        ).to_list()
        assert len(hash_rows) == len(nested_rows) == 19

    def test_sort_merge_join_matches_hash_join(self, db):
        merge_rows = SortMergeJoin(
            TableScan(db.table("LINK"), "LINK"),
            TableScan(db.table("CRAWL"), "CRAWL"),
            [col("oid_dst")],
            [col("CRAWL.oid")],
        ).to_list()
        assert len(merge_rows) == 19
        key_pairs = {(r["oid_src"], r["CRAWL.oid"]) for r in merge_rows}
        assert (0, 1) in key_pairs

    def test_left_outer_join_null_fills_unmatched(self, db):
        rows = LeftOuterJoin(
            TableScan(db.table("LINK"), "LINK"),
            TableScan(db.table("CRAWL"), "CRAWL"),
            [col("oid_dst")],
            [col("CRAWL.oid")],
            right_columns=["CRAWL.relevance"],
        ).to_list()
        assert len(rows) == 20
        dangling = [r for r in rows if r["oid_dst"] == 999]
        assert dangling and dangling[0]["CRAWL.relevance"] is None

    def test_join_key_arity_checked(self, db):
        with pytest.raises(QueryError):
            HashJoin(RowSource([]), RowSource([]), [col("a")], [])


class TestAggregation:
    def test_group_by_sum_count_avg_min_max(self, db):
        plan = GroupByAggregate(
            TableScan(db.table("CRAWL")),
            [("sid", col("sid"))],
            [
                Aggregate("count", None, "n"),
                Aggregate("sum", col("relevance"), "total"),
                Aggregate("avg", col("relevance"), "mean"),
                Aggregate("min", col("relevance"), "low"),
                Aggregate("max", col("relevance"), "high"),
            ],
        )
        rows = {r["sid"]: r for r in plan.to_list()}
        assert set(rows) == {0, 1, 2, 3}
        assert rows[0]["n"] == 5
        assert rows[0]["low"] <= rows[0]["mean"] <= rows[0]["high"]
        assert abs(rows[0]["mean"] - rows[0]["total"] / rows[0]["n"]) < 1e-12

    def test_global_aggregate_over_empty_input(self):
        plan = GroupByAggregate(RowSource([]), [], [Aggregate("count", None, "n")])
        assert plan.to_list() == [{"n": 0}]

    def test_having_filters_groups(self, db):
        plan = GroupByAggregate(
            TableScan(db.table("CRAWL")),
            [("sid", col("sid"))],
            [Aggregate("count", None, "n")],
            having=col("sid") > lit(1),
        )
        assert {r["sid"] for r in plan.to_list()} == {2, 3}

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(QueryError):
            Aggregate("median", col("x"), "m")

    def test_sum_over_empty_group_is_null(self):
        plan = GroupByAggregate(RowSource([]), [], [Aggregate("sum", col("x"), "s")])
        assert plan.to_list() == [{"s": None}]


class TestQueryBuilder:
    def test_where_group_order_limit(self, db):
        rows = (
            db.query("CRAWL")
            .where(col("relevance") > lit(0.2))
            .group_by("sid")
            .aggregate("count", None, "n")
            .order_by(("n", False), ("sid", True))
            .limit(2)
            .run()
        )
        assert len(rows) == 2
        assert rows[0]["n"] >= rows[1]["n"]

    def test_point_query_uses_primary_key_index(self, db):
        query = db.query("CRAWL").where(col("oid") == lit(3))
        plan = query.plan()
        # The base of the plan should be an IndexLookup, not a scan.
        node = plan
        while hasattr(node, "child"):
            node = node.child
        assert isinstance(node, IndexLookup)
        assert query.run()[0]["oid"] == 3

    def test_join_through_builder(self, db):
        rows = (
            db.query("LINK")
            .join("CRAWL", on=[("oid_dst", "oid")])
            .where(col("relevance") > lit(0.5))
            .select("oid_src", "oid_dst", "relevance")
            .run()
        )
        assert rows and all(r["relevance"] > 0.5 for r in rows)

    def test_left_join_through_builder(self, db):
        rows = (
            db.query("LINK")
            .join("CRAWL", on=[("oid_dst", "oid")], how="left")
            .run()
        )
        assert len(rows) == 20

    def test_merge_join_algorithm(self, db):
        rows = (
            db.query("LINK")
            .join("CRAWL", on=[("oid_dst", "oid")], algorithm="merge")
            .run()
        )
        assert len(rows) == 19

    def test_index_and_nested_join_algorithms_are_refused(self, db):
        # Index-nested-loop joins are the SQL planner's; nested loops are
        # the property tests' oracle, not a builder choice.
        for algorithm in ("index", "nested"):
            with pytest.raises(QueryError, match="'hash' or 'merge'"):
                db.query("LINK").join("CRAWL", on=[("oid_dst", "oid")], algorithm=algorithm)

    def test_scalar_and_errors(self, db):
        assert db.query("CRAWL").aggregate("count", None, "n").scalar() == 20
        with pytest.raises(QueryError):
            db.query("CRAWL").select("oid", "sid").scalar()
        with pytest.raises(QueryError):
            db.query("CRAWL").join("LINK", on=[("oid", "oid_src")], how="full")

    def test_query_over_row_source(self, db):
        rows = (
            db.query([{"k": 1}, {"k": 2}, {"k": 2}], alias="R")
            .distinct()
            .order_by(("k", True))
            .run()
        )
        assert [r["k"] for r in rows] == [1, 2]
