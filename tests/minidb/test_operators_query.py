"""Unit tests for relational operators and the SQL reads built from them."""

import pytest

from repro.minidb import Aggregate, Database, FLOAT, INTEGER, QueryError, make_schema
from repro.minidb.expressions import Arithmetic, ColumnRef, Comparison, Literal
from repro.minidb.operators import (
    Distinct,
    Filter,
    GroupByAggregate,
    HashJoin,
    IndexKeysLookup,
    Limit,
    NestedLoopJoin,
    Project,
    Sort,
    TableScan,
)
from row_source import RowSource


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
            Filter(TableScan(db.table("CRAWL")), Comparison(">", ColumnRef("relevance"), Literal(0.8))),
            [("oid", ColumnRef("oid")), ("double", Arithmetic("*", ColumnRef("relevance"), Literal(2)))],
        )
        rows = plan.to_list()
        assert all(set(r) == {"oid", "double"} for r in rows)
        assert all(r["double"] > 1.6 for r in rows)

    def test_sort_orders_and_nulls_last(self):
        source = RowSource([{"x": 3}, {"x": None}, {"x": 1}])
        rows = Sort(source, [(ColumnRef("x"), True)]).to_list()
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
        rows = IndexKeysLookup(db.table("CRAWL"), "CRAWL_pk", [(7,)]).to_list()
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
            [ColumnRef("oid_dst")],
            [ColumnRef("CRAWL.oid")],
        ).to_list()
        nested_rows = NestedLoopJoin(
            TableScan(db.table("LINK"), "LINK"),
            TableScan(db.table("CRAWL"), "CRAWL"),
            Comparison("=", ColumnRef("oid_dst"), ColumnRef("CRAWL.oid")),
        ).to_list()
        assert len(hash_rows) == len(nested_rows) == 19

    def test_join_key_arity_checked(self, db):
        with pytest.raises(QueryError):
            HashJoin(RowSource([]), RowSource([]), [ColumnRef("a")], [])


class TestAggregation:
    def test_group_by_sum_count_avg_min_max(self, db):
        plan = GroupByAggregate(
            TableScan(db.table("CRAWL")),
            [("sid", ColumnRef("sid"))],
            [
                Aggregate("count", None, "n"),
                Aggregate("sum", ColumnRef("relevance"), "total"),
                Aggregate("avg", ColumnRef("relevance"), "mean"),
                Aggregate("min", ColumnRef("relevance"), "low"),
                Aggregate("max", ColumnRef("relevance"), "high"),
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
            [("sid", ColumnRef("sid"))],
            [Aggregate("count", None, "n")],
            having=Comparison(">", ColumnRef("sid"), Literal(1)),
        )
        assert {r["sid"] for r in plan.to_list()} == {2, 3}

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(QueryError):
            Aggregate("median", ColumnRef("x"), "m")

    def test_sum_over_empty_group_is_null(self):
        plan = GroupByAggregate(RowSource([]), [], [Aggregate("sum", ColumnRef("x"), "s")])
        assert plan.to_list() == [{"s": None}]


class TestSqlReads:
    """What the classifier and the distillers ask of ``Database.sql()``."""

    def test_where_group_order_limit(self, db):
        rows = db.sql(
            "select sid, count(*) n from CRAWL where relevance > 0.2 "
            "group by sid order by n desc, sid limit 2"
        )
        assert rows == [{"sid": 1, "n": 4}, {"sid": 3, "n": 4}]

    def test_join_filter_and_projection(self, db):
        rows = db.sql(
            "select oid_src, oid_dst, relevance from LINK, CRAWL "
            "where oid_dst = oid and relevance > 0.5"
        )
        assert [(r["oid_src"], r["oid_dst"]) for r in rows] == [
            (i - 1, i) for i in range(1, 20) if (i % 10) / 10 > 0.5
        ]
        assert all(set(r) == {"oid_src", "oid_dst", "relevance"} for r in rows)

    def test_dangling_edge_has_no_join_partner(self, db):
        rows = db.sql("select oid_dst from LINK, CRAWL where oid_dst = oid")
        assert len(rows) == 19 and 999 not in {r["oid_dst"] for r in rows}

    def test_global_aggregate_is_one_row(self, db):
        assert db.sql("select count(*) n from CRAWL") == [{"n": 20}]
        assert db.sql("select sum(relevance) s from CRAWL where oid > 100") == [{"s": None}]

    def test_distinct_keeps_first_seen_order(self, db):
        assert [r["oid_src"] for r in db.sql("select distinct oid_src from LINK")] == list(
            range(19)
        )
        rows = db.sql("select distinct sid from CRAWL order by sid desc")
        assert [r["sid"] for r in rows] == [3, 2, 1, 0]

    def test_in_subquery_filters_like_a_semi_join(self, db):
        rows = db.sql(
            "select sid, count(*) n from CRAWL "
            "where oid in (select oid_dst from LINK) group by sid"
        )
        assert {r["sid"]: r["n"] for r in rows} == {1: 5, 2: 5, 3: 5, 0: 4}
