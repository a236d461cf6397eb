"""Tests for the compact SQL dialect: parser and executor."""

import math

import pytest

from repro.minidb import Database, FLOAT, INTEGER, SQLSyntaxError, TEXT, make_schema, parse_sql
from repro.minidb.errors import ConstraintError, QueryError, SchemaError
from repro.minidb.sql import SelectStatement


@pytest.fixture()
def db():
    database = Database(buffer_pool_pages=128)
    crawl = database.create_table(
        "CRAWL",
        make_schema(
            ("oid", INTEGER, False),
            ("url", TEXT),
            ("sid", INTEGER),
            ("relevance", FLOAT),
            ("numtries", INTEGER),
            ("lastvisited", INTEGER),
            ("kcid", INTEGER),
            ("status", TEXT),
            primary_key=["oid"],
        ),
    )
    link = database.create_table(
        "LINK",
        make_schema(
            ("oid_src", INTEGER),
            ("sid_src", INTEGER),
            ("oid_dst", INTEGER),
            ("sid_dst", INTEGER),
            ("wgt_fwd", FLOAT),
            ("wgt_rev", FLOAT),
        ),
    )
    hubs = database.create_table(
        "HUBS", make_schema(("oid", INTEGER, False), ("score", FLOAT), primary_key=["oid"])
    )
    database.create_table(
        "AUTH", make_schema(("oid", INTEGER, False), ("score", FLOAT), primary_key=["oid"])
    )
    taxonomy = database.create_table(
        "TAXONOMY", make_schema(("kcid", INTEGER, False), ("name", TEXT), primary_key=["kcid"])
    )
    for i in range(30):
        crawl.insert(
            {
                "oid": i,
                "url": f"http://s{i % 5}.example/{i}",
                "sid": i % 5,
                "relevance": (i % 10) / 10,
                "numtries": 0 if i % 3 else 1,
                "lastvisited": i,
                "kcid": i % 4,
                "status": "visited" if i % 2 == 0 else "frontier",
            }
        )
    for i in range(29):
        link.insert(
            {
                "oid_src": i,
                "sid_src": i % 5,
                "oid_dst": i + 1,
                "sid_dst": (i + 1) % 5,
                "wgt_fwd": 0.5,
                "wgt_rev": 0.5,
            }
        )
    for i in range(10):
        hubs.insert({"oid": i, "score": i / 10})
    for kcid, name in enumerate(["root", "arts", "recreation", "cycling"]):
        taxonomy.insert({"kcid": kcid, "name": name})
    return database


class TestParser:
    def test_parse_simple_select(self):
        statement = parse_sql("select oid, relevance from CRAWL where relevance > 0.5")
        assert isinstance(statement, SelectStatement)
        assert len(statement.items) == 2
        assert statement.tables == [("CRAWL", "CRAWL")]

    def test_parse_rejects_garbage(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("selekt * from CRAWL")
        with pytest.raises(SQLSyntaxError):
            parse_sql("select * from CRAWL extra tokens ~~")

    def test_parse_group_order_limit(self):
        statement = parse_sql(
            "select sid, count(*) n from CRAWL group by sid having count(*) > 2"
            " order by n desc limit 3"
        )
        assert statement.group_by and statement.having is not None
        assert statement.limit == 3
        assert statement.order_by[0][1] is False

    def test_parse_string_literal_with_quote(self):
        statement = parse_sql("select * from CRAWL where url = 'it''s'")
        assert statement.where is not None


class TestSelectExecution:
    def test_select_star_and_projection(self, db):
        rows = db.sql("select * from CRAWL where oid = 3")
        assert rows[0]["url"] == "http://s3.example/3"
        rows = db.sql("select url, relevance r from CRAWL where oid = 3")
        assert rows == [{"url": "http://s3.example/3", "r": 0.3}]

    def test_where_and_or_not_in(self, db):
        rows = db.sql(
            "select oid from CRAWL where (relevance > 0.7 or oid in (1, 2)) and not (sid = 4)"
        )
        oids = {r["oid"] for r in rows}
        assert {1, 2}.issubset(oids)
        assert all(oid % 5 != 4 or (oid in (1, 2)) for oid in oids)

    def test_group_by_aggregates(self, db):
        rows = db.sql(
            "select sid, count(*) n, avg(relevance) r from CRAWL group by sid order by sid"
        )
        assert len(rows) == 5
        assert rows[0]["sid"] == 0 and rows[0]["n"] == 6

    def test_group_by_expression_with_function(self, db):
        rows = db.sql(
            "select floor(lastvisited / 10) bucket, count(*) n from CRAWL"
            " group by floor(lastvisited / 10) order by floor(lastvisited / 10)"
        )
        assert [r["bucket"] for r in rows] == [0, 1, 2]
        assert sum(r["n"] for r in rows) == 30

    def test_aggregate_with_exp(self, db):
        rows = db.sql("select avg(exp(relevance)) e from CRAWL")
        assert rows[0]["e"] > 1.0

    @pytest.mark.parametrize("func", ["sum", "avg"])
    def test_sum_and_avg_over_text_are_refused(self, db, func):
        """As ``url + 1`` is: a number over TEXT is not 0.0."""
        with pytest.raises(QueryError, match=f"{func}\\(\\) needs numbers"):
            db.sql(f"select {func}(url) s from CRAWL")
        with pytest.raises(QueryError, match=f"{func}\\(\\) needs numbers"):
            db.sql(f"select sid, {func}(status) s from CRAWL group by sid")

    def test_count_min_and_max_over_text_still_answer(self, db):
        rows = db.sql("select count(url) n, min(url) lo, max(url) hi from CRAWL")
        urls = [f"http://s{i % 5}.example/{i}" for i in range(30)]
        assert rows == [{"n": 30, "lo": min(urls), "hi": max(urls)}]

    def test_join_via_comma_from(self, db):
        rows = db.sql(
            "select CRAWL.kcid kcid, count(oid) cnt, name from CRAWL, TAXONOMY"
            " where CRAWL.kcid = TAXONOMY.kcid group by CRAWL.kcid, name order by cnt desc"
        )
        assert len(rows) == 4
        assert {r["name"] for r in rows} == {"root", "arts", "recreation", "cycling"}

    def test_three_table_join_with_inequality_filter(self, db):
        rows = db.sql(
            "select oid_dst, sum(score * wgt_fwd) s from HUBS, LINK, CRAWL"
            " where sid_src <> sid_dst and HUBS.oid = oid_src and oid_dst = CRAWL.oid"
            "   and relevance > 0.0 group by oid_dst order by s desc limit 5"
        )
        assert rows and all(r["s"] is not None for r in rows)

    def test_nested_in_subqueries(self, db):
        rows = db.sql(
            "select url, relevance from CRAWL where oid in"
            " (select oid_dst from LINK where oid_src in (select oid from HUBS where score > 0.7)"
            "  and sid_src <> sid_dst) and numtries = 0"
        )
        assert all(r["relevance"] is not None for r in rows)

    def test_scalar_subquery_and_parameters(self, db):
        rows = db.sql(
            "select count(*) n from CRAWL where relevance > (select avg(relevance) from CRAWL)"
        )
        assert 0 < rows[0]["n"] < 30
        rows = db.sql("select count(*) n from CRAWL where relevance > :cut", {"cut": 0.8})
        assert rows[0]["n"] == 3
        with pytest.raises(QueryError):
            db.sql("select * from CRAWL where relevance > :missing_param")

    def test_distinct_and_is_null(self, db):
        rows = db.sql("select distinct sid from CRAWL order by sid")
        assert [r["sid"] for r in rows] == [0, 1, 2, 3, 4]
        assert db.sql("select count(*) n from CRAWL where kcid is null")[0]["n"] == 0
        assert db.sql("select count(*) n from CRAWL where kcid is not null")[0]["n"] == 30


class TestMutationStatements:
    def test_insert_values_and_select(self, db):
        result = db.sql("insert into HUBS(oid, score) values (100, 0.9), (101, 0.8)")
        assert result == [{"rowcount": 2}]
        result = db.sql(
            "insert into AUTH(oid, score) (select oid, score from HUBS where score > 0.85)"
        )
        assert result[0]["rowcount"] >= 1

    def test_update_with_scalar_subquery_normalisation(self, db):
        total = db.sql("select sum(score) s from HUBS")[0]["s"]
        db.sql("update HUBS set score = score / (select sum(score) from HUBS)")
        new_total = db.sql("select sum(score) s from HUBS")[0]["s"]
        assert math.isclose(new_total, 1.0, rel_tol=1e-9)
        assert total != 1.0

    def test_update_paper_style_parenthesised_column(self, db):
        db.sql("update HUBS set (score) = 0.5 where oid = 1")
        assert db.sql("select score from HUBS where oid = 1")[0]["score"] == 0.5

    def test_delete_with_and_without_predicate(self, db):
        assert db.sql("delete from AUTH")[0]["rowcount"] == 0
        count = db.sql("delete from HUBS where score < 0.5")[0]["rowcount"]
        assert count == 5
        assert db.sql("select count(*) n from HUBS")[0]["n"] == 5

    def test_insert_column_count_mismatch(self, db):
        with pytest.raises(QueryError):
            db.sql("insert into HUBS(oid, score) values (1)")


def keyed_table(database):
    """``T(id primary key, v)`` holding ids 1, 2, 3 and 30, with a hash index on ``v``."""
    table = database.create_table(
        "T", make_schema(("id", INTEGER, False), ("v", INTEGER), primary_key=["id"])
    )
    table.create_index("t_v", ["v"])
    table.insert_many([(1, 1), (2, 2), (3, 3), (30, 0)])
    return table


def contents(database):
    """Rows in heap order, with what the primary-key and ``v`` indexes find for each."""
    table = database.table("T")
    rows = list(table.rows())
    found = [
        (table.get_by_key((k,)), sorted(table.read(rid) for rid in table.lookup_rids("t_v", (v,))))
        for k, v in rows
    ]
    return rows, found


class TestStatementsAreAtomic:
    """An INSERT or UPDATE that raises on a later row writes none of its rows."""

    FAILING = {
        "values repeat a stored key last": "insert into T values (10, 1), (11, 2), (3, 4)",
        "values repeat their own key": "insert into T values (10, 1), (11, 2), (10, 4)",
        "values hold a wrong type last": "insert into T values (10, 1), ('x', 2)",
        "select hits a stored key": "insert into T(id, v) (select id + 27, v from T where v >= 1)",
        "update collides on a later row": "update T set id = id * 10 where v >= 1",
        "update fails to evaluate on a later row": "update T set v = 6 / (id - 3)",
    }

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    @pytest.mark.parametrize("statement", list(FAILING.values()), ids=list(FAILING))
    def test_a_raising_statement_leaves_table_and_journal_unchanged(self, tmp_path, durable, statement):
        path = str(tmp_path / "db")
        database = Database.open(path) if durable else Database()
        keyed_table(database)
        before = contents(database)
        journaled = database.backend.wal_bytes_written if durable else None
        with pytest.raises((QueryError, ConstraintError, SchemaError)):
            database.sql(statement)
        assert contents(database) == before
        if durable:
            assert database.backend.wal_bytes_written == journaled
            database.close()
            database = Database.open(path)  # replays the journal
            assert contents(database) == before
            database.close()

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    def test_keys_may_move_onto_keys_the_same_statement_gives_up(self, tmp_path, durable):
        path = str(tmp_path / "db")
        database = Database.open(path) if durable else Database()
        keyed_table(database)
        assert database.sql("update T set id = id + 1 where id < 30") == [{"rowcount": 3}]
        assert database.sql("update T set id = 6 - id where id in (2, 4)") == [{"rowcount": 2}]
        expected = [(4, 1), (3, 2), (2, 3), (30, 0)]
        assert list(database.table("T").rows()) == expected
        assert [database.table("T").get_by_key((k,)) for k, _v in expected] == expected
        if durable:
            database.close()
            database = Database.open(path)
            assert contents(database) == ([*expected], [(row, [row]) for row in expected])
            database.close()
