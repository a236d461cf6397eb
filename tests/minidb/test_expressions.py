"""Unit tests for the expression tree the SQL compiler builds for predicates and projections."""

import math

import pytest

from repro.minidb import Database, INTEGER, QueryError, make_schema
from repro.minidb.expressions import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    FunctionCall,
    InSet,
    IsNull,
    Literal,
    Not,
    Or,
)


ROW = {"a": 5, "b": 2.5, "name": "hub", "missing": None, "CRAWL.oid": 77}

A, B, MISSING = ColumnRef("a"), ColumnRef("b"), ColumnRef("missing")


def call(name, *args):
    return FunctionCall(name, list(args))


class TestColumnResolution:
    def test_bare_and_qualified_names(self):
        assert A.evaluate(ROW) == 5
        assert ColumnRef("CRAWL.oid").evaluate(ROW) == 77

    def test_bare_name_falls_back_to_unique_qualified(self):
        assert ColumnRef("oid").evaluate({"CRAWL.oid": 9}) == 9

    def test_ambiguous_bare_name_raises(self):
        with pytest.raises(QueryError):
            ColumnRef("oid").evaluate({"CRAWL.oid": 1, "LINK.oid": 2})

    def test_unknown_column_raises(self):
        with pytest.raises(QueryError):
            ColumnRef("nope").evaluate(ROW)

    def test_qualified_name_falls_back_to_bare(self):
        assert ColumnRef("CRAWL.a").evaluate({"a": 3}) == 3


class TestComparisonsAndArithmetic:
    def test_comparisons(self):
        assert Comparison(">", A, Literal(4)).evaluate(ROW) is True
        assert Comparison("<=", A, Literal(4)).evaluate(ROW) is False
        assert Comparison("=", ColumnRef("name"), Literal("hub")).evaluate(ROW) is True
        assert Comparison("!=", ColumnRef("name"), Literal("auth")).evaluate(ROW) is True

    def test_null_comparisons_are_false(self):
        assert Comparison("=", MISSING, Literal(None)).evaluate(ROW) is False
        assert Comparison(">", MISSING, Literal(0)).evaluate(ROW) is False

    def test_arithmetic_and_null_propagation(self):
        assert Arithmetic("+", A, B).evaluate(ROW) == 7.5
        assert Arithmetic("*", A, Literal(2)).evaluate(ROW) == 10
        assert Arithmetic("-", A, Literal(1)).evaluate(ROW) == 4
        assert Arithmetic("/", A, Literal(2)).evaluate(ROW) == 2.5
        assert Arithmetic("+", MISSING, Literal(1)).evaluate(ROW) is None

    def test_division_by_zero_raises(self):
        with pytest.raises(QueryError):
            Arithmetic("/", A, Literal(0)).evaluate(ROW)

    def test_negation_through_sql(self):
        db = Database()
        db.create_table("T", make_schema(("a", INTEGER))).insert({"a": 5})
        assert db.sql("select -a x from T") == [{"x": -5}]

    def test_expressions_compare_by_identity(self):
        # Nodes are plain values: ``==`` is identity, never a truthy
        # Comparison node standing in for a boolean.
        assert (Literal(1) == Literal(1)) is False
        left = Literal(1)
        assert left == left and left in [Literal(1), left]


class TestBooleanConnectives:
    def test_and_or_not(self):
        a_big = Comparison(">", A, Literal(100))
        b_positive = Comparison(">", B, Literal(1))
        assert And([Comparison(">", A, Literal(1)), b_positive]).evaluate(ROW) is True
        assert Or([a_big, b_positive]).evaluate(ROW) is True
        assert Not(a_big).evaluate(ROW) is True

    def test_connectives_through_sql(self):
        db = Database()
        table = db.create_table("T", make_schema(("a", INTEGER), ("b", INTEGER)))
        table.insert_many({"a": a, "b": a % 3 or None} for a in range(10))
        rows = db.sql(
            "select a from T where (a > 6 or not a > 2) and b is not null order by a"
        )
        assert [row["a"] for row in rows] == [1, 2, 7, 8]


class TestFunctionsAndPredicates:
    def test_in_set(self):
        assert InSet(A, [1, 5, 9]).evaluate(ROW) is True
        assert InSet(A, [2, 3], negated=True).evaluate(ROW) is True
        assert InSet(MISSING, [None]).evaluate(ROW) is False

    def test_in_set_repr_counts_distinct_values(self):
        # EXPLAIN prints this: a materialised subquery of thousands of
        # values must not become thousands of characters.
        assert repr(InSet(ColumnRef("tid"), [3, 1, 3, 2] * 1000)) == "col('tid') IN <3 values>"
        assert repr(InSet(A, [], negated=True)) == "col('a') NOT IN <0 values>"

    def test_is_null(self):
        assert IsNull(MISSING).evaluate(ROW) is True
        assert IsNull(A, negated=True).evaluate(ROW) is True

    def test_coalesce_exp_log(self):
        assert call("coalesce", MISSING, Literal(3)).evaluate(ROW) == 3
        assert call("exp", Literal(0)).evaluate(ROW) == 1.0
        assert abs(call("log", Literal(math.e)).evaluate(ROW) - 1.0) < 1e-12
        assert call("abs", Literal(-2)).evaluate(ROW) == 2
        assert call("floor", Literal(3.7)).evaluate(ROW) == 3
        assert call("ceil", Literal(3.2)).evaluate(ROW) == 4
        assert call("sqrt", Literal(9)).evaluate(ROW) == 3

    def test_log_of_nonpositive_raises(self):
        with pytest.raises(QueryError):
            call("log", Literal(0)).evaluate(ROW)

    def test_unknown_function_raises(self):
        with pytest.raises(QueryError):
            call("bogus", Literal(1)).evaluate(ROW)

    def test_null_argument_propagates(self):
        assert call("exp", MISSING).evaluate(ROW) is None
