"""A compact SQL dialect for ad-hoc queries against a minidb Database.

One of the paper's practical arguments for building the crawler on a
DBMS is that "it became trivial to write ad-hoc SQL queries to monitor
the crawler and diagnose problems such as stagnation" (§3.1, §3.7).
This module provides enough SQL for those queries — and for the
distillation statements of Figure 4 — without pretending to be a full
SQL-92 implementation.

Supported statements::

    SELECT [DISTINCT] select_list
    FROM table [alias] [, table [alias]]...
    [WHERE predicate]
    [GROUP BY expr [, expr]...]
    [HAVING predicate]
    [ORDER BY expr [ASC|DESC] [, ...]]
    [LIMIT n]

    INSERT INTO table [(col, ...)] VALUES (v, ...) [, (v, ...)]...
    INSERT INTO table [(col, ...)] SELECT ...
    UPDATE table SET col = expr [, col = expr]... [WHERE predicate]
    DELETE FROM table [WHERE predicate]
    EXPLAIN SELECT ...

Expressions support the usual comparison operators, ``AND``/``OR``/``NOT``,
arithmetic, ``IN (SELECT ...)``, ``IN (literal, ...)``, ``IS [NOT] NULL``,
scalar subqueries ``(SELECT ...)``, named parameters ``:name``, and the
functions ``exp``, ``log``, ``abs``, ``coalesce``, ``length``.  Aggregates
(``count``, ``sum``, ``avg``, ``min``, ``max``) are allowed in the select
list and HAVING clause of grouped queries.  Three *graph predicates* —
``descendant_of(col, root)``, ``in_subtree(col, root)`` and
``reachable_from(col, root[, 'index_name'])`` — test membership against
the id set of a graph index (``kind="interval"``,
:mod:`repro.minidb.intervals`), read through the column's point index
when the table has one.

Plan construction lives in :mod:`repro.minidb.planner`: comma-separated
FROM lists join on the connecting equality conjuncts of the WHERE clause
(the style used by Figure 4's distillation SQL), remaining conjuncts
become filters, and in the default ``index`` planner mode eligible scans
and hash joins are replaced by index probes.  ``EXPLAIN SELECT ...``
returns the plan tree, one row per line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from .errors import QueryError, SQLSyntaxError
from .expressions import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    InSet,
    IsNull,
    Literal,
    Not,
    Or,
)
from .operators import Aggregate, RowDict

_AGGREGATE_FUNCS = {"count", "sum", "avg", "min", "max"}

#: WHERE-clause predicates answered by a graph index (see planner.py).
_GRAPH_FUNCS = ("descendant_of", "in_subtree", "reachable_from")

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+(e[+-]?\d+)?|\d+e[+-]?\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<param>:[A-Za-z_][A-Za-z0-9_]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<op><>|<=|>=|!=|=|<|>|\(|\)|,|\*|\+|-|/)
    """,
    re.VERBOSE | re.IGNORECASE,
)


@dataclass
class _Token:
    kind: str
    value: str

    def upper(self) -> str:
        return self.value.upper()


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SQLSyntaxError(f"cannot tokenize SQL near: {text[pos:pos + 30]!r}")
        pos = match.end()
        kind = match.lastgroup or ""
        if kind == "ws":
            continue
        tokens.append(_Token(kind, match.group()))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass
class SelectItem:
    expression: "SqlExpr"
    alias: Optional[str]
    is_star: bool = False


@dataclass
class SelectStatement:
    items: list[SelectItem]
    tables: list[tuple[str, str]]  # (table name, alias)
    where: Optional["SqlExpr"]
    group_by: list["SqlExpr"]
    having: Optional["SqlExpr"]
    order_by: list[tuple["SqlExpr", bool]]
    limit: Optional[int]
    distinct: bool = False


@dataclass
class InsertStatement:
    table: str
    columns: Optional[list[str]]
    values: Optional[list[list["SqlExpr"]]]
    select: Optional[SelectStatement]


@dataclass
class UpdateStatement:
    table: str
    assignments: list[tuple[str, "SqlExpr"]]
    where: Optional["SqlExpr"]


@dataclass
class DeleteStatement:
    table: str
    where: Optional["SqlExpr"]


@dataclass
class ExplainStatement:
    """``EXPLAIN SELECT ...`` — render the plan instead of executing it."""

    select: SelectStatement


# SQL expression AST nodes (kept separate from runtime Expression so that
# aggregates and subqueries can be handled by the executor).


@dataclass
class SqlColumn:
    name: str


@dataclass
class SqlLiteral:
    value: Any


@dataclass
class SqlParam:
    name: str


@dataclass
class SqlBinary:
    op: str
    left: "SqlExpr"
    right: "SqlExpr"


@dataclass
class SqlUnaryNot:
    inner: "SqlExpr"


@dataclass
class SqlIsNull:
    inner: "SqlExpr"
    negated: bool


@dataclass
class SqlIn:
    inner: "SqlExpr"
    values: Optional[list["SqlExpr"]]
    subquery: Optional[SelectStatement]
    negated: bool


@dataclass
class SqlFunction:
    name: str
    args: list["SqlExpr"]
    star: bool = False


@dataclass
class SqlSubquery:
    select: SelectStatement


SqlExpr = Any  # union of the dataclasses above


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ---------------------------------------------------
    def _peek(self, offset: int = 0) -> Optional[_Token]:
        index = self.pos + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise SQLSyntaxError("unexpected end of SQL")
        self.pos += 1
        return token

    def _accept_keyword(self, *keywords: str) -> Optional[str]:
        token = self._peek()
        if token is not None and token.kind == "name" and token.upper() in keywords:
            self.pos += 1
            return token.upper()
        return None

    def _expect_keyword(self, keyword: str) -> None:
        if self._accept_keyword(keyword) is None:
            token = self._peek()
            raise SQLSyntaxError(f"expected {keyword}, found {token.value if token else 'end'!r}")

    def _accept_op(self, op: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "op" and token.value == op:
            self.pos += 1
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._accept_op(op):
            token = self._peek()
            raise SQLSyntaxError(f"expected {op!r}, found {token.value if token else 'end'!r}")

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    # -- statements ---------------------------------------------------------
    def parse_statement(self) -> Any:
        keyword = self._accept_keyword(
            "SELECT", "INSERT", "UPDATE", "DELETE", "WITH", "EXPLAIN"
        )
        if keyword == "EXPLAIN":
            inner = self.parse_statement()
            if not isinstance(inner, SelectStatement):
                raise SQLSyntaxError("EXPLAIN supports SELECT statements only")
            return ExplainStatement(inner)
        if keyword == "SELECT":
            return self._parse_select_body()
        if keyword == "INSERT":
            return self._parse_insert()
        if keyword == "UPDATE":
            return self._parse_update()
        if keyword == "DELETE":
            return self._parse_delete()
        token = self._peek()
        raise SQLSyntaxError(f"unsupported statement starting at {token.value if token else 'end'!r}")

    def _parse_select(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        return self._parse_select_body()

    def _parse_select_body(self) -> SelectStatement:
        distinct = self._accept_keyword("DISTINCT") is not None
        items = [self._parse_select_item()]
        while self._accept_op(","):
            items.append(self._parse_select_item())
        self._expect_keyword("FROM")
        tables = [self._parse_table_ref()]
        while self._accept_op(","):
            tables.append(self._parse_table_ref())
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expr()
        group_by: list[SqlExpr] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_expr())
            while self._accept_op(","):
                group_by.append(self._parse_expr())
        having = None
        if self._accept_keyword("HAVING"):
            having = self._parse_expr()
        order_by: list[tuple[SqlExpr, bool]] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_op(","):
                order_by.append(self._parse_order_item())
        limit = None
        if self._accept_keyword("LIMIT"):
            token = self._next()
            if token.kind != "number":
                raise SQLSyntaxError(f"LIMIT expects a number, found {token.value!r}")
            limit = int(float(token.value))
        return SelectStatement(
            items=items,
            tables=tables,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _parse_select_item(self) -> SelectItem:
        if self._accept_op("*"):
            return SelectItem(expression=None, alias=None, is_star=True)
        expr = self._parse_expr()
        alias = None
        if self._accept_keyword("AS"):
            alias_token = self._next()
            alias = alias_token.value
        else:
            token = self._peek()
            if (
                token is not None
                and token.kind == "name"
                and token.upper() not in ("FROM",)
            ):
                alias = self._next().value
        return SelectItem(expression=expr, alias=alias)

    def _parse_order_item(self) -> tuple[SqlExpr, bool]:
        expr = self._parse_expr()
        ascending = True
        keyword = self._accept_keyword("ASC", "DESC")
        if keyword == "DESC":
            ascending = False
        return expr, ascending

    def _parse_table_ref(self) -> tuple[str, str]:
        token = self._next()
        if token.kind != "name":
            raise SQLSyntaxError(f"expected table name, found {token.value!r}")
        name = token.value
        alias = name
        if self._accept_keyword("AS"):
            alias = self._next().value
        else:
            peek = self._peek()
            if (
                peek is not None
                and peek.kind == "name"
                and peek.upper()
                not in ("WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "ON", "INNER", "LEFT", "JOIN")
            ):
                alias = self._next().value
        return name, alias

    def _parse_insert(self) -> InsertStatement:
        self._expect_keyword("INTO")
        table = self._next().value
        columns: Optional[list[str]] = None
        if self._accept_op("("):
            columns = [self._next().value]
            while self._accept_op(","):
                columns.append(self._next().value)
            self._expect_op(")")
        if self._accept_keyword("VALUES"):
            values = [self._parse_value_tuple()]
            while self._accept_op(","):
                values.append(self._parse_value_tuple())
            return InsertStatement(table=table, columns=columns, values=values, select=None)
        # INSERT ... SELECT, optionally wrapped in parentheses.
        wrapped = self._accept_op("(")
        select = self._parse_select()
        if wrapped:
            self._expect_op(")")
        return InsertStatement(table=table, columns=columns, values=None, select=select)

    def _parse_value_tuple(self) -> list[SqlExpr]:
        self._expect_op("(")
        values = [self._parse_expr()]
        while self._accept_op(","):
            values.append(self._parse_expr())
        self._expect_op(")")
        return values

    def _parse_update(self) -> UpdateStatement:
        table = self._next().value
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._accept_op(","):
            assignments.append(self._parse_assignment())
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expr()
        return UpdateStatement(table=table, assignments=assignments, where=where)

    def _parse_assignment(self) -> tuple[str, SqlExpr]:
        # Accept both "col = expr" and the paper's "(col) = expr".
        parenthesised = self._accept_op("(")
        column = self._next().value
        if parenthesised:
            self._expect_op(")")
        self._expect_op("=")
        return column, self._parse_expr()

    def _parse_delete(self) -> DeleteStatement:
        self._expect_keyword("FROM")
        table = self._next().value
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expr()
        return DeleteStatement(table=table, where=where)

    # -- expressions ------------------------------------------------------------
    def _parse_expr(self) -> SqlExpr:
        return self._parse_or()

    def _parse_or(self) -> SqlExpr:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            right = self._parse_and()
            left = SqlBinary("or", left, right)
        return left

    def _parse_and(self) -> SqlExpr:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            right = self._parse_not()
            left = SqlBinary("and", left, right)
        return left

    def _parse_not(self) -> SqlExpr:
        if self._accept_keyword("NOT"):
            return SqlUnaryNot(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> SqlExpr:
        left = self._parse_additive()
        if self._accept_keyword("IS"):
            negated = self._accept_keyword("NOT") is not None
            self._expect_keyword("NULL")
            return SqlIsNull(left, negated)
        negated = False
        if self._accept_keyword("NOT"):
            negated = True
            self._expect_keyword("IN")
            return self._parse_in(left, negated)
        if self._accept_keyword("IN"):
            return self._parse_in(left, negated)
        token = self._peek()
        if token is not None and token.kind == "op" and token.value in ("=", "<>", "!=", "<", "<=", ">", ">="):
            op = self._next().value
            right = self._parse_additive()
            return SqlBinary(op, left, right)
        return left

    def _parse_in(self, left: SqlExpr, negated: bool) -> SqlExpr:
        self._expect_op("(")
        if self._accept_keyword("SELECT"):
            select = self._parse_select_body()
            self._expect_op(")")
            return SqlIn(left, values=None, subquery=select, negated=negated)
        values = [self._parse_expr()]
        while self._accept_op(","):
            values.append(self._parse_expr())
        self._expect_op(")")
        return SqlIn(left, values=values, subquery=None, negated=negated)

    def _parse_additive(self) -> SqlExpr:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token is not None and token.kind == "op" and token.value in ("+", "-"):
                op = self._next().value
                right = self._parse_multiplicative()
                left = SqlBinary(op, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> SqlExpr:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token is not None and token.kind == "op" and token.value in ("*", "/"):
                op = self._next().value
                right = self._parse_unary()
                left = SqlBinary(op, left, right)
            else:
                return left

    def _parse_unary(self) -> SqlExpr:
        if self._accept_op("-"):
            return SqlBinary("-", SqlLiteral(0), self._parse_unary())
        if self._accept_op("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> SqlExpr:
        token = self._peek()
        if token is None:
            raise SQLSyntaxError("unexpected end of expression")
        if token.kind == "number":
            self._next()
            text = token.value
            if "." in text or "e" in text.lower():
                return SqlLiteral(float(text))
            return SqlLiteral(int(text))
        if token.kind == "string":
            self._next()
            return SqlLiteral(token.value[1:-1].replace("''", "'"))
        if token.kind == "param":
            self._next()
            return SqlParam(token.value[1:])
        if token.kind == "op" and token.value == "(":
            self._next()
            if self._accept_keyword("SELECT"):
                select = self._parse_select_body()
                self._expect_op(")")
                return SqlSubquery(select)
            expr = self._parse_expr()
            self._expect_op(")")
            return expr
        if token.kind == "name":
            upper = token.upper()
            if upper == "NULL":
                self._next()
                return SqlLiteral(None)
            if upper in ("TRUE", "FALSE"):
                self._next()
                return SqlLiteral(upper == "TRUE")
            self._next()
            # Function call?
            if self._accept_op("("):
                if self._accept_op("*"):
                    self._expect_op(")")
                    return SqlFunction(token.value.lower(), [], star=True)
                if self._accept_op(")"):
                    return SqlFunction(token.value.lower(), [])
                args = [self._parse_expr()]
                while self._accept_op(","):
                    args.append(self._parse_expr())
                self._expect_op(")")
                return SqlFunction(token.value.lower(), args)
            return SqlColumn(token.value)
        raise SQLSyntaxError(f"unexpected token {token.value!r}")


def parse_sql(text: str) -> Any:
    """Parse a single SQL statement into its AST."""
    parser = _Parser(_tokenize(text))
    statement = parser.parse_statement()
    if not parser.at_end():
        leftover = parser._peek()
        raise SQLSyntaxError(f"unexpected trailing token {leftover.value!r}")
    return statement


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


class _Compiler:
    """Compile SQL AST expressions into runtime Expressions, resolving
    parameters and (correlated-free) subqueries eagerly."""

    def __init__(
        self,
        database: "Database",  # noqa: F821
        parameters: Mapping[str, Any],
        mode: Optional[str] = None,
    ) -> None:
        self.database = database
        self.parameters = parameters
        #: Planner mode subqueries run under (the enclosing plan's).
        self.mode = mode
        self.aggregates: list[Aggregate] = []
        self._agg_counter = 0

    # Aggregates are replaced by column references into the post-aggregation
    # row; the GroupByAggregate operator computes them.
    def compile(self, node: SqlExpr, allow_aggregates: bool = False) -> Expression:
        if isinstance(node, SqlLiteral):
            return Literal(node.value)
        if isinstance(node, SqlColumn):
            return ColumnRef(node.name)
        if isinstance(node, SqlParam):
            if node.name not in self.parameters:
                raise QueryError(f"missing SQL parameter :{node.name}")
            return Literal(self.parameters[node.name])
        if isinstance(node, SqlBinary):
            if node.op == "and":
                return And([self.compile(node.left, allow_aggregates), self.compile(node.right, allow_aggregates)])
            if node.op == "or":
                return Or([self.compile(node.left, allow_aggregates), self.compile(node.right, allow_aggregates)])
            if node.op in ("=", "<>", "!=", "<", "<=", ">", ">="):
                return Comparison(node.op, self.compile(node.left, allow_aggregates), self.compile(node.right, allow_aggregates))
            return Arithmetic(node.op, self.compile(node.left, allow_aggregates), self.compile(node.right, allow_aggregates))
        if isinstance(node, SqlUnaryNot):
            return Not(self.compile(node.inner, allow_aggregates))
        if isinstance(node, SqlIsNull):
            return IsNull(self.compile(node.inner, allow_aggregates), node.negated)
        if isinstance(node, SqlIn):
            inner = self.compile(node.inner, allow_aggregates)
            if node.subquery is not None:
                rows = execute_select(self.database, node.subquery, self.parameters, self.mode)
                values = [next(iter(r.values())) for r in rows]
            else:
                values = [self.compile(v).evaluate({}) for v in (node.values or [])]
            return InSet(inner, values, node.negated)
        if isinstance(node, SqlSubquery):
            rows = execute_select(self.database, node.select, self.parameters, self.mode)
            if not rows:
                return Literal(None)
            if len(rows) > 1 or len(rows[0]) != 1:
                raise QueryError("scalar subquery must return one row with one column")
            return Literal(next(iter(rows[0].values())))
        if isinstance(node, SqlFunction):
            if node.name in _GRAPH_FUNCS:
                # Membership fallback: resolve the id set through the
                # graph index.  When a point index can take the id set
                # instead, the planner consumes the predicate before it
                # ever reaches a filter.
                from .planner import compile_graph_function

                return compile_graph_function(node, self.database, self)
            if node.name in _AGGREGATE_FUNCS:
                if not allow_aggregates:
                    raise QueryError(f"aggregate {node.name!r} not allowed here")
                arg = None
                if not node.star and node.args:
                    arg = self.compile(node.args[0])
                output_name = f"__agg{self._agg_counter}"
                self._agg_counter += 1
                self.aggregates.append(Aggregate(node.name, arg, output_name))
                return ColumnRef(output_name)
            args = [self.compile(a, allow_aggregates) for a in node.args]
            return FunctionCall(node.name, args)
        raise QueryError(f"cannot compile SQL expression node {node!r}")


def _contains_aggregate(node: SqlExpr) -> bool:
    if isinstance(node, SqlFunction):
        if node.name in _AGGREGATE_FUNCS:
            return True
        return any(_contains_aggregate(a) for a in node.args)
    if isinstance(node, SqlBinary):
        return _contains_aggregate(node.left) or _contains_aggregate(node.right)
    if isinstance(node, (SqlUnaryNot,)):
        return _contains_aggregate(node.inner)
    if isinstance(node, SqlIsNull):
        return _contains_aggregate(node.inner)
    if isinstance(node, SqlIn):
        return _contains_aggregate(node.inner)
    return False


def _expr_name(node: SqlExpr, fallback: str) -> str:
    if isinstance(node, SqlColumn):
        return node.name.split(".")[-1]
    if isinstance(node, SqlFunction):
        if node.args and isinstance(node.args[0], SqlColumn):
            return f"{node.name}_{node.args[0].name.split('.')[-1]}"
        return node.name
    return fallback


def _split_where(
    where: Optional[SqlExpr],
) -> list[SqlExpr]:
    if where is None:
        return []
    if isinstance(where, SqlBinary) and where.op == "and":
        return _split_where(where.left) + _split_where(where.right)
    return [where]


def _column_table(name: str, aliases: Sequence[str]) -> Optional[str]:
    if "." in name:
        prefix = name.split(".", 1)[0]
        if prefix in aliases:
            return prefix
    return None


def execute_select(
    database: "Database",  # noqa: F821
    statement: SelectStatement,
    parameters: Mapping[str, Any],
    mode: Optional[str] = None,
) -> list[RowDict]:
    """Execute a parsed SELECT statement and return its rows.

    Plan construction is delegated to :func:`repro.minidb.planner.plan_select`
    (imported lazily — the planner imports this module's AST).  The built
    plan is recorded as ``database.last_plan`` before execution so cost
    attribution and tests can inspect the access paths taken; subqueries
    plan and run during the outer plan's construction, so ``last_plan``
    always reflects the outermost statement.
    """
    from .planner import plan_select

    plan = plan_select(database, statement, parameters, mode=mode)
    database.last_plan = plan
    return plan.execute()


def execute_sql(
    database: "Database",  # noqa: F821
    text: str,
    parameters: Optional[Mapping[str, Any]] = None,
) -> list[RowDict]:
    """Parse and execute one SQL statement.

    SELECT returns its rows; INSERT/UPDATE/DELETE return a single row
    ``{"rowcount": n}``.  An INSERT builds all its rows (a ``SELECT``
    runs to the end first) and an UPDATE evaluates every matching
    row's ``SET`` against the table as it was before the statement;
    each then writes as one batch (:meth:`Table.insert_many`,
    :meth:`Table.update_rows`), so a statement that raises — a
    duplicate key on its last row, a value of the wrong type — leaves
    the table and its journal as they were.
    """
    parameters = parameters or {}
    statement = parse_sql(text)
    if isinstance(statement, SelectStatement):
        return execute_select(database, statement, parameters)
    if isinstance(statement, ExplainStatement):
        from .planner import plan_select

        plan = plan_select(database, statement.select, parameters)
        database.last_plan = plan
        return [{"plan": line} for line in plan.explain().lines]
    compiler = _Compiler(database, parameters)
    if isinstance(statement, InsertStatement):
        table = database.table(statement.table)
        columns = statement.columns or table.schema.column_names
        if statement.values is not None:
            if any(len(value_tuple) != len(columns) for value_tuple in statement.values):
                raise QueryError("INSERT value count does not match column count")
            rows = [
                {
                    column: compiler.compile(expr).evaluate({})
                    for column, expr in zip(columns, value_tuple)
                }
                for value_tuple in statement.values
            ]
        else:
            selected = execute_select(database, statement.select, parameters)
            rows = [dict(zip(columns, row.values())) for row in selected]
        table.insert_many(rows)
        return [{"rowcount": len(rows)}]
    if isinstance(statement, UpdateStatement):
        table = database.table(statement.table)
        predicate = (
            compiler.compile(statement.where) if statement.where is not None else None
        )
        assignments = [
            (column, compiler.compile(expr)) for column, expr in statement.assignments
        ]
        updates = []
        for rid, row in table.scan():
            ctx = table.schema.row_to_mapping(row)
            if predicate is None or predicate.evaluate(ctx):
                updates.append((rid, {column: expr.evaluate(ctx) for column, expr in assignments}))
        table.update_rows(updates)
        return [{"rowcount": len(updates)}]
    if isinstance(statement, DeleteStatement):
        table = database.table(statement.table)
        predicate = (
            compiler.compile(statement.where) if statement.where is not None else None
        )
        count = table.delete_where(predicate)
        return [{"rowcount": count}]
    raise QueryError(f"unsupported statement type {type(statement).__name__}")
