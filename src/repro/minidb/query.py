"""A fluent query builder over the operators of :mod:`repro.minidb.operators`.

It serves the code that composes plans in Python — the classifier's
BulkProbe and the database-backed distillers — with two rules:

* an equality predicate on an indexed column turns a table scan into an
  index lookup;
* equi-joins use a hash join by default, or a sort-merge join when
  requested (``join(..., algorithm="merge")``) — the paper's BulkProbe
  is phrased to make sort-merge profitable.  Left joins are hash-based.

Graph predicates (``descendant_of``/``in_subtree``/``reachable_from``),
index-nested-loop joins and ``EXPLAIN`` are SQL's: see
:meth:`Database.sql() <repro.minidb.database.Database.sql>` and
:mod:`repro.minidb.planner`.

Example::

    rows = (Query(db, "LINK")
            .join("CRAWL", on=[("oid_dst", "oid")])
            .where(col("relevance") > lit(0.5))
            .group_by("oid_dst")
            .aggregate("sum", col("wgt_fwd"), "score")
            .run())
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Union

from .errors import QueryError
from .expressions import (
    And,
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    col,
)
from .operators import (
    Aggregate,
    Distinct,
    Filter,
    GroupByAggregate,
    HashJoin,
    IndexLookup,
    LeftOuterJoin,
    Limit,
    Operator,
    Project,
    RowDict,
    RowSource,
    Sort,
    SortMergeJoin,
    TableScan,
)
from .table import Table


def _split_conjuncts(expr: Optional[Expression]) -> list[Expression]:
    if expr is None:
        return []
    if isinstance(expr, And):
        out: list[Expression] = []
        for part in expr.parts:
            out.extend(_split_conjuncts(part))
        return out
    return [expr]


def _indexable_equalities(
    predicate: Optional[Expression], table: Table, alias: str
) -> tuple[Optional[tuple[str, list[Any]]], list[Expression]]:
    """Find an index of *table* fully bound by equality conjuncts of *predicate*.

    Returns ``((index_name, key_values), residual_conjuncts)`` or
    ``(None, conjuncts)`` when no index applies.
    """
    conjuncts = _split_conjuncts(predicate)
    bound: dict[str, Any] = {}
    consumed: dict[str, Expression] = {}
    for conj in conjuncts:
        if not isinstance(conj, Comparison) or conj.op != "=":
            continue
        column_side, literal_side = conj.left, conj.right
        if isinstance(literal_side, ColumnRef) and isinstance(column_side, Literal):
            column_side, literal_side = literal_side, column_side
        if not isinstance(column_side, ColumnRef) or not isinstance(literal_side, Literal):
            continue
        name = column_side.name
        if name.startswith(alias + "."):
            name = name[len(alias) + 1 :]
        if "." in name or name not in table.schema:
            continue
        if name not in bound:
            bound[name] = literal_side.value
            consumed[name] = conj
    if not bound:
        return None, conjuncts
    # Try the primary key first, then every secondary index.
    candidates = []
    if table.schema.primary_key:
        candidates.append((f"{table.name}_pk", tuple(table.schema.primary_key)))
    candidates.extend((idx.name, idx.key_columns) for idx in table.indexes.values())
    for index_name, key_columns in candidates:
        if all(c in bound for c in key_columns):
            key = [bound[c] for c in key_columns]
            used = {consumed[c] for c in key_columns}
            residual = [c for c in conjuncts if c not in used]
            return (index_name, key), residual
    return None, conjuncts


class Query:
    """Fluent single-block query over the tables of a :class:`~repro.minidb.database.Database`."""

    def __init__(self, database: "Database", source: Union[str, Iterable[RowDict]], alias: Optional[str] = None) -> None:  # noqa: F821
        self.database = database
        self._joins: list[dict[str, Any]] = []
        self._predicate: Optional[Expression] = None
        self._group_keys: list[tuple[str, Expression]] = []
        self._aggregates: list[Aggregate] = []
        self._projections: Optional[list[tuple[str, Expression]]] = None
        self._order: list[tuple[Expression, bool]] = []
        self._limit: Optional[int] = None
        self._offset: int = 0
        self._distinct = False
        if isinstance(source, str):
            self._base_table: Optional[Table] = database.table(source)
            self._base_rows: Optional[Iterable[RowDict]] = None
            self._base_alias = alias or source
        else:
            self._base_table = None
            self._base_rows = source
            self._base_alias = alias

    # -- building ---------------------------------------------------------------
    def where(self, predicate: Expression) -> "Query":
        if self._predicate is None:
            self._predicate = predicate
        else:
            self._predicate = And([self._predicate, predicate])
        return self

    def join(
        self,
        other: Union[str, Iterable[RowDict]],
        on: Sequence[tuple[str, str]],
        alias: Optional[str] = None,
        how: str = "inner",
        algorithm: str = "hash",
    ) -> "Query":
        """Join with another table (by name) or a materialised row iterable.

        ``on`` is a list of ``(left_column, right_column)`` equality pairs.
        ``how`` is ``"inner"`` or ``"left"``; ``algorithm`` is ``"hash"``
        or ``"merge"`` (ignored for left joins, which are hash-based).
        """
        if how not in ("inner", "left"):
            raise QueryError(f"unsupported join type {how!r}")
        if algorithm not in ("hash", "merge"):
            raise QueryError(
                f"unsupported join algorithm {algorithm!r}; expected 'hash' or 'merge' "
                "(index-nested-loop joins are Database.sql()'s)"
            )
        self._joins.append(
            {"other": other, "on": list(on), "alias": alias, "how": how, "algorithm": algorithm}
        )
        return self

    def group_by(self, *columns: Union[str, tuple[str, Expression]]) -> "Query":
        for column in columns:
            if isinstance(column, tuple):
                name, expr = column
            else:
                name, expr = column.split(".")[-1], col(column)
            self._group_keys.append((name, expr))
        return self

    def aggregate(self, func: str, arg: Optional[Expression], output_name: str) -> "Query":
        self._aggregates.append(Aggregate(func, arg, output_name))
        return self

    def select(self, *outputs: Union[str, tuple[str, Expression]]) -> "Query":
        """Choose output columns; strings select columns, tuples compute expressions."""
        projections: list[tuple[str, Expression]] = []
        for output in outputs:
            if isinstance(output, tuple):
                name, expr = output
                projections.append((name, expr))
            else:
                projections.append((output.split(".")[-1], col(output)))
        self._projections = projections
        return self

    def distinct(self) -> "Query":
        self._distinct = True
        return self

    def order_by(self, *keys: tuple[Union[str, Expression], bool]) -> "Query":
        for key, ascending in keys:
            expr = col(key) if isinstance(key, str) else key
            self._order.append((expr, ascending))
        return self

    def limit(self, limit: int, offset: int = 0) -> "Query":
        self._limit = limit
        self._offset = offset
        return self

    # -- execution -----------------------------------------------------------------
    def plan(self) -> Operator:
        """Build the operator tree (exposed for plan-shape tests)."""
        plan, remaining_predicate = self._base_plan()
        for join_spec in self._joins:
            plan = self._apply_join(plan, join_spec)
        if remaining_predicate is not None:
            plan = Filter(plan, remaining_predicate)
        if self._aggregates or self._group_keys:
            plan = GroupByAggregate(plan, self._group_keys, self._aggregates)
        if self._projections is not None:
            plan = Project(plan, self._projections)
        if self._distinct:
            plan = Distinct(plan)
        if self._order:
            plan = Sort(plan, self._order)
        if self._limit is not None:
            plan = Limit(plan, self._limit, self._offset)
        return plan

    def run(self) -> list[RowDict]:
        return self.plan().to_list()

    def scalar(self) -> Any:
        """Run and return the single value of the single row (or None when empty)."""
        rows = self.run()
        if not rows:
            return None
        if len(rows) > 1 or len(rows[0]) != 1:
            raise QueryError("scalar() expects exactly one row with one column")
        return next(iter(rows[0].values()))

    # -- internals --------------------------------------------------------------------
    def _base_plan(self) -> tuple[Operator, Optional[Expression]]:
        if self._base_table is None:
            return RowSource(self._base_rows or [], self._base_alias), self._predicate
        # Only push an index access when the whole query is a single-table
        # block (joins change which conjuncts refer to the base table).
        if not self._joins:
            match, residual = _indexable_equalities(
                self._predicate, self._base_table, self._base_alias
            )
            if match is not None:
                index_name, key = match
                base = IndexLookup(self._base_table, index_name, key, self._base_alias)
                remaining = And(residual) if len(residual) > 1 else (residual[0] if residual else None)
                return base, remaining
        return TableScan(self._base_table, self._base_alias), self._predicate

    def _apply_join(self, plan: Operator, join_spec: dict[str, Any]) -> Operator:
        other = join_spec["other"]
        alias = join_spec["alias"]
        if isinstance(other, str):
            table = self.database.table(other)
            right: Operator = TableScan(table, alias or other)
            right_columns = [
                f"{alias or other}.{c}" for c in table.schema.column_names
            ] + list(table.schema.column_names)
        else:
            materialised = list(other)
            right = RowSource(materialised, alias)
            right_columns = sorted({k for row in materialised for k in row})
            if alias:
                right_columns = right_columns + [f"{alias}.{c}" for c in right_columns]
        left_keys = [col(l) for l, _ in join_spec["on"]]
        right_keys = [col(r) for _, r in join_spec["on"]]
        if join_spec["how"] == "left":
            return LeftOuterJoin(plan, right, left_keys, right_keys, right_columns)
        if join_spec["algorithm"] == "merge":
            return SortMergeJoin(plan, right, left_keys, right_keys)
        return HashJoin(plan, right, left_keys, right_keys)
