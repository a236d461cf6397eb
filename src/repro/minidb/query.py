"""A fluent query builder with a small rule-based planner.

The builder composes the operators from :mod:`repro.minidb.operators`
into plans; the planner applies a few simple but effective rules:

* an equality predicate on an indexed column turns a table scan into an
  index lookup;
* graph predicates (:meth:`Query.descendants_of` /
  :meth:`Query.reachable_from`) become interval-index window range scans
  when the base table carries the interval index, indexed id-set probes
  when another index covers the tested column, and membership filters
  otherwise;
* equi-joins use a hash join by default, a sort-merge join when
  requested (``join(..., algorithm="merge")``) — the paper's BulkProbe
  is phrased to make sort-merge profitable — or an index-nested-loop
  join (``algorithm="index"``) probing the inner table's index once per
  outer row.

Example::

    rows = (Query(db, "LINK")
            .join("CRAWL", on=[("oid_dst", "oid")], algorithm="index")
            .where(col("relevance") > lit(0.5))
            .group_by("oid_dst")
            .aggregate("sum", col("wgt_fwd"), "score")
            .run())

``Query.explain()`` renders the chosen plan without running it.
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
    IndexKeysLookup,
    IndexLookup,
    IndexNestedLoopJoin,
    IndexRangeScan,
    LeftOuterJoin,
    Limit,
    NestedLoopJoin,
    Operator,
    Project,
    RowDict,
    RowSource,
    Sort,
    SortMergeJoin,
    TableScan,
    explain_lines,
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
        self._having: Optional[Expression] = None
        self._projections: Optional[list[tuple[str, Expression]]] = None
        self._order: list[tuple[Expression, bool]] = []
        self._limit: Optional[int] = None
        self._offset: int = 0
        self._distinct = False
        self._graph: list[dict[str, Any]] = []
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
        residual: Optional[Expression] = None,
    ) -> "Query":
        """Join with another table (by name) or a materialised row iterable.

        ``on`` is a list of ``(left_column, right_column)`` equality pairs.
        ``how`` is ``"inner"`` or ``"left"``; ``algorithm`` is ``"hash"``,
        ``"merge"``, or ``"nested"`` (ignored for left joins, which are
        hash-based).
        """
        if how not in ("inner", "left"):
            raise QueryError(f"unsupported join type {how!r}")
        if algorithm not in ("hash", "merge", "nested", "index"):
            raise QueryError(f"unsupported join algorithm {algorithm!r}")
        self._joins.append(
            {
                "other": other,
                "on": list(on),
                "alias": alias,
                "how": how,
                "algorithm": algorithm,
                "residual": residual,
            }
        )
        return self

    def descendants_of(
        self,
        column: str,
        root: Any,
        include_self: bool = False,
        via: Optional[str] = None,
    ) -> "Query":
        """Keep rows whose *column* is a tree descendant of *root*.

        Answered by an interval index: *via* names it explicitly,
        otherwise it is resolved from the column (see
        :func:`repro.minidb.planner.resolve_interval_index`).
        """
        self._graph.append(
            {
                "kind": "descendants",
                "column": column,
                "root": root,
                "include_self": include_self,
                "via": via,
            }
        )
        return self

    def reachable_from(
        self, column: str, root: Any, via: Optional[str] = None
    ) -> "Query":
        """Keep rows whose *column* is graph-reachable from *root* (root included)."""
        self._graph.append(
            {
                "kind": "reachable",
                "column": column,
                "root": root,
                "include_self": True,
                "via": via,
            }
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

    def having(self, predicate: Expression) -> "Query":
        self._having = predicate
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
            plan = GroupByAggregate(plan, self._group_keys, self._aggregates, self._having)
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

    def explain(self) -> "ExplainResult":  # noqa: F821
        """Render the plan tree this query would execute."""
        from .planner import ExplainResult

        return ExplainResult(mode="index", lines=tuple(explain_lines(self.plan())))

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
            if self._graph:
                raise QueryError("graph predicates need a table-backed base")
            base: Operator = RowSource(self._base_rows or [], self._base_alias)
            return base, self._predicate
        if self._graph:
            return self._graph_base_plan()
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

    def _graph_base_plan(self) -> tuple[Operator, Optional[Expression]]:
        """Access path for graph predicates: the first spec that can drive
        the base becomes a window range scan (or an indexed id-set probe);
        the rest degrade to membership filters."""
        from .expressions import InSet
        from .planner import point_index, resolve_interval_index

        base: Optional[Operator] = None
        filters: list[Expression] = []
        for spec in self._graph:
            table, index = resolve_interval_index(
                self.database, spec["column"], spec["via"], label=f"{spec['kind']} query"
            )
            bare = spec["column"].split(".")[-1]
            driving = (
                base is None
                and table.name == self._base_table.name
                and bare == index.key_columns[0]
            )
            if driving:
                base = IndexRangeScan(
                    self._base_table,
                    index.name,
                    self._base_alias,
                    mode="reachable" if spec["kind"] == "reachable" else "descendants",
                    root=spec["root"],
                    include_root=spec["include_self"],
                )
                continue
            ids = (
                index.reachable_ids(spec["root"])
                if spec["kind"] == "reachable"
                else index.descendant_ids(spec["root"], include_self=spec["include_self"])
            )
            if base is None and not self._joins:
                probe_index = point_index(self._base_table, bare)
                if probe_index is not None:
                    base = IndexKeysLookup(
                        self._base_table, probe_index, [(v,) for v in ids], self._base_alias
                    )
                    continue
            filters.append(InSet(ColumnRef(spec["column"]), ids))
        if base is None:
            base = TableScan(self._base_table, self._base_alias)
        parts = filters + ([self._predicate] if self._predicate is not None else [])
        if not parts:
            return base, None
        return base, parts[0] if len(parts) == 1 else And(parts)

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
            right = RowSource(other, alias)
            materialised = list(other)
            right = RowSource(materialised, alias)
            right_columns = sorted({k for row in materialised for k in row})
            if alias:
                right_columns = right_columns + [f"{alias}.{c}" for c in right_columns]
        left_keys = [col(l) for l, _ in join_spec["on"]]
        right_keys = [col(r) for _, r in join_spec["on"]]
        residual = join_spec["residual"]
        if join_spec["how"] == "left":
            return LeftOuterJoin(plan, right, left_keys, right_keys, right_columns, residual)
        algorithm = join_spec["algorithm"]
        if algorithm == "index":
            if not isinstance(other, str):
                raise QueryError("index joins need a table-backed inner side")
            target = tuple(r.split(".")[-1] for _, r in join_spec["on"])
            from .planner import _inner_join_index

            index_name = _inner_join_index(table, target)
            if index_name is None:
                raise QueryError(
                    f"no index-nested-loop-safe index on {table.name!r} "
                    f"covering {target!r} (need the primary key or an "
                    "append-only secondary index)"
                )
            return IndexNestedLoopJoin(
                plan, table, index_name, left_keys, alias or other, residual
            )
        if algorithm == "merge":
            return SortMergeJoin(plan, right, left_keys, right_keys, residual)
        if algorithm == "nested":
            predicate_parts: list[Expression] = [
                Comparison("=", lk, rk) for lk, rk in zip(left_keys, right_keys)
            ]
            if residual is not None:
                predicate_parts.append(residual)
            return NestedLoopJoin(plan, right, And(predicate_parts))
        return HashJoin(plan, right, left_keys, right_keys, residual)
