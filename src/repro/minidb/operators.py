"""Relational operators as composable iterators.

Every operator consumes and produces *row contexts*: dicts mapping
(possibly qualified) column names to values.  Qualified keys use the
table alias (``"CRAWL.oid"``); when a bare name is unambiguous it is
also available through :class:`~repro.minidb.expressions.ColumnRef`'s
fallback resolution.

The operator set covers what the paper's SQL needs:

* table scan / index scan
* filter, project (with computed expressions), distinct, sort, limit
* nested-loop join, hash join and index-nested-loop join
* group-by aggregation with ``sum``/``count``/``avg``/``min``/``max``

Each operator reports how many rows it produced (``rows_out``) so query
plans can be inspected in tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Sequence

from .errors import QueryError
from .expressions import Expression
from .table import Table

RowDict = dict[str, Any]


def _qualify(alias: str, mapping: dict[str, Any]) -> RowDict:
    """Build a row context with both qualified and bare keys for *alias*."""
    out: RowDict = {}
    for name, value in mapping.items():
        out[f"{alias}.{name}"] = value
        out[name] = value
    return out


def _merge(left: RowDict, right: RowDict) -> RowDict:
    """Merge two row contexts.

    Qualified keys never collide across distinct aliases.  For bare keys
    that exist on both sides with different values we drop the bare key,
    forcing queries to qualify the column (mirrors SQL ambiguity rules
    but is forgiving when the values agree, e.g. natural-join columns).
    """
    out = dict(left)
    for key, value in right.items():
        if key in out and "." not in key and out[key] != value:
            del out[key]
            continue
        out[key] = value
    return out


class Operator:
    """Base class: an iterable of row contexts with a produced-row counter."""

    def __init__(self) -> None:
        self.rows_out = 0

    def __iter__(self) -> Iterator[RowDict]:
        for row in self._produce():
            self.rows_out += 1
            yield row

    def _produce(self) -> Iterator[RowDict]:
        raise NotImplementedError

    def to_list(self) -> list[RowDict]:
        return list(iter(self))

    def estimated_rows(self) -> Optional[int]:
        """Cheap cardinality estimate for the planner; None when unknown.

        Access paths answer from index statistics (no I/O); everything
        else returns None and the planner assumes "large".
        """
        return None

    # -- EXPLAIN support ---------------------------------------------------
    def describe(self) -> str:
        """One EXPLAIN line for this node (no children)."""
        return type(self).__name__

    def children(self) -> tuple["Operator", ...]:
        """Child operators, left (outer) first."""
        found = []
        for attr in ("child", "left", "right"):
            node = getattr(self, attr, None)
            if isinstance(node, Operator):
                found.append(node)
        return tuple(found)


def _index_fanout(index: Any) -> int:
    """Average postings per distinct key, rounded up; >= 1 for non-empty."""
    keys = getattr(index, "key_count", 0)
    if not keys:
        return 0
    return -(-len(index) // keys)


def explain_lines(op: Operator, depth: int = 0) -> list[str]:
    """Render an operator tree as indented EXPLAIN lines, root first."""
    lines = ["  " * depth + op.describe()]
    for child in op.children():
        lines.extend(explain_lines(child, depth + 1))
    return lines


class TableScan(Operator):
    """Sequential scan of a table (page-at-a-time I/O through the buffer pool).

    ``columns`` restricts the row contexts to a subset of the schema
    (projection pushdown): rows are still read whole off their heap
    pages, but the per-row dict build — the CPU cost that dominates
    wide scans — only touches the named columns.
    """

    def __init__(
        self,
        table: Table,
        alias: Optional[str] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__()
        self.table = table
        self.alias = alias or table.name
        self.columns = tuple(columns) if columns is not None else None
        self._positions = (
            list(zip(self.columns, table.schema.project_positions(self.columns)))
            if self.columns is not None
            else None
        )

    def _produce(self) -> Iterator[RowDict]:
        alias = self.alias
        if self._positions is None:
            schema = self.table.schema
            for row in self.table.rows():
                yield _qualify(alias, schema.row_to_mapping(row))
        else:
            positions = self._positions
            for row in self.table.rows():
                yield _qualify(alias, {name: row[pos] for name, pos in positions})

    def estimated_rows(self) -> Optional[int]:
        return self.table.row_count

    def describe(self) -> str:
        label = f"TableScan({self.alias}"
        if self.columns is not None:
            label += f" cols=[{', '.join(self.columns)}]"
        return label + ")"


class IndexRangeScan(Operator):
    """Fetch rows through an :class:`~repro.minidb.index.OrderedIndex`
    *range* probe (``low <= key <= high``) rather than a full scan.

    Matched record ids are dereferenced in heap (page, slot) order, so
    the output is byte-identical to the filter-over-scan plan this
    operator replaces — the planner's bit-transparency guarantee — and
    the heap reads stay as sequential as the selectivity allows.
    """

    def __init__(
        self,
        table: Table,
        index_name: str,
        alias: Optional[str] = None,
        low: Optional[Sequence[Any]] = None,
        high: Optional[Sequence[Any]] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> None:
        super().__init__()
        self.table = table
        self.index_name = index_name
        self.alias = alias or table.name
        self.low = tuple(low) if low is not None else None
        self.high = tuple(high) if high is not None else None
        self.include_low = include_low
        self.include_high = include_high

    def _produce(self) -> Iterator[RowDict]:
        index = self.table._resolve_index(self.index_name)
        rids = sorted(
            rid
            for _key, rid in index.range_search(
                self.low, self.high, self.include_low, self.include_high
            )
        )
        schema = self.table.schema
        read = self.table.read
        for rid in rids:
            yield _qualify(self.alias, schema.row_to_mapping(read(rid)))

    def describe(self) -> str:
        lo = "(" if not self.include_low else "["
        hi = ")" if not self.include_high else "]"
        return (
            f"IndexRangeScan({self.alias}.{self.index_name} "
            f"{lo}{self.low!r} .. {self.high!r}{hi})"
        )


class IndexKeysLookup(Operator):
    """Fetch rows for a *batch* of equality keys through one index.

    The access path behind literal ``IN (...)`` lists and graph
    predicates, whose id set the graph index resolves first: one index
    probe per distinct key instead of a full scan.
    ``None``-bearing keys are skipped (SQL ``IN`` never matches NULL),
    duplicate keys probe once, and the matched record ids are read in
    heap (page, slot) order so the output is byte-identical to the
    filter-over-scan plan this replaces.
    """

    def __init__(
        self,
        table: Table,
        index_name: str,
        keys: Iterable[Sequence[Any]],
        alias: Optional[str] = None,
    ) -> None:
        super().__init__()
        self.table = table
        self.index_name = index_name
        self.keys = []
        seen: set[tuple] = set()
        for key in keys:
            key = tuple(key)
            if key in seen or any(part is None for part in key):
                continue
            seen.add(key)
            self.keys.append(key)
        self.alias = alias or table.name

    def _produce(self) -> Iterator[RowDict]:
        index = self.table._resolve_index(self.index_name)
        rids = [rid for key in self.keys for rid in index.search(key)]
        rids.sort()
        schema = self.table.schema
        read = self.table.read
        for rid in rids:
            yield _qualify(self.alias, schema.row_to_mapping(read(rid)))

    def estimated_rows(self) -> Optional[int]:
        fanout = _index_fanout(self.table._resolve_index(self.index_name))
        return len(self.keys) * fanout

    def describe(self) -> str:
        return f"IndexKeysLookup({self.alias}.{self.index_name} nkeys={len(self.keys)})"


class IndexNestedLoopJoin(Operator):
    """Equi-join that probes the inner table's index once per outer row.

    The indexed replacement for :class:`HashJoin` when the join key is
    covered by an index on the inner table: no build side, no hash table
    over the whole inner relation — each outer row costs one index probe
    plus the matching heap reads.  Output order is identical to the
    equivalent ``HashJoin(outer, TableScan(inner))``: hash buckets and
    index postings both preserve heap insertion order, and outer rows
    drive both loops.
    """

    def __init__(
        self,
        left: Operator,
        table: Table,
        index_name: str,
        left_keys: Sequence[Expression],
        alias: Optional[str] = None,
        residual: Optional[Expression] = None,
    ) -> None:
        super().__init__()
        self.left = left
        self.table = table
        self.index_name = index_name
        self.left_keys = list(left_keys)
        self.alias = alias or table.name
        self.residual = residual

    def _produce(self) -> Iterator[RowDict]:
        schema = self.table.schema
        alias = self.alias
        lookup = self.table.lookup
        index_name = self.index_name
        for lctx in self.left:
            key = tuple(k.evaluate(lctx) for k in self.left_keys)
            if any(part is None for part in key):
                # A NULL never equi-joins (HashJoin skips these on both
                # sides; NULL keys do sit in the index, so don't probe).
                continue
            for row in lookup(index_name, key):
                merged = _merge(lctx, _qualify(alias, schema.row_to_mapping(row)))
                if self.residual is None or self.residual.evaluate(merged):
                    yield merged

    def describe(self) -> str:
        return f"IndexNestedLoopJoin({self.alias}.{self.index_name})"

    def children(self) -> tuple[Operator, ...]:
        return (self.left,)


class Filter(Operator):
    def __init__(self, child: Operator, predicate: Expression) -> None:
        super().__init__()
        self.child = child
        self.predicate = predicate

    def _produce(self) -> Iterator[RowDict]:
        for ctx in self.child:
            if self.predicate.evaluate(ctx):
                yield ctx

    def describe(self) -> str:
        return f"Filter({self.predicate!r})"


class Project(Operator):
    """Evaluate a list of ``(output_name, expression)`` pairs per row."""

    def __init__(self, child: Operator, outputs: Sequence[tuple[str, Expression]]) -> None:
        super().__init__()
        self.child = child
        self.outputs = list(outputs)

    def _produce(self) -> Iterator[RowDict]:
        for ctx in self.child:
            yield {name: expr.evaluate(ctx) for name, expr in self.outputs}

    def describe(self) -> str:
        return f"Project([{', '.join(name for name, _ in self.outputs)}])"


class Distinct(Operator):
    def __init__(self, child: Operator) -> None:
        super().__init__()
        self.child = child

    def _produce(self) -> Iterator[RowDict]:
        seen: set[tuple] = set()
        for ctx in self.child:
            key = tuple(sorted(ctx.items()))
            if key not in seen:
                seen.add(key)
                yield ctx


class Sort(Operator):
    """Sort on a list of ``(expression, ascending)`` pairs.  NULLs sort last."""

    def __init__(self, child: Operator, keys: Sequence[tuple[Expression, bool]]) -> None:
        super().__init__()
        self.child = child
        self.keys = list(keys)

    def _produce(self) -> Iterator[RowDict]:
        rows = list(self.child)
        # Python's sort is stable, so apply keys from least to most significant.
        for expr, ascending in reversed(self.keys):
            def key_fn(ctx: RowDict, expr=expr):
                value = expr.evaluate(ctx)
                return (value is None, value if value is not None else 0)

            rows.sort(key=key_fn, reverse=not ascending)
        yield from rows


class Limit(Operator):
    def __init__(self, child: Operator, limit: int, offset: int = 0) -> None:
        super().__init__()
        if limit < 0 or offset < 0:
            raise QueryError("LIMIT/OFFSET must be non-negative")
        self.child = child
        self.limit = limit
        self.offset = offset

    def _produce(self) -> Iterator[RowDict]:
        produced = 0
        skipped = 0
        for ctx in self.child:
            if skipped < self.offset:
                skipped += 1
                continue
            if produced >= self.limit:
                break
            produced += 1
            yield ctx

    def estimated_rows(self) -> Optional[int]:
        inner = self.child.estimated_rows()
        if inner is None:
            return self.limit
        return min(self.limit, max(0, inner - self.offset))

    def describe(self) -> str:
        suffix = f" offset={self.offset}" if self.offset else ""
        return f"Limit({self.limit}{suffix})"


# -- joins ------------------------------------------------------------------------


class NestedLoopJoin(Operator):
    """The fallback join: O(n*m) comparisons, arbitrary predicate."""

    def __init__(self, left: Operator, right: Operator, predicate: Optional[Expression]) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.predicate = predicate

    def _produce(self) -> Iterator[RowDict]:
        right_rows = list(self.right)
        for lctx in self.left:
            for rctx in right_rows:
                merged = _merge(lctx, rctx)
                if self.predicate is None or self.predicate.evaluate(merged):
                    yield merged


class HashJoin(Operator):
    """Equi-join that builds a hash table on the right input."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: Sequence[Expression],
        right_keys: Sequence[Expression],
        residual: Optional[Expression] = None,
    ) -> None:
        super().__init__()
        if len(left_keys) != len(right_keys):
            raise QueryError("hash join needs matching key lists")
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.residual = residual

    def _produce(self) -> Iterator[RowDict]:
        buckets: dict[tuple, list[RowDict]] = {}
        for rctx in self.right:
            key = tuple(k.evaluate(rctx) for k in self.right_keys)
            if any(part is None for part in key):
                continue
            buckets.setdefault(key, []).append(rctx)
        for lctx in self.left:
            key = tuple(k.evaluate(lctx) for k in self.left_keys)
            if any(part is None for part in key):
                continue
            for rctx in buckets.get(key, ()):
                merged = _merge(lctx, rctx)
                if self.residual is None or self.residual.evaluate(merged):
                    yield merged

    def describe(self) -> str:
        keys = ", ".join(
            f"{left!r}={right!r}" for left, right in zip(self.left_keys, self.right_keys)
        )
        return f"HashJoin({keys})"


# -- aggregation ----------------------------------------------------------------------


@dataclass
class Aggregate:
    """One aggregate column: ``func`` over ``arg`` producing ``output_name``.

    ``func`` is one of ``count``, ``sum``, ``avg``, ``min``, ``max``.
    ``arg`` may be ``None`` for ``count(*)``.
    """

    func: str
    arg: Optional[Expression]
    output_name: str

    def __post_init__(self) -> None:
        self.func = self.func.lower()
        if self.func not in ("count", "sum", "avg", "min", "max"):
            raise QueryError(f"unknown aggregate {self.func!r}")
        if self.func != "count" and self.arg is None:
            raise QueryError(f"aggregate {self.func!r} needs an argument")


class _AggState:
    """Accumulator for one group."""

    def __init__(self, aggregates: Sequence[Aggregate]) -> None:
        self.aggregates = aggregates
        self.counts = [0] * len(aggregates)
        self.sums = [0.0] * len(aggregates)
        self.mins: list[Any] = [None] * len(aggregates)
        self.maxs: list[Any] = [None] * len(aggregates)

    def update(self, ctx: RowDict) -> None:
        for i, agg in enumerate(self.aggregates):
            if agg.arg is None:
                self.counts[i] += 1
                continue
            value = agg.arg.evaluate(ctx)
            if value is None:
                continue
            self.counts[i] += 1
            if agg.func in ("sum", "avg"):
                if not isinstance(value, (int, float)):
                    raise QueryError(f"{agg.func}() needs numbers, not {value!r}")
                self.sums[i] += value
            if self.mins[i] is None or value < self.mins[i]:
                self.mins[i] = value
            if self.maxs[i] is None or value > self.maxs[i]:
                self.maxs[i] = value

    def finalize(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for i, agg in enumerate(self.aggregates):
            if agg.func == "count":
                out[agg.output_name] = self.counts[i]
            elif agg.func == "sum":
                out[agg.output_name] = self.sums[i] if self.counts[i] else None
            elif agg.func == "avg":
                out[agg.output_name] = (
                    self.sums[i] / self.counts[i] if self.counts[i] else None
                )
            elif agg.func == "min":
                out[agg.output_name] = self.mins[i]
            elif agg.func == "max":
                out[agg.output_name] = self.maxs[i]
        return out


class GroupByAggregate(Operator):
    """Hash aggregation over grouping expressions.

    With an empty ``group_keys`` list this produces a single global row
    (``select sum(score) from HUBS``-style queries in Figure 4).
    """

    def __init__(
        self,
        child: Operator,
        group_keys: Sequence[tuple[str, Expression]],
        aggregates: Sequence[Aggregate],
        having: Optional[Expression] = None,
    ) -> None:
        super().__init__()
        self.child = child
        self.group_keys = list(group_keys)
        self.aggregates = list(aggregates)
        self.having = having

    def _produce(self) -> Iterator[RowDict]:
        groups: dict[tuple, tuple[dict[str, Any], _AggState]] = {}
        saw_rows = False
        for ctx in self.child:
            saw_rows = True
            key_values = {name: expr.evaluate(ctx) for name, expr in self.group_keys}
            key = tuple(key_values.values())
            if key not in groups:
                groups[key] = (key_values, _AggState(self.aggregates))
            groups[key][1].update(ctx)
        if not self.group_keys and not saw_rows:
            # Global aggregate over empty input still yields one row.
            groups[()] = ({}, _AggState(self.aggregates))
        for key_values, state in groups.values():
            out = dict(key_values)
            out.update(state.finalize())
            if self.having is None or self.having.evaluate(out):
                yield out

    def describe(self) -> str:
        keys = ", ".join(name for name, _ in self.group_keys)
        aggs = ", ".join(f"{a.func}->{a.output_name}" for a in self.aggregates)
        return f"GroupByAggregate(keys=[{keys}] aggs=[{aggs}])"
