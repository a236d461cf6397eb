"""Index-aware SQL planner: plan trees, ``EXPLAIN``, and plan modes.

:func:`plan_select` turns a parsed :class:`~repro.minidb.sql.SelectStatement`
into a :class:`Plan` — an operator tree plus the metadata EXPLAIN and the
cost-attribution layer need.  Two modes, selected per plan through the
``mode`` argument of :func:`plan_select` / ``execute_select``:

* ``"index"`` (the default): access paths go through indexes whenever a
  safe one exists —

  - equality conjuncts fully binding an index → :class:`IndexKeysLookup`
    with one key;
  - range conjuncts on an ordered index's leading column →
    :class:`IndexRangeScan`;
  - ``IN``-lists on an indexed column → :class:`IndexKeysLookup`
    (one ordered probe per distinct value);
  - graph conjuncts (``descendant_of`` / ``in_subtree`` /
    ``reachable_from``) → the graph index's id set, keying
    :class:`IndexKeysLookup` on the column's point index;
  - equi-joins whose inner key is covered by the inner table's primary
    key, or by a secondary index that has never seen a delete, →
    :class:`IndexNestedLoopJoin` (order-identical to the hash join it
    replaces: index postings and hash buckets both preserve heap
    insertion order);
  - base scans that survive are narrowed to the referenced columns
    (projection pushdown), skipped for ``SELECT *``.

* ``"scan"``: the legacy scan-and-filter pipeline, byte-for-byte — the
  reference plan the bit-transparency tests compare against.

Everything downstream of the access paths (filters, grouping, having,
projection, distinct, order, limit) is shared verbatim between modes, so
an index plan differs from its scan plan only in *how rows arrive*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from .buffer_pool import IOStats
from .errors import QueryError
from .expressions import And, ColumnRef, Expression, Literal
from .operators import (
    Distinct,
    Filter,
    GroupByAggregate,
    HashJoin,
    IndexKeysLookup,
    IndexNestedLoopJoin,
    IndexRangeScan,
    Limit,
    Operator,
    Project,
    RowDict,
    Sort,
    TableScan,
    explain_lines,
)
from .sql import (
    SelectStatement,
    SqlBinary,
    SqlColumn,
    SqlFunction,
    SqlIn,
    SqlLiteral,
    SqlParam,
    _AGGREGATE_FUNCS,
    _Compiler,
    _column_table,
    _contains_aggregate,
    _expr_name,
    _GRAPH_FUNCS,
    _split_where,
)

#: Valid planner modes: index-aware plans vs. the legacy scan pipeline.
PLANNER_MODES = ("index", "scan")

#: WHERE-clause functions the planner recognises as graph predicates.
GRAPH_FUNCS = _GRAPH_FUNCS

#: Operators that constitute an index access path, for plan inspection.
_INDEX_OPS = (IndexKeysLookup, IndexRangeScan, IndexNestedLoopJoin)


@dataclass(frozen=True)
class ExplainResult:
    """The rendered plan tree of one statement."""

    mode: str
    lines: tuple[str, ...]

    @property
    def text(self) -> str:
        return "\n".join(self.lines)

    @property
    def uses_index_path(self) -> bool:
        """Whether any access path in the plan goes through an index."""
        return any(
            line.lstrip().startswith(tuple(op.__name__ for op in _INDEX_OPS))
            for line in self.lines
        )

    def __str__(self) -> str:
        return self.text


@dataclass
class Plan:
    """An executable operator tree with its planning metadata."""

    root: Operator
    mode: str
    statement: Optional[SelectStatement] = None
    parameters: Mapping[str, Any] = field(default_factory=dict)

    def execute(self) -> list[RowDict]:
        return self.root.to_list()

    def explain(self) -> ExplainResult:
        return ExplainResult(mode=self.mode, lines=tuple(explain_lines(self.root)))

    def operators(self) -> list[Operator]:
        """Every operator in the tree, root first (pre-order)."""
        out: list[Operator] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children()))
        return out

    @property
    def uses_index_path(self) -> bool:
        return any(isinstance(op, _INDEX_OPS) for op in self.operators())

    def access_rows(self) -> tuple[int, int]:
        """``(index_rows, scan_rows)`` produced by the plan's access paths.

        Used by the distiller's cost attribution: rows that arrived
        through index probes are random-I/O lookups; rows from table
        scans are sequential.  Only meaningful after :meth:`execute`.
        """
        index_rows = scan_rows = 0
        for op in self.operators():
            if isinstance(op, _INDEX_OPS):
                index_rows += op.rows_out
            elif isinstance(op, TableScan):
                scan_rows += op.rows_out
        return index_rows, scan_rows


# ---------------------------------------------------------------------------
# Graph-predicate resolution
# ---------------------------------------------------------------------------


def _bare(name: str) -> str:
    return name.split(".")[-1]


def _find_interval_indexes(database: "Database"):  # noqa: F821
    """All (table, index) pairs carrying an interval index."""
    from .intervals import IntervalIndex

    found = []
    for name in database.table_names():
        table = database.table(name)
        for index in table.indexes.values():
            if isinstance(index, IntervalIndex):
                found.append((table, index))
    return found


def resolve_interval_index(
    database, column: str, index_hint: Optional[str] = None, label: str = "graph query"
):
    """The ``(table, IntervalIndex)`` answering a graph predicate on *column*.

    Resolution order: an explicit *index_hint* by name; otherwise the
    interval index whose id column matches the bare column name;
    otherwise — when the database has exactly one interval index — that
    one (the id domain is unambiguous).  Anything else is an error
    asking the caller to name the index.
    """
    candidates = _find_interval_indexes(database)
    if index_hint is not None:
        for table, index in candidates:
            if index.name == index_hint:
                return table, index
        raise QueryError(f"no interval index named {index_hint!r}")
    bare = _bare(column)
    matching = [
        (table, index) for table, index in candidates if index.key_columns[0] == bare
    ]
    if len(matching) == 1:
        return matching[0]
    if not matching and len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise QueryError(
            f"{label} on {column!r} needs an interval index "
            "(create one with kind='interval')"
        )
    raise QueryError(
        f"{label} on {column!r} is ambiguous: name the interval index explicitly"
    )


def point_index(table, column: str) -> Optional[str]:
    """An index of *table* keyed exactly on ``(column,)``, if any."""
    pk = table.schema.primary_key
    if pk and tuple(pk) == (column,):
        return f"{table.name}_pk"
    for index in table.indexes.values():
        if index.key_columns == (column,):
            return index.name
    return None


class _GraphPredicate:
    """A resolved graph conjunct: which graph index answers it, and how."""

    def __init__(self, func: SqlFunction, database, compiler: _Compiler) -> None:
        if len(func.args) not in (2, 3) or not isinstance(func.args[0], SqlColumn):
            raise QueryError(
                f"{func.name}() takes (column, root[, 'index_name']) arguments"
            )
        self.func_name = func.name
        self.column = func.args[0].name
        self.root = compiler.compile(func.args[1]).evaluate({})
        index_hint = None
        if len(func.args) == 3:
            hint = func.args[2]
            if not isinstance(hint, SqlLiteral) or not isinstance(hint.value, str):
                raise QueryError(f"{func.name}() index name must be a string literal")
            index_hint = hint.value
        _table, self.index = resolve_interval_index(
            database, self.column, index_hint, label=f"{func.name}()"
        )

    def ids(self) -> list[Any]:
        """The ids satisfying the predicate (their order reaches no output)."""
        if self.func_name == "descendant_of":
            return self.index.descendant_ids(self.root, include_self=False)
        if self.func_name == "in_subtree":
            return self.index.descendant_ids(self.root, include_self=True)
        return self.index.reachable_ids(self.root, include_self=True)

    def as_filter(self) -> Expression:
        """InSet fallback when no point index can take the id set."""
        from .expressions import InSet

        return InSet(ColumnRef(self.column), self.ids(), negated=False)


def _is_graph_conjunct(conj) -> bool:
    return isinstance(conj, SqlFunction) and conj.name in GRAPH_FUNCS


def compile_graph_function(node: SqlFunction, database, compiler: _Compiler) -> Expression:
    """Compile a graph predicate into an ``InSet`` membership test."""
    return _GraphPredicate(node, database, compiler).as_filter()


# ---------------------------------------------------------------------------
# Access-path selection (index mode)
# ---------------------------------------------------------------------------

_RANGE_OPS = {"<": "high_open", "<=": "high", ">": "low_open", ">=": "low"}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _constant_value(node, compiler: _Compiler):
    """The Python value of a literal/parameter node, or a miss marker."""
    if isinstance(node, SqlLiteral):
        return True, node.value
    if isinstance(node, SqlParam):
        if node.name not in compiler.parameters:
            raise QueryError(f"missing SQL parameter :{node.name}")
        return True, compiler.parameters[node.name]
    return False, None


def _bound_column(
    node, table, alias: str, ambiguous: frozenset = frozenset()
) -> Optional[str]:
    """The bare column name of *node* if it names a column of *table*.

    *ambiguous* holds bare column names that exist in more than one table
    of the statement: an unqualified reference to one of those cannot be
    attributed to *table*, so it never drives an access path.
    """
    if not isinstance(node, SqlColumn):
        return None
    name = node.name
    if "." in name:
        prefix, bare = name.split(".", 1)
        if prefix != alias or "." in bare:
            return None
        name = bare
    elif name in ambiguous:
        return None
    return name if name in table.schema else None


def _referenced_names(node, out: set[str]) -> None:
    """Collect every column name mentioned in a SQL AST expression."""
    if isinstance(node, SqlColumn):
        out.add(node.name)
    elif isinstance(node, SqlBinary):
        _referenced_names(node.left, out)
        _referenced_names(node.right, out)
    elif isinstance(node, SqlFunction):
        for arg in node.args:
            _referenced_names(arg, out)
    elif isinstance(node, SqlIn):
        _referenced_names(node.inner, out)
        for value in node.values or []:
            _referenced_names(value, out)
    elif hasattr(node, "inner"):
        _referenced_names(node.inner, out)


def _pushdown_columns(
    statement: SelectStatement, database, table, alias: str
) -> Optional[list[str]]:
    """Columns of *alias* the statement can touch, or None to keep them all.

    Conservative: a bare reference keeps the column on every table that
    has it; ``SELECT *`` (and subqueries, which are resolved before the
    scan runs) disables pushdown for the whole statement.
    """
    if any(item.is_star for item in statement.items):
        return None

    names: set[str] = set()
    for item in statement.items:
        _referenced_names(item.expression, names)
    if statement.where is not None:
        _referenced_names(statement.where, names)
    for expr in statement.group_by:
        _referenced_names(expr, names)
    if statement.having is not None:
        _referenced_names(statement.having, names)
    for expr, _asc in statement.order_by:
        _referenced_names(expr, names)

    keep = []
    for column in table.schema.column_names:
        if column in names or f"{alias}.{column}" in names:
            keep.append(column)
    if len(keep) == len(table.schema.column_names):
        return None  # nothing to prune
    return keep


def _inner_join_index(table, right_columns: Sequence[str]):
    """An index of *table* safe to drive an index-nested-loop join.

    Safe means order-identical to the hash join it replaces: the primary
    key (unique, so per-key order is trivial) or any index whose
    postings are still in heap order (:attr:`Index.in_heap_order`).
    """
    target = tuple(right_columns)
    pk = table.schema.primary_key
    if pk and tuple(pk) == target:
        return f"{table.name}_pk"
    for index in table.indexes.values():
        if index.key_columns == target and index.in_heap_order:
            return index.name
    return None


def _inl_cost_beats_hash(outer: Operator, inner_table, index_name: str) -> bool:
    """Whether an index-nested-loop join is cheaper than a hash join here.

    Costed with the engine's own simulated-I/O constants: INL pays one
    *random* read per outer row for the probe plus one per matching
    inner row; the hash join pays one *sequential* read plus hashing CPU
    per inner row to build its table.  With an unknown outer cardinality
    we assume "large" and keep the hash join — bulk pipelines (e.g. the
    Figure-4 distillation joins) must not degrade to per-row probes.
    """
    outer_est = outer.estimated_rows()
    if outer_est is None:
        return False
    inner_rows = inner_table.row_count
    if inner_rows == 0:
        return False
    index = inner_table._resolve_index(index_name)
    key_count = getattr(index, "key_count", 0)
    fanout = (len(index) / key_count) if key_count else 1.0
    costs = IOStats()
    inl_cost = outer_est * (1.0 + fanout) * costs.read_cost
    hash_cost = inner_rows * (costs.sequential_read_cost + costs.cpu_cost)
    return inl_cost < hash_cost


def _equality_path(
    conjuncts,
    used: set[int],
    table,
    alias: str,
    compiler: _Compiler,
    ambiguous: frozenset = frozenset(),
) -> Optional[tuple[str, list[Any], set[int]]]:
    """An index fully bound by equality conjuncts: (index, key, used ids)."""
    bound: dict[str, Any] = {}
    owner: dict[str, int] = {}
    for idx, conj in enumerate(conjuncts):
        if idx in used or not isinstance(conj, SqlBinary) or conj.op != "=":
            continue
        for column_node, value_node in ((conj.left, conj.right), (conj.right, conj.left)):
            column = _bound_column(column_node, table, alias, ambiguous)
            if column is None or column in bound:
                continue
            ok, value = _constant_value(value_node, compiler)
            if not ok:
                continue
            bound[column] = value
            owner[column] = idx
            break
    if not bound:
        return None
    candidates = []
    if table.schema.primary_key:
        candidates.append((f"{table.name}_pk", tuple(table.schema.primary_key)))
    candidates.extend((idx.name, idx.key_columns) for idx in table.indexes.values())
    for index_name, key_columns in candidates:
        if all(c in bound for c in key_columns):
            key = [bound[c] for c in key_columns]
            return index_name, key, {owner[c] for c in key_columns}
    return None


def _in_list_path(
    conjuncts,
    used: set[int],
    table,
    alias: str,
    compiler: _Compiler,
    ambiguous: frozenset = frozenset(),
) -> Optional[tuple[str, list[tuple], int]]:
    """A single-column IN-list probing an index: (index, keys, used id)."""
    for idx, conj in enumerate(conjuncts):
        if idx in used or not isinstance(conj, SqlIn) or conj.negated:
            continue
        if conj.values is None:  # IN-subquery: resolved by the compiler
            continue
        column = _bound_column(conj.inner, table, alias, ambiguous)
        if column is None:
            continue
        values = []
        constant = True
        for node in conj.values:
            ok, value = _constant_value(node, compiler)
            if not ok:
                constant = False
                break
            values.append(value)
        if not constant:
            continue
        index_name = point_index(table, column)
        if index_name is None:
            continue
        return index_name, [(v,) for v in values], idx
    return None


def _range_path(
    conjuncts,
    used: set[int],
    table,
    alias: str,
    compiler: _Compiler,
    ambiguous: frozenset = frozenset(),
) -> Optional[tuple[str, dict, set[int]]]:
    """Range conjuncts on a single-column ordered index.

    Multi-column ordered indexes are skipped: a bound on the leading
    column alone cannot be expressed as a closed tuple range (``col <= v``
    would need a ``(v, +inf)`` sentinel), so those queries keep the scan
    path rather than risk dropping prefix-equal keys.
    """
    from .index import OrderedIndex

    for index in table.indexes.values():
        if not isinstance(index, OrderedIndex) or len(index.key_columns) != 1:
            continue
        column = index.key_columns[0]
        bounds = {"low": None, "high": None, "include_low": True, "include_high": True}
        consumed: set[int] = set()
        for idx, conj in enumerate(conjuncts):
            if idx in used or not isinstance(conj, SqlBinary):
                continue
            op = conj.op
            if op not in _RANGE_OPS:
                continue
            left_col = _bound_column(conj.left, table, alias, ambiguous)
            right_col = _bound_column(conj.right, table, alias, ambiguous)
            if left_col == column:
                ok, value = _constant_value(conj.right, compiler)
            elif right_col == column:
                ok, value = _constant_value(conj.left, compiler)
                op = _FLIP[op]
            else:
                continue
            if not ok or value is None:
                continue
            if op in ("<", "<="):
                if bounds["high"] is None or value < bounds["high"][0]:
                    bounds["high"] = (value,)
                    bounds["include_high"] = op == "<="
                    consumed.add(idx)
            else:
                if bounds["low"] is None or value > bounds["low"][0]:
                    bounds["low"] = (value,)
                    bounds["include_low"] = op == ">="
                    consumed.add(idx)
        if consumed and (bounds["low"] is not None or bounds["high"] is not None):
            return index.name, bounds, consumed
    return None


# ---------------------------------------------------------------------------
# plan_select
# ---------------------------------------------------------------------------


def plan_select(
    database: "Database",  # noqa: F821
    statement: SelectStatement,
    parameters: Mapping[str, Any],
    mode: Optional[str] = None,
) -> Plan:
    """Build the plan tree for *statement*; *mode* defaults to ``"index"``."""
    mode = mode or "index"
    if mode not in PLANNER_MODES:
        raise QueryError(f"unknown planner mode {mode!r} (expected one of {PLANNER_MODES})")
    compiler = _Compiler(database, parameters, mode)
    aliases = [alias for _, alias in statement.tables]
    conjuncts = _split_where(statement.where)
    used: set[int] = set()
    indexed = mode == "index"
    single_table = len(statement.tables) == 1
    # Bare column names living in more than one of the statement's tables
    # cannot be attributed to the base table, so they never drive its
    # access path (alias-qualified references are always eligible).
    if single_table:
        ambiguous: frozenset = frozenset()
    else:
        seen: dict[str, int] = {}
        for t_name, _ in statement.tables:
            for column_name in database.table(t_name).schema.column_names:
                seen[column_name] = seen.get(column_name, 0) + 1
        ambiguous = frozenset(name for name, count in seen.items() if count > 1)

    # -- base access path --------------------------------------------------
    base_name, base_alias = statement.tables[0]
    base_table = database.table(base_name)
    plan: Optional[Operator] = None

    if indexed:
        # Graph conjuncts first: their id set keys a point-index lookup.
        for idx, conj in enumerate(conjuncts):
            if idx in used or not _is_graph_conjunct(conj):
                continue
            predicate = _GraphPredicate(conj, database, compiler)
            column = _bound_column(conj.args[0], base_table, base_alias, ambiguous)
            if column is not None:
                index_name = point_index(base_table, column)
                if index_name is not None:
                    plan = IndexKeysLookup(
                        base_table,
                        index_name,
                        [(v,) for v in predicate.ids()],
                        base_alias,
                    )
                    used.add(idx)
            break
        if plan is None:
            match = _equality_path(
                conjuncts, used, base_table, base_alias, compiler, ambiguous
            )
            if match is not None:
                index_name, key, consumed = match
                # IndexKeysLookup even for one key: it reads matches in
                # heap order, so a churned index still produces the scan
                # plan's row order bit-for-bit.
                plan = IndexKeysLookup(base_table, index_name, [key], base_alias)
                used |= consumed
        if plan is None:
            match = _in_list_path(
                conjuncts, used, base_table, base_alias, compiler, ambiguous
            )
            if match is not None:
                index_name, keys, consumed_idx = match
                plan = IndexKeysLookup(base_table, index_name, keys, base_alias)
                used.add(consumed_idx)
        if plan is None:
            match = _range_path(
                conjuncts, used, base_table, base_alias, compiler, ambiguous
            )
            if match is not None:
                index_name, bounds, consumed = match
                plan = IndexRangeScan(
                    base_table,
                    index_name,
                    base_alias,
                    low=bounds["low"],
                    high=bounds["high"],
                    include_low=bounds["include_low"],
                    include_high=bounds["include_high"],
                )
                used |= consumed
    if plan is None:
        columns = (
            _pushdown_columns(statement, database, base_table, base_alias)
            if indexed
            else None
        )
        plan = TableScan(base_table, base_alias, columns=columns)

    # -- joins (legacy connectivity logic, index-aware inner path) ---------
    joined_aliases = {base_alias}
    for table_name, alias in statement.tables[1:]:
        inner_table = database.table(table_name)
        left_keys: list[Expression] = []
        right_keys: list[Expression] = []
        right_columns: list[str] = []
        for idx, conj in enumerate(conjuncts):
            if idx in used or not isinstance(conj, SqlBinary) or conj.op != "=":
                continue
            if not isinstance(conj.left, SqlColumn) or not isinstance(conj.right, SqlColumn):
                continue
            left_table = _column_table(conj.left.name, aliases)
            right_table = _column_table(conj.right.name, aliases)

            # Unqualified columns: attribute them by schema membership.
            def owner(column: SqlColumn, qualified: Optional[str]) -> Optional[str]:
                if qualified is not None:
                    return qualified
                bare = column.name
                owners = []
                for t_name, t_alias in statement.tables:
                    if bare in database.table(t_name).schema:
                        owners.append(t_alias)
                if len(owners) == 1:
                    return owners[0]
                if alias in owners and any(o in joined_aliases for o in owners):
                    # Ambiguous but joinable: prefer pairing new alias with joined side.
                    return alias if qualified is None else qualified
                return owners[0] if owners else None

            lt = owner(conj.left, left_table)
            rt = owner(conj.right, right_table)
            if lt is None or rt is None:
                continue
            if lt in joined_aliases and rt == alias:
                left_keys.append(compiler.compile(conj.left))
                right_keys.append(compiler.compile(conj.right))
                right_columns.append(_bare(conj.right.name))
                used.add(idx)
            elif rt in joined_aliases and lt == alias:
                left_keys.append(compiler.compile(conj.right))
                right_keys.append(compiler.compile(conj.left))
                right_columns.append(_bare(conj.left.name))
                used.add(idx)
        inner_index = (
            _inner_join_index(inner_table, right_columns)
            if indexed and left_keys
            else None
        )
        if inner_index is not None and not _inl_cost_beats_hash(
            plan, inner_table, inner_index
        ):
            inner_index = None
        if inner_index is not None:
            plan = IndexNestedLoopJoin(plan, inner_table, inner_index, left_keys, alias)
        elif left_keys:
            plan = HashJoin(plan, TableScan(inner_table, alias), left_keys, right_keys)
        else:
            plan = HashJoin(
                plan, TableScan(inner_table, alias), [Literal(1)], [Literal(1)]
            )
        joined_aliases.add(alias)

    # -- residual filter ---------------------------------------------------
    remaining = [c for i, c in enumerate(conjuncts) if i not in used]
    if remaining:
        predicate = compiler.compile(remaining[0])
        for conj in remaining[1:]:
            predicate = And([predicate, compiler.compile(conj)])
        plan = Filter(plan, predicate)

    # -- SELECT list & grouping (shared verbatim between modes) ------------
    has_group = bool(statement.group_by)
    has_aggregates = any(
        item.expression is not None and _contains_aggregate(item.expression)
        for item in statement.items
    ) or (statement.having is not None and _contains_aggregate(statement.having))

    outputs: list[tuple[str, Expression]] = []
    star = any(item.is_star for item in statement.items)

    if has_group or has_aggregates:
        group_keys: list[tuple[str, Expression]] = []
        group_names: list[tuple[Any, str]] = []
        for i, group_expr in enumerate(statement.group_by):
            name = _expr_name(group_expr, f"group_{i}")
            group_keys.append((name, compiler.compile(group_expr)))
            group_names.append((group_expr, name))
        # Compile select items: aggregates register themselves on the compiler.
        # A non-aggregate select item that textually matches a GROUP BY
        # expression (e.g. ``floor(lastvisited / 60)``) is rewritten to
        # reference the grouped output column, as SQL semantics require.
        for i, item in enumerate(statement.items):
            if item.is_star:
                raise QueryError("SELECT * cannot be combined with GROUP BY/aggregates")
            name = item.alias or _expr_name(item.expression, f"col_{i}")
            matched = None
            if not _contains_aggregate(item.expression):
                for group_expr, group_name in group_names:
                    if item.expression == group_expr:
                        matched = ColumnRef(group_name)
                        break
            outputs.append(
                (
                    name,
                    matched
                    if matched is not None
                    else compiler.compile(item.expression, allow_aggregates=True),
                )
            )
        having_expr = (
            compiler.compile(statement.having, allow_aggregates=True)
            if statement.having is not None
            else None
        )
        plan = GroupByAggregate(plan, group_keys, compiler.aggregates, having=None)
        if having_expr is not None:
            plan = Filter(plan, having_expr)
        plan = Project(plan, outputs)
    elif not star:
        for i, item in enumerate(statement.items):
            name = item.alias or _expr_name(item.expression, f"col_{i}")
            outputs.append((name, compiler.compile(item.expression)))
        plan = Project(plan, outputs)
    # SELECT *: pass rows through (qualified + bare keys).

    if statement.distinct:
        plan = Distinct(plan)
    if statement.order_by:
        keys = []
        for expr, asc in statement.order_by:
            compiled: Optional[Expression] = None
            if has_group or has_aggregates:
                # ORDER BY may reference a GROUP BY expression or a select
                # alias; both resolve against the post-projection row.
                for item in statement.items:
                    if not item.is_star and expr == item.expression:
                        name = item.alias or _expr_name(item.expression, "")
                        if name:
                            compiled = ColumnRef(name)
                        break
                if compiled is None:
                    for i, group_expr in enumerate(statement.group_by):
                        if expr == group_expr:
                            compiled = ColumnRef(_expr_name(group_expr, f"group_{i}"))
                            break
                if (
                    compiled is None
                    and isinstance(expr, SqlFunction)
                    and expr.name in _AGGREGATE_FUNCS
                ):
                    compiled = compiler.compile(expr, allow_aggregates=True)
            if compiled is None:
                compiled = compiler.compile(expr)
            keys.append((compiled, asc))
        plan = Sort(plan, keys)
    if statement.limit is not None:
        plan = Limit(plan, statement.limit)
    return Plan(root=plan, mode=mode, statement=statement, parameters=dict(parameters))
