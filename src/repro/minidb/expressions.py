"""A small typed expression tree used by predicates, projections, and updates.

Expressions are evaluated against a *row context*: a mapping from column
name to value.  Qualified names (``"CRAWL.oid"``) and bare names
(``"oid"``) are both supported; joins produce contexts keyed by the
qualified form with bare-name aliases when unambiguous.

The expression language covers what the paper's SQL snippets need:
comparisons, boolean connectives, arithmetic, ``IN`` (including
subquery results materialised to a set), ``COALESCE``, ``EXP``/``LOG``,
and NULL-aware semantics (any comparison with NULL is false, as in SQL's
three-valued logic collapsed to "unknown = not matched").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from .errors import QueryError

RowContext = Mapping[str, Any]


class Expression:
    """Base class for all expressions (built by the SQL compiler)."""

    def evaluate(self, ctx: RowContext) -> Any:
        raise NotImplementedError


@dataclass(eq=False)
class Literal(Expression):
    """A constant value."""

    value: Any

    def evaluate(self, ctx: RowContext) -> Any:
        return self.value

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


@dataclass(eq=False)
class ColumnRef(Expression):
    """A reference to a column by (possibly qualified) name."""

    name: str

    def evaluate(self, ctx: RowContext) -> Any:
        if self.name in ctx:
            return ctx[self.name]
        # Fall back: a bare name matching exactly one qualified key.
        if "." not in self.name:
            matches = [k for k in ctx if k.endswith("." + self.name)]
            if len(matches) == 1:
                return ctx[matches[0]]
            if len(matches) > 1:
                raise QueryError(f"ambiguous column {self.name!r}: {sorted(matches)}")
        else:
            bare = self.name.split(".", 1)[1]
            if bare in ctx:
                return ctx[bare]
        raise QueryError(f"unknown column {self.name!r}; row has {sorted(ctx)}")

    def __repr__(self) -> str:
        return f"col({self.name!r})"


@dataclass(eq=False)
class Comparison(Expression):
    """Binary comparison with SQL NULL semantics (NULL never matches)."""

    op: str
    left: Expression
    right: Expression

    def evaluate(self, ctx: RowContext) -> bool:
        lhs = self.left.evaluate(ctx)
        rhs = self.right.evaluate(ctx)
        if lhs is None or rhs is None:
            return False
        if self.op == "=":
            return lhs == rhs
        if self.op in ("<>", "!="):
            return lhs != rhs
        if self.op == "<":
            return lhs < rhs
        if self.op == "<=":
            return lhs <= rhs
        if self.op == ">":
            return lhs > rhs
        if self.op == ">=":
            return lhs >= rhs
        raise QueryError(f"unknown comparison operator {self.op!r}")

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(eq=False)
class Arithmetic(Expression):
    """Binary arithmetic; NULL operands propagate to NULL."""

    op: str
    left: Expression
    right: Expression

    def evaluate(self, ctx: RowContext) -> Any:
        lhs = self.left.evaluate(ctx)
        rhs = self.right.evaluate(ctx)
        if lhs is None or rhs is None:
            return None
        if self.op == "+":
            return lhs + rhs
        if self.op == "-":
            return lhs - rhs
        if self.op == "*":
            return lhs * rhs
        if self.op == "/":
            if rhs == 0:
                raise QueryError("division by zero")
            return lhs / rhs
        raise QueryError(f"unknown arithmetic operator {self.op!r}")

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(eq=False)
class And(Expression):
    parts: Sequence[Expression]

    def evaluate(self, ctx: RowContext) -> bool:
        return all(bool(p.evaluate(ctx)) for p in self.parts)

    def __repr__(self) -> str:
        return " AND ".join(repr(p) for p in self.parts)


@dataclass(eq=False)
class Or(Expression):
    parts: Sequence[Expression]

    def evaluate(self, ctx: RowContext) -> bool:
        return any(bool(p.evaluate(ctx)) for p in self.parts)

    def __repr__(self) -> str:
        return " OR ".join(repr(p) for p in self.parts)


@dataclass(eq=False)
class Not(Expression):
    inner: Expression

    def evaluate(self, ctx: RowContext) -> bool:
        return not bool(self.inner.evaluate(ctx))

    def __repr__(self) -> str:
        return f"NOT ({self.inner!r})"


@dataclass(eq=False)
class IsNull(Expression):
    inner: Expression
    negated: bool = False

    def evaluate(self, ctx: RowContext) -> bool:
        result = self.inner.evaluate(ctx) is None
        return not result if self.negated else result


@dataclass(eq=False)
class InSet(Expression):
    """``expr IN (v1, v2, ...)`` — values may come from a materialised subquery.

    The values are held as a set, so a membership test costs one hash
    probe, and EXPLAIN prints their count rather than the values.
    """

    inner: Expression
    values: Iterable[Any]
    negated: bool = False

    def __post_init__(self) -> None:
        self.values = frozenset(self.values)

    def evaluate(self, ctx: RowContext) -> bool:
        value = self.inner.evaluate(ctx)
        if value is None:
            return False
        return (value in self.values) != self.negated

    def __repr__(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        return f"{self.inner!r} {op} <{len(self.values)} values>"


@dataclass(eq=False)
class FunctionCall(Expression):
    """Scalar function application.

    Supported: ``coalesce``, ``exp``, ``log``, ``abs``, ``min``, ``max``,
    ``length``.  This covers the monitoring queries in §3.7 of the paper
    (e.g. ``avg(exp(relevance))`` combines :class:`FunctionCall` with the
    aggregation layer in :mod:`repro.minidb.operators`).
    """

    name: str
    args: Sequence[Expression]

    def evaluate(self, ctx: RowContext) -> Any:
        name = self.name.lower()
        values = [a.evaluate(ctx) for a in self.args]
        if name == "coalesce":
            for v in values:
                if v is not None:
                    return v
            return None
        if any(v is None for v in values):
            return None
        if name == "exp":
            return math.exp(values[0])
        if name == "log":
            if values[0] <= 0:
                raise QueryError("log of non-positive value")
            return math.log(values[0])
        if name == "abs":
            return abs(values[0])
        if name == "min":
            return min(values)
        if name == "max":
            return max(values)
        if name == "length":
            return len(values[0])
        if name == "floor":
            return math.floor(values[0])
        if name == "ceil":
            return math.ceil(values[0])
        if name == "sqrt":
            return math.sqrt(values[0])
        raise QueryError(f"unknown function {self.name!r}")
