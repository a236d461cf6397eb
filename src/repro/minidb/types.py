"""Column types, schemas, and rows for the minidb relational engine.

The engine hands rows around as plain tuples (and stores them as column
chunks, see :mod:`repro.minidb.pages`); a :class:`Schema` describes the
column names, types, and nullability, and knows how to validate, coerce
and size incoming values — a row at a time or a column batch at a time.
Types are intentionally small: the paper's tables (CRAWL, LINK, HUBS,
AUTH, DOCUMENT, TAXONOMY, STAT, BLOB) only need integers, floats,
strings, and raw blobs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from .errors import SchemaError


class ColumnType(enum.Enum):
    """Supported column types.

    ``INTEGER`` holds arbitrary-precision Python ints (used for 16-bit class
    ids, 32-bit term ids, and 64-bit URL oids alike).  ``FLOAT`` holds
    doubles (log-probabilities, scores).  ``TEXT`` holds unicode strings.
    ``BLOB`` holds opaque bytes (the paper's BLOB statistics records).
    """

    INTEGER = "integer"
    FLOAT = "float"
    TEXT = "text"
    BLOB = "blob"

    def validate(self, value: Any) -> Any:
        """Coerce *value* to this column type, raising :class:`SchemaError` if impossible."""
        if value is None:
            return None
        if self is ColumnType.INTEGER:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, int):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
            raise SchemaError(f"expected INTEGER, got {value!r}")
        if self is ColumnType.FLOAT:
            if isinstance(value, bool):
                raise SchemaError(f"expected FLOAT, got {value!r}")
            if isinstance(value, (int, float)):
                return float(value)
            raise SchemaError(f"expected FLOAT, got {value!r}")
        if self is ColumnType.TEXT:
            if isinstance(value, str):
                return value
            raise SchemaError(f"expected TEXT, got {value!r}")
        if self is ColumnType.BLOB:
            if isinstance(value, (bytes, bytearray)):
                return bytes(value)
            raise SchemaError(f"expected BLOB, got {value!r}")
        raise SchemaError(f"unknown column type {self!r}")  # pragma: no cover

    def storage_size(self, value: Any) -> int:
        """Approximate on-page size in bytes of *value*, used for page accounting."""
        if value is None:
            return 1
        if self is ColumnType.TEXT:
            return 4 + len(value.encode("utf-8"))
        if self is ColumnType.BLOB:
            return 4 + len(value)
        return 8


INTEGER = ColumnType.INTEGER
FLOAT = ColumnType.FLOAT
TEXT = ColumnType.TEXT
BLOB = ColumnType.BLOB


@dataclass(frozen=True)
class Column:
    """A single column definition."""

    name: str
    type: ColumnType
    nullable: bool = True

    def validate(self, value: Any) -> Any:
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is NOT NULL")
            return None
        return self.type.validate(value)


Row = tuple
"""A stored row: a plain tuple, positionally aligned with the schema columns."""


#: The Python type a stored value of each column type has.  A batch whose
#: values all have it (or are NULL in a nullable column) needs no
#: per-value validation; anything else goes through ``Column.validate``.
_EXACT_TYPE = {
    ColumnType.INTEGER: int,
    ColumnType.FLOAT: float,
    ColumnType.TEXT: str,
    ColumnType.BLOB: bytes,
}


@dataclass
class Schema:
    """An ordered collection of :class:`Column` definitions plus an optional primary key.

    The schema is the single source of truth for column order.  Rows are
    stored as tuples in schema order; :meth:`row_from_mapping` and
    :meth:`row_to_mapping` convert between dict-like and tuple forms.
    """

    columns: Sequence[Column]
    primary_key: Sequence[str] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if not names:
            raise SchemaError("a schema needs at least one column")
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        self._index = {c.name: i for i, c in enumerate(self.columns)}
        for key_col in self.primary_key:
            if key_col not in self._index:
                raise SchemaError(f"primary key column {key_col!r} not in schema")
        self._names = tuple(names)
        self._exact = tuple(_EXACT_TYPE[c.type] for c in self.columns)
        #: Per column, the type sets a batch may have and skip validation.
        self._accepted = tuple(
            ({exact}, {exact, type(None)}) if c.nullable else ({exact},)
            for c, exact in zip(self.columns, self._exact)
        )
        self._pk_positions = tuple(self._index[k] for k in self.primary_key)
        #: Positions of the columns whose stored size depends on the value.
        self._varying = tuple(
            position
            for position, c in enumerate(self.columns)
            if c.type in (ColumnType.TEXT, ColumnType.BLOB)
        )

    # -- introspection -------------------------------------------------
    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def position(self, name: str) -> int:
        """Return the position of column *name*, raising :class:`SchemaError` if unknown."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}; have {self.column_names}") from None

    # -- row helpers ----------------------------------------------------
    def validate_row(self, values: Sequence[Any]) -> Row:
        """Validate and coerce a positional row."""
        if len(values) != len(self.columns):
            raise SchemaError(
                f"row has {len(values)} values, schema has {len(self.columns)} columns"
            )
        return tuple(
            [
                value if type(value) is exact else column.validate(value)
                for value, exact, column in zip(values, self._exact, self.columns)
            ]
        )

    def validate_changes(self, changes: Mapping[str, Any]) -> dict[int, Any]:
        """A column-name change set as validated values by column position."""
        index, exact, columns = self._index, self._exact, self.columns
        writes = {}
        for name, value in changes.items():
            position = index.get(name)
            if position is None:
                raise SchemaError(f"unknown column {name!r}; have {self.column_names}")
            if type(value) is not exact[position]:
                value = columns[position].validate(value)
            writes[position] = value
        return writes

    def validate_column(self, position: int, values: Sequence[Any]) -> Sequence[Any]:
        """Validate and coerce a batch of values for the column at *position*.

        One set of the batch's types answers the common case — every
        value already has the column's exact Python type, or is NULL in
        a nullable column — and *values* is returned as it came.  Any
        other batch goes value by value through :meth:`Column.validate`,
        so what is accepted, coerced and rejected is the same.
        """
        if set(map(type, values)) in self._accepted[position]:
            return values
        validate = self.columns[position].validate
        return [validate(value) for value in values]

    def column_bytes(self, position: int, values: Sequence[Any]) -> int:
        """Total stored size in bytes of a list or tuple of a column's (validated) values."""
        if position in self._varying:
            return sum(map(self.columns[position].type.storage_size, values))
        return 8 * len(values) - 7 * values.count(None)

    def row_sizes(self, columns: Sequence[Sequence[Any]]) -> list[int]:
        """Stored size of each row of a (validated) column batch."""
        sizes = [8 * len(columns)] * len(columns[0])
        for position, values in enumerate(columns):
            if position in self._varying or None in values:
                sizeof = self.columns[position].type.storage_size
                sizes = [size + sizeof(value) - 8 for size, value in zip(sizes, values)]
        return sizes

    def positional(self, mapping: Mapping[str, Any]) -> list[Any]:
        """A column-name mapping's values in schema order (missing columns become NULL)."""
        if not self._index.keys() >= mapping.keys():
            unknown = set(mapping) - set(self._index)
            raise SchemaError(f"unknown columns {sorted(unknown)}; have {self.column_names}")
        return list(map(mapping.get, self._names))

    def row_from_mapping(self, mapping: Mapping[str, Any]) -> Row:
        """Build a validated positional row from a column-name mapping."""
        return self.validate_row(self.positional(mapping))

    def row_to_mapping(self, row: Sequence[Any]) -> dict[str, Any]:
        return dict(zip(self._names, row))

    def key_of(self, row: Sequence[Any]) -> tuple:
        """Extract the primary-key tuple from a row (empty tuple if no primary key)."""
        positions = self._pk_positions
        if len(positions) == 1:
            return (row[positions[0]],)
        return tuple(row[p] for p in positions)

    def row_size(self, row: Sequence[Any]) -> int:
        """Approximate stored size of *row* in bytes."""
        size = 8 * len(row) - 7 * row.count(None)
        for position in self._varying:
            if row[position] is not None:
                size += self.columns[position].type.storage_size(row[position]) - 8
        return size

    def project_positions(self, names: Iterable[str]) -> list[int]:
        return [self.position(n) for n in names]


def schema_to_spec(schema: Schema) -> tuple:
    """A plain-data description of *schema* (for WAL records and snapshots)."""
    return (
        [(c.name, c.type.value, c.nullable) for c in schema.columns],
        list(schema.primary_key),
    )


def schema_from_spec(spec: tuple) -> Schema:
    """Rebuild a :class:`Schema` from :func:`schema_to_spec` output."""
    columns, primary_key = spec
    return Schema(
        [Column(name, ColumnType(type_value), nullable) for name, type_value, nullable in columns],
        tuple(primary_key),
    )


def make_schema(*columns: tuple, primary_key: Sequence[str] = ()) -> Schema:
    """Convenience constructor.

    Each column spec is ``(name, type)`` or ``(name, type, nullable)``::

        schema = make_schema(("oid", INTEGER, False), ("score", FLOAT),
                             primary_key=["oid"])
    """
    cols = []
    for spec in columns:
        if len(spec) == 2:
            name, ctype = spec
            cols.append(Column(name, ctype))
        elif len(spec) == 3:
            name, ctype, nullable = spec
            cols.append(Column(name, ctype, nullable))
        else:
            raise SchemaError(f"bad column spec {spec!r}")
    return Schema(cols, tuple(primary_key))
