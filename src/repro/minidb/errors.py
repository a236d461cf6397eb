"""Exception hierarchy for the minidb relational engine.

All engine errors derive from :class:`MiniDBError` so callers can catch a
single base class.  More specific subclasses are raised where a caller can
reasonably act on the distinction (e.g. a missing table vs. a constraint
violation).
"""

from __future__ import annotations


class MiniDBError(Exception):
    """Base class for every error raised by :mod:`repro.minidb`."""


class CatalogError(MiniDBError):
    """A table or index name could not be resolved or already exists."""


class SchemaError(MiniDBError):
    """A row or column does not conform to a table schema."""


class ConstraintError(MiniDBError):
    """A primary-key or not-null constraint was violated."""


class QueryError(MiniDBError):
    """A query refers to unknown columns or is otherwise malformed."""


class SQLSyntaxError(QueryError):
    """The SQL text could not be parsed."""


class StorageError(MiniDBError):
    """A page or record identifier is invalid."""


class BufferPoolError(StorageError):
    """The buffer pool was asked to do something impossible (e.g. load a missing page)."""
