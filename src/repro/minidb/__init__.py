"""minidb: the relational-engine substrate for the Focus reproduction.

The paper implements its focused crawler, classifier, and distiller as
clients of IBM DB2, and argues that the database is "not merely a robust
data repository, but takes an active role in the computations involved in
resource discovery."  minidb is a small page-based relational engine that
plays DB2's role here: tables on slotted pages behind an LRU buffer pool
with full I/O accounting, hash and ordered secondary indexes, a library
of relational operators (including sort-merge and left outer joins), a
fluent query builder, a compact SQL dialect for ad-hoc monitoring
queries, and statement triggers.

Typical use::

    from repro.minidb import Database, make_schema, INTEGER, FLOAT, col, lit

    db = Database(buffer_pool_pages=512)
    crawl = db.create_table("CRAWL", make_schema(
        ("oid", INTEGER, False), ("relevance", FLOAT), primary_key=["oid"]))
    crawl.insert({"oid": 1, "relevance": 0.9})
    rows = db.query("CRAWL").where(col("relevance") > lit(0.5)).run()
"""

from .backend import DurableBackend, MemoryBackend, StorageBackend
from .buffer_pool import BufferPool, IOStats
from .compactor import Compactor
from .database import Database
from .storage_config import StorageConfig
from .wal import FileOps, WriteAheadLog
from .errors import (
    BufferPoolError,
    CatalogError,
    ConstraintError,
    MiniDBError,
    QueryError,
    SchemaError,
    SQLSyntaxError,
    StorageError,
)
from .expressions import (
    Expression,
    and_,
    col,
    func,
    in_set,
    is_null,
    lit,
    not_,
    or_,
)
from .index import HashIndex, OrderedIndex
from .intervals import IntervalIndex
from .operators import Aggregate
from .pages import DEFAULT_PAGE_SIZE, PageId, RecordId
from .planner import ExplainResult, Plan
from .query import Query
from .sql import execute_sql, parse_sql
from .table import Table
from .triggers import Trigger
from .types import BLOB, FLOAT, INTEGER, TEXT, Column, ColumnType, Schema, make_schema

__all__ = [
    "Aggregate",
    "BLOB",
    "BufferPool",
    "BufferPoolError",
    "CatalogError",
    "Column",
    "ColumnType",
    "Compactor",
    "ConstraintError",
    "Database",
    "DEFAULT_PAGE_SIZE",
    "DurableBackend",
    "ExplainResult",
    "Expression",
    "FLOAT",
    "FileOps",
    "HashIndex",
    "INTEGER",
    "IOStats",
    "IntervalIndex",
    "MemoryBackend",
    "MiniDBError",
    "OrderedIndex",
    "PageId",
    "Plan",
    "Query",
    "QueryError",
    "RecordId",
    "Schema",
    "SchemaError",
    "SQLSyntaxError",
    "StorageBackend",
    "StorageConfig",
    "StorageError",
    "TEXT",
    "Table",
    "Trigger",
    "WriteAheadLog",
    "and_",
    "col",
    "execute_sql",
    "func",
    "in_set",
    "is_null",
    "lit",
    "make_schema",
    "not_",
    "or_",
    "parse_sql",
]
