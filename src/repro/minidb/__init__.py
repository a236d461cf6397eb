"""minidb: the relational-engine substrate for the Focus reproduction.

The paper implements its focused crawler, classifier, and distiller as
clients of IBM DB2, and argues that the database is "not merely a robust
data repository, but takes an active role in the computations involved in
resource discovery."  minidb is a small page-based relational engine that
plays DB2's role here: tables on slotted pages behind an LRU buffer pool
with full I/O accounting, hash and ordered secondary indexes, a library
of relational operators (hash and index-nested-loop joins, hash
aggregation), and a compact SQL dialect — :meth:`Database.sql`, the one
read surface — that the classifier, the distiller and ad-hoc monitoring
queries all go through.

Typical use::

    from repro.minidb import Database, make_schema, INTEGER, FLOAT

    db = Database(buffer_pool_pages=512)
    crawl = db.create_table("CRAWL", make_schema(
        ("oid", INTEGER, False), ("relevance", FLOAT), primary_key=["oid"]))
    crawl.insert({"oid": 1, "relevance": 0.9})
    rows = db.sql("select oid from CRAWL where relevance > :r", {"r": 0.5})
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
from .expressions import Expression
from .index import HashIndex, OrderedIndex
from .intervals import IntervalIndex
from .operators import Aggregate
from .pages import DEFAULT_PAGE_SIZE, PageId, RecordId
from .planner import ExplainResult, Plan
from .sql import execute_sql, parse_sql
from .table import ColumnBatch, Table
from .types import BLOB, FLOAT, INTEGER, TEXT, Column, ColumnType, Schema, make_schema

__all__ = [
    "Aggregate",
    "BLOB",
    "BufferPool",
    "BufferPoolError",
    "CatalogError",
    "Column",
    "ColumnBatch",
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
    "WriteAheadLog",
    "execute_sql",
    "make_schema",
    "parse_sql",
]
