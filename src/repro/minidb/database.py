"""The Database: a catalog of tables sharing one buffer pool, plus SQL.

This is the top-level object the Focus system talks to — the stand-in
for the paper's DB2 Universal Database instance.  It owns:

* a :class:`~repro.minidb.buffer_pool.BufferPool` (shared across all
  tables so the Figure 8(b) memory-scaling sweep controls a single knob),
* a pluggable :class:`~repro.minidb.backend.StorageBackend` under the
  pool — in-memory by default, or a durable segment-file/WAL store
  opened with :meth:`Database.open`,
* the table catalog (create/drop/lookup),
* the SQL text interface (:meth:`Database.sql`), the one read surface.

A durable database logs every table mutation (and DDL) to a write-ahead
log; :meth:`checkpoint` flushes all dirty pages and publishes an atomic
snapshot, and :meth:`open` on an existing directory restores the last
snapshot and replays the log over it — reproducing record ids exactly,
because the log is logical and replayed against the identical heap
state it was produced from.

The paper (§3.1) re-runs relevance and centrality "when the
neighborhood of a page changed significantly owing to continued
crawling" through database triggers.  The crawl engine here calls the
distiller itself every ``distill_every`` fetches, so minidb keeps no
trigger registry.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from itertools import repeat
from typing import Any, Iterator, Mapping, Optional

from .backend import DurableBackend, MemoryBackend, StorageBackend, read_snapshot
from .buffer_pool import BufferPool, IOStats
from .errors import CatalogError, QueryError, StorageError
from .pages import DEFAULT_PAGE_SIZE, check_layout, rid_of
from .storage_config import StorageConfig
from .table import Table
from .types import Schema, schema_from_spec, schema_to_spec
from .wal import dump_record, load_record


@contextmanager
def bulk_load() -> Iterator[None]:
    """Hold the cyclic collector off while a load allocates long-lived objects.

    Record ids and one-row postings are ints the collector never
    tracks, but restoring a snapshot still allocates the page objects
    and column lists of every page, and a resumed crawl its frontier
    entries — tens of thousands of containers, none of them garbage,
    none part of a cycle.  Every allocation threshold they cross would
    trigger a collection that walks them (and, a few thresholds later,
    the whole process heap) to free nothing: on a ``crawl_durable``
    store (1 600 pages, killed at 960) recovery takes 0.068 s without
    this and 0.029 s with it.  Nested uses and processes that run
    without a collector are left alone.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        # Left in the youngest generation, everything just loaded would be
        # walked by the first collection after this, and twice more on its
        # way to the oldest one.  freeze + unfreeze splices all tracked
        # objects into the oldest generation without visiting them.  Not
        # when the host keeps objects frozen: unfreeze would thaw those.
        if gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
        gc.enable()


def read_app_state(path: str) -> Any:
    """The state the last :meth:`Database.checkpoint` at *path* stored, or None.

    Read from the snapshot without opening the database: nothing in the
    directory changes, so a caller can refuse what it finds first.
    """
    meta = read_snapshot(path)
    return _load_app_state(meta, path) if meta else None


def _load_app_state(meta: dict[str, Any], path: str) -> Any:
    try:
        return load_record(meta["app_state"])
    except (ImportError, AttributeError) as error:  # a class this build lacks
        raise StorageError(
            f"{path} holds a checkpoint state this build cannot load: {error!r}"
        ) from error


class Database:
    """An in-process relational database instance."""

    def __init__(
        self,
        buffer_pool_pages: int = 256,
        page_size: int = DEFAULT_PAGE_SIZE,
        backend: Optional[StorageBackend] = None,
        replay_wal: bool = True,
    ) -> None:
        self.stats = IOStats()
        #: The plan built for the most recent top-level SELECT (set by
        #: :func:`repro.minidb.sql.execute_select`); lets callers inspect
        #: which access paths a statement actually took.
        self.last_plan = None
        self._closed = False
        self.backend = backend if backend is not None else MemoryBackend()
        self.buffer_pool = BufferPool(buffer_pool_pages, self.stats, self.backend)
        self.page_size = page_size
        self._tables: dict[str, Table] = {}
        self._next_file_id = 0
        check_layout(self._next_file_id, page_size)
        self._replaying = False
        if self.backend.persistent:
            with bulk_load():
                self._recover(replay_wal)

    @classmethod
    def open(
        cls,
        path: str,
        buffer_pool_pages: int = 256,
        page_size: int = DEFAULT_PAGE_SIZE,
        replay_wal: bool = True,
        storage: Optional[StorageConfig] = None,
    ) -> "Database":
        """Open (or create) a durable database at directory *path*.

        Recovery restores the last checkpoint snapshot, rebuilds every
        index with one sequential heap scan per table, and replays the
        write-ahead log over it.  ``replay_wal=False`` pins the state to
        the snapshot instead, discarding post-checkpoint writes — used by
        coordinators (e.g. the crawl checkpoint manager) that must keep
        the database consistent with externally saved state.

        Durability policy — WAL group commit, segment compaction, the
        fault-injection :class:`~repro.minidb.wal.FileOps` seam, and
        optionally the buffer-pool size — comes in as one
        :class:`StorageConfig` via ``storage=`` (None means the defaults).
        """
        config = storage if storage is not None else StorageConfig()
        return cls(
            buffer_pool_pages=config.pool_pages(buffer_pool_pages),
            page_size=page_size,
            backend=DurableBackend(
                path,
                wal_fsync_batch=config.wal_fsync_batch,
                ops=config.ops,
                compact_every=config.compact_every,
                compact_min_garbage_ratio=config.compact_min_garbage_ratio,
            ),
            replay_wal=replay_wal,
        )

    # -- catalog -------------------------------------------------------------
    def create_table(self, name: str, schema: Schema) -> Table:
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name, schema, self._next_file_id, self.buffer_pool, self.page_size)
        self._next_file_id += 1
        if self.backend.persistent:
            table.set_journal(self._log_table_op)
        self._tables[name] = table
        self._log_table_op(("create_table", name, schema_to_spec(schema)))
        return table

    def drop_table(self, name: str) -> None:
        table = self.table(name)
        # The drop record subsumes the internal truncate's journal entry.
        table.set_journal(None)
        table.truncate()
        del self._tables[name]
        self._log_table_op(("drop_table", name))

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(
                f"no table named {name!r}; have {sorted(self._tables)}"
            ) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # -- querying -----------------------------------------------------------------
    def sql(self, text: str, parameters: Optional[Mapping[str, Any]] = None) -> list[dict[str, Any]]:
        """Execute a SQL statement (the compact dialect in :mod:`repro.minidb.sql`).

        An expression that fails on a row's values (``url + 1``,
        ``exp(1000.0)``, ``length(oid)``) raises :class:`QueryError`, as
        a malformed statement does.
        """
        from .sql import execute_sql

        try:
            return execute_sql(self, text, parameters or {})
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise QueryError(f"{type(exc).__name__}: {exc}") from exc

    def explain(
        self, text: str, parameters: Optional[Mapping[str, Any]] = None
    ) -> "ExplainResult":
        """Plan a SELECT statement and return its rendered plan tree."""
        from .planner import plan_select
        from .sql import SelectStatement, parse_sql

        statement = parse_sql(text)
        if not isinstance(statement, SelectStatement):
            raise QueryError("explain() supports SELECT statements only")
        plan = plan_select(self, statement, parameters or {})
        self.last_plan = plan
        return plan.explain()

    # -- durability -------------------------------------------------------------------
    def checkpoint(self, app_state: Any = None) -> None:
        """Flush every dirty page and publish an atomic snapshot + fresh WAL.

        After a checkpoint the write-ahead log is empty; recovery cost is
        proportional to the writes since the last checkpoint, not since
        the database was created.

        *app_state* is an opaque picklable value stored inside the same
        atomic snapshot record.  Coordinators that must keep external
        state (e.g. a crawl engine's round state) consistent with the
        database ride it here: a crash either publishes both or neither,
        so there is no window where they disagree.  It is re-pickled into
        every snapshot record, so it must stay small: state that grows
        with the work belongs in tables.
        """
        if not self.backend.persistent:
            raise StorageError(
                "in-memory databases cannot checkpoint; create one with Database.open(path)"
            )
        self.buffer_pool.flush_all()
        meta = self._catalog_meta()
        meta["app_state"] = dump_record(app_state)
        self.backend.checkpoint(meta)

    def app_state(self) -> Any:
        """The opaque state stored by the last :meth:`checkpoint`, or None."""
        meta = getattr(self.backend, "snapshot_meta", None)
        return _load_app_state(meta, self.backend.path) if meta else None

    def sync_wal(self) -> None:
        """Force-fsync the WAL tail (make everything logged so far durable)."""
        if self.backend.persistent:
            self.backend.sync_wal()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; consumers can then reopen by path."""
        return self._closed

    def close(self) -> None:
        """Release backend file handles (a no-op for in-memory databases)."""
        self.backend.close()
        self._closed = True

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _log_table_op(self, record: tuple) -> None:
        if self._replaying or not self.backend.persistent:
            return
        self.backend.log(record)

    def _catalog_meta(self) -> dict[str, Any]:
        """The snapshot's description of the catalog (schemas, extents, indexes)."""
        from .index import OrderedIndex
        from .intervals import IntervalIndex

        def kind_of(index) -> str:
            if isinstance(index, IntervalIndex):
                return "interval"
            return "ordered" if isinstance(index, OrderedIndex) else "hash"

        tables = []
        for name, table in self._tables.items():  # dict order == creation order
            tables.append(
                {
                    "name": name,
                    "file_id": table.heap.file_id,
                    "page_count": table.heap.page_count,
                    "row_count": table.heap.row_count,
                    "schema": schema_to_spec(table.schema),
                    "indexes": [
                        {
                            "name": index.name,
                            "columns": list(index.key_columns),
                            "kind": kind_of(index),
                        }
                        for index in table.indexes.values()
                    ],
                }
            )
        return {
            "page_size": self.page_size,
            "next_file_id": self._next_file_id,
            "tables": tables,
        }

    def _recover(self, replay_wal: bool) -> None:
        """Restore the last snapshot and replay (or discard) the WAL tail."""
        meta = getattr(self.backend, "snapshot_meta", None)
        self._replaying = True
        try:
            if meta is not None:
                self.page_size = meta["page_size"]
                self._next_file_id = meta["next_file_id"]
                for spec in meta["tables"]:
                    table = Table(
                        spec["name"],
                        schema_from_spec(spec["schema"]),
                        spec["file_id"],
                        self.buffer_pool,
                        self.page_size,
                    )
                    table.heap.restore(spec["page_count"], spec["row_count"])
                    for index_spec in spec["indexes"]:
                        table.attach_index(
                            index_spec["name"], index_spec["columns"], index_spec["kind"]
                        )
                    table.rebuild_indexes()
                    table.set_journal(self._log_table_op)
                    self._tables[spec["name"]] = table
            for record in self.backend.replay_wal(discard=not replay_wal):
                self._apply_wal_record(record)
        finally:
            self._replaying = False

    def _apply_wal_record(self, record: tuple) -> None:
        op = record[0]
        if op == "create_table":
            self.create_table(record[1], schema_from_spec(record[2]))
        elif op == "drop_table":
            self.drop_table(record[1])
        elif op == "create_index":
            self.table(record[1]).create_index(record[2], record[3], kind=record[4])
        elif op == "drop_index":
            self.table(record[1]).drop_index(record[2])
        elif op == "insert":
            self.table(record[1]).insert_many(record[2])
        elif op == "update":
            table = self.table(record[1])
            file_id = table.heap.file_id
            table.update_rows([(rid_of(file_id, *place), changes) for place, changes in record[2]])
        elif op == "update_column":
            _op, name, column, page_nos, slots, values = record
            table = self.table(name)
            rids = list(map(rid_of, repeat(table.heap.file_id), page_nos, slots))
            table.update_column(column, list(zip(rids, values)))
        elif op == "delete":
            table = self.table(record[1])
            for page_no, slot in record[2]:
                table.delete_row(rid_of(table.heap.file_id, page_no, slot))
        elif op == "truncate":
            self.table(record[1]).truncate()
        else:
            raise StorageError(f"unknown WAL record {op!r}")

    # -- maintenance ------------------------------------------------------------------
    def resize_buffer_pool(self, capacity_pages: int) -> None:
        self.buffer_pool.resize(capacity_pages)

    def clear_cache(self) -> None:
        """Evict all cached pages (cold-start a measurement)."""
        self.buffer_pool.clear_cache()

    def reset_stats(self) -> None:
        self.stats.reset()

    def io_snapshot(self) -> dict[str, float]:
        snapshot = self.stats.snapshot()
        snapshot["wal_bytes_written"] = float(self.backend.wal_bytes_written)
        snapshot["wal_fsyncs"] = float(self.backend.wal_fsyncs)
        snapshot["pages_flushed"] = float(self.backend.pages_flushed)
        snapshot["segment_bytes_total"] = float(self.backend.segment_bytes_total)
        snapshot["segment_bytes_live"] = float(self.backend.segment_bytes_live)
        snapshot["segment_bytes_dead"] = float(self.backend.segment_bytes_dead)
        snapshot["compactions_run"] = float(self.backend.compactions_run)
        snapshot["bytes_reclaimed"] = float(self.backend.bytes_reclaimed)
        return snapshot

    def total_pages(self) -> int:
        return sum(t.page_count for t in self._tables.values())
