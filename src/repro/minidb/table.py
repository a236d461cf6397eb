"""Tables: schema + heap file + secondary indexes + constraints.

A :class:`Table` is the unit the rest of the system works with.  Its
mutation API accepts either positional rows or column-name mappings.
Rows are written one way: :meth:`Table.insert_many` (rows, or a
:class:`ColumnBatch` of one list per column) and
:meth:`Table.update_rows` (and :meth:`Table.update_column`, their
one-column form) take a batch, check all of it and then write all of
it, so a batch that raises leaves the table and its journal untouched;
a single-row :meth:`Table.insert` or :meth:`Table.update_row` is a
one-row batch.  A durable database's write-ahead journal sees each of
them.

The (optional) primary-key index is posted at once: the uniqueness
check of the next batch reads it.  A secondary index is posted when it
is next read (:meth:`Index.defer`): an insert hands it the batch's key
columns and record ids, an update or delete of a row it has not posted
yet overrides that row's key, and any lookup, statistic, plan or
``EXPLAIN`` that reaches the index first folds what is pending, in
insertion order, without reading a heap page.  So an index nothing reads
costs a crawl one list append per batch, and one that is read answers
exactly as if it had been kept up to date.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import contains, itemgetter
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping, Optional, Sequence

from .buffer_pool import BufferPool
from .errors import CatalogError, ConstraintError, QueryError, SchemaError
from .expressions import Expression
from .index import HashIndex, Index, build_index
from .pages import DEFAULT_PAGE_SIZE
from .storage import HeapFile
from .types import Row, Schema


class ColumnBatch:
    """Rows given as one list per column, in schema order, for :meth:`Table.insert_many`.

    A writer that keeps its rows as columns hands them over without
    building a row; ``len()`` is the row count.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence[list]) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0


class Table:
    """A named relation with optional primary key and secondary indexes."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        file_id: int,
        buffer_pool: BufferPool,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        self.name = name
        self.schema = schema
        self.heap = HeapFile(file_id, schema, buffer_pool, page_size)
        self.indexes: dict[str, Index] = {}
        self._pk_index: Optional[HashIndex] = None
        if schema.primary_key:
            self._pk_index = HashIndex(
                f"{name}_pk", schema, list(schema.primary_key)
            )
        #: Write-ahead journal sink (set by a durable Database); None keeps
        #: the in-memory fast path at a single attribute check per mutation.
        self._journal: Optional[Callable[[tuple], None]] = None

    # -- metadata -----------------------------------------------------------
    @property
    def row_count(self) -> int:
        return self.heap.row_count

    @property
    def page_count(self) -> int:
        return self.heap.page_count

    def __len__(self) -> int:
        return self.row_count

    def set_journal(self, journal: Optional[Callable[[tuple], None]]) -> None:
        """Attach the owning database's write-ahead journal sink."""
        self._journal = journal

    def _log(self, record: tuple) -> None:
        if self._journal is not None:
            self._journal(record)

    # -- index management ------------------------------------------------------
    def create_index(self, name: str, columns: Sequence[str], kind: str = "hash") -> Index:
        """Create and backfill a secondary index over *columns*."""
        index = self.attach_index(name, columns, kind)
        self._load_indexes([index])
        self._log(("create_index", self.name, name, list(columns), kind))
        return index

    def attach_index(self, name: str, columns: Sequence[str], kind: str = "hash") -> Index:
        """Register an index definition *without* backfilling it.

        Recovery attaches every index first and then rebuilds them all in
        a single heap pass (:meth:`rebuild_indexes`) instead of paying one
        sequential scan per index.
        """
        if name in self.indexes:
            raise CatalogError(f"index {name!r} already exists on table {self.name!r}")
        index = build_index(kind, name, self.schema, columns)
        self.indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise CatalogError(f"no index {name!r} on table {self.name!r}")
        del self.indexes[name]
        self._log(("drop_index", self.name, name))

    def rebuild_indexes(self) -> None:
        """Rebuild the primary-key and all secondary indexes in one bulk load.

        Used after recovery: the heap is read once, a page at a time in
        page order (sequential I/O), instead of per-row inserts with one
        scan per index.
        """
        indexes: list[Index] = list(self.indexes.values())
        if self._pk_index is not None:
            indexes.append(self._pk_index)
        for index in indexes:
            index.clear()
        self._load_indexes(indexes)

    def _load_indexes(self, indexes: Sequence[Index]) -> None:
        """Bulk load *indexes* from one pass over the heap's column chunks.

        Each index's keys are zipped out of its key columns page by page,
        beside the page's range of record ids.
        """
        if not indexes:
            return
        rids: list[int] = []
        keys: list[list[tuple]] = [[] for _ in indexes]
        for page in self.heap.scan_pages():
            rids.extend(page.rids())
            for index, index_keys in zip(indexes, keys):
                index_keys.extend(page.live(index.keys_of(page.columns)))
        for index, index_keys in zip(indexes, keys):
            index.insert_many(index_keys, rids)

    # -- mutation -----------------------------------------------------------------
    def insert(self, values: Sequence[Any] | Mapping[str, Any]) -> int:
        """Insert one row (positional or mapping form): a one-row :meth:`insert_many`."""
        return self.insert_many([values])[0]

    def insert_many(
        self, rows: Iterable[Sequence[Any] | Mapping[str, Any]] | ColumnBatch
    ) -> list[int]:
        """Atomic bulk insert; returns the record ids of the inserted rows.

        *rows* are positional rows or column-name mappings, transposed
        once here, or a :class:`ColumnBatch`, taken as it is.  Handled a
        column at a time: each column is validated and coerced
        (:meth:`Schema.validate_column`), the primary key checked (NULLs,
        existing keys, duplicates *within* the batch) and each row sized,
        all before any of them touches the heap, so a violation anywhere
        in the batch leaves the table unchanged.
        :meth:`HeapFile.append_columns` then gives every fill page its
        rows as one slice per column.
        """
        schema = self.schema
        width = len(schema.columns)
        if type(rows) is ColumnBatch:
            columns = rows.columns
            if len(columns) != width:
                raise SchemaError(f"batch has {len(columns)} columns, schema has {width}")
            if len(set(map(len, columns))) != 1:
                raise SchemaError(f"columns of unequal length {[len(c) for c in columns]}")
        else:
            rows = rows if type(rows) is list else list(rows)
            if not rows:
                return []
            if not set(map(type, rows)) <= {tuple, list}:
                rows = [schema.positional(row) if isinstance(row, Mapping) else row for row in rows]
            if set(map(len, rows)) != {width}:
                bad = next(row for row in rows if len(row) != width)
                raise SchemaError(f"row has {len(bad)} values, schema has {width} columns")
            # One pass per column, not zip(*rows): that makes an iterator per
            # row, a container each for the cyclic collector to count.
            columns = [list(map(itemgetter(p), rows)) for p in range(width)]
        if not columns[0]:
            return []
        columns = [schema.validate_column(p, values) for p, values in enumerate(columns)]
        pk_index = self._pk_index
        if pk_index is not None:
            keys = list(pk_index.keys_of(columns))
            self._check_new_keys(keys)
        sizes = schema.row_sizes(columns)
        self.heap.check_row_size(max(sizes))
        rids = self.heap.append_columns(columns, sizes)
        if pk_index is not None:
            pk_index.insert_new(keys, rids)
        for index in self.indexes.values():
            index.defer(columns, rids)
        if self._journal is not None:
            self._log(("insert", self.name, list(zip(*columns))))
        return rids

    def update_row(self, rid: int, changes: Mapping[str, Any]) -> Row:
        """Apply *changes* to the row at *rid* (a one-row :meth:`update_rows`); returns the new row."""
        self.update_rows([(rid, changes)])
        return self.heap.read(rid)

    def update_column(
        self, column: str, updates: Mapping[int, Any] | Sequence[tuple[int, Any]]
    ) -> int:
        """Bulk-set one column: :meth:`update_rows` for a batch that changes one column.

        *updates* gives the new value per record id, as a mapping or as
        ``(rid, value)`` pairs (a big batch is cheaper as a mapping: a
        thousand pair tuples alive at once are a thousand containers
        for the cyclic collector to count).

        Same validation and all-or-nothing behaviour; for an unindexed
        non-key column — the crawl engine's ``wgt_fwd`` refresh and the
        HUBS/AUTH score rewrite — no index can move, so the values are
        validated as one column, written into the pages' column chunks
        in place (:meth:`HeapFile.assign_column`) and journaled as one
        column-shaped record.  Indexed or primary-key columns delegate
        to :meth:`update_rows`.
        """
        if not updates:
            return 0
        position = self.schema.position(column)
        if isinstance(updates, Mapping):
            rids, values = list(updates), list(updates.values())
        else:
            rids, values = list(map(itemgetter(0), updates)), list(map(itemgetter(1), updates))
        if column in self.schema.primary_key or any(
            column in index.key_columns for index in self.indexes.values()
        ):
            return self.update_rows([(rid, {column: value}) for rid, value in zip(rids, values)])
        values = self.schema.validate_column(position, values)
        self.heap.assign_column(position, rids, values)
        if self._journal is not None:
            page_nos, slots = map(list, zip(*map(self.heap.locate, rids)))
            self._log(("update_column", self.name, column, page_nos, slots, values))
        return len(rids)

    def update_rows(self, updates: Sequence[tuple[int, Mapping[str, Any]]]) -> int:
        """Apply many per-row change sets in one batch; returns the row count.

        Every value is validated, every record id resolved and every
        new primary key checked before anything is written: a bad value,
        id or key anywhere leaves table and journal untouched.  A new
        key is checked against the keys the table holds once the whole
        batch is applied, so one row may take a key another row of the
        batch gives up (a swap, ``set k = k + 1``).  The new values are
        then assigned into the pages' column chunks in place; no row
        tuple is built.  For a change set that names an indexed column
        (the primary key's included), the key columns of that index are
        read, and the row moves in it only if its key really changed.
        A row named twice is one row whose later changes win.
        """
        if not updates:
            return 0
        schema = self.schema
        #: Per row, the {position: validated value} to write.
        planned: dict[int, dict[int, Any]] = {}
        for rid, changes in updates:
            writes = schema.validate_changes(changes)
            if rid in planned:
                planned[rid].update(writes)
            else:
                planned[rid] = writes
        changed = set().union(*planned.values())
        pk_index = self._pk_index
        indexes = list(self.indexes.values())
        if pk_index is not None:
            indexes.append(pk_index)
        affected = [index for index in indexes if not changed.isdisjoint(index.positions)]
        heap = self.heap
        get_page = heap.buffer_pool.get_page
        #: (index, old key, new key, rid) of every key a change set moves.
        moves: list[tuple[Index, tuple, tuple, int]] = []
        places = list(map(heap.page_of, planned))
        for (rid, writes), (page_id, slot) in zip(planned.items(), places):
            page = get_page(page_id)
            page.check_slot(slot)
            # Only the key columns of the indexes the change set names are read.
            for index in affected:
                if not writes.keys().isdisjoint(index.positions):
                    positions = index.positions
                    old_key = tuple([page.columns[p][slot] for p in positions])
                    new_key = tuple([writes.get(p, old) for p, old in zip(positions, old_key)])
                    if old_key != new_key:
                        moves.append((index, old_key, new_key, rid))
        key_moves = [(old, new) for index, old, new, _rid in moves if index is pk_index]
        if key_moves:
            self._check_new_keys([new for _old, new in key_moves], {old for old, _new in key_moves})

        for index, old_key, _new_key, rid in moves:
            index.drop_key(old_key, rid)
        # Only TEXT and BLOB values are sized by a call: any other is 8 bytes, 1 when NULL.
        sizeof = {p: schema.columns[p].type.storage_size for p in schema.varying}
        for writes, (page_id, slot) in zip(planned.values(), places):
            # Re-fetch through the pool per row: a page object cached from
            # the read pass may have been *evicted* by a later read in a
            # batch wider than the pool, and mutating a detached page
            # would silently lose the write on a durable backend.
            page = get_page(page_id)
            for position, value in writes.items():
                column = page.columns[position]
                if position in sizeof:
                    page.used_bytes += sizeof[position](value) - sizeof[position](column[slot])
                else:
                    page.used_bytes += 7 * ((column[slot] is None) - (value is None))
                column[slot] = value
            page.dirty = True
        for index, _old_key, new_key, rid in moves:
            index.insert_key(new_key, rid)
        if self._journal is not None:
            places = [(heap.locate(rid), dict(changes)) for rid, changes in updates]
            self._log(("update", self.name, places))
        return len(updates)

    def delete_row(self, rid: int) -> Row:
        row = self.heap.delete(rid)
        self._index_delete(row, rid)
        self._log(("delete", self.name, [self.heap.locate(rid)]))
        return row

    def delete_where(self, predicate: Optional[Expression]) -> int:
        """Delete every row matching *predicate* (all rows when None); returns count."""
        deleted: list[int] = []
        for rid, row in list(self.heap.scan()):
            if predicate is None or predicate.evaluate(self.schema.row_to_mapping(row)):
                self.heap.delete(rid)
                self._index_delete(row, rid)
                deleted.append(rid)
        if deleted:
            self._log(("delete", self.name, list(map(self.heap.locate, deleted))))
        return len(deleted)

    def truncate(self) -> None:
        self.heap.truncate()
        if self._pk_index is not None:
            self._pk_index.clear()
        for index in self.indexes.values():
            index.clear()
        self._log(("truncate", self.name))

    # -- reads ------------------------------------------------------------------------
    def scan(self) -> Iterator[tuple[int, Row]]:
        return self.heap.scan()

    def rows(self) -> Iterator[Row]:
        return self.heap.scan_rows()

    def rows_as_dicts(self) -> Iterator[dict[str, Any]]:
        for row in self.heap.scan_rows():
            yield self.schema.row_to_mapping(row)

    def get_by_key(self, key: Sequence[Any]) -> Optional[Row]:
        """Point lookup through the primary-key index."""
        if self._pk_index is None:
            raise QueryError(f"table {self.name!r} has no primary key")
        rids = self._pk_index.search(tuple(key))
        if not rids:
            return None
        return self.heap.read(rids[0])

    def lookup(self, index_name: str, key: Sequence[Any]) -> list[Row]:
        """Fetch rows through a named secondary index (random I/O per row)."""
        index = self._resolve_index(index_name)
        return [self.heap.read(rid) for rid in index.search(tuple(key))]

    def lookup_rids(self, index_name: str, key: Sequence[Any]) -> list[int]:
        index = self._resolve_index(index_name)
        return index.search(tuple(key))

    def read(self, rid: int) -> Row:
        return self.heap.read(rid)

    # -- internals ----------------------------------------------------------------------
    def _resolve_index(self, index_name: str) -> Index:
        if self._pk_index is not None and index_name == self._pk_index.name:
            return self._pk_index
        try:
            return self.indexes[index_name]
        except KeyError:
            raise CatalogError(
                f"no index {index_name!r} on table {self.name!r}"
            ) from None

    def _check_new_keys(self, keys: Sequence[tuple], released: Collection[tuple] = ()) -> None:
        """Raise :class:`ConstraintError` unless a batch may give rows the primary *keys*.

        A key is free if no row holds it or if the row holding it gives
        it up in the same batch (*released*); no key may be NULL or be
        given twice.
        """
        pk_index = self._pk_index
        if any(map(contains, keys, repeat(None))):
            raise ConstraintError(
                f"table {self.name!r}: primary key {self.schema.primary_key} cannot be NULL"
            )
        # The whole batch at once; the loops below only name an offending
        # key, or let a key through that another row gives up.
        distinct = set(keys)
        if not released and len(distinct) == len(keys) and pk_index.isdisjoint(distinct):
            return
        for key in keys:
            if pk_index.contains(key) and key not in released:
                raise ConstraintError(f"table {self.name!r}: duplicate primary key {key!r}")
        if len(distinct) != len(keys):
            key = next(key for key, times in Counter(keys).items() if times > 1)
            raise ConstraintError(
                f"table {self.name!r}: duplicate primary key {key!r} within batch"
            )

    def _index_delete(self, row: Row, rid: int) -> None:
        if self._pk_index is not None:
            self._pk_index.delete(row, rid)
        for index in self.indexes.values():
            index.delete(row, rid)
