"""Tables: schema + heap file + secondary indexes + constraints.

A :class:`Table` is the unit the rest of the system works with.  Its
mutation API accepts either positional rows or column-name mappings;
all mutations keep every secondary index and the (optional) primary-key
index consistent, and a durable database's write-ahead journal sees
each of them.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .buffer_pool import BufferPool
from .errors import CatalogError, ConstraintError, QueryError, SchemaError
from .expressions import Expression
from .index import HashIndex, Index, build_index
from .pages import DEFAULT_PAGE_SIZE
from .storage import HeapFile
from .types import Row, Schema


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
        """Insert one row (positional or mapping form); returns its record id."""
        row = self._coerce(values)
        self._check_primary_key(row)
        rid = self.heap.insert(row)
        self._index_insert(row, rid)
        self._log(("insert", self.name, [row]))
        return rid

    def insert_many(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> list[int]:
        """Atomic bulk insert; returns the record ids of the inserted rows.

        The batch is transposed once and handled a column at a time:
        each column is validated and coerced (:meth:`Schema.validate_column`),
        the primary key checked (NULLs, existing keys, duplicates
        *within* the batch) and each row sized, all before any of them
        touches the heap, so a violation anywhere in the batch leaves
        the table unchanged.  :meth:`HeapFile.append_columns` then
        gives every fill page its rows as one slice per column.
        """
        schema = self.schema
        width = len(schema.columns)
        rows = rows if type(rows) is list else list(rows)
        if len(rows) < 2:  # nothing to transpose
            return [self.insert(row) for row in rows]
        if not set(map(type, rows)) <= {tuple, list}:
            rows = [schema.positional(row) if isinstance(row, Mapping) else row for row in rows]
        if set(map(len, rows)) != {width}:
            bad = next(row for row in rows if len(row) != width)
            raise SchemaError(f"row has {len(bad)} values, schema has {width} columns")
        # One pass per column, not zip(*rows): that makes an iterator per
        # row, a container each for the cyclic collector to count.
        columns = [
            schema.validate_column(position, list(map(itemgetter(position), rows)))
            for position in range(width)
        ]
        pk_index = self._pk_index
        if pk_index is not None:
            if any(None in columns[position] for position in pk_index.positions):
                raise ConstraintError(
                    f"table {self.name!r}: primary key {schema.primary_key} cannot be NULL"
                )
            keys = list(pk_index.keys_of(columns))
            for key in keys:
                if pk_index.contains(key):
                    raise ConstraintError(f"table {self.name!r}: duplicate primary key {key!r}")
            if len(set(keys)) != len(keys):
                key = next(key for key, times in Counter(keys).items() if times > 1)
                raise ConstraintError(
                    f"table {self.name!r}: duplicate primary key {key!r} within batch"
                )
        sizes = schema.row_sizes(columns)
        self.heap.check_row_size(max(sizes))
        rids = self.heap.append_columns(columns, sizes)
        if pk_index is not None:
            pk_index.insert_many(keys, rids)
        for index in self.indexes.values():
            index.insert_many(index.keys_of(columns), rids)
        if self._journal is not None:
            self._log(("insert", self.name, list(zip(*columns))))
        return rids

    def update_row(self, rid: int, changes: Mapping[str, Any]) -> Row:
        """Apply *changes* to the row at *rid*; returns the new row."""
        old = self.heap.read(rid)
        merged = self.schema.row_to_mapping(old)
        merged.update(changes)
        new = self.schema.row_from_mapping(merged)
        if self.schema.primary_key and self.schema.key_of(new) != self.schema.key_of(old):
            self._check_primary_key(new)
        self._index_delete(old, rid)
        self.heap.update(rid, new)
        self._index_insert(new, rid)
        self._log(("update", self.name, [(self.heap.locate(rid), dict(changes))]))
        return new

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

        Every value is validated and every record id resolved before
        anything is written: a bad value or id anywhere leaves table
        and journal untouched.  The new values are then
        assigned into the pages' column chunks in place; no row tuple is
        built.  For a change set that names an indexed column, the key
        columns of that index are read, and the row moves in it only if
        its key really changed.  A row named twice is one row whose
        later changes win.  Primary-key changes fall back to the checked
        row-at-a-time path.
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
        if not changed.isdisjoint(schema.project_positions(schema.primary_key)):
            for rid, changes in updates:  # nothing is written yet
                self.update_row(rid, changes)
            return len(updates)
        affected = [
            index for index in self.indexes.values() if not changed.isdisjoint(index.positions)
        ]
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

        for index, old_key, _new_key, rid in moves:
            index.delete_key(old_key, rid)
        sizeof = [column.type.storage_size for column in schema.columns]
        for writes, (page_id, slot) in zip(planned.values(), places):
            # Re-fetch through the pool per row: a page object cached from
            # the read pass may have been *evicted* by a later read in a
            # batch wider than the pool, and mutating a detached page
            # would silently lose the write on a durable backend.
            page = get_page(page_id)
            for position, value in writes.items():
                column = page.columns[position]
                page.used_bytes += sizeof[position](value) - sizeof[position](column[slot])
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

    def _coerce(self, values: Sequence[Any] | Mapping[str, Any]) -> Row:
        # Exact type first: an isinstance against typing.Mapping costs a
        # __subclasscheck__, and single inserts mostly hand over tuples.
        if type(values) is not tuple and isinstance(values, Mapping):
            return self.schema.row_from_mapping(values)
        return self.schema.validate_row(values)


    def _check_primary_key(self, row: Row) -> None:
        if self._pk_index is None:
            return
        key = self.schema.key_of(row)
        if None in key:
            raise ConstraintError(
                f"table {self.name!r}: primary key {self.schema.primary_key} cannot be NULL"
            )
        if self._pk_index.contains(key):
            raise ConstraintError(
                f"table {self.name!r}: duplicate primary key {key!r}"
            )

    def _index_insert(self, row: Row, rid: int) -> None:
        if self._pk_index is not None:
            self._pk_index.insert(row, rid)
        for index in self.indexes.values():
            index.insert(row, rid)

    def _index_delete(self, row: Row, rid: int) -> None:
        if self._pk_index is not None:
            self._pk_index.delete(row, rid)
        for index in self.indexes.values():
            index.delete(row, rid)
