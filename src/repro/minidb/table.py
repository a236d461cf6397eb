"""Tables: schema + heap file + secondary indexes + constraints.

A :class:`Table` is the unit the rest of the system works with.  Its
mutation API accepts either positional rows or column-name mappings;
all mutations keep every secondary index and the (optional) primary-key
index consistent, and fire any statement triggers registered on the
owning database.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .buffer_pool import BufferPool
from .errors import CatalogError, ConstraintError, QueryError, SchemaError
from .expressions import Expression
from .index import HashIndex, Index, OrderedIndex, build_index
from .pages import DEFAULT_PAGE_SIZE, RecordId
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
        #: Hooks invoked after a mutation: callables taking (event, table, rows).
        self._mutation_listeners: list[Callable[[str, "Table", list[Row]], None]] = []
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

    def add_mutation_listener(
        self, listener: Callable[[str, "Table", list[Row]], None]
    ) -> None:
        self._mutation_listeners.append(listener)

    def set_journal(self, journal: Optional[Callable[[tuple], None]]) -> None:
        """Attach the owning database's write-ahead journal sink."""
        self._journal = journal

    def _log(self, record: tuple) -> None:
        if self._journal is not None:
            self._journal(record)

    @staticmethod
    def _rid_tuple(rid: RecordId) -> tuple[int, int]:
        """The journal encoding of a record id (file id is implied by the table)."""
        return (rid.page_id.page_no, rid.slot)

    # -- index management ------------------------------------------------------
    def create_index(self, name: str, columns: Sequence[str], kind: str = "hash") -> Index:
        """Create and backfill a secondary index over *columns*."""
        index = self.attach_index(name, columns, kind)
        index.insert_many((row, rid) for rid, row in self.heap.scan())
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
        page order (sequential I/O), and the ``(row, rid)`` pairs are
        bulk loaded into every index, instead of per-row inserts with
        one scan per index.  The record ids of a page share its
        ``PageId``, as the ones heap inserts hand out do.
        """
        indexes: list[Index] = list(self.indexes.values())
        if self._pk_index is not None:
            indexes.append(self._pk_index)
        if not indexes:
            return
        for index in indexes:
            index.clear()
        get_page = self.heap.buffer_pool.get_page
        pairs: list[tuple[Row, RecordId]] = []
        for page_id in self.heap.page_ids():
            pairs.extend(
                [
                    (row, RecordId(page_id, slot))
                    for slot, row in enumerate(get_page(page_id).slots)
                    if row is not None
                ]
            )
        for index in indexes:
            index.insert_many(pairs)

    def index_on(self, columns: Sequence[str]) -> Optional[Index]:
        """Return an index whose key is exactly *columns* (order-sensitive), if any."""
        target = tuple(columns)
        if self._pk_index is not None and self._pk_index.key_columns == target:
            return self._pk_index
        for index in self.indexes.values():
            if index.key_columns == target:
                return index
        return None

    def ordered_index_on_prefix(self, columns: Sequence[str]) -> Optional[OrderedIndex]:
        """Return an ordered index whose key starts with *columns*, if any."""
        target = tuple(columns)
        for index in self.indexes.values():
            if isinstance(index, OrderedIndex) and index.key_columns[: len(target)] == target:
                return index
        return None

    # -- mutation -----------------------------------------------------------------
    def insert(self, values: Sequence[Any] | Mapping[str, Any]) -> RecordId:
        """Insert one row (positional or mapping form); returns its record id."""
        row = self._coerce(values)
        self._check_primary_key(row)
        rid = self.heap.insert(row)
        self._index_insert(row, rid)
        self._log(("insert", self.name, [row]))
        self._notify("insert", [row])
        return rid

    def insert_many(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> list[RecordId]:
        """Atomic bulk insert; returns the record ids of the inserted rows.

        Every row is coerced and checked (types, sizes, primary-key
        uniqueness — including duplicates *within* the batch) before any of
        them touches the heap, so a constraint violation anywhere in the
        batch leaves the table unchanged.  The heap append itself goes
        through :meth:`HeapFile.insert_rows`, which pins each fill page
        once per page switch rather than once per row.
        """
        coerce = self._coerce
        row_size = self.schema.row_size
        check_row_size = self.heap.check_row_size
        pk_index = self._pk_index
        coerced: list[Row] = []
        sizes: list[int] = []
        if pk_index is not None:
            key_of = self.schema.key_of
            existing_key = pk_index.contains
            batch_keys: set[tuple] = set()
            for values in rows:
                row = coerce(values)
                key = key_of(row)
                if None in key:
                    raise ConstraintError(
                        f"table {self.name!r}: primary key {self.schema.primary_key} cannot be NULL"
                    )
                if existing_key(key):
                    raise ConstraintError(
                        f"table {self.name!r}: duplicate primary key {key!r}"
                    )
                size = row_size(row)
                check_row_size(size)
                if key in batch_keys:
                    raise ConstraintError(
                        f"table {self.name!r}: duplicate primary key {key!r} within batch"
                    )
                batch_keys.add(key)
                coerced.append(row)
                sizes.append(size)
        else:
            for values in rows:
                row = coerce(values)
                size = row_size(row)
                check_row_size(size)
                coerced.append(row)
                sizes.append(size)
        if not coerced:
            return []
        rids = self.heap.insert_rows(coerced, sizes)
        # Indexes are bulk-loaded per index (hoisted locals in insert_many)
        # instead of per row through _index_insert's double dispatch.
        pairs = list(zip(coerced, rids))
        if pk_index is not None:
            pk_index.insert_many(pairs)
        for index in self.indexes.values():
            index.insert_many(pairs)
        self._log(("insert", self.name, coerced))
        self._notify("insert", coerced)
        return rids

    def update_row(self, rid: RecordId, changes: Mapping[str, Any]) -> Row:
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
        self._log(("update", self.name, [(self._rid_tuple(rid), dict(changes))]))
        self._notify("update", [new])
        return new

    def update_column(self, column: str, updates: Sequence[tuple[RecordId, Any]]) -> int:
        """Bulk-set one column: the single-column fast path of :meth:`update_rows`.

        Identical semantics (validation, index maintenance, journal
        record); the fast path engages only for an unindexed non-key
        column, where per-row change dicts and per-change column
        resolution are pure overhead — the crawl engine's ``wgt_fwd``
        refresh and the HUBS/AUTH score rewrite are the callers, and
        both hand over long runs of rows on one page, so the fast path
        resolves a page once per run.  Indexed or primary-key columns
        delegate to :meth:`update_rows`.
        """
        if not updates:
            return 0
        indexed = (self.schema.primary_key and column in self.schema.primary_key) or any(
            column in index.key_columns for index in self.indexes.values()
        )
        if indexed:
            return self.update_rows([(rid, {column: value}) for rid, value in updates])
        position = self.schema.position(column)
        validate = self.schema.validator(column)
        sizeof = self.schema.sizer(column)
        heap = self.heap
        get_page = heap.buffer_pool.get_page
        new_rows: list[Row] = []
        # Consecutive updates to one page share its ownership check and
        # its pin: nothing else touches the pool inside a run, so the
        # page object cannot be evicted under it.  Rows are still read,
        # validated and written one at a time, in order — a bad value
        # leaves exactly the rows before it written.  A run is told by
        # identity: record ids of one page share its PageId object
        # (heap inserts and scans hand them out that way), and an equal
        # but distinct one merely re-resolves the page.
        page_id = page = None
        for rid, value in updates:
            if rid.page_id is not page_id:
                heap.check_rid(rid)
                page_id = rid.page_id
                page = get_page(page_id)
            old = page.read(rid.slot)
            coerced = validate(value)
            new = old[:position] + (coerced,) + old[position + 1 :]
            page.update(
                rid.slot, new, old_size=0, new_size=sizeof(coerced) - sizeof(old[position])
            )
            new_rows.append(new)
        if self._journal is not None:
            self._log(
                (
                    "update",
                    self.name,
                    [(self._rid_tuple(rid), {column: value}) for rid, value in updates],
                )
            )
        self._notify("update", new_rows)
        return len(new_rows)

    def update_rows(self, updates: Sequence[tuple[RecordId, Mapping[str, Any]]]) -> int:
        """Apply many per-row change sets in one batch; returns the row count.

        Unlike row-at-a-time :meth:`update_row`, index maintenance is
        limited to the indexes whose key columns actually appear in the
        change sets (and, within those, to rows whose key value really
        changed), and deletions against each index are grouped so a hot
        bucket is rebuilt once instead of probed per row.  Primary-key
        changes fall back to the checked row-at-a-time path.
        """
        if not updates:
            return 0
        changed_columns: set[str] = set()
        for _rid, changes in updates:
            changed_columns.update(changes.keys())
        unknown = changed_columns - set(self.schema.column_names)
        if unknown:
            raise SchemaError(
                f"unknown columns {sorted(unknown)}; have {self.schema.column_names}"
            )
        if self.schema.primary_key and changed_columns & set(self.schema.primary_key):
            for rid, changes in updates:
                self.update_row(rid, changes)
            return len(updates)

        columns = {
            column.name: (index, self.schema.validator(column.name), self.schema.sizer(column.name))
            for index, column in enumerate(self.schema.columns)
        }
        # Patch only the changed columns into the stored row: the untouched
        # values were validated when first stored, and summing per-column
        # size deltas avoids re-measuring (and re-encoding) the whole row.
        heap = self.heap
        get_page = heap.buffer_pool.get_page
        items: list[tuple[RecordId, Row, Row, int]] = []
        for rid, changes in updates:
            heap.check_rid(rid)
            old = get_page(rid.page_id).read(rid.slot)
            patched = list(old)
            size_delta = 0
            for name, value in changes.items():
                index, validate, sizeof = columns[name]
                coerced = validate(value)
                size_delta += sizeof(coerced) - sizeof(old[index])
                patched[index] = coerced
            items.append((rid, old, tuple(patched), size_delta))

        affected = [
            index
            for index in self.indexes.values()
            if changed_columns & set(index.key_columns)
        ]
        # Rows whose key actually moved, computed once per index and reused
        # for both the grouped deletes and the re-inserts.
        moved_by_index = [
            (
                index,
                [
                    (rid, old, new)
                    for rid, old, new, _delta in items
                    if index.key_of(old) != index.key_of(new)
                ],
            )
            for index in affected
        ]
        for index, moved in moved_by_index:
            if moved:
                index.delete_many([(old, rid) for rid, old, _new in moved])
        for rid, _old, new, size_delta in items:
            # Re-fetch through the pool per row: a page object cached from
            # the read pass may have been *evicted* by a later read in a
            # batch wider than the pool, and mutating a detached page
            # would silently lose the write on a durable backend.
            # page.update sets the dirty flag itself.
            get_page(rid.page_id).update(rid.slot, new, old_size=0, new_size=size_delta)
        for index, moved in moved_by_index:
            for rid, _old, new in moved:
                index.insert(new, rid)
        if self._journal is not None:
            self._log(
                (
                    "update",
                    self.name,
                    [(self._rid_tuple(rid), dict(changes)) for rid, changes in updates],
                )
            )
        self._notify("update", [new for _rid, _old, new, _delta in items])
        return len(items)

    def update_where(
        self, predicate: Optional[Expression], changes: Mapping[str, Any]
    ) -> int:
        """Update every row matching *predicate* (all rows when None); returns match count."""
        touched = 0
        for rid, row in list(self.heap.scan()):
            if predicate is None or predicate.evaluate(self.schema.row_to_mapping(row)):
                self.update_row(rid, changes)
                touched += 1
        return touched

    def delete_row(self, rid: RecordId) -> Row:
        row = self.heap.delete(rid)
        self._index_delete(row, rid)
        self._log(("delete", self.name, [self._rid_tuple(rid)]))
        self._notify("delete", [row])
        return row

    def delete_where(self, predicate: Optional[Expression]) -> int:
        """Delete every row matching *predicate* (all rows when None); returns count."""
        deleted: list[RecordId] = []
        for rid, row in list(self.heap.scan()):
            if predicate is None or predicate.evaluate(self.schema.row_to_mapping(row)):
                self.heap.delete(rid)
                self._index_delete(row, rid)
                deleted.append(rid)
        if deleted:
            self._log(("delete", self.name, [self._rid_tuple(rid) for rid in deleted]))
            self._notify("delete", [])
        return len(deleted)

    def truncate(self) -> None:
        self.heap.truncate()
        if self._pk_index is not None:
            self._pk_index.clear()
        for index in self.indexes.values():
            index.clear()
        self._log(("truncate", self.name))
        self._notify("delete", [])

    # -- reads ------------------------------------------------------------------------
    def scan(self) -> Iterator[tuple[RecordId, Row]]:
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

    def lookup_rids(self, index_name: str, key: Sequence[Any]) -> list[RecordId]:
        index = self._resolve_index(index_name)
        return index.search(tuple(key))

    def read(self, rid: RecordId) -> Row:
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
        # Exact-type checks first: bulk writers hand over plain tuples or
        # dicts, and an isinstance against typing.Mapping costs a
        # __subclasscheck__ per row on this hot path.
        kind = type(values)
        if kind is tuple or kind is list:
            return self.schema.validate_row(values)
        if kind is dict or isinstance(values, Mapping):
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

    def _index_insert(self, row: Row, rid: RecordId) -> None:
        if self._pk_index is not None:
            self._pk_index.insert(row, rid)
        for index in self.indexes.values():
            index.insert(row, rid)

    def _index_delete(self, row: Row, rid: RecordId) -> None:
        if self._pk_index is not None:
            self._pk_index.delete(row, rid)
        for index in self.indexes.values():
            index.delete(row, rid)

    def _notify(self, event: str, rows: list[Row]) -> None:
        for listener in self._mutation_listeners:
            listener(event, self, rows)
