"""Secondary indexes: hash (equality) and ordered (range) indexes.

Indexes map key tuples to lists of :class:`RecordId`s.  The index
directory itself is kept in memory (as a real engine would keep upper
B-tree levels cached), but every *probe that dereferences a record id*
goes back through the table's heap file and is therefore charged page
I/O by the buffer pool.  This is exactly the access pattern the paper
describes for ``SingleProbe``: small records, little locality, so each
probe tends to touch a different page.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator, Optional, Sequence

from .errors import CatalogError, StorageError
from .pages import RecordId
from .types import Schema

#: Sentinel distinguishing "absent" from a stored None in bucket pops.
_MISSING = object()


class Index:
    """Base class for secondary indexes over a subset of a table's columns."""

    def __init__(self, name: str, schema: Schema, key_columns: Sequence[str]) -> None:
        if not key_columns:
            raise CatalogError(f"index {name!r} needs at least one key column")
        self.name = name
        self.schema = schema
        self.key_columns = tuple(key_columns)
        #: Schema positions of the key columns, in key order.
        self.positions = schema.project_positions(key_columns)
        #: Number of key probes served, for instrumentation.
        self.probe_count = 0
        #: Number of entry deletions processed since the last clear().
        #: The planner only lets a *secondary* index drive an
        #: index-nested-loop join while this is zero: an append-only
        #: index keeps its postings in heap insertion order, so probe
        #: results match what a hash join built from a table scan would
        #: produce row-for-row.  (Unique primary-key indexes are always
        #: safe regardless.)
        self.deletions = 0

    def key_of(self, row: Sequence[Any]) -> tuple:
        """The key of one row; batches get theirs from :meth:`keys_of`."""
        return tuple([row[p] for p in self.positions])

    # -- maintenance -------------------------------------------------------
    def insert(self, row: Sequence[Any], rid: RecordId) -> None:
        self.insert_key(self.key_of(row), rid)

    def delete(self, row: Sequence[Any], rid: RecordId) -> None:
        self.delete_key(self.key_of(row), rid)

    def insert_key(self, key: tuple, rid: RecordId) -> None:
        """Post *rid* under *key* (a writer that has the key needs no row)."""
        self.insert_many((key,), (rid,))

    def delete_key(self, key: tuple, rid: RecordId) -> None:
        """Remove the posting of *rid* under *key*; raises if there is none."""
        raise NotImplementedError

    def insert_many(self, keys: Iterable[tuple], rids: Iterable[RecordId]) -> None:
        """Add many entries: key tuple *i* posts record id *i*.

        The bulk path of table inserts, index backfill and post-recovery
        rebuilds.  Keys arrive ready-made — the caller zips them out of
        the key columns (:meth:`keys_of`) — so no row is built or indexed
        into per entry.
        """
        raise NotImplementedError

    def keys_of(self, columns: Sequence[Sequence[Any]]) -> Iterator[tuple]:
        """The key tuple of every row of a column batch (one sequence per schema column)."""
        return zip(*[columns[position] for position in self.positions])

    def clear(self) -> None:
        raise NotImplementedError

    # -- lookups ---------------------------------------------------------------
    def search(self, key: tuple) -> list[RecordId]:
        raise NotImplementedError

    def contains(self, key: tuple) -> bool:
        """Whether any entry exists under *key* (no result-list allocation)."""
        return bool(self.search(key))

    @property
    def key_count(self) -> int:
        """Number of distinct keys — the planner's fan-out statistic."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class HashIndex(Index):
    """Equality-only index: key tuple -> insertion-ordered set of record ids.

    Buckets are dicts used as ordered sets (``rid -> None``): membership
    and deletion are O(1) regardless of bucket size — the old record-id
    *lists* made every delete a linear probe, which was the serial
    crawler's dominant cost on hot buckets such as ``status='frontier'``
    — while iteration still yields record ids in insertion order, so
    :meth:`search` results are byte-for-byte what the list version
    returned.
    """

    def __init__(self, name: str, schema: Schema, key_columns: Sequence[str]) -> None:
        super().__init__(name, schema, key_columns)
        self._buckets: dict[tuple, dict[RecordId, None]] = {}
        self._entries = 0

    def insert_many(self, keys: Iterable[tuple], rids: Iterable[RecordId]) -> None:
        buckets = self._buckets
        added = 0
        for key, rid in zip(keys, rids):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = {rid: None}
            elif rid not in bucket:
                bucket[rid] = None
            else:
                continue
            added += 1
        self._entries += added

    def delete_key(self, key: tuple, rid: RecordId) -> None:
        bucket = self._buckets.get(key)
        if bucket is None or bucket.pop(rid, _MISSING) is _MISSING:
            raise StorageError(f"index {self.name!r}: {rid} not found under key {key!r}")
        self._entries -= 1
        self.deletions += 1
        if not bucket:
            del self._buckets[key]

    def clear(self) -> None:
        self._buckets.clear()
        self._entries = 0
        self.deletions = 0

    def search(self, key: tuple) -> list[RecordId]:
        self.probe_count += 1
        return list(self._buckets.get(tuple(key), ()))

    def contains(self, key: tuple) -> bool:
        self.probe_count += 1
        return key in self._buckets

    def keys(self) -> Iterator[tuple]:
        return iter(self._buckets)

    @property
    def key_count(self) -> int:
        return len(self._buckets)

    def __len__(self) -> int:
        return self._entries


class OrderedIndex(Index):
    """Sorted index supporting equality and range lookups.

    Maintains a sorted list of keys plus a parallel dict of postings.  This
    models a B-tree whose inner nodes are memory-resident.
    """

    def __init__(self, name: str, schema: Schema, key_columns: Sequence[str]) -> None:
        super().__init__(name, schema, key_columns)
        self._keys: list[tuple] = []
        self._postings: dict[tuple, list[RecordId]] = {}
        self._entries = 0

    def insert_key(self, key: tuple, rid: RecordId) -> None:
        if key not in self._postings:
            bisect.insort(self._keys, key)
            self._postings[key] = []
        self._postings[key].append(rid)
        self._entries += 1

    def insert_many(self, keys: Iterable[tuple], rids: Iterable[RecordId]) -> None:
        """Bulk load: one sort over the merged key list instead of per-row insort.

        Timsort is near-linear on the (typical) mostly-sorted bulk input,
        where per-row ``insort`` into the middle of a large key list is
        quadratic in the worst case.
        """
        postings = self._postings
        new_keys: list[tuple] = []
        added = 0
        for key, rid in zip(keys, rids):
            bucket = postings.get(key)
            if bucket is None:
                postings[key] = [rid]
                new_keys.append(key)
            else:
                bucket.append(rid)
            added += 1
        if new_keys:
            self._keys.extend(new_keys)
            self._keys.sort()
        self._entries += added

    def delete_key(self, key: tuple, rid: RecordId) -> None:
        bucket = self._postings.get(key)
        if not bucket or rid not in bucket:
            raise StorageError(f"index {self.name!r}: {rid} not found under key {key!r}")
        bucket.remove(rid)
        self._entries -= 1
        self.deletions += 1
        if not bucket:
            del self._postings[key]
            pos = bisect.bisect_left(self._keys, key)
            if pos < len(self._keys) and self._keys[pos] == key:
                del self._keys[pos]

    def clear(self) -> None:
        self._keys.clear()
        self._postings.clear()
        self._entries = 0
        self.deletions = 0

    def search(self, key: tuple) -> list[RecordId]:
        self.probe_count += 1
        return list(self._postings.get(tuple(key), ()))

    def range_search(
        self,
        low: Optional[tuple] = None,
        high: Optional[tuple] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[tuple, RecordId]]:
        """Yield ``(key, rid)`` pairs with ``low <= key <= high`` in key order.

        Open bounds are expressed by passing ``None``.  Prefix keys work
        naturally through tuple comparison when the caller pads bounds
        appropriately.
        """
        self.probe_count += 1
        if low is None:
            start = 0
        else:
            low = tuple(low)
            start = (
                bisect.bisect_left(self._keys, low)
                if include_low
                else bisect.bisect_right(self._keys, low)
            )
        for pos in range(start, len(self._keys)):
            key = self._keys[pos]
            if high is not None:
                high_t = tuple(high)
                if include_high:
                    if key > high_t:
                        break
                elif key >= high_t:
                    break
            for rid in self._postings[key]:
                yield key, rid

    def ordered_keys(self) -> list[tuple]:
        return list(self._keys)

    def min_key(self) -> Optional[tuple]:
        return self._keys[0] if self._keys else None

    def max_key(self) -> Optional[tuple]:
        return self._keys[-1] if self._keys else None

    @property
    def key_count(self) -> int:
        return len(self._keys)

    def __len__(self) -> int:
        return self._entries


def build_index(
    kind: str, name: str, schema: Schema, key_columns: Iterable[str]
) -> Index:
    """Factory: ``kind`` is ``"hash"``, ``"ordered"`` or ``"interval"``."""
    key_columns = list(key_columns)
    if kind == "hash":
        return HashIndex(name, schema, key_columns)
    if kind == "ordered":
        return OrderedIndex(name, schema, key_columns)
    if kind == "interval":
        from .intervals import IntervalIndex

        return IntervalIndex(name, schema, key_columns)
    raise CatalogError(
        f"unknown index kind {kind!r} (expected 'hash', 'ordered' or 'interval')"
    )
