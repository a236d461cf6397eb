"""Secondary indexes: hash (equality) and ordered (range) indexes.

Indexes map key tuples to the int record ids of :mod:`~.pages`.  The
index directory itself is kept in memory (as a real engine would keep
upper B-tree levels cached), but every *probe that dereferences a record
id* goes back through the table's heap file and is therefore charged
page I/O by the buffer pool.  This is exactly the access pattern the
paper describes for ``SingleProbe``: small records, little locality, so
each probe tends to touch a different page.

A hash posting is the bare record id while its key has one row and an
insertion-ordered ``{rid: None}`` set from the second row on; the key
leaves the directory with its last row.  Neither form is a container
the cyclic collector tracks (a dict of int keys is untracked), so the
crawl's indexes — unique keys for the most part — cost it nothing.
"""

from __future__ import annotations

import bisect
from itertools import islice, repeat
from operator import lt
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

from .errors import CatalogError, StorageError
from .types import Schema

#: Sentinel distinguishing "absent" from a stored None in bucket pops.
_MISSING = object()

#: One key's postings: a record id, or an ordered set of two or more.
Posting = Union[int, dict]


def post(postings: dict, key: Any, rid: int) -> bool:
    """Add *rid* under *key*; False when it was there already."""
    posting = postings.get(key)
    if posting is None:
        postings[key] = rid
    elif type(posting) is int:
        if posting == rid:
            return False
        postings[key] = {posting: None, rid: None}
    elif rid in posting:
        return False
    else:
        posting[rid] = None
    return True


def unpost(postings: dict, key: Any, rid: int) -> bool:
    """Remove *rid* from under *key*, and the key with its last row; False if absent."""
    posting = postings.get(key)
    if type(posting) is dict:
        if posting.pop(rid, _MISSING) is _MISSING:
            return False
        if posting:
            return True
    elif posting is None or posting != rid:
        return False
    del postings[key]
    return True


def rids_of(posting: Optional[Posting]) -> list[int]:
    """The record ids of one posting (absent: none), in insertion order."""
    if posting is None:
        return []
    return [posting] if type(posting) is int else list(posting)


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
        #: Whether every key's postings ascend in record-id (= heap) order,
        #: as bulk loads, appends and deletes leave them; a posting below an
        #: earlier one (a reused tombstone, a moved key) ends it until
        #: :meth:`clear`.  Only such an index may drive an index-nested-loop
        #: join: its probes then match a hash join over a scan row for row.
        self.in_heap_order = True
        #: The highest record id posted while :attr:`in_heap_order` held.
        self._top = -1

    def _note_order(self, rids: Sequence[int]) -> None:
        """Keep :attr:`in_heap_order` true of postings about to be made for *rids*."""
        if self.in_heap_order and rids:
            if rids[0] > self._top and all(map(lt, rids, islice(rids, 1, None))):
                self._top = rids[-1]
            else:
                self.in_heap_order = False

    def key_of(self, row: Sequence[Any]) -> tuple:
        """The key of one row; batches get theirs from :meth:`keys_of`."""
        return tuple([row[p] for p in self.positions])

    # -- maintenance -------------------------------------------------------
    def insert(self, row: Sequence[Any], rid: int) -> None:
        self.insert_key(self.key_of(row), rid)

    def delete(self, row: Sequence[Any], rid: int) -> None:
        self.delete_key(self.key_of(row), rid)

    def insert_key(self, key: tuple, rid: int) -> None:
        """Post *rid* under *key* (a writer that has the key needs no row)."""
        self.insert_many((key,), (rid,))

    def delete_key(self, key: tuple, rid: int) -> None:
        """Remove the posting of *rid* under *key*; raises if there is none."""
        raise NotImplementedError

    def insert_many(self, keys: Iterable[tuple], rids: Sequence[int]) -> None:
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
    def search(self, key: tuple) -> list[int]:
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
    """Equality-only index: key tuple -> its posting (see the module notes).

    A key's rows come back from :meth:`search` in insertion order, and
    membership and deletion are O(1) however many rows share a key (a
    record-id *list* made every delete a linear probe, once the serial
    crawler's dominant cost on hot keys such as ``status='frontier'``).
    """

    def __init__(self, name: str, schema: Schema, key_columns: Sequence[str]) -> None:
        super().__init__(name, schema, key_columns)
        self._buckets: dict[tuple, Posting] = {}
        self._entries = 0

    def insert_many(self, keys: Iterable[tuple], rids: Sequence[int]) -> None:
        self._note_order(rids)
        buckets = self._buckets
        self._entries += sum(map(post, repeat(buckets), keys, rids))

    def delete_key(self, key: tuple, rid: int) -> None:
        if not unpost(self._buckets, key, rid):
            raise StorageError(f"index {self.name!r}: {rid} not found under key {key!r}")
        self._entries -= 1

    def clear(self) -> None:
        self._buckets.clear()
        self._entries = 0
        self.in_heap_order, self._top = True, -1

    def search(self, key: tuple) -> list[int]:
        self.probe_count += 1
        return rids_of(self._buckets.get(tuple(key)))

    def contains(self, key: tuple) -> bool:
        self.probe_count += 1
        return key in self._buckets

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
        self._postings: dict[tuple, list[int]] = {}
        self._entries = 0

    def insert_many(self, keys: Iterable[tuple], rids: Sequence[int]) -> None:
        """Bulk load: one sort over the merged key list instead of per-row insort.

        Timsort is near-linear on the (typical) mostly-sorted bulk input,
        where per-row ``insort`` into the middle of a large key list is
        quadratic in the worst case.
        """
        self._note_order(rids)
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

    def delete_key(self, key: tuple, rid: int) -> None:
        bucket = self._postings.get(key)
        if not bucket or rid not in bucket:
            raise StorageError(f"index {self.name!r}: {rid} not found under key {key!r}")
        bucket.remove(rid)
        self._entries -= 1
        if not bucket:
            del self._postings[key]
            pos = bisect.bisect_left(self._keys, key)
            if pos < len(self._keys) and self._keys[pos] == key:
                del self._keys[pos]

    def clear(self) -> None:
        self._keys.clear()
        self._postings.clear()
        self._entries = 0
        self.in_heap_order, self._top = True, -1

    def search(self, key: tuple) -> list[int]:
        self.probe_count += 1
        return list(self._postings.get(tuple(key), ()))

    def range_search(
        self,
        low: Optional[tuple] = None,
        high: Optional[tuple] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[tuple, int]]:
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
