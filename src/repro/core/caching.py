"""Small shared caching primitives used on the crawl hot paths.

One LRU policy, reused everywhere a hot-path cache needs bounding: the
engine's classification-outcome cache (keyed by page oid) and the
classifier's per-node term-vector cache (keyed by term id) both wrap
:class:`LRUCache`.  The implementation leans on CPython's insertion-
ordered dicts: a hit is refreshed with a delete + reinsert (both O(1)),
and eviction removes the first key in iteration order — the least
recently used entry.

Thread safety.  A trained model is shared by every job of one
:class:`~repro.core.system.FocusSystem`, and the crawl service steps
jobs on different threads, so the cache is written to be safe without
a lock: every mutation is one atomic dict operation (``pop`` with a
default, item assignment), and the only multi-step sequences —
refresh-on-hit and evict-oldest — tolerate another thread getting in
between (a concurrent ``get`` of a key being refreshed reads a miss; a
concurrent resize makes the eviction probe retry).  That is sound only
because every user stores values that are pure functions of their key:
a spurious miss recomputes the identical value.  The hit/miss counters
are plain increments and may undercount under contention.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

#: Sentinel distinguishing "absent" from a stored None.
_MISSING = object()


class LRUCache:
    """A bounded mapping with least-recently-used eviction and hit counters.

    ``capacity=0`` disables the cache entirely (gets miss, puts are
    dropped) — useful for switching a cache off via configuration without
    branching at every call site.
    """

    __slots__ = ("capacity", "hits", "misses", "_data")

    def __init__(self, capacity: int) -> None:
        self.capacity = max(int(capacity), 0)
        self.hits = 0
        self.misses = 0
        self._data: Dict[Any, Any] = {}

    def get(self, key: Any) -> Optional[Any]:
        # Refresh recency: pop + reinsert moves the key to the back of the
        # dict's insertion order in O(1).  ``pop`` with a default cannot
        # raise if another thread evicted the key first.
        value = self._data.pop(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return None
        self._data[key] = value
        if len(self._data) > self.capacity:
            # A put on another thread filled the slot this refresh vacated.
            self._evict()
        self.hits += 1
        return value

    def peek(self, key: Any) -> Optional[Any]:
        """Read without refreshing recency or touching the counters."""
        return self._data.get(key)

    @property
    def raw(self) -> Dict[Any, Any]:
        """The backing dict, for read-only fast paths.

        While the cache is below capacity no eviction can happen, so hot
        loops may probe this dict directly (a single C-level ``get``)
        instead of paying the per-hit recency refresh; once full they must
        switch back to :meth:`get` so the LRU order stays meaningful.
        """
        return self._data

    def put(self, key: Any, value: Any) -> None:
        if self.capacity == 0:
            return
        data = self._data
        data.pop(key, None)
        data[key] = value
        if len(data) > self.capacity:
            self._evict()

    def _evict(self) -> None:
        """Drop least-recently-used entries until the cache fits its capacity."""
        data = self._data
        while len(data) > self.capacity:
            try:
                oldest = next(iter(data))
            except (RuntimeError, StopIteration):
                # Another thread resized the dict between iter() and next().
                continue
            data.pop(oldest, None)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[Any]:
        return iter(self._data)

    def clear(self) -> None:
        self._data.clear()
