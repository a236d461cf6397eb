"""The crawl frontier: unvisited URLs prioritised by a crawl ordering.

The authoritative record of every known URL is the CRAWL table (so ad-hoc
SQL can inspect the frontier and so triggers/monitoring work as in the
paper).  The Frontier keeps an in-memory priority structure mirroring
the ordering over frontier-status rows — the role an index ordering
plays in DB2 — with lazy invalidation when priorities change.

That structure is a :class:`BucketedIndex`: tuples are partitioned
into priority *bands* derived from the leading ordering columns
(integer columns pass through losslessly; the first float column —
relevance under the default orderings — is quantised into
``_RELEVANCE_BANDS`` bands) and each band keeps its own small heap over
the full key.  Because the band function is monotone in the
lexicographic key order, draining bands in band order yields exactly
the total order of one binary heap over the full key — the property
tests pin the equivalence against such a heap — while pushes and
priority reassignments pay ``O(log bucket)`` instead of
``O(log everything)`` and a ``pop_batch(k)`` drain touches only the
leading band(s).

Ties under the crawl ordering are broken by page oid, which is a stable
function of the URL: checkout order therefore does not depend on
insertion history, so crawls are reproducible under a fixed seed
regardless of how a round interleaved its ``add_url`` calls.

For the crawl engine's rounds the frontier supports *round buffering*
(:meth:`begin_batch` / :meth:`flush_batch`): in-memory entries stay
authoritative at all times, while CRAWL-table writes accumulate and are
flushed once per round through ``insert_many`` / ``update_rows``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.minidb import Database
from repro.minidb.pages import rid_of
from repro.webgraph.urls import normalize_url, server_sid, url_oid

from .policies import CrawlOrdering, aggressive_discovery

#: Below this index size, compaction is never worth the rebuild.
_COMPACT_MIN_HEAP = 64

#: Quantisation of the first float ordering column into priority bands.
_RELEVANCE_BANDS = 32

#: Ordering columns whose key values are integers (lossless band
#: components) vs. floats (quantised; banding stops at the first one —
#: a lossy component deeper in the band would break the total order).
_INT_ORDER_COLUMNS = frozenset({"numtries", "serverload", "discovered", "lastvisited"})
_FLOAT_ORDER_COLUMNS = frozenset({"relevance", "hub_score", "authority_score"})

#: One prioritised tuple: (ordering key, oid tie-break, url).
_IndexItem = Tuple[tuple, int, str]


def compile_band_of(ordering: CrawlOrdering) -> Callable[[tuple], tuple]:
    """The band function of *ordering*: monotone in lexicographic key order.

    Leading integer columns contribute their exact key value (lossless,
    so banding may continue past them); the first float column
    contributes ``floor(value * _RELEVANCE_BANDS)`` and terminates the
    band — any further component would compare *within* a lossy cell,
    where the true key order is no longer determined by the band.
    Monotonicity argument: if ``band(a) < band(b)`` then the first
    differing band component is either an exact key value (so the keys
    differ the same way) or the quantised float (``floor`` is monotone,
    so ``floor(x) < floor(y)`` implies ``x < y``); either way ``a < b``
    lexicographically.  Keys that band equally are ordered by the
    per-bucket heap over the full tuple.
    """
    plan: List[bool] = []  # per leading component: True = lossless int
    for column, _ascending in ordering.keys:
        if column in _INT_ORDER_COLUMNS:
            plan.append(True)
            continue
        if column in _FLOAT_ORDER_COLUMNS:
            plan.append(False)
        break
    depth = len(plan)

    def band_of(key: tuple) -> tuple:
        parts = []
        for position in range(depth):
            value = key[position]
            if plan[position]:
                parts.append(int(value))
            else:
                parts.append(math.floor(float(value) * _RELEVANCE_BANDS))
        return tuple(parts)

    return band_of


class BucketedIndex:
    """Relevance-banded buckets, each an independent heap over the full key.

    ``_band_heap`` orders the live band ids; a band id is pushed once
    when its bucket is created and retired when the (empty) bucket
    reaches the top of the band heap — buckets only ever drain at the
    top, so at most one live instance of each id exists.
    """

    def __init__(self, band_of: Callable[[tuple], tuple]) -> None:
        self._band_of = band_of
        self._buckets: Dict[tuple, List[_IndexItem]] = {}
        self._band_heap: List[tuple] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, item: _IndexItem) -> None:
        band = self._band_of(item[0])
        bucket = self._buckets.get(band)
        if bucket is None:
            bucket = self._buckets[band] = []
            heapq.heappush(self._band_heap, band)
        heapq.heappush(bucket, item)
        self._size += 1

    def pop_min(self) -> Optional[_IndexItem]:
        while self._band_heap:
            band = self._band_heap[0]
            bucket = self._buckets.get(band)
            if not bucket:
                heapq.heappop(self._band_heap)
                self._buckets.pop(band, None)
                continue
            self._size -= 1
            return heapq.heappop(bucket)
        return None

    def clear(self) -> None:
        self._buckets = {}
        self._band_heap = []
        self._size = 0

    def stats(self) -> Dict[str, int]:
        sizes = [len(bucket) for bucket in self._buckets.values() if bucket]
        return {
            "buckets": len(sizes),
            "largest_bucket": max(sizes, default=0),
        }


@dataclass(slots=True)
class FrontierEntry:
    """In-memory mirror of one CRAWL row plus bookkeeping for ordering."""

    url: str
    oid: int
    sid: int
    relevance: float = 0.0
    numtries: int = 0
    serverload: int = 0
    discovered: int = 0
    lastvisited: Optional[int] = None
    hub_score: float = 0.0
    authority_score: float = 0.0
    status: str = "frontier"
    rid: Optional[int] = None


#: The positional layout of one entry in :meth:`Frontier.state_snapshot`
#: and :meth:`Frontier.state_delta`: the entry's fields in declaration
#: order, the record id flattened to its page number and slot (the file
#: id is the CRAWL table's and is stored once).
ENTRY_FIELDS = (
    "url", "oid", "sid", "relevance", "numtries", "serverload", "discovered",
    "lastvisited", "hub_score", "authority_score", "status", "rid_page", "rid_slot",
)


def _entry_tuple(entry: FrontierEntry, locate: Callable[[int], tuple]) -> tuple:
    rid = entry.rid
    return (
        entry.url, entry.oid, entry.sid, entry.relevance, entry.numtries,
        entry.serverload, entry.discovered, entry.lastvisited, entry.hub_score,
        entry.authority_score, entry.status,
        *((None, None) if rid is None else locate(rid)),
    )


class Frontier:
    """Priority frontier backed by the CRAWL table."""

    def __init__(self, database: Database, ordering: Optional[CrawlOrdering] = None) -> None:
        self.database = database
        self.ordering = ordering or aggressive_discovery()
        self._entry_key = self.ordering.compile_entry_key()
        # CRAWL rows are built positionally for bulk loading; pin the order.
        crawl_columns = tuple(database.table("CRAWL").schema.column_names)
        expected = (
            "oid", "url", "sid", "relevance", "numtries",
            "serverload", "lastvisited", "kcid", "status",
        )
        if crawl_columns != expected:
            raise ValueError(f"CRAWL schema order {crawl_columns} != {expected}")
        self._entries: Dict[str, FrontierEntry] = {}
        #: oid -> normalized URL of every known entry (distillation results
        #: are keyed by oid; this avoids rebuilding the inverse per lookup).
        self._url_of_oid: Dict[int, str] = {}
        self._server_load: Dict[int, int] = {}
        self._index = BucketedIndex(compile_band_of(self.ordering))
        # Index hygiene: the structure is lazily invalidated, so it
        # accumulates tuples for dead/visited entries and superseded
        # priorities.  A live count of frontier-status entries (maintained
        # on every status transition) makes the dead fraction O(1) to
        # estimate; when dead tuples outnumber live ones the index is
        # rebuilt from scratch, so a pop_batch drain costs
        # O(k + dead-since-last-compaction), never O(total push history).
        self._frontier_count = 0
        self._heap_tuples_scanned = 0
        self._heap_compactions = 0
        # A plain int (not itertools.count) so checkpoints can persist it.
        self._next_discovered = 0
        # Round buffering: pending CRAWL inserts/updates.
        self._buffering = False
        self._pending_new: list[FrontierEntry] = []
        self._pending_changes: Dict[str, Dict[str, Any]] = {}
        #: URLs of the entries added or changed since :meth:`mark_saved`,
        #: new ones in the order they joined ``_entries`` — what a delta
        #: checkpoint writes.  None until a checkpointer first marks, so
        #: a crawl nobody checkpoints incrementally records nothing.
        self._touched: Optional[Dict[str, None]] = None

    # -- policy ------------------------------------------------------------------
    def set_ordering(self, ordering: CrawlOrdering) -> None:
        """Switch crawl policy dynamically (the paper's one-line policy change)."""
        self.ordering = ordering
        self._entry_key = ordering.compile_entry_key()
        self._index = BucketedIndex(compile_band_of(ordering))
        self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        self._index.clear()
        count = 0
        for url, entry in self._entries.items():
            if entry.status == "frontier":
                self._push(entry)
                count += 1
        self._frontier_count = count

    def _set_status(self, entry: FrontierEntry, status: str) -> None:
        """Transition an entry's status, keeping the live frontier count exact."""
        if entry.status == "frontier":
            self._frontier_count -= 1
        if status == "frontier":
            self._frontier_count += 1
        entry.status = status

    def _maybe_compact_heap(self) -> None:
        """Rebuild the index when dead tuples outnumber live frontier entries."""
        if (
            len(self._index) >= _COMPACT_MIN_HEAP
            and len(self._index) > 2 * self._frontier_count
        ):
            self._rebuild_heap()
            self._heap_compactions += 1

    def heap_stats(self) -> Dict[str, Any]:
        """Hygiene counters: index size, live entries, tuples scanned, compactions.

        ``heap_size`` keeps its historical name (total prioritised tuples);
        ``buckets``/``largest_bucket`` describe the bucketed index.
        """
        stats: Dict[str, Any] = {
            "heap_size": len(self._index),
            "frontier_size": self._frontier_count,
            "tuples_scanned": self._heap_tuples_scanned,
            "compactions": self._heap_compactions,
        }
        stats.update(self._index.stats())
        return stats

    # -- membership --------------------------------------------------------------------
    def __len__(self) -> int:
        return self._frontier_count

    def __contains__(self, url: str) -> bool:
        return normalize_url(url) in self._entries

    def known_urls(self) -> list[str]:
        return list(self._entries)

    def entry(self, url: str) -> FrontierEntry:
        return self._entries[normalize_url(url)]

    def get_normalized(self, normalized_url: str) -> Optional[FrontierEntry]:
        """Entry lookup for a URL the caller has *already normalised*.

        One dict probe; the hot link-recording path normalises every
        target anyway and should not pay for it twice.
        """
        return self._entries.get(normalized_url)

    # -- adding and updating ----------------------------------------------------------------
    def add_url(self, url: str, relevance: float = 0.0) -> FrontierEntry:
        """Register a URL; raises its priority if it is already known and unvisited.

        ``relevance`` here is the *crawl priority* of the unvisited page —
        for soft focus, the relevance of the page(s) citing it.
        """
        normalized = normalize_url(url)
        existing = self._entries.get(normalized)
        if existing is not None:
            self._raise_priority(existing, relevance)
            return existing
        return self._add_entry(normalized, url_oid(normalized), server_sid(normalized), relevance)

    def _raise_priority(self, entry: FrontierEntry, relevance: float) -> None:
        if entry.status == "frontier" and relevance > entry.relevance:
            entry.relevance = relevance
            self._sync_row(entry, {"relevance": relevance})
            self._push(entry)

    def _add_entry(
        self,
        normalized: str,
        oid: int,
        sid: int,
        relevance: float,
        discovered: Optional[int] = None,
    ) -> FrontierEntry:
        entry = FrontierEntry(
            url=normalized,
            oid=oid,
            sid=sid,
            relevance=relevance,
            serverload=self._server_load.get(sid, 0),
            discovered=self._next_discovered if discovered is None else discovered,
        )
        # Sharded checkout passes coordinator-assigned discovery numbers
        # (monotone in the global round order); keep the local counter
        # strictly ahead so the two numbering sources can never collide.
        self._next_discovered = max(self._next_discovered + 1, entry.discovered + 1)
        self._frontier_count += 1
        if self._buffering:
            self._pending_new.append(entry)
        else:
            entry.rid = self.database.table("CRAWL").insert(self._crawl_row(entry))
            if self._touched is not None:
                self._touched[normalized] = None
        self._entries[normalized] = entry
        self._url_of_oid[oid] = normalized
        self._push(entry)
        return entry

    def url_of_oid(self, oid: int) -> Optional[str]:
        """The known URL with object id *oid*, if any (distillation views)."""
        return self._url_of_oid.get(oid)

    def add_many(self, targets, relevance: float) -> None:
        """Bulk :meth:`add_url` over pre-resolved ``(normalized, oid, sid)`` triples.

        The link-recording path has already normalised and hashed every
        out-link target; this entry point skips re-deriving them.  Per
        target the semantics are exactly :meth:`add_url`'s (shared
        helpers, so the two can never drift apart).
        """
        entries = self._entries
        for normalized, oid, sid in targets:
            existing = entries.get(normalized)
            if existing is not None:
                self._raise_priority(existing, relevance)
            else:
                self._add_entry(normalized, oid, sid, relevance)

    def add_many_discovered(self, targets, relevance: float) -> None:
        """:meth:`add_many` over ``(normalized, oid, sid, discovered)`` quads.

        The sharded engine's shard-aware checkout: each shard owns only a
        slice of the frontier, so discovery numbers — which drive the
        breadth-first ordering — are assigned by the coordinator over the
        round's *global* expansion order and passed through here.  Known
        targets keep their original number (exactly like ``add_many``);
        new ones adopt the coordinator's.
        """
        entries = self._entries
        for normalized, oid, sid, discovered in targets:
            existing = entries.get(normalized)
            if existing is not None:
                self._raise_priority(existing, relevance)
            else:
                self._add_entry(normalized, oid, sid, relevance, discovered=discovered)

    def _crawl_row(self, entry: FrontierEntry) -> tuple:
        """The entry's CRAWL row, positional in the pinned schema order."""
        status = "frontier" if entry.status == "in_flight" else entry.status
        return (
            entry.oid,
            entry.url,
            entry.sid,
            entry.relevance,
            entry.numtries,
            entry.serverload,
            entry.lastvisited,
            None,  # kcid: unknown until the page is classified
            status,
        )

    def add_seed(self, url: str) -> FrontierEntry:
        """Seeds (the examples D(C*)) enter with maximal priority."""
        return self.add_url(url, relevance=1.0)

    def boost(self, url: str, relevance: float) -> None:
        """Raise the priority of an unvisited URL (used by hub-neighbour boosting)."""
        normalized = normalize_url(url)
        entry = self._entries.get(normalized)
        if entry is None or entry.status != "frontier":
            return
        if relevance > entry.relevance:
            entry.relevance = relevance
            self._sync_row(entry, {"relevance": relevance})
            self._push(entry)

    def update_scores(self, url: str, hub_score: float = 0.0, authority_score: float = 0.0) -> None:
        """Attach distillation scores (used by maintenance orderings)."""
        entry = self._entries.get(normalize_url(url))
        if entry is None:
            return
        entry.hub_score = hub_score
        entry.authority_score = authority_score
        if self._touched is not None:
            self._touched[entry.url] = None
        if entry.status == "frontier":
            self._push(entry)

    def record_failure(self, url: str, max_retries: int, permanent: bool = False) -> None:
        """Record a failed fetch; the URL is retried unless exhausted or permanent."""
        entry = self.entry(url)
        entry.numtries += 1
        if permanent or entry.numtries > max_retries:
            self._set_status(entry, "dead")
        else:
            self._set_status(entry, "frontier")
            self._push(entry)
        self._sync_row(entry, {"numtries": entry.numtries, "status": entry.status})

    def record_visit(
        self,
        url: str,
        relevance: float,
        tick: int,
        kcid: Optional[int] = None,
    ) -> FrontierEntry:
        """Mark a URL visited, store its measured relevance and best leaf class."""
        entry = self.entry(url)
        self._set_status(entry, "visited")
        entry.relevance = relevance
        entry.numtries += 1
        entry.lastvisited = tick
        self._server_load[entry.sid] = self._server_load.get(entry.sid, 0) + 1
        entry.serverload = self._server_load[entry.sid]
        self._sync_row(
            entry,
            {
                "relevance": relevance,
                "numtries": entry.numtries,
                "lastvisited": tick,
                "kcid": kcid,
                "status": "visited",
                "serverload": entry.serverload,
            },
        )
        return entry

    # -- popping --------------------------------------------------------------------------
    def pop_next(self) -> Optional[str]:
        """Return the best frontier URL under the current ordering, or None if empty."""
        batch = self.pop_batch(1)
        return batch[0] if batch else None

    def pop_batch(self, k: int) -> list[str]:
        """Check out up to *k* frontier URLs in one heap drain.

        One continuous drain of the heap, not *k* independent top-level
        pops: every popped entry is validated lazily (stale priorities are
        re-queued, non-frontier entries discarded) and accepted entries are
        marked ``in_flight`` so they cannot be returned twice within the
        drain.  Ties under the ordering come out in stable oid order
        (see :meth:`_push`), so a batched checkout is deterministic.
        """
        self._maybe_compact_heap()
        checked_out: list[str] = []
        while len(checked_out) < k:
            item = self._index.pop_min()
            if item is None:
                break
            key, _oid, url = item
            self._heap_tuples_scanned += 1
            entry = self._entries.get(url)
            if entry is None or entry.status != "frontier":
                continue
            current_key = self._current_key(entry)
            if key != current_key:
                # Priority changed since this entry was pushed (e.g. the
                # lazily-updated serverload moved): re-queue at the current
                # priority instead of losing the URL.
                self._push(entry)
                continue
            self._set_status(entry, "in_flight")
            checked_out.append(url)
        return checked_out

    def requeue(self, url: str) -> None:
        """Return an in-flight URL to the frontier (e.g. after a transient failure)."""
        entry = self.entry(url)
        if entry.status == "in_flight":
            self._set_status(entry, "frontier")
            self._push(entry)
            if self._touched is not None:
                self._touched[entry.url] = None

    def current_key(self, entry: FrontierEntry) -> tuple:
        """The entry's ordering key right now (value tuple, shard-comparable).

        The sharded engine's checkout ships these with each candidate so
        the coordinator can merge per-shard candidate lists exactly as a
        single global heap would — same key function, same oid
        tie-break.
        """
        return self._current_key(entry)

    # -- internals ------------------------------------------------------------------------------
    def _current_key(self, entry: FrontierEntry) -> tuple:
        # The crude, lazily-updated serverload of the paper: read the shared
        # per-server counter at key-construction time.
        return self._entry_key(entry, self._server_load.get(entry.sid, 0))

    def _push(self, entry: FrontierEntry) -> None:
        # Tie-break equal ordering keys by oid — a stable function of the
        # URL — so checkout order is independent of insertion history.
        self._index.push((self._current_key(entry), entry.oid, entry.url))

    def _sync_row(self, entry: FrontierEntry, changes: Mapping[str, Any]) -> None:
        if self._buffering:
            self._pending_changes.setdefault(entry.url, {}).update(changes)
            return
        if self._touched is not None:
            self._touched[entry.url] = None
        if entry.rid is None:
            return
        # ``in_flight`` is frontier-internal; the table only knows the paper's states.
        changes = dict(changes)
        if changes.get("status") == "in_flight":
            changes["status"] = "frontier"
        self.database.table("CRAWL").update_row(entry.rid, changes)

    # -- round buffering ---------------------------------------------------------------
    def begin_batch(self) -> None:
        """Start buffering CRAWL-table writes for one crawl round.

        In-memory entries (the authoritative state for ordering decisions)
        keep updating immediately; only the table writes are deferred.
        """
        self._buffering = True

    def flush_batch(self) -> None:
        """Write the round's buffered CRAWL inserts and updates in bulk."""
        crawl = self.database.table("CRAWL")
        new_entries = self._pending_new
        if self._touched is not None:
            # Everything a round changes on an entry goes through
            # _sync_row or _add_entry, so the two buffers name the
            # round's touched entries (new ones first, in entry order).
            self._touched.update(dict.fromkeys(entry.url for entry in new_entries))
            self._touched.update(dict.fromkeys(self._pending_changes))
        if new_entries:
            # New rows are built from the *current* entry state, so any
            # same-round boost is folded into the insert itself.
            rids = crawl.insert_many([self._crawl_row(entry) for entry in new_entries])
            for entry, rid in zip(new_entries, rids):
                entry.rid = rid
                self._pending_changes.pop(entry.url, None)
        updates = []
        for url, changes in self._pending_changes.items():
            entry = self._entries[url]
            if entry.rid is None:
                continue
            if changes.get("status") == "in_flight":
                changes = dict(changes)
                changes["status"] = "frontier"
            updates.append((entry.rid, changes))
        if updates:
            crawl.update_rows(updates)
        self._pending_new = []
        self._pending_changes = {}
        self._buffering = False

    # -- checkpointing ------------------------------------------------------------------
    def state_snapshot(self) -> Dict[str, Any]:
        """Serialisable frontier state, captured at a round boundary.

        Entries are positional: ``fields`` names the layout once
        (:data:`ENTRY_FIELDS`) and ``entries`` holds one tuple per entry,
        in entry order.  Record ids stay valid across a database recovery
        because the snapshot-plus-WAL scheme restores heap pages (and
        therefore rid assignment) exactly.  Must not be called while
        round buffering is active — buffered table writes belong to an
        unfinished round.
        """
        self._check_round_boundary()
        heap = self.database.table("CRAWL").heap
        return {
            "fields": ENTRY_FIELDS,
            "rid_file": heap.file_id,
            "entries": [_entry_tuple(entry, heap.locate) for entry in self._entries.values()],
            "server_load": dict(self._server_load),
            "next_discovered": self._next_discovered,
        }

    def mark_saved(self) -> None:
        """Start a new delta interval: the state as of now is on disk."""
        self._touched = {}

    def state_delta(self) -> tuple:
        """What :meth:`state_snapshot` gained since :meth:`mark_saved`, positionally.

        ``(entries, server_load, next_discovered)``: the current tuple of
        every entry added or changed in the interval (new ones in entry
        order), the load of the servers those entries live on — a visit
        is the only thing that moves a load, and it touches the entry —
        and the discovery watermark.  :meth:`fold_state` applies it.
        """
        self._check_round_boundary()
        if self._touched is None:
            raise RuntimeError("state_delta() needs a mark_saved() to be relative to")
        entries = self._entries
        touched = [entries[url] for url in self._touched]
        server_load = self._server_load
        locate = self.database.table("CRAWL").heap.locate
        return (
            [_entry_tuple(entry, locate) for entry in touched],
            {entry.sid: server_load[entry.sid] for entry in touched if entry.sid in server_load},
            self._next_discovered,
        )

    @staticmethod
    def fold_state(state: Dict[str, Any], deltas: Iterable[tuple]) -> Dict[str, Any]:
        """Apply :meth:`state_delta` tuples, oldest first, to a :meth:`state_snapshot`.

        Folds in place and returns *state*: a changed entry is replaced
        where it stands, a new one is appended, so the result is the
        snapshot the live frontier would have produced, order included.
        """
        entries: List[tuple] = state["entries"]
        position: Optional[Dict[str, int]] = None
        for changed, server_load, next_discovered in deltas:
            if position is None:
                position = {entry[0]: index for index, entry in enumerate(entries)}
            for entry in changed:
                index = position.get(entry[0])
                if index is None:
                    position[entry[0]] = len(entries)
                    entries.append(entry)
                else:
                    entries[index] = entry
            state["server_load"].update(server_load)
            state["next_discovered"] = next_discovered
        return state

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Rebuild entries, server loads, and the priority heap from a snapshot.

        The heap is rebuilt from current priorities; the original heap may
        also have carried stale (lazily invalidated) entries, but those
        are re-keyed on pop anyway, so checkout order is unchanged.
        """
        if tuple(state["fields"]) != ENTRY_FIELDS:
            raise ValueError(f"frontier entry layout {state['fields']} != {ENTRY_FIELDS}")
        file_id = state["rid_file"]
        self._entries = {}
        self._url_of_oid = {}
        for *values, rid_page, rid_slot in state["entries"]:
            entry = FrontierEntry(*values)
            if rid_page is not None:
                entry.rid = rid_of(file_id, rid_page, rid_slot)
            self._entries[entry.url] = entry
            self._url_of_oid[entry.oid] = entry.url
        self._server_load = dict(state["server_load"])
        self._next_discovered = state["next_discovered"]
        self._rebuild_heap()

    def _check_round_boundary(self) -> None:
        if self._buffering or self._pending_new or self._pending_changes:
            raise RuntimeError("cannot snapshot the frontier mid-round")
