"""The crawl frontier: unvisited URLs prioritised by a crawl ordering.

The authoritative record of every known URL is the CRAWL table (so ad-hoc
SQL can inspect the frontier and so triggers/monitoring work as in the
paper).  The Frontier keeps an in-memory priority structure mirroring
the ordering over frontier-status rows — the role an index ordering
plays in DB2 — with lazy invalidation when priorities change.  A
resumed crawl rebuilds it from one CRAWL scan
(:meth:`Frontier.restore_from_table`): a checkpoint keeps nothing of
the frontier but the scores :meth:`Frontier.update_scores` attached.

That structure is one binary heap (a list driven by :mod:`heapq`) of
``(ordering key, oid, url)`` tuples.  A priority change pushes a fresh
tuple and strands the old one; a checkout re-keys every tuple it pops
and re-queues the stale ones, and the heap is rebuilt from the live
entries once dead tuples outnumber them.

Ties under the crawl ordering are broken by page oid, which is a stable
function of the URL: checkout order therefore does not depend on
insertion history, so crawls are reproducible under a fixed seed
regardless of how a round interleaved its ``add_url`` calls.

A visited page's raw out-links enter in one pass (:meth:`Frontier.expand`:
resolved, deduplicated and probed once each).  Every way in creates an
entry through ``_add_entry`` and raises one through ``_raise_priority``.

The frontier always buffers its CRAWL writes: in-memory entries stay
authoritative at all times, and an entry carries every column of its
CRAWL row (``kcid`` included), so a row is a function of its entry.
What waits for a write is a list of the entries not yet in the table
and a dict of the written ones changed since — entries, not change
sets — until :meth:`Frontier.flush_batch` inserts the new ones at their
state then (a page visited before its first write is inserted visited)
and updates the others with change sets read off their entries.  The
crawl engine flushes at its syncs
(:meth:`repro.crawler.engine.CrawlEngine.sync`); anyone else driving a
frontier flushes before reading CRAWL.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.minidb import ColumnBatch, Database
from repro.webgraph.urls import normalize_url, resolve_url

from .policies import CrawlOrdering, aggressive_discovery

#: Below this index size, compaction is never worth the rebuild.
_COMPACT_MIN_HEAP = 64

#: One prioritised tuple: (ordering key, oid tie-break, url).
_HeapItem = Tuple[tuple, int, str]

#: CRAWL's columns, in the pinned schema order its rows are built in.
_CRAWL_COLUMNS = (
    "oid", "url", "sid", "relevance", "numtries", "serverload", "lastvisited", "kcid", "status",
)
#: The CRAWL columns a change to a written row can touch.  A written row
#: changes only while its entry is on the frontier, where a raise or a
#: retried failure moves its priority and retries, and once more when the
#: entry leaves it, visited or dead, which sets the rest; never after that.
#: A row still on the frontier gets the short set: ``status`` is indexed
#: (``crawl_status``), and a change set naming it makes ``update_rows``
#: read and compare that key for the row.
_FRONTIER_CHANGES = ("relevance", "numtries")
_FINAL_CHANGES = ("relevance", "numtries", "serverload", "lastvisited", "kcid", "status")


def _column(entries: List["FrontierEntry"], name: str) -> list:
    """One CRAWL column of *entries*' rows.  ``in_flight`` is frontier-internal:
    the table only knows the paper's states."""
    values = list(map(attrgetter(name), entries))
    if name == "status":
        return ["frontier" if status == "in_flight" else status for status in values]
    return values


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
    #: The best leaf class of a visited page (CRAWL's ``kcid``).
    kcid: Optional[int] = None


class Frontier:
    """Priority frontier backed by the CRAWL table."""

    def __init__(self, database: Database, ordering: Optional[CrawlOrdering] = None) -> None:
        self.database = database
        self.ordering = ordering or aggressive_discovery()
        self._entry_key = self.ordering.compile_entry_key()
        # CRAWL rows are built positionally for bulk loading; pin the order.
        crawl_columns = tuple(database.table("CRAWL").schema.column_names)
        if crawl_columns != _CRAWL_COLUMNS:
            raise ValueError(f"CRAWL schema order {crawl_columns} != {_CRAWL_COLUMNS}")
        self._entries: Dict[str, FrontierEntry] = {}
        #: oid -> normalized URL of every known entry (distillation results
        #: are keyed by oid; this avoids rebuilding the inverse per lookup).
        self._url_of_oid: Dict[int, str] = {}
        self._server_load: Dict[int, int] = {}
        self._heap: List[_HeapItem] = []
        # Heap hygiene: the heap is lazily invalidated, so it
        # accumulates tuples for dead/visited entries and superseded
        # priorities.  A live count of frontier-status entries (maintained
        # on every status transition) makes the dead fraction O(1) to
        # estimate; when dead tuples outnumber live ones the heap is
        # rebuilt from scratch, so a pop_batch drain costs
        # O(k + dead-since-last-compaction), never O(total push history).
        self._frontier_count = 0
        self._heap_tuples_scanned = 0
        self._heap_compactions = 0
        # The next discovery number; a resume recounts it from CRAWL.
        self._next_discovered = 0
        # What flush_batch writes: the entries CRAWL does not hold yet, and
        # the ones it holds that changed since (by URL, in first-change order).
        self._pending_new: list[FrontierEntry] = []
        self._changed: Dict[str, FrontierEntry] = {}
        #: oid -> (hub, authority) of every entry :meth:`update_scores`
        #: gave a non-zero score: the one part of an entry CRAWL lacks.
        self._attached_scores: Dict[int, Tuple[float, float]] = {}

    # -- policy ------------------------------------------------------------------
    def set_ordering(self, ordering: CrawlOrdering) -> None:
        """Switch crawl policy dynamically (the paper's one-line policy change)."""
        self.ordering = ordering
        self._entry_key = ordering.compile_entry_key()
        self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        current_key = self.current_key
        self._heap = [
            (current_key(entry), entry.oid, entry.url)
            for entry in self._entries.values()
            if entry.status == "frontier"
        ]
        heapq.heapify(self._heap)
        self._frontier_count = len(self._heap)

    def _set_status(self, entry: FrontierEntry, status: str) -> None:
        """Transition an entry's status, keeping the live frontier count exact."""
        if entry.status == "frontier":
            self._frontier_count -= 1
        if status == "frontier":
            self._frontier_count += 1
        entry.status = status

    def _maybe_compact_heap(self) -> None:
        """Rebuild the heap when dead tuples outnumber live frontier entries."""
        if (
            len(self._heap) >= _COMPACT_MIN_HEAP
            and len(self._heap) > 2 * self._frontier_count
        ):
            self._rebuild_heap()
            self._heap_compactions += 1

    def heap_stats(self) -> Dict[str, Any]:
        """Hygiene counters: heap size, live entries, tuples scanned, compactions."""
        return {
            "heap_size": len(self._heap),
            "frontier_size": self._frontier_count,
            "tuples_scanned": self._heap_tuples_scanned,
            "compactions": self._heap_compactions,
        }

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
        """Entry lookup for a URL the caller has *already normalised*: one dict probe."""
        return self._entries.get(normalized_url)

    # -- adding and updating ----------------------------------------------------------------
    def add_url(self, url: str, relevance: float = 0.0) -> FrontierEntry:
        """Register a URL; raises its priority if it is already known and unvisited.

        ``relevance`` here is the *crawl priority* of the unvisited page —
        for soft focus, the relevance of the page(s) citing it.
        """
        normalized, oid, sid = resolve_url(url)
        existing = self._entries.get(normalized)
        if existing is None:
            return self._add_entry(normalized, oid, sid, relevance)
        if existing.status == "frontier" and relevance > existing.relevance:
            self._raise_priority(existing, relevance)
        return existing

    def _raise_priority(self, entry: FrontierEntry, relevance: float) -> None:
        """Every raise: the caller checked the entry is on the frontier and *relevance* higher."""
        entry.relevance = relevance
        self._mark_changed(entry)
        self._push(entry)

    def _add_entry(
        self,
        normalized: str,
        oid: int,
        sid: int,
        relevance: float,
        discovered: Optional[int] = None,
    ) -> FrontierEntry:
        """Create, index and push a new frontier entry (every creation path)."""
        serverload = self._server_load.get(sid, 0)
        if discovered is None:
            discovered = self._next_discovered
        # Sharded checkout passes coordinator-assigned discovery numbers
        # (monotone in the global round order); keep the local counter
        # strictly ahead so the two numbering sources can never collide.
        self._next_discovered = max(self._next_discovered, discovered) + 1
        entry = FrontierEntry(normalized, oid, sid, relevance, 0, serverload, discovered)
        self._frontier_count += 1
        self._pending_new.append(entry)
        self._entries[normalized] = entry
        self._url_of_oid[oid] = normalized
        heapq.heappush(self._heap, (self._entry_key(entry, serverload), oid, normalized))
        return entry

    def url_of_oid(self, oid: int) -> Optional[str]:
        """The known URL with object id *oid*, if any (distillation views)."""
        return self._url_of_oid.get(oid)

    def add_many(self, targets, relevance: float) -> None:
        """Bulk :meth:`add_url` over pre-resolved ``(normalized, oid, sid)`` triples.

        Per target the semantics are exactly :meth:`add_url`'s (shared
        helpers, so the two can never drift apart).
        """
        self.add_many_discovered(((*target, None) for target in targets), relevance)

    def add_many_discovered(self, targets, relevance: float) -> None:
        """:meth:`add_many` over ``(normalized, oid, sid, discovered)`` quads.

        The sharded engine's shard-aware checkout: each shard owns only a
        slice of the frontier, so discovery numbers — which drive the
        breadth-first ordering — are assigned by the coordinator over the
        round's *global* expansion order and passed through here.  Known
        targets keep their original number (exactly like ``add_many``);
        new ones adopt the coordinator's, or the next local one for None.
        """
        entries = self._entries
        for normalized, oid, sid, discovered in targets:
            existing = entries.get(normalized)
            if existing is None:
                self._add_entry(normalized, oid, sid, relevance, discovered=discovered)
            elif existing.status == "frontier" and relevance > existing.relevance:
                self._raise_priority(existing, relevance)

    def expand(
        self, source_oid: int, relevance: float, out_links: Iterable[str], priority: Optional[float]
    ) -> Tuple[List[int], List[int], List[float]]:
        """Expand a visited page of *relevance* over its raw out-links, in one pass.

        Each link is resolved (:func:`~repro.webgraph.urls.resolve_url`),
        a duplicate or a link back to *source_oid* is dropped, and the
        rest probe their entry once.  The probe gives the ``wgt_fwd`` of
        the link's LINK row (E_F: a visited target's own relevance, else
        the page's) and, as :meth:`add_many` at *priority*, the new entry
        or the raise — none when *priority* is None (hard focus rejected
        the page).  Returns the kept links' ``oid_dst``, ``sid_dst`` and
        ``wgt_fwd`` columns, in page order.
        """
        entries = self._entries
        seen = {source_oid}
        oids, sids, forward = [], [], []
        for link in out_links:
            normalized, oid, sid = resolve_url(link)
            if oid in seen:
                continue
            seen.add(oid)
            oids.append(oid)
            sids.append(sid)
            entry = entries.get(normalized)
            if entry is None:
                if priority is not None:
                    self._add_entry(normalized, oid, sid, priority)
                forward.append(relevance)
            elif entry.status == "visited":
                forward.append(entry.relevance)
            else:
                if priority is not None and entry.status == "frontier" and priority > entry.relevance:
                    self._raise_priority(entry, priority)
                forward.append(relevance)
        return oids, sids, forward

    def add_seed(self, url: str) -> FrontierEntry:
        """Seeds (the examples D(C*)) enter with maximal priority."""
        return self.add_url(url, relevance=1.0)

    def boost(self, url: str, relevance: float) -> None:
        """Raise the priority of an unvisited URL (used by hub-neighbour boosting)."""
        entry = self._entries.get(normalize_url(url))
        if entry is not None and entry.status == "frontier" and relevance > entry.relevance:
            self._raise_priority(entry, relevance)

    def boost_oids(self, oids: Iterable[int], relevance: float) -> None:
        """:meth:`boost` every known URL among *oids*, in the order given.

        The single engine's hub boost: it reads the cited oids off its
        link graph, so no URL is normalised again.
        """
        entries, url_of_oid = self._entries, self._url_of_oid
        for oid in oids:
            entry = entries.get(url_of_oid.get(oid))
            if entry is not None and entry.status == "frontier" and relevance > entry.relevance:
                self._raise_priority(entry, relevance)

    def update_scores(self, url: str, hub_score: float = 0.0, authority_score: float = 0.0) -> None:
        """Attach distillation scores (used by maintenance orderings)."""
        entry = self._entries.get(normalize_url(url))
        if entry is None:
            return
        entry.hub_score = hub_score
        entry.authority_score = authority_score
        if hub_score or authority_score:
            self._attached_scores[entry.oid] = (hub_score, authority_score)
        else:
            self._attached_scores.pop(entry.oid, None)
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
        self._mark_changed(entry)

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
        entry.kcid = kcid
        self._server_load[entry.sid] = self._server_load.get(entry.sid, 0) + 1
        entry.serverload = self._server_load[entry.sid]
        self._mark_changed(entry)
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
        heap = self._heap
        checked_out: list[str] = []
        while heap and len(checked_out) < k:
            key, _oid, url = heapq.heappop(heap)
            self._heap_tuples_scanned += 1
            entry = self._entries.get(url)
            if entry is None or entry.status != "frontier":
                continue
            if key != self.current_key(entry):
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

    def current_key(self, entry: FrontierEntry) -> tuple:
        """The entry's ordering key right now (value tuple, shard-comparable).

        The sharded engine's checkout ships these with each candidate so
        the coordinator can merge per-shard candidate lists exactly as a
        single global heap would — same key function, same oid
        tie-break.
        """
        # The crude, lazily-updated serverload of the paper: read the shared
        # per-server counter at key-construction time.
        return self._entry_key(entry, self._server_load.get(entry.sid, 0))

    # -- internals ------------------------------------------------------------------------------
    def _push(self, entry: FrontierEntry) -> None:
        # Tie-break equal ordering keys by oid — a stable function of the
        # URL — so checkout order is independent of insertion history.
        key = self._entry_key(entry, self._server_load.get(entry.sid, 0))
        heapq.heappush(self._heap, (key, entry.oid, entry.url))

    def _mark_changed(self, entry: FrontierEntry) -> None:
        """Queue a written entry's row for the next flush; a new one is inserted as it is then."""
        if entry.rid is not None:
            self._changed[entry.url] = entry

    # -- write buffering ---------------------------------------------------------------
    def flush_batch(self) -> None:
        """Write the buffered CRAWL rows in bulk, each from its entry's state now.

        One ``insert_many`` of a column batch for the entries the table
        lacks, then one ``update_rows`` for the changed ones it holds,
        each change set read off the entry: :data:`_FRONTIER_CHANGES`
        while it is on the frontier, :data:`_FINAL_CHANGES` once it is
        visited or dead.
        """
        crawl = self.database.table("CRAWL")
        new, self._pending_new = self._pending_new, []
        changed, self._changed = self._changed, {}
        if new:
            rids = crawl.insert_many(ColumnBatch([_column(new, name) for name in _CRAWL_COLUMNS]))
            for entry, rid in zip(new, rids):
                entry.rid = rid
        if changed:
            on_frontier, final = attrgetter(*_FRONTIER_CHANGES), attrgetter(*_FINAL_CHANGES)
            crawl.update_rows([
                (entry.rid, dict(zip(_FINAL_CHANGES, final(entry))))
                if entry.status in ("visited", "dead")
                else (entry.rid, dict(zip(_FRONTIER_CHANGES, on_frontier(entry))))
                for entry in changed.values()
            ])

    # -- checkpoint resume ---------------------------------------------------------------
    def attached_scores(self) -> Dict[int, Tuple[float, float]]:
        """oid -> (hub, authority) of every non-zero :meth:`update_scores` attachment.

        What a checkpoint keeps of the frontier: everything else is in CRAWL.
        """
        return dict(self._attached_scores)

    def restore_from_table(
        self, attached_scores: Optional[Mapping[int, Tuple[float, float]]] = None
    ) -> List[Tuple[int, str, float, Optional[int]]]:
        """Rebuild entries, server loads and the heap from one CRAWL scan.

        CRAWL rows are inserted in entry order and never deleted, so a
        row's rank in heap order is its entry's ``discovered`` number
        (the single-process numbering; sharded discovery numbers are the
        coordinator's and are not checkpointed), and a server's load is
        its count of visited rows.  *attached_scores* is what
        :meth:`attached_scores` returned when the table was saved.  The
        table must be as of a round boundary — no entry in flight, no
        write buffered — which is where every checkpoint is taken.  The
        heap is rebuilt from current priorities; the live heap may also
        have carried stale tuples, but those are re-keyed on pop anyway,
        so checkout order is unchanged.

        Returns the visited rows as ``(lastvisited, url, relevance, kcid)``
        in visit order: the crawl's visits, which the table holds whole.
        """
        scores = dict(attached_scores or {})
        visits = []
        entries: Dict[str, FrontierEntry] = {}
        url_of_oid: Dict[int, str] = {}
        server_load: Dict[int, int] = {}
        for discovered, (rid, row) in enumerate(self.database.table("CRAWL").heap.scan()):
            oid, url, sid, relevance, numtries, serverload, lastvisited, kcid, status = row
            hub_score, authority_score = scores.get(oid, (0.0, 0.0))
            entries[url] = FrontierEntry(
                url, oid, sid, relevance, numtries, serverload, discovered, lastvisited,
                hub_score, authority_score, status, rid, kcid,
            )
            url_of_oid[oid] = url
            if status == "visited":
                server_load[sid] = server_load.get(sid, 0) + 1
                visits.append((lastvisited, url, relevance, kcid))
        self._entries = entries
        self._url_of_oid = url_of_oid
        self._server_load = server_load
        self._attached_scores = scores
        self._next_discovered = len(entries)
        self._rebuild_heap()
        visits.sort()
        return visits
