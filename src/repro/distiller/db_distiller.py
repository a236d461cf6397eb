"""Database-backed distillers: the join plan of Figure 4 and its naive rival.

The paper compares two ways of running (relevance-weighted) HITS over a
crawl graph that lives in the database:

* **Join distillation** (Figure 4): each half-iteration is one
  set-oriented INSERT ... SELECT with a GROUP BY, followed by an UPDATE
  that normalises the scores.  The planner runs the joins as hash joins
  (or index probes where an index covers the key), so the per-iteration
  cost is a few sequential passes.  The INSERT writes its grouped rows
  as one batch (:meth:`Table.insert_many`), which fetches each AUTH or
  HUBS page it fills once rather than once per row; that write is
  charged to the join and lookup columns with the SELECT it ends.
* **Index-lookup distillation** (the "earlier main-memory
  implementations" transplanted onto disk): walk the LINK table edge by
  edge, look up the endpoint scores through indexes, and update the
  scores row by row — random I/O per edge, which Figure 8(d) shows to be
  about 3× slower.

Both produce the same scores as the in-memory
:func:`repro.distiller.hits.weighted_hits` reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, List, Optional

from repro.minidb import Database
from repro.minidb.pages import PageId, rid_of
from repro.minidb.table import Table

from .compiled import CompiledLinkGraph, compiled_weighted_hits
from .hits import DistillationResult, _normalize


@dataclass
class DistillerCost:
    """Simulated-I/O breakdown of a distillation run (drives Figure 8d)."""

    scan_cost: float = 0.0
    lookup_cost: float = 0.0
    update_cost: float = 0.0
    join_cost: float = 0.0
    iterations: int = 0

    def total(self) -> float:
        return self.scan_cost + self.lookup_cost + self.update_cost + self.join_cost


class _BaseDbDistiller:
    """Shared plumbing: initialisation of HUBS/AUTH and result extraction."""

    def __init__(self, database: Database, rho: float = 0.1) -> None:
        self.database = database
        self.rho = rho
        self.cost = DistillerCost()

    # -- initialisation -----------------------------------------------------------
    def initialize_scores(self) -> None:
        """Seed HUBS with a uniform distribution over link sources and clear AUTH."""
        db = self.database
        db.sql("delete from HUBS")
        db.sql("delete from AUTH")
        sources = db.sql("select distinct oid_src from LINK")
        if not sources:
            return
        uniform = 1.0 / len(sources)
        db.table("HUBS").insert_many(
            {"oid": row["oid_src"], "score": uniform} for row in sources
        )

    # -- results --------------------------------------------------------------------
    def result(self) -> DistillationResult:
        hubs = {
            row["oid"]: row["score"]
            for row in self.database.sql("select oid, score from HUBS where score is not null")
        }
        authorities = {
            row["oid"]: row["score"]
            for row in self.database.sql("select oid, score from AUTH where score is not null")
        }
        return DistillationResult(
            hub_scores=hubs,
            authority_scores=authorities,
            iterations=self.cost.iterations,
        )

    def run(self, iterations: int = 5) -> DistillationResult:
        """Initialise (if needed) and run *iterations* full HITS iterations."""
        if len(self.database.table("HUBS")) == 0:
            self.initialize_scores()
        for _ in range(iterations):
            self.iterate()
        return self.result()

    def iterate(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class JoinDistiller(_BaseDbDistiller):
    """One HITS iteration as two set-oriented SQL statements (paper Figure 4)."""

    def _run_attributed(self, sql: str, params: Optional[dict] = None) -> list:
        """Execute one statement and charge its I/O to the right counter.

        Mutations (DELETE/UPDATE) are bookkeeping, not join work:
        ``update_cost``.  Read pipelines ask the planner how their rows
        were fetched (:meth:`Plan.access_rows`): the index-probe share
        of the measured cost goes to ``lookup_cost``, the rest — scans,
        hashing, grouping — to ``join_cost``.  The old one-diff-per-
        iteration accounting silently booked index-path reads as join
        work, which understated the lookup column of Figure 8(d)
        whenever the planner picked an index plan.
        """
        db = self.database
        before = db.stats.copy()
        rows = db.sql(sql, params)
        measured = db.stats.diff(before).simulated_cost()
        verb = sql.split(None, 1)[0].lower()
        if verb in ("delete", "update"):
            self.cost.update_cost += measured
            return rows
        plan = db.last_plan
        index_rows, scan_rows = plan.access_rows() if plan is not None else (0, 0)
        touched = index_rows + scan_rows
        if touched and index_rows:
            lookup_share = measured * index_rows / touched
            self.cost.lookup_cost += lookup_share
            measured -= lookup_share
        self.cost.join_cost += measured
        return rows

    def iterate(self) -> None:
        # UpdateAuth(rho): authorities gather prestige through forward weights,
        # filtered to sufficiently relevant pages, excluding same-server edges.
        self._run_attributed("delete from AUTH")
        self._run_attributed(
            """
            insert into AUTH(oid, score)
            (select oid_dst, sum(score * wgt_fwd)
             from HUBS, LINK, CRAWL
             where sid_src <> sid_dst
               and HUBS.oid = oid_src
               and oid_dst = CRAWL.oid
               and relevance > :rho
             group by oid_dst)
            """,
            {"rho": self.rho},
        )
        total_auth = self._run_attributed("select sum(score) total from AUTH")[0]["total"]
        if total_auth:
            self._run_attributed(
                "update AUTH set score = score / :total", {"total": total_auth}
            )

        # UpdateHubs: hubs collect reflected prestige through backward weights.
        self._run_attributed("delete from HUBS")
        self._run_attributed(
            """
            insert into HUBS(oid, score)
            (select oid_src, sum(score * wgt_rev)
             from AUTH, LINK
             where sid_src <> sid_dst
               and oid = oid_dst
             group by oid_src)
            """
        )
        total_hubs = self._run_attributed("select sum(score) total from HUBS")[0]["total"]
        if total_hubs:
            self._run_attributed(
                "update HUBS set score = score / :total", {"total": total_hubs}
            )
        self.cost.iterations += 1


class IndexLookupDistiller(_BaseDbDistiller):
    """One HITS iteration as an edge-at-a-time walk with index lookups.

    This reproduces "naive distillation using sequential link table scan"
    against "end-vertex index lookup and score updates" whose time
    breakdown is charted in Figure 8(d).
    """

    def iterate(self) -> None:
        db = self.database
        crawl = db.table("CRAWL")
        hubs_table = db.table("HUBS")
        auth_table = db.table("AUTH")
        link_table = db.table("LINK")
        crawl_schema = crawl.schema

        # ---- authority half-step ------------------------------------------------
        new_auth: Dict[int, float] = {}
        before = db.stats.copy()
        # The naive variant *is* the paper's sequential link-table scan —
        # the baseline the experiment measures — so it reads LINK with a
        # raw Table.scan() rather than through Database.sql().
        link_schema = link_table.schema
        link_rows = [link_schema.row_to_mapping(row) for _rid, row in link_table.scan()]
        self.cost.scan_cost += db.stats.diff(before).simulated_cost()

        before = db.stats.copy()
        for link in link_rows:
            if link["sid_src"] == link["sid_dst"]:
                continue
            # Per-edge random lookups: destination relevance from CRAWL, then
            # the source's hub score from HUBS (the naive access pattern the
            # paper transplants from main-memory implementations).
            crawl_row = crawl.get_by_key((link["oid_dst"],))
            if crawl_row is None:
                continue
            relevance = crawl_schema.row_to_mapping(crawl_row).get("relevance")
            if relevance is None or relevance <= self.rho:
                continue
            hub_row = hubs_table.get_by_key((link["oid_src"],))
            hub_score = (
                hubs_table.schema.row_to_mapping(hub_row)["score"] if hub_row else 0.0
            )
            contribution = (hub_score or 0.0) * (link["wgt_fwd"] or 0.0)
            if contribution:
                new_auth[link["oid_dst"]] = new_auth.get(link["oid_dst"], 0.0) + contribution
        self.cost.lookup_cost += db.stats.diff(before).simulated_cost()

        before = db.stats.copy()
        _normalize(new_auth)
        auth_table.truncate()
        auth_table.insert_many({"oid": oid, "score": score} for oid, score in new_auth.items())
        self.cost.update_cost += db.stats.diff(before).simulated_cost()

        # ---- hub half-step --------------------------------------------------------
        new_hubs: Dict[int, float] = {}
        before = db.stats.copy()
        for link in link_rows:
            if link["sid_src"] == link["sid_dst"]:
                continue
            auth_row = auth_table.get_by_key((link["oid_dst"],))
            if auth_row is None:
                continue
            authority_score = auth_table.schema.row_to_mapping(auth_row)["score"] or 0.0
            if not authority_score:
                continue
            contribution = authority_score * (link["wgt_rev"] or 0.0)
            if contribution:
                new_hubs[link["oid_src"]] = new_hubs.get(link["oid_src"], 0.0) + contribution
        self.cost.lookup_cost += db.stats.diff(before).simulated_cost()

        before = db.stats.copy()
        _normalize(new_hubs)
        hubs_table.truncate()
        hubs_table.insert_many({"oid": oid, "score": score} for oid, score in new_hubs.items())
        self.cost.update_cost += db.stats.diff(before).simulated_cost()
        self.cost.iterations += 1


class LinkDeltaCache:
    """Cached LINK adjacency refreshed by delta scans (every crawl loop's distill feed).

    Re-reading the whole LINK table before every distillation is an O(E)
    sequential scan that grows with the crawl; since the crawler only ever
    *appends* link rows and *updates weights in place*, the adjacency can
    be cached and refreshed incrementally:

    * newly appended rows are picked up by rescanning from the page the
      previous refresh stopped in (``HeapFile.scan_pages``), a page's
      column chunks at a time;
    * in-place weight updates (the ``wgt_fwd`` refresh when a destination
      page gets classified) are re-read — the two weight columns of the
      slots the writer reports via :meth:`note_updated`, a page at a time.

    The adjacency is a :class:`CompiledLinkGraph`: deltas are folded into
    it in column batches, never rebuilt.  Its edges stay in the order of
    a full heap scan (append order, with updated rows keeping their
    position), so scores computed over the cache agree with a
    from-scratch recomputation bit for bit.
    """

    def __init__(self, table: Table) -> None:
        self.table = table
        #: The graph edge position of each slot of heap page p folded so
        #: far, at index p (-1: an empty slot or a nepotistic edge the
        #: graph dropped) — LINK is append-only, so a page's list only
        #: grows.  Positional, not keyed by record id: the cache outlives
        #: every distillation.
        self._pages: List[List[int]] = []
        self._watermark_page = 0
        self._folded_count = 0
        self._updated_rids: set[int] = set()
        self.graph = CompiledLinkGraph()
        # Columns are handed to graph.add_columns positionally: pin the order.
        columns = tuple(table.schema.column_names)
        expected = ("oid_src", "sid_src", "oid_dst", "sid_dst", "wgt_fwd", "wgt_rev")
        if columns != expected:
            raise ValueError(f"LINK schema order {columns} != {expected}")

    def note_updated(self, rids: Iterable[int]) -> None:
        """Record in-place updates to already-cached rows (e.g. weight refreshes)."""
        self._updated_rids.update(rids)

    def refresh(self) -> None:
        """Fold the appends and weight updates since the last call into :attr:`graph`."""
        heap = self.table.heap
        self._fold_pages(self._watermark_page, None)
        self._watermark_page = max(heap.page_count - 1, 0)
        slots_of: Dict[PageId, List[int]] = {}
        for page_id, slot in map(heap.page_of, self._updated_rids):
            slots_of.setdefault(page_id, []).append(slot)
        self._updated_rids.clear()
        get_page = heap.buffer_pool.get_page
        edges: List[int] = []
        forward: list = []
        backward: list = []
        for page_id, slots in slots_of.items():
            columns = get_page(page_id).columns
            edge_of = self._pages[page_id.page_no]
            slots = [slot for slot in slots if edge_of[slot] >= 0]
            edges.extend([edge_of[slot] for slot in slots])
            forward.extend([columns[4][slot] for slot in slots])
            backward.extend([columns[5][slot] for slot in slots])
        if edges:
            self.graph.patch(edges, forward, backward)

    def _fold_pages(self, start_page: int, stop_page: Optional[int]) -> None:
        """Fold heap pages ``[start_page, stop_page)`` into the graph.

        The graph gets the column slices past what it has folded of each
        page: LINK is append-only, so rows folded earlier can only have
        changed through in-place weight updates, which
        :meth:`note_updated` tracks.
        """
        pages = self._pages
        #: The new rows of every page read, as one column batch.
        batch: List[list] = [[] for _ in range(6)]
        counts: List[tuple[int, int]] = []
        for page in self.table.heap.scan_pages(start_page, stop_page):
            page_no = page.page_id.page_no
            while len(pages) <= page_no:
                pages.append([])
            known = len(pages[page_no])
            if page.slot_count() == known:
                continue
            columns = [column[known:] for column in page.columns]
            dead = [slot - known for slot in page.dead if slot >= known]
            for at in dead:  # the graph drops what looks nepotistic
                columns[1][at] = columns[3][at] = None
            for whole, part in zip(batch, columns):
                whole.extend(part)
            counts.append((page_no, len(columns[0])))
            self._folded_count += len(columns[0]) - len(dead)
        if counts:
            edges = iter(self.graph.add_columns(*batch))
            for page_no, count in counts:
                pages[page_no].extend(islice(edges, count))

    def __len__(self) -> int:
        return self._folded_count

    # -- checkpointing ------------------------------------------------------
    def state_snapshot(self) -> dict:
        """The cache's durable state: its high-water mark plus pending updates.

        The folded graph itself is *not* serialised — it is a pure
        function of the (recovered) heap below the watermark, so restore
        rebuilds it with one bounded sequential scan.
        """
        heap = self.table.heap
        return {
            "watermark": self._watermark_page,
            "updated": [(heap.file_id, *heap.locate(rid)) for rid in self._updated_rids],
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild the adjacency from the heap up to the recorded watermark.

        Rows touched after the watermark (or whose weights changed since
        the last refresh) are re-read by the next :meth:`refresh`, exactly
        as they would have been without the restart; insertion order is
        ascending ``(page, slot)`` either way, so the refreshed edge list
        — and therefore HITS' float summation order — is unchanged.
        """
        watermark = state["watermark"]
        # The graph is a pure function of the edge list in heap order;
        # rebuilding from the recovered heap reproduces the same
        # append-order arrays the uninterrupted crawl had.
        self._pages = []
        self.graph = CompiledLinkGraph()
        self._folded_count = 0
        self._fold_pages(0, watermark + 1)
        self._watermark_page = watermark
        self._updated_rids = {rid_of(*place) for place in state["updated"]}


class IncrementalDistiller:
    """Delta-mode distillation: cached adjacency + in-memory weighted HITS.

    The one distill stage of every in-process crawl loop.  Folds only the
    links recorded (or re-weighted) since the previous distillation into
    a :class:`LinkDeltaCache`, then scores the cached graph with the
    columnar matvec kernels of :mod:`repro.distiller.compiled` (edges,
    relevance and scores stay in arrays from the LINK append to the
    HUBS/AUTH write).  The graph keeps heap order, so its scores are bit
    for bit those of a recomputation over a full LINK scan, and within
    1e-9 of the reference :func:`~repro.distiller.hits.weighted_hits`
    (tests enforce both at every distillation of a crawl).
    """

    def __init__(
        self,
        database: Database,
        rho: float = 0.1,
        max_iterations: int = 5,
        link_table: str = "LINK",
    ) -> None:
        self.database = database
        self.rho = rho
        self.max_iterations = max_iterations
        self.cache = LinkDeltaCache(database.table(link_table))

    def note_updated(self, rids: Iterable[int]) -> None:
        self.cache.note_updated(rids)

    def run(
        self,
        relevance: Dict[int, float],
        max_iterations: Optional[int] = None,
    ) -> DistillationResult:
        self.cache.refresh()
        iterations = max_iterations if max_iterations is not None else self.max_iterations
        return compiled_weighted_hits(
            self.cache.graph,
            relevance=relevance,
            rho=self.rho,
            max_iterations=iterations,
        )
