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
:func:`repro.distiller.hits.weighted_hits` reference, and both read the
edge weights LINK stores.

A crawl distils through neither: :class:`IncrementalDistiller` keeps
LINK's edges in a columnar graph, fed the crawl's LINK rows as columns
before each distillation, and takes the weights from the crawl's relevance map — on the edges a
crawl keeps, the same floats as the stored ``wgt_fwd``/``wgt_rev``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.minidb import Database

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


class IncrementalDistiller:
    """The crawl's distiller: a growing edge graph + in-memory weighted HITS.

    The one distill stage of every in-process crawl loop.  Its
    :class:`CompiledLinkGraph` is built from one LINK scan when the
    distiller is created — an empty table on a fresh crawl, the
    recovered one on a resume — and from then on its graph is handed the
    crawl's new LINK rows as columns (:meth:`CompiledLinkGraph.add_columns`),
    buffered or written, in insert order, which is heap order: LINK is
    append-only and a bulk insert fills the last page before it opens a
    new one.  So the graph's edges are always those of a full LINK scan
    once the buffer is written, in scan order.  The graph holds no weights: the
    columnar kernels of :mod:`repro.distiller.compiled` read both from
    the relevance map, and edges, relevance and scores stay in arrays
    from the LINK append to the HUBS/AUTH write.  Scores are bit for bit
    those of a recomputation over a full LINK scan, and within 1e-9 of
    the reference :func:`~repro.distiller.hits.weighted_hits` over the
    stored weights (tests enforce both at every distillation of a crawl).
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
        table = database.table(link_table)
        # Columns are read positionally: pin the order.
        names = tuple(table.schema.column_names[:4])
        if names != ("oid_src", "sid_src", "oid_dst", "sid_dst"):
            raise ValueError(f"LINK schema order {names} does not start with the four endpoints")
        columns: List[list] = [[] for _ in range(4)]
        for page in table.heap.scan_pages():
            for whole, column in zip(columns, page.columns):
                whole.extend(page.live(column))
        self.graph = CompiledLinkGraph()
        self.graph.add_columns(*columns)

    def run(
        self,
        relevance: Dict[int, float],
        max_iterations: Optional[int] = None,
    ) -> DistillationResult:
        iterations = max_iterations if max_iterations is not None else self.max_iterations
        return compiled_weighted_hits(
            self.graph,
            relevance=relevance,
            rho=self.rho,
            max_iterations=iterations,
        )
