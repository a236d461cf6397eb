"""Ad-hoc crawl monitoring through SQL (paper §3.1 and §3.7).

One of the paper's practical findings is that keeping crawl state in a
relational database makes monitoring and diagnosis trivial: the authors
plot harvest rate with one GROUP BY query, diagnose the mutual-funds
stagnation with a topic census joined against TAXONOMY, and find pages
the crawler is neglecting with a nested-IN query over HUBS and LINK.
This module packages those queries (adapted to the reproduction's schema,
where ``relevance`` is a probability rather than a log) plus a
stagnation detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.minidb import Database


@dataclass
class StagnationReport:
    """Diagnosis of a (possibly) stagnating crawl."""

    stagnating: bool
    frontier_size: int
    recent_average_relevance: float
    dominant_kcid: Optional[int]
    dominant_kcid_name: Optional[str]
    dominant_share: float


class CrawlMonitor:
    """Read-only monitoring queries over the CRAWL/LINK/HUBS/TAXONOMY tables."""

    def __init__(self, database: Database) -> None:
        self.database = database

    # -- §3.7: the harvest-rate plot query --------------------------------------------
    def harvest_rate_by_bucket(self, bucket_size: int = 100) -> list[dict]:
        """Average relevance of visited pages per bucket of crawl ticks.

        The paper's applet runs::

            select minute(lastvisited), avg(exp(relevance)) from CRAWL
            where lastvisited + 1 hour > current timestamp
            group by minute(lastvisited) order by minute(lastvisited)

        Crawl progress here is measured in fetch ticks rather than wall
        minutes, and relevance is stored as a probability, so the adapted
        query groups by ``floor(lastvisited / bucket)``.
        """
        return self.database.sql(
            """
            select floor(lastvisited / :bucket) bucket,
                   avg(relevance) avg_relevance,
                   count(*) pages
            from CRAWL
            where status = 'visited'
            group by floor(lastvisited / :bucket)
            order by floor(lastvisited / :bucket)
            """,
            {"bucket": bucket_size},
        )

    # -- §3.7: the topic census that diagnosed the mutual-funds crawl ----------------------
    def topic_census(self, limit: Optional[int] = None) -> list[dict]:
        """Count visited pages per best-leaf class, joined with TAXONOMY names."""
        sql = """
            select CRAWL.kcid kcid, count(oid) cnt, name
            from CRAWL, TAXONOMY
            where CRAWL.kcid = TAXONOMY.kcid and status = 'visited'
            group by CRAWL.kcid, name
            order by cnt desc
        """
        if limit is not None:
            sql += f" limit {int(limit)}"
        return self.database.sql(sql)

    # -- taxonomy subtree census (graph-index subtree walk) -------------------------------------
    def subtree_census(self, root_kcid: int) -> dict:
        """Visited-page census over one whole taxonomy *subtree*.

        The paper's mutual-funds diagnosis needed "this class or any
        descendant of it" — an ancestor/descendant question the flat
        census can't ask.  The ``in_subtree`` predicate answers it from
        the ``taxonomy_tree`` graph index (one preorder walk of the class
        tree) instead of a recursive SQL parent walk.
        """
        row = self.database.sql(
            """
            select count(*) pages, avg(relevance) avg_relevance
            from CRAWL
            where status = 'visited' and in_subtree(kcid, :root)
            """,
            {"root": root_kcid},
        )[0]
        return {
            "root_kcid": root_kcid,
            "pages": int(row["pages"] or 0),
            "avg_relevance": row["avg_relevance"],
        }

    # -- §3.7: possibly missed neighbours of great hubs -----------------------------------------
    def missed_hub_neighbours(self, hub_score_threshold: float) -> list[dict]:
        """Unvisited URLs cited (cross-server) by hubs scoring above ψ."""
        return self.database.sql(
            """
            select url, relevance from CRAWL
            where oid in
              (select oid_dst from LINK
               where oid_src in (select oid from HUBS where score > :psi)
                 and sid_src <> sid_dst)
              and numtries = 0
            """,
            {"psi": hub_score_threshold},
        )

    def hub_score_percentile(self, percentile: float = 0.9) -> float:
        """The paper's ψ: the given percentile of HUBS scores."""
        rows = self.database.sql("select score from HUBS order by score")
        scores = [row["score"] for row in rows if row["score"] is not None]
        if not scores:
            return 0.0
        index = min(int(percentile * len(scores)), len(scores) - 1)
        return scores[index]

    # -- frontier / stagnation diagnostics ------------------------------------------------------------
    def frontier_size(self) -> int:
        row = self.database.sql(
            "select count(*) n from CRAWL where status = 'frontier'"
        )
        return int(row[0]["n"])

    def visited_count(self) -> int:
        row = self.database.sql("select count(*) n from CRAWL where status = 'visited'")
        return int(row[0]["n"])

    def average_relevance(self, last_n_ticks: Optional[int] = None) -> float:
        if last_n_ticks is None:
            rows = self.database.sql(
                "select avg(relevance) r from CRAWL where status = 'visited'"
            )
        else:
            horizon = self.database.sql(
                "select max(lastvisited) t from CRAWL where status = 'visited'"
            )[0]["t"]
            if horizon is None:
                return 0.0
            rows = self.database.sql(
                "select avg(relevance) r from CRAWL"
                " where status = 'visited' and lastvisited > :cutoff",
                {"cutoff": horizon - last_n_ticks},
            )
        value = rows[0]["r"]
        return float(value) if value is not None else 0.0

    def diagnose_stagnation(
        self,
        relevance_floor: float = 0.2,
        window: int = 200,
    ) -> StagnationReport:
        """Detect stagnation and name the class dominating the recent crawl.

        Mirrors the paper's mutual-funds anecdote: the census showed "the
        neighborhood of most pages on mutual funds contained pages on
        investment in general, which was an ancestor of mutual funds" —
        i.e. a near-miss class dominating the harvest.  The fix (marking
        the ancestor good) is applied by the caller via
        :meth:`repro.taxonomy.tree.TopicTaxonomy.add_good`.
        """
        frontier = self.frontier_size()
        recent = self.average_relevance(last_n_ticks=window)
        census = self.topic_census(limit=1)
        dominant_kcid = census[0]["kcid"] if census else None
        dominant_name = census[0]["name"] if census else None
        visited = self.visited_count()
        share = (census[0]["cnt"] / visited) if census and visited else 0.0
        stagnating = frontier == 0 or recent < relevance_floor
        return StagnationReport(
            stagnating=stagnating,
            frontier_size=frontier,
            recent_average_relevance=recent,
            dominant_kcid=dominant_kcid,
            dominant_kcid_name=dominant_name,
            dominant_share=share,
        )
