"""The focused crawler: classifier-guided, distiller-assisted resource discovery.

This is the paper's central loop (§2, §3.2).  Starting from the example
seed pages, the crawler repeatedly checks out the best frontier URL(s)
under the active crawl ordering, fetches them, asks the classifier for
their relevance R(u) (soft focus, Equation 3), records each page and its
out-links in the CRAWL and LINK tables, and enqueues the out-links with
priority inherited from the citing page.  Periodically the distiller
re-scores hubs and authorities over the crawl graph, and unvisited
out-neighbours of the top hubs get their priority raised (the §3.7
"missed neighbours of great hubs" query).

The loop itself lives in :mod:`repro.crawler.engine`;
:class:`FocusedCrawler` is a thin driver that wires a frontier, a trace,
and a :class:`~repro.crawler.engine.CrawlEngine` together.  The engine
runs one round kernel; ``CrawlerConfig.batch_size`` is how many URLs a
round checks out (1 by default — the paper's loop as written), and the
configured fetch transport (``CrawlerConfig.transport`` /
``transport_options`` — see :mod:`repro.webgraph.transport`) decides
whether a round's fetches run inline (outcomes settled at once) or
overlap in an asyncio pipeline (outcomes that owe a wait).

Three focus modes are supported:

* ``soft``  — the paper's soft focus rule: out-links always enter the
  frontier, prioritised by the citing page's relevance.
* ``hard``  — the hard focus rule: out-links enter only when the page's
  best leaf class has a good ancestor (prone to stagnation, reproduced
  for the ablation benchmark).
* ``none``  — the unfocused baseline: relevance is measured but ignored
  for ordering (``JobSpec(focused=False)`` sets it, with ``distill_every=0``).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.classifier.model import HierarchicalModel
from repro.distiller.hits import DistillationResult
from repro.distiller.weights import Link
from repro.minidb import Database
from repro.taxonomy.tree import TopicTaxonomy
from repro.webgraph.fetch import Fetcher

from .engine import CrawlEngine, CrawlerConfig, CrawlTrace, PageVisit
from .frontier import Frontier
from .policies import aggressive_discovery, breadth_first

__all__ = [
    "CrawlerConfig",
    "CrawlTrace",
    "FocusedCrawler",
    "PageVisit",
]


class FocusedCrawler:
    """Classifier-guided crawler over a simulated web, persisting state in minidb."""

    def __init__(
        self,
        fetcher: Fetcher,
        classifier: HierarchicalModel,
        taxonomy: TopicTaxonomy,
        database: Database,
        config: Optional[CrawlerConfig] = None,
    ) -> None:
        self.fetcher = fetcher
        self.classifier = classifier
        self.taxonomy = taxonomy
        self.database = database
        self.config = config or CrawlerConfig()
        if self.config.focus_mode not in ("soft", "hard", "none"):
            raise ValueError(f"unknown focus mode {self.config.focus_mode!r}")
        ordering = self.config.ordering
        if ordering is None:
            ordering = breadth_first() if self.config.focus_mode == "none" else aggressive_discovery()
        self.frontier = Frontier(database, ordering)
        self.trace = CrawlTrace()
        self.engine = CrawlEngine(
            fetcher=fetcher,
            classifier=classifier,
            taxonomy=taxonomy,
            database=database,
            config=self.config,
            frontier=self.frontier,
            trace=self.trace,
        )

    # -- public API ------------------------------------------------------------------
    def add_seeds(self, urls: Iterable[str]) -> None:
        """Seed the crawl with the user's example URLs (the paper's D(C*)).

        Seeding is a sync: the seeds' CRAWL rows are written here,
        before round 1, so they land where they do whether or not a
        checkpointer's first save (which syncs) follows.
        """
        for url in urls:
            self.frontier.add_seed(url)
        self.engine.sync()

    def crawl(self, max_pages: Optional[int] = None) -> CrawlTrace:
        """Run the crawl loop until the page budget or the frontier is exhausted."""
        budget = max_pages if max_pages is not None else self.config.max_pages
        return self.engine.run(budget)

    def run_distillation(self) -> DistillationResult:
        """Re-score hubs/authorities over the current crawl graph and boost frontier URLs."""
        return self.engine.run_distillation()

    # -- views used by benchmarks and experiments --------------------------------------
    def _links_from_table(self) -> list[Link]:
        """The whole LINK table as ``Link`` objects, in heap order."""
        return [Link(*row) for row in self.database.table("LINK").rows()]

    # -- convenience accessors ------------------------------------------------------------------
    def top_hubs(self, k: int = 10) -> list[tuple[str, float]]:
        """URL/score pairs of the current best hubs."""
        if self.trace.last_distillation is None:
            self.run_distillation()
        return [
            (self.frontier.url_of_oid(oid) or str(oid), score)
            for oid, score in self.trace.last_distillation.top_hubs(k)
        ]

    def top_authorities(self, k: int = 10) -> list[tuple[str, float]]:
        if self.trace.last_distillation is None:
            self.run_distillation()
        return [
            (self.frontier.url_of_oid(oid) or str(oid), score)
            for oid, score in self.trace.last_distillation.top_authorities(k)
        ]
