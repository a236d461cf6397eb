"""FocusSystem: the user-facing facade tying every module together.

A :class:`FocusSystem` owns a synthetic web (or accepts one), the topic
taxonomy with its good-topic marking, the trained classifier, and runs
crawls that persist their state in a minidb database — the full
architecture of paper Figure 1.  Typical use::

    from repro import FocusSystem, FocusConfig

    system = FocusSystem.bootstrap(FocusConfig(good_topics=["recreation/cycling"]))
    system.train()
    result = system.crawl(max_pages=1000)
    print(result.harvest_rate())
    for url, score in result.top_hubs(5):
        print(url, score)
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.classifier.model import HierarchicalModel
from repro.classifier.training import ClassifierTrainer, ModelInstaller, TrainingConfig
from repro.crawler.focused import CrawlerConfig, CrawlTrace, FocusedCrawler
from repro.crawler.monitor import CrawlMonitor
from repro.minidb import Database, StorageError
from repro.minidb.database import bulk_load
from repro.taxonomy.examples import ExampleStore, generate_examples
from repro.taxonomy.tree import NodeMark, TopicTaxonomy
from repro.webgraph.fetch import Fetcher
from repro.webgraph.graph import SyntheticWebBuilder, WebGraph
from repro.webgraph.urls import normalize_url

from . import metrics
from .checkpoint import CheckpointManager, CrawlCheckpoint, read_checkpoint
from .config import FocusConfig, JobSpec
from .schema import create_focus_database

#: Lifecycle states of a :class:`CrawlHandle`.
HANDLE_STATUSES = (
    "pending",     # created, no round executed yet
    "running",     # inside / between step() calls
    "paused",      # pause() called; resume() re-arms it
    "completed",   # budget met or frontier exhausted
    "exhausted",   # fetch budget burned before the page budget was met
    "cancelled",   # cancel() called; partial result available
    "failed",      # a step raised; .error carries the exception
)

#: States in which a handle will never execute another round.
TERMINAL_STATUSES = ("completed", "exhausted", "cancelled", "failed")

#: What a sharded checkpoint, before their removal, left in its directory.
_SHARDED_MANIFEST = "coordinator.manifest"


@dataclass
class CrawlResult:
    """A finished crawl plus everything needed to evaluate it."""

    trace: CrawlTrace
    database: Database
    crawler: FocusedCrawler
    web: WebGraph
    taxonomy: TopicTaxonomy
    #: The settled job: seeds, topics and the durable home of the crawl's
    #: tables, if any, which lets :meth:`monitor` reopen a closed database.
    spec: JobSpec

    # -- headline metrics -------------------------------------------------------------
    def harvest_rate(self, skip_first: int = 0) -> float:
        """Average relevance of fetched pages (the paper's headline indicator)."""
        return metrics.average_harvest_rate(self.trace, skip_first)

    def harvest_series(self, window: int = 100) -> list[tuple[int, float]]:
        return metrics.harvest_series(self.trace, window)

    def pages_fetched(self) -> int:
        return self.trace.pages_fetched

    def ground_truth_precision(self) -> float:
        """Fraction of fetched pages whose ground-truth topic is good/subsumed.

        Available only because the substrate is synthetic; the paper has no
        such oracle and relies on the classifier instead (§3.4).
        """
        relevant = self.web.relevant_pages(self.spec.good_topics)
        fetched = self.trace.fetched_urls
        if not fetched:
            return 0.0
        return sum(1 for url in fetched if url in relevant) / len(fetched)

    # -- distillation views --------------------------------------------------------------
    def top_hubs(self, k: int = 10) -> list[tuple[str, float]]:
        return self.crawler.top_hubs(k)

    def top_authorities(self, k: int = 10) -> list[tuple[str, float]]:
        return self.crawler.top_authorities(k)

    def authority_distance_histogram(self, top_k: int = 100) -> Dict[int, int]:
        """Figure 7: shortest crawl-found distances from the seed set to the top authorities."""
        authorities = [url for url, _ in self.top_authorities(top_k)]
        return metrics.crawl_distance_histogram(self.web, self.trace, self.spec.seeds, authorities)

    # -- monitoring ----------------------------------------------------------------------
    def monitor(self) -> CrawlMonitor:
        """SQL-backed monitoring over the crawl's tables.

        Works on a completed job whose database handle was already
        closed (e.g. by :meth:`CrawlHandle.close` or the service's job
        manager): a durable crawl is reopened from ``spec.checkpoint_dir``
        transparently, so callers never juggle reopen-by-hand.  On an
        open one, the engine's write buffers are written first
        (``CrawlEngine.sync``).
        """
        if getattr(self.database, "sharded", False):
            raise RuntimeError(
                "a sharded crawl keeps one database per shard, in memory "
                "inside the shard workers; it has none to monitor here"
            )
        if self.database.closed:
            if self.spec.checkpoint_dir is None:
                raise RuntimeError(
                    "this crawl's in-memory database was closed and it has no "
                    "checkpoint directory to reopen from"
                )
            self.database = Database.open(self.spec.checkpoint_dir)
        else:
            self.crawler.engine.sync()
        return CrawlMonitor(self.database)

    def citation_sociology(self, relevance_threshold: float = 0.5) -> list[metrics.CoTopic]:
        """§1's citation-sociology query: co-topics within one link of good pages."""
        good_urls = {
            visit.url
            for visit in self.trace.visits
            if visit.relevance > relevance_threshold
        }
        exclude = {
            node.cid
            for node in self.taxonomy.nodes()
            if node.mark in (NodeMark.GOOD, NodeMark.SUBSUMED)
        }
        names = {node.cid: node.path or "root" for node in self.taxonomy.nodes()}
        return metrics.citation_sociology(
            self.trace, self.web, good_urls, names, exclude
        )


class CrawlHandle:
    """A live crawl job: the single way a crawl is started, stepped, and resumed.

    :meth:`FocusSystem.start` returns one of these for a fresh
    :class:`~repro.core.config.JobSpec`; :meth:`FocusSystem.resume`
    returns one re-armed from a checkpoint directory.  The handle owns
    the job's database, crawler, and (for durable jobs) checkpoint
    manager, and exposes the lifecycle the crawl service builds on:

    * :meth:`run` — drive the crawl to its terminal state (what the
      classic ``FocusSystem.crawl`` facade now does under the hood);
    * :meth:`step` — execute at most N engine rounds and return, the
      cooperative-scheduling quantum the multi-tenant job manager
      interleaves;
    * :meth:`pause` / :meth:`resume` / :meth:`cancel` — operator
      controls; pausing a durable job saves a checkpoint first, so a
      paused job survives a process death;
    * :meth:`progress` / :meth:`harvest_series` / :meth:`io_snapshot` —
      live observability read from in-memory crawl state (safe while a
      worker thread is mid-step; no cross-thread SQL);
    * :meth:`result` — the :class:`CrawlResult` bundle, in any terminal
      state (a cancelled job yields its partial crawl).

    Stepping is bit-deterministic: the engine's round sizing always sees
    the full page budget (``CrawlEngine.run(budget, max_rounds=...)``),
    so a crawl sliced into single rounds between other tenants visits
    exactly the pages — with identical relevance floats — that an
    uninterrupted solo run visits.
    """

    def __init__(
        self,
        system: "FocusSystem",
        spec: JobSpec,
        crawler: FocusedCrawler,
        web: WebGraph,
        manager: Optional[CheckpointManager] = None,
    ) -> None:
        self.system = system
        self.spec = spec
        self.crawler = crawler
        self.web = web
        self.manager = manager
        self.status = "pending"
        self.error: Optional[BaseException] = None
        self._result: Optional[CrawlResult] = None

    # -- views -----------------------------------------------------------------------
    @property
    def database(self) -> Database:
        """The job's crawl database.

        The engine writes its tables only at a sync (seeding, every
        ``checkpoint_every`` pages, and the end of the crawl), so a
        direct read mid-crawl lags the crawl by at most one
        ``checkpoint_every`` interval, or the whole crawl without one.
        ``crawler.engine.sync()`` closes the gap.  :meth:`monitor`, a
        checkpoint, a finished crawl and the service's reads sync first.
        """
        return self.crawler.database

    @property
    def trace(self) -> CrawlTrace:
        return self.crawler.trace

    @property
    def budget(self) -> int:
        """The job's full page budget (already folded into the crawler config)."""
        return self.crawler.config.max_pages

    @property
    def pages_fetched(self) -> int:
        return self.trace.pages_fetched

    def fetch_attempts(self) -> int:
        """Total fetch attempts so far (successes, 404s, skips, and failures).

        Read from the engine's transport (the whole I/O stack: http or
        replay transports never touch the simulated fetcher), falling
        back to the bare fetcher for crawler shapes without one engine.
        """
        engine = getattr(self.crawler, "engine", None)
        stats = getattr(getattr(engine, "transport", None), "stats", None)
        if stats is None:
            stats = getattr(self.crawler.fetcher, "stats", None)
        return stats.attempts if stats is not None else 0

    @property
    def done(self) -> bool:
        return self.status in TERMINAL_STATUSES

    # -- lifecycle -------------------------------------------------------------------
    def step(self, rounds: Optional[int] = 1) -> int:
        """Execute at most *rounds* engine rounds (None = run to completion).

        Returns the number of pages fetched by this call.  A paused or
        terminal handle is a no-op returning 0, so schedulers can sweep
        their job table without state checks.
        """
        if self.done or self.status == "paused":
            return 0
        self.status = "running"
        before = self.trace.pages_fetched
        try:
            self.crawler.engine.run(self.budget, max_rounds=rounds)
        except BaseException as exc:
            self.status = "failed"
            self.error = exc
            raise
        fetched = self.trace.pages_fetched - before
        if self.trace.pages_fetched >= self.budget or self.trace.stagnated:
            self._finish("completed")
        elif self.spec.fetch_budget and self.fetch_attempts() >= self.spec.fetch_budget:
            # The politeness/cost budget ran out first: stop cleanly at a
            # round boundary with the partial crawl as the result.
            self._finish("exhausted")
        return fetched

    def run(self) -> CrawlResult:
        """Drive the crawl to a terminal state and return its result."""
        if self.status == "paused":
            raise RuntimeError("handle is paused; call resume() before run()")
        # A fetch budget is enforced at round boundaries, so honouring it
        # means stepping one round at a time (bit-identical either way).
        rounds = 1 if self.spec.fetch_budget else None
        while not self.done:
            self.step(rounds=rounds)
        return self.result()

    def pause(self) -> None:
        """Stop scheduling this job; durable jobs save a checkpoint first.

        The handle stays resumable in-process via :meth:`resume`; a
        durable job can additionally be re-armed in a *new* process with
        :meth:`FocusSystem.resume` on its checkpoint directory.
        """
        if self.done:
            raise RuntimeError(f"cannot pause a {self.status} crawl")
        if self.manager is not None:
            self.manager.save()
        self.status = "paused"

    def resume(self) -> None:
        """Re-arm a paused handle so :meth:`step` / :meth:`run` proceed."""
        if self.status != "paused":
            raise RuntimeError(f"cannot resume a {self.status} crawl (only paused)")
        self.status = "pending"

    def cancel(self) -> None:
        """Terminate the job, keeping its partial crawl as the result."""
        if self.done:
            return
        self._finish("cancelled")

    def close(self) -> None:
        """Release the job's database handle and fetch transport.

        The result can reopen durable databases; closing the transport
        flushes a recording cassette and releases any shared HTTP
        session/connections.
        """
        if not self.database.closed:
            self.database.close()
        transport = getattr(getattr(self.crawler, "engine", None), "transport", None)
        transport_close = getattr(transport, "close", None)
        if callable(transport_close):
            transport_close()

    # -- observability ---------------------------------------------------------------
    def progress(self) -> dict:
        """A JSON-safe snapshot of the job's progress (live while crawling)."""
        trace = self.trace
        info = {
            "name": self.spec.name,
            "status": self.status,
            "pages_fetched": trace.pages_fetched,
            "budget": self.budget,
            "failures": len(trace.failed_urls),
            "fetch_attempts": self.fetch_attempts(),
            "fetch_budget": self.spec.fetch_budget,
            "distillations": trace.distillations,
            "stagnated": trace.stagnated,
            "harvest_rate": metrics.average_harvest_rate(trace),
            "checkpoints_saved": self.manager.checkpoints_saved if self.manager else 0,
        }
        pipeline = self.pipeline_stats()
        if pipeline is not None:
            info["pipeline"] = pipeline
        return info

    def pipeline_stats(self) -> Optional[dict]:
        """Saturation counters (fetch overlap, frontier heap).

        ``None`` for crawler shapes without a single engine (e.g. the
        sharded crawler, whose shards each keep their own counters).
        """
        engine = getattr(self.crawler, "engine", None)
        stats = getattr(engine, "pipeline_stats", None)
        return stats() if stats is not None else None

    def harvest_series(self, window: int = 100) -> list[tuple[int, float]]:
        """The live harvest curve, from the in-memory trace."""
        return metrics.harvest_series(self.trace, window)

    def io_snapshot(self) -> dict:
        """The job's I/O counters (buffer pool, WAL, segments).

        Sharded crawlers aggregate across their shard databases (totals
        plus a ``shards`` breakdown); everything else reads the one job
        database directly.
        """
        crawler_snapshot = getattr(self.crawler, "io_snapshot", None)
        if crawler_snapshot is not None:
            return crawler_snapshot()
        return self.database.io_snapshot()

    def monitor(self) -> CrawlMonitor:
        """SQL monitoring over the job's database.

        Not safe while another thread is mid-:meth:`step`; the service
        exposes it only for paused/terminal jobs and serves live stats
        from :meth:`progress` / :meth:`io_snapshot` instead.  The
        engine's write buffers are flushed first.
        """
        self.crawler.engine.sync()
        return CrawlMonitor(self.database)

    def result(self) -> CrawlResult:
        """The crawl's result bundle; available in any terminal state."""
        if self._result is None:
            raise RuntimeError(
                f"crawl is {self.status}; result() is available once it completes "
                "(or is cancelled)"
            )
        return self._result

    # -- internals -------------------------------------------------------------------
    def _finish(self, status: str) -> None:
        # The result's tables hold the whole crawl, however it ended.
        self.crawler.engine.sync()
        if self.manager is not None:
            # Persist the final state so the checkpoint directory holds
            # the finished (or cancelled-as-of-now) crawl, and a reopened
            # database needs no WAL replay to agree with the result.
            self.manager.save()
        self.status = status
        self._result = CrawlResult(
            trace=self.trace,
            database=self.database,
            crawler=self.crawler,
            web=self.web,
            taxonomy=self.system.taxonomy,
            spec=self.spec,
        )


class FocusSystem:
    """The resource-discovery system: web + taxonomy + classifier + crawls."""

    def __init__(
        self,
        web: WebGraph,
        taxonomy: TopicTaxonomy,
        config: Optional[FocusConfig] = None,
    ) -> None:
        self.web = web
        self.taxonomy = taxonomy
        self.config = config or FocusConfig()
        self.taxonomy.mark_good(list(self.config.good_topics))
        self.examples: Optional[ExampleStore] = None
        self.model: Optional[HierarchicalModel] = None

    # -- construction -------------------------------------------------------------------
    @classmethod
    def bootstrap(cls, config: Optional[FocusConfig] = None, seed: Optional[int] = None) -> "FocusSystem":
        """Build a synthetic web and a matching taxonomy, then wrap them in a system."""
        config = config or FocusConfig()
        builder = SyntheticWebBuilder(config.web, seed=seed)
        web = builder.build()
        taxonomy = TopicTaxonomy.from_topic_tree(web.topic_tree)
        return cls(web, taxonomy, config)

    @classmethod
    def from_web(
        cls,
        web: WebGraph,
        good_topics: Sequence[str],
        config: Optional[FocusConfig] = None,
    ) -> "FocusSystem":
        """Wrap an existing synthetic web."""
        config = (config or FocusConfig()).copy_with(good_topics=tuple(good_topics))
        taxonomy = TopicTaxonomy.from_topic_tree(web.topic_tree)
        return cls(web, taxonomy, config)

    # -- training ----------------------------------------------------------------------------
    def train(self, training_config: Optional[TrainingConfig] = None) -> HierarchicalModel:
        """Generate example documents and train the hierarchical classifier."""
        self.examples = generate_examples(
            self.taxonomy,
            self.web,
            per_leaf=self.config.examples_per_leaf,
            seed=self.config.seed,
        )
        trainer = ClassifierTrainer(self.taxonomy, self.examples, training_config)
        self.model = trainer.train()
        return self.model

    def install_model(self, database: Database) -> None:
        """Materialise the classifier statistics into a database (TAXONOMY/STAT/BLOB)."""
        if self.model is None:
            raise RuntimeError("call train() before install_model()")
        ModelInstaller(database).install(self.model)

    # -- good-topic administration ----------------------------------------------------------------
    def mark_good(self, paths: Sequence[str]) -> None:
        """Replace the good-topic set (requires retraining only if topics are new leaves)."""
        self.config = self.config.copy_with(good_topics=tuple(paths))
        self.taxonomy.mark_good(list(paths))

    def add_good_topic(self, path: str) -> None:
        """The §3.7 stagnation fix: additionally mark *path* good."""
        self.taxonomy.add_good(path)
        self.config = self.config.copy_with(
            good_topics=tuple(n.path for n in self.taxonomy.good_nodes())
        )

    # -- seeds --------------------------------------------------------------------------------
    def default_seeds(self, count: Optional[int] = None, exclude: Iterable[str] = ()) -> List[str]:
        """Simulated keyword-search + distillation seeds for the primary good topic."""
        count = count if count is not None else self.config.seed_count
        rng = np.random.default_rng(self.config.seed + 101)
        return self.web.keyword_seed_pages(
            self.config.good_topics[0], count=count, rng=rng, exclude=exclude
        )

    # -- crawling -------------------------------------------------------------------------------
    def start(
        self,
        spec: Optional[JobSpec] = None,
        *,
        database: Optional[Database] = None,
        private_servers: bool = False,
        transport_wrap=None,
        shard_schedule=None,
        **overrides,
    ) -> CrawlHandle:
        """Arm one crawl job and return its :class:`CrawlHandle` (not yet running).

        This is the single entry point every way of crawling goes
        through: the classic :meth:`crawl` facade builds a
        :class:`~repro.core.config.JobSpec` and calls ``start(...).run()``;
        the multi-tenant service submits specs and steps the handles.
        Keyword *overrides* are JobSpec field replacements for quick
        one-off jobs (``system.start(max_pages=200)``).  The handle's
        spec is the settled one (:meth:`_settle`); nothing the caller
        passed in is written.

        *database* injects an existing database instead of creating one
        (kept out of the spec: a live handle is not serializable).
        *private_servers* gives the job its own clone of the web's
        server pool, so concurrent jobs do not interleave draws on the
        shared failure/latency stream — each stays bit-identical to a
        solo run.  *transport_wrap* (a ``transport -> transport``
        callable) lets the service splice its shared fetch pool around
        the job's transport stack.
        """
        spec = self._settle((spec or JobSpec()).replace(**overrides))
        if self.model is None:
            self.train()
        if spec.crawler.engine == "sharded":
            return self._start_sharded(
                spec,
                database=database,
                private_servers=private_servers,
                transport_wrap=transport_wrap,
                shard_schedule=shard_schedule,
            )
        if shard_schedule is not None:
            raise ValueError("shard_schedule only applies to engine='sharded' crawls")
        if database is None:
            database = create_focus_database(
                self.config.buffer_pool_pages,
                path=spec.checkpoint_dir,
                storage=spec.crawler.resolve_storage(),
            )
        try:
            if spec.checkpoint_dir is not None and database.app_state() is not None:
                raise ValueError(
                    f"{spec.checkpoint_dir!r} already holds a crawl checkpoint; "
                    "continue it with resume(...) or point checkpoint_dir at a fresh directory"
                )
        except (ValueError, StorageError):
            database.close()
            raise
        return self._arm(
            spec, database, private_servers=private_servers, transport_wrap=transport_wrap
        )

    def _settle(self, spec: JobSpec) -> JobSpec:
        """*spec* with nothing left to the system: what a crawl runs, and its checkpoint holds.

        The topics must be this system's (its classifier is trained for
        them); the seeds are normalised, the system's if the spec names
        none; the crawler config is a copy — the spec's or the system's —
        with the page budget folded in and, for an unfocused job, the
        baseline's preset applied.
        """
        topics = tuple(self.config.good_topics)
        if spec.good_topics is not None and tuple(spec.good_topics) != topics:
            raise ValueError(
                f"this system is trained for {topics}, not {tuple(spec.good_topics)}; "
                "build one per topic set with FocusSystem.from_web (the service's "
                "JobManager does this per job)"
            )
        crawler = spec.crawler if spec.crawler is not None else self.config.crawler
        crawler = dataclasses.replace(crawler, transport_options=dict(crawler.transport_options))
        if spec.max_pages is not None:
            crawler.max_pages = spec.max_pages
        if not spec.focused:
            # The unfocused baseline (Figure 5a) measures relevance but
            # never uses it: breadth-first order, no distillation.
            crawler.focus_mode = "none"
            crawler.distill_every = 0
        seeds = spec.seeds if spec.seeds is not None else self.default_seeds()
        return spec.replace(
            good_topics=topics,
            seeds=tuple(normalize_url(url) for url in seeds),
            max_pages=crawler.max_pages,
            crawler=crawler,
        )

    def _arm(
        self,
        spec: JobSpec,
        database: Database,
        checkpoint: Optional[CrawlCheckpoint] = None,
        *,
        private_servers: bool,
        transport_wrap,
    ) -> CrawlHandle:
        """Arm a settled *spec* over *database*: seeded, or continued from *checkpoint*."""
        if not database.has_table("TAXONOMY"):
            # The crawl database also carries the classifier tables, as in the
            # paper's single-DB architecture (and so monitoring SQL can join
            # CRAWL against TAXONOMY).
            self.install_model(database)
        web = self.web.with_private_servers() if private_servers else self.web
        if checkpoint is None:
            # Make each crawl's transient-failure stream a deterministic
            # function of its own seed, not of how many fetches earlier
            # crawls performed.
            web.servers.reseed(spec.fetch_failure_seed)
        else:
            web.servers.restore_rng(checkpoint.server_rng_state)
        fetcher = Fetcher(web, failure_seed=spec.fetch_failure_seed)
        crawler = FocusedCrawler(fetcher, self.model, self.taxonomy, database, spec.crawler)
        if transport_wrap is not None:
            crawler.engine.transport = transport_wrap(crawler.engine.transport)
        if checkpoint is None:
            crawler.add_seeds(spec.seeds)
        else:
            # The engine rebuilt the transport stack from the checkpointed
            # config; rewind its RNG streams (fetcher included) to the save.
            crawler.engine.transport.restore_state(checkpoint.fetcher_state)
            with bulk_load():
                crawler.engine.restore_state(checkpoint.engine_state)
        manager = None
        if spec.checkpoint_dir is not None:
            manager = CheckpointManager(database, crawler, spec)
            if checkpoint is None:
                # An immediate checkpoint makes the crawl resumable from page
                # zero — a kill before the first periodic save loses nothing.
                manager.save()
            else:
                manager.checkpoints_saved = checkpoint.checkpoints_saved
        return CrawlHandle(system=self, spec=spec, crawler=crawler, web=web, manager=manager)

    def _start_sharded(
        self,
        spec: JobSpec,
        *,
        database: Optional[Database],
        private_servers: bool,
        transport_wrap,
        shard_schedule,
    ) -> CrawlHandle:
        """The ``engine="sharded"`` arm of :meth:`start`.

        Builds the coordinator + N shard workers
        (:func:`repro.crawler.sharded.build_sharded_crawler`) in place of
        a single :class:`CrawlEngine`.  Their shard databases live in
        memory, so a sharded job cannot be durable.
        """
        from repro.crawler.sharded import build_sharded_crawler

        if spec.checkpoint_dir is not None:
            raise ValueError(
                "engine='sharded' cannot checkpoint: sharded checkpoints were "
                "removed (README, *Sharded checkpoints (removed)*); drop "
                "checkpoint_dir, or crawl durably with a single-process engine"
            )
        if database is not None:
            raise ValueError(
                "engine='sharded' builds one database per shard; an injected "
                "database cannot be partitioned — drop the database argument"
            )
        web = self.web.with_private_servers() if private_servers else self.web
        crawler = build_sharded_crawler(
            web,
            self.model,
            self.taxonomy,
            spec.crawler,
            fetch_failure_seed=spec.fetch_failure_seed,
            buffer_pool_pages=self.config.buffer_pool_pages,
            transport_wrap=transport_wrap,
            schedule=shard_schedule,
        )
        crawler.add_seeds(spec.seeds)
        return CrawlHandle(system=self, spec=spec, crawler=crawler, web=web)

    def resume(
        self,
        path: str,
        max_pages: Optional[int] = None,
        *,
        private_servers: bool = False,
        transport_wrap=None,
    ) -> CrawlHandle:
        """Re-arm a checkpointed crawl at *path* as a :class:`CrawlHandle`.

        The system must be built over the same web (same seeds/config)
        and for the same topics as the original run; everything else —
        the job, tables, frontier, engine counters, RNG stream positions
        — comes from the checkpoint, and the database reopens under the
        job's storage policy.  Only ``max_pages`` may be overridden (e.g.
        to extend a finished crawl's budget).  A checkpoint this system
        refuses is refused before anything in *path* changes.
        """
        if os.path.exists(os.path.join(path, _SHARDED_MANIFEST)):
            raise ValueError(
                f"{path!r} holds a sharded crawl checkpoint; sharded checkpoints "
                "were removed (README, *Sharded checkpoints (removed)*) and "
                "cannot be resumed"
            )
        spec = read_checkpoint(path).spec.replace(checkpoint_dir=path)
        if max_pages is not None:
            spec = spec.replace(max_pages=max_pages)
        spec = self._settle(spec)
        if self.model is None:
            self.train()
        database, checkpoint = CheckpointManager.load(
            path, buffer_pool_pages=self.config.buffer_pool_pages
        )
        return self._arm(
            spec,
            database,
            checkpoint,
            private_servers=private_servers,
            transport_wrap=transport_wrap,
        )

    def crawl(
        self,
        max_pages: Optional[int] = None,
        seeds: Optional[Sequence[str]] = None,
        focused: bool = True,
        crawler_config: Optional[CrawlerConfig] = None,
        database: Optional[Database] = None,
        fetch_failure_seed: int = 0,
        checkpoint_dir: Optional[str] = None,
        resume_from: Optional[str] = None,
    ) -> CrawlResult:
        """Run one crawl (focused by default) and return its result bundle.

        A convenience facade over :meth:`start` / :meth:`resume` — it
        builds the equivalent :class:`~repro.core.config.JobSpec`, runs
        the handle to completion, and returns its result.  All historic
        keyword arguments keep working unchanged.

        Each crawl gets its own database unless one is supplied, so repeated
        runs (reference vs. test crawls, focused vs. unfocused) never share
        frontier state.

        *checkpoint_dir* makes the crawl durable and resumable: its state
        goes to a segment-file/WAL database at that directory and a
        checkpoint is saved at the start and then every
        ``CrawlerConfig.checkpoint_every`` successful fetches.  A killed
        crawl is continued with ``crawl(resume_from=checkpoint_dir)`` on a
        system built from the same seeds, and visits exactly the pages —
        with identical relevance floats — that the uninterrupted crawl
        would have visited.
        """
        if resume_from is not None:
            conflicting = {
                "seeds": seeds is not None,
                "crawler_config": crawler_config is not None,
                "database": database is not None,
                "checkpoint_dir": checkpoint_dir is not None,
                "focused": focused is not True,
                "fetch_failure_seed": fetch_failure_seed != 0,
            }
            rejected = sorted(name for name, given in conflicting.items() if given)
            if rejected:
                raise ValueError(
                    f"resume_from restores {rejected} from the checkpoint; "
                    "do not pass them explicitly (only max_pages may be overridden)"
                )
            return self.resume(resume_from, max_pages).run()
        spec = JobSpec(
            seeds=seeds,
            max_pages=max_pages,
            focused=focused,
            fetch_failure_seed=fetch_failure_seed,
            checkpoint_dir=checkpoint_dir,
            crawler=crawler_config,
        )
        return self.start(spec, database=database).run()
