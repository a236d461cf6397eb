"""The crawl engine: one round kernel, with K as its only shape parameter.

The paper presents the crawler as a *system* — a classifier-guided
frontier feeding a fetch/classify/record pipeline with a periodic HITS
distiller (§2, §3.2, §3.7).  This module is that pipeline, factored out
of :class:`~repro.crawler.focused.FocusedCrawler` (a thin driver) into a
:class:`CrawlEngine` that runs every in-process crawl one *round* at a
time:

1. *checkout*: the top-K frontier URLs in a single drain
   (:meth:`Frontier.pop_batch`), deterministic under oid tie-breaking;
2. *fetch*: the round's URLs are prepared on the configured
   :mod:`~repro.webgraph.transport` in checkout order.  A round whose
   outcomes are all settled (simulated, replay) is processed inline; any
   other drains through an asyncio pipeline that keeps up to
   ``max_inflight`` fetches outstanding and hands completed pages on
   while later ones are in flight — results commit in checkout order;
3. *classify*: one :meth:`CompiledHierarchicalModel.classify_batch` pass
   scores every fetched page — the Eq. 2 chain rule over the whole
   round as array kernels, relevance and best leaf read off one
   posterior matrix (:class:`PageScorer`).  A page is classified once,
   when it is fetched: a visited URL is never checked out again;
4. *record*: CRAWL and LINK writes buffer in memory, across rounds,
   until the distiller or something outside the engine reads the
   tables.  A flush goes through minidb's column-at-a-time write
   path — one ``insert_many`` per table (the batch is transposed once;
   each page takes its rows as column slices), one ``update_rows`` for the CRAWL
   rows changed since the last flush and one ``update_column`` for the
   refreshed ``wgt_fwd`` values (:class:`BufferedLinkWriter`,
   :meth:`Frontier.flush_batch`).  The LINK rows a flush inserts are
   also appended, in insert order, to the distiller's columnar link
   graph — the graph holds edges only; HITS reads both edge weights
   from the relevance map;
5. *close*: when due, the CRAWL and LINK buffers flush and the
   incremental distiller runs weighted HITS over its link graph
   (:class:`~repro.distiller.db_distiller.IncrementalDistiller`); no
   distillation re-reads the LINK table.  The top hubs' out-links are
   read off the same graph, and the boosts they give join the CRAWL
   buffer.  The scores are kept, not written: nothing in the crawl
   reads HUBS or AUTH.  At each ``checkpoint_every`` boundary
   :meth:`CrawlEngine.sync` writes everything buffered — CRAWL, LINK,
   and, if a distillation ran since their last write, HUBS and AUTH,
   each rewritten whole (:func:`write_scores`) — and a checkpoint is
   saved, when a checkpointer is attached; the crawl's end syncs once
   more.

The flush points are a pure function of crawl progress — seeding, every
``distill_every`` and ``checkpoint_every`` pages, and the end — never of
how ``run()`` is sliced into calls or whether a checkpointer exists, so
stepped ≡ single run and killed-and-resumed ≡ uninterrupted hold down
to where each row lands.  A reader from outside the engine (a
checkpoint, a monitor, a service query) calls :meth:`CrawlEngine.sync`
first; a direct read of the tables mid-crawl lags by at most one flush
interval (HUBS and AUTH: one ``checkpoint_every`` interval, or the whole
crawl without one).  A reader's sync, and a ``checkpoint_interval_s``
save, write the scores at a point of its own: the score rows' contents
do not depend on it, their placement does.

K is ``CrawlerConfig.batch_size``, or 1 under ``engine="serial"``: the
paper's one-URL-at-a-time loop is this kernel at round size 1, not a
second implementation (``tests/crawler/test_golden_k1.py`` pins it to
digests recorded from the loop it replaced).  Larger K changes the
interleaving but, on a bounded web, converges to the same crawl set.

The stage code — :class:`PageScorer`, :func:`permanent_failure`,
:func:`link_targets`, :func:`link_row`, :func:`write_scores`,
:class:`BufferedLinkWriter`, :func:`expansion_priority` — is module
level because the sharded engine's workers and coordinator
(:mod:`repro.crawler.sharded`) run the same stages on their slice of a
round.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.classifier.compiled import CompiledHierarchicalModel
from repro.classifier.model import BatchClassification, HierarchicalModel
from repro.classifier.tokenizer import term_frequencies
from repro.distiller.db_distiller import IncrementalDistiller
from repro.distiller.hits import DistillationResult
from repro.minidb import Database, StorageConfig
from repro.minidb.table import Table
from repro.taxonomy.tree import TopicTaxonomy
from repro.webgraph.fetch import Fetcher, FetchResult, FetchStatus
from repro.webgraph.cassette import transport_for_config
from repro.webgraph.transport import FetchTransport
from repro.webgraph.urls import host_of, normalize_url, server_sid, url_oid

from .frontier import Frontier
from .policies import CrawlOrdering, FetchPolicy

#: Relevance assigned to a link target before anything is known about it
#: when the crawl runs unfocused (ordering ignores it anyway).
_UNFOCUSED_PRIORITY = 0.0

#: Engine modes accepted by ``CrawlerConfig.engine``.  "auto" and
#: "batched" run rounds of ``batch_size``; "serial" runs rounds of 1
#: whatever the batch size.  "sharded" must be requested explicitly (it
#: changes the process model, not just the schedule).
ENGINE_MODES = ("auto", "serial", "batched", "sharded")

#: Values ``CrawlerConfig.score_backend`` accepts (and ignores).
SCORE_BACKENDS = ("python", "numpy")


@dataclass
class CrawlerConfig:
    """Knobs of a crawl run."""

    #: Stop after this many successful page fetches.
    max_pages: int = 1000
    #: Focus mode: "soft" (default), "hard", or "none" (unfocused baseline).
    focus_mode: str = "soft"
    #: Crawl ordering; defaults to aggressive discovery (or BFS when unfocused).
    ordering: Optional[CrawlOrdering] = None
    #: Run the distiller every this many successful fetches (0 disables it).
    distill_every: int = 200
    #: Distillation iterations per run and relevance threshold ρ.
    distill_iterations: int = 5
    rho: float = 0.1
    #: After distillation, boost unvisited out-neighbours of this many top hubs.
    hub_boost_top_k: int = 10
    #: Boosted pages get at least this frontier priority.
    hub_boost_priority: float = 0.5
    #: Give up on a URL after this many failed fetch attempts.
    max_retries: int = 2
    #: Give up on the whole crawl after this many consecutive frontier misses.
    stagnation_patience: int = 50
    #: URLs checked out per engine round (K; ``engine="serial"`` pins it to 1).
    batch_size: int = 1
    #: Accepted and ignored, and kept for the same reasons as ``prefetch``:
    #: the transport picks each round's fetch path (see ``_run_rounds``).
    fetch_mode: str = "auto"
    #: Accepted and ignored: cross-round prefetch was removed (README,
    #: *Prefetch (removed)*).  Kept only because ``benchmarks/suite`` sets
    #: it; ROADMAP item 1A unbinds the suite from it, and then the field goes.
    prefetch: bool = False
    #: Maximum fetches outstanding at once in a drained round (0 = round size).
    max_inflight: int = 0
    #: Per-server cap on outstanding drained fetches (0 = unlimited) — the
    #: politeness back-stop of :class:`~repro.crawler.policies.FetchPolicy`.
    per_server_inflight: int = 0
    #: Fetch transport: "simulated" (default, bit-for-bit the PR-1
    #: fetcher), "latency" (wall-clock latency/jitter/timeout injection),
    #: or "http" (real network over the stdlib urllib session).
    transport: str = "simulated"
    #: Keyword options for the transport (see ``webgraph.transport``);
    #: plain data so the choice rides along inside crawl checkpoints.
    transport_options: dict = field(default_factory=dict)
    #: Path of a fetch cassette (see ``webgraph.cassette``).  Empty
    #: disables cassettes; set, the crawl either records every fetch
    #: into the file or replays it, per ``cassette_mode``.
    cassette_path: str = ""
    #: "record", "replay", or "auto" (replay when the file exists,
    #: record otherwise).  The resolved mode is persisted back here at
    #: engine build time so checkpoints resume in the same mode.
    cassette_mode: str = "auto"
    #: Strict replay raises CassetteMismatch on any request the cassette
    #: does not hold; non-strict degrades misses to NOT_FOUND.
    cassette_strict: bool = True
    #: Engine mode: "auto"/"batched" run rounds of ``batch_size`` URLs,
    #: "serial" rounds of one — the same kernel either way.
    #: "sharded" partitions the crawl by host hash over N workers (see
    #: ``shards``); drive it through :meth:`FocusSystem.start`, which
    #: builds the sharded crawler in place of a :class:`CrawlEngine`.
    engine: str = "auto"
    #: Worker count for ``engine="sharded"`` (>= 1).
    shards: int = 1
    #: How sharded workers run: "process" (default — N spawned worker
    #: processes, the multi-core path) or "inprocess" (all shards in this
    #: process: required for injected transports, and
    #: what the determinism tests use to control message schedules).
    shard_runner: str = "process"
    #: Save a crawl checkpoint every this many successful fetches (0 disables;
    #: requires a durable database and an attached checkpoint manager).
    checkpoint_every: int = 0
    #: Also save a checkpoint when this many wall-clock seconds have
    #: passed since the last one (0 disables).  Complements
    #: ``checkpoint_every`` for real-network crawls, where a fetch count
    #: is a poor proxy for elapsed (and therefore at-risk) work.
    checkpoint_interval_s: float = 0.0
    #: Accepted and ignored, like ``prefetch``: every crawl scores with the
    #: columnar kernels (README, *Scoring kernel*).  Kept only because
    #: ``benchmarks/suite`` sets it; a value outside :data:`SCORE_BACKENDS`
    #: is refused.
    score_backend: str = "numpy"
    #: Group-commit batch for the write-ahead log of a durable crawl
    #: database: 0 keeps the seed behaviour (OS flush per record, fsync
    #: only at checkpoints); N >= 1 fsyncs once per N appended records.
    #: Legacy knob — superseded by ``storage`` (see :meth:`resolve_storage`).
    #: Kept only because ``benchmarks/suite`` sets it on ``crawl_durable``;
    #: ROADMAP item 1A unbinds the suite from it, and then the field goes.
    wal_fsync_batch: int = 0
    #: Storage policy of the crawl database as one object (WAL group
    #: commit, compaction, buffer-pool size).  When set it wins over the
    #: legacy ``wal_fsync_batch``; when None, :meth:`resolve_storage`
    #: folds that knob into an otherwise default StorageConfig.
    storage: Optional[StorageConfig] = None

    def resolve_storage(self) -> StorageConfig:
        """The effective storage policy: ``storage`` or the folded legacy knob."""
        if self.storage is not None:
            return self.storage
        return StorageConfig(wal_fsync_batch=self.wal_fsync_batch)


@dataclass
class PageVisit:
    """One successfully fetched and classified page, in fetch order."""

    tick: int
    url: str
    relevance: float
    best_leaf_cid: Optional[int] = None


@dataclass
class CrawlTrace:
    """Everything a crawl run produced, for metrics and experiments."""

    visits: List[PageVisit] = field(default_factory=list)
    failed_urls: List[str] = field(default_factory=list)
    distillations: int = 0
    stagnated: bool = False
    last_distillation: Optional[DistillationResult] = None

    @property
    def pages_fetched(self) -> int:
        return len(self.visits)

    @property
    def fetched_urls(self) -> List[str]:
        """The visited URLs, in fetch order."""
        return [visit.url for visit in self.visits]

    def relevance_series(self) -> List[float]:
        return [visit.relevance for visit in self.visits]

    def visited_set(self) -> set[str]:
        return {visit.url for visit in self.visits}


# -- round stages, shared with the sharded engine ---------------------------------------
#: Lower bounds of the crawl's counting settings: a value below its bound
#: would run another schedule (a negative ``distill_every`` distils every
#: round, a zero ``stagnation_patience`` stops at the first miss).
_SETTING_MINIMA = {
    "distill_every": 0,
    "checkpoint_every": 0,
    "max_retries": 0,
    "stagnation_patience": 1,
    "distill_iterations": 1,
}


def check_ranges(config: CrawlerConfig) -> None:
    """Refuse out-of-range crawl settings (they arrive from outside, e.g. ``POST /jobs``).

    ρ must not be negative either: HITS reads an unvisited page's
    relevance as 0.0 and weights an edge by its endpoints' relevance;
    with ``rho >= 0`` only edges into visited pages pass the filter, so
    those weights are exactly the ones LINK stores.  Nor may it be NaN
    or infinite: no edge would pass ``relevance > rho``, every authority
    score would be 0 and no hub boost would fire.
    """
    if not math.isfinite(config.rho) or config.rho < 0:
        raise ValueError(f"rho must be >= 0 and finite, got {config.rho}")
    for name, minimum in _SETTING_MINIMA.items():
        value = getattr(config, name)
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")


class PageScorer:
    """The classify stage: one batch per call.

    Held by :class:`CrawlEngine` and by every sharded
    :class:`~repro.crawler.sharded.ShardWorker`.  Outcomes are
    grouping-invariant: how a round's pages are split into calls can
    change only the wall clock, never a relevance float.
    """

    def __init__(
        self, classifier: HierarchicalModel, taxonomy: TopicTaxonomy, config: CrawlerConfig
    ) -> None:
        self.classifier = classifier
        self.taxonomy = taxonomy
        self.config = config
        #: The columnar classifier, compiled on first use.  Compiled per
        #: scorer — i.e. per crawl run — so taxonomy re-marking between
        #: crawls is always reflected; the arrays are a pure cache and are
        #: rebuilt (identically) after a checkpoint resume.
        self._compiled: Optional[CompiledHierarchicalModel] = None

    def classify(self, results: Sequence[FetchResult]) -> List[BatchClassification]:
        """Score fetched pages; outcomes come back in input order."""
        if not results:
            return []
        if self._compiled is None:
            self._compiled = CompiledHierarchicalModel(self.classifier)
        documents = [term_frequencies(result.tokens) for result in results]
        return self._compiled.classify_batch(documents)

    def hard_accepts(self, outcome: BatchClassification) -> bool:
        """The hard focus rule: the best leaf has a good ancestor (True in other modes)."""
        if self.config.focus_mode != "hard":
            return True
        return self.taxonomy.good_ancestor_of(outcome.best_leaf_cid) is not None


def permanent_failure(status: FetchStatus) -> bool:
    """Whether a non-OK fetch is final.

    SERVER_ERROR is transient (retry in a later round); every other
    non-OK status — NOT_FOUND, SKIPPED (robots, redirect cap/loop,
    content gate) — is permanent.
    """
    return status is not FetchStatus.SERVER_ERROR


def expansion_priority(focus_mode: str, relevance: float, hard_accepts: bool) -> Optional[float]:
    """The focus rule: the frontier priority a page's out-links inherit.

    None means the links are recorded but not enqueued (hard focus
    rejected the citing page).
    """
    if focus_mode == "hard" and not hard_accepts:
        return None
    return relevance if focus_mode != "none" else _UNFOCUSED_PRIORITY


def link_targets(source_oid: int, out_links: Sequence[str]) -> List[Tuple[str, int, int]]:
    """A page's distinct non-self out-links as ``(normalized_url, oid, sid)``, in page order.

    Duplicates and self-links are dropped here, once: neither can raise
    a frontier priority or add an edge the distiller would keep.
    """
    targets: List[Tuple[str, int, int]] = []
    seen: set[int] = set()
    for target in out_links:
        normalized = normalize_url(target)
        target_oid = url_oid(normalized)
        if target_oid in seen or target_oid == source_oid:
            continue
        seen.add(target_oid)
        targets.append((normalized, target_oid, server_sid(normalized)))
    return targets


def link_row(
    frontier: Frontier,
    source_oid: int,
    source_sid: int,
    target_url: str,
    target_oid: int,
    target_sid: int,
    relevance: float,
) -> tuple:
    """One LINK row, in schema order, for an edge out of a page of *relevance*.

    ``wgt_rev`` is the source's relevance (E_B).  ``wgt_fwd`` (E_F)
    needs the *destination's* relevance: a visited destination supplies
    its own, any other inherits the source's until it is visited —
    edges pointing *to* a page are refreshed at the flush after it is
    classified (:meth:`BufferedLinkWriter.refresh`).  The crawl's own
    HITS does not read the stored weights (it takes R of both endpoints
    from the relevance map, the same floats on every edge it scores);
    Figure 4's SQL distillers and ``/query`` do.  *target_url* is
    normalised, and *frontier* must own it (sharded LINK rows are routed
    by destination for exactly this lookup).
    """
    entry = frontier.get_normalized(target_url)
    forward = entry.relevance if entry is not None and entry.status == "visited" else relevance
    return (source_oid, source_sid, target_oid, target_sid, forward, relevance)


def write_scores(table: Table, oids: Sequence[int], scores: Sequence[float]) -> None:
    """Make score *table* (HUBS or AUTH) hold ``{oids[i]: scores[i]}`` over the non-zero scores.

    The table is rewritten whole: one ``truncate``, then one
    ``insert_many`` in the order given (a crawl hands over its link
    graph's node order).  *oids* may be longer than *scores*.
    """
    table.truncate()
    table.insert_many([(oid, score) for oid, score in zip(oids, scores) if score != 0.0])


class BufferedLinkWriter:
    """Buffered LINK writes: one bulk insert plus coalesced weight refreshes.

    Accumulates rows until a flush, then writes one ``insert_many`` and
    one ``update_column`` — ``wgt_fwd`` is unindexed, so the refresh of
    every edge pointing at a freshly classified page is an in-place
    assignment into the LINK pages' ``wgt_fwd`` column chunks, no row
    read or rebuilt.  Refreshes are applied after the inserts, in visit
    order.  :meth:`flush` hands back the rows it inserted, in insert
    order, for the engine's link graph.
    """

    def __init__(self, table: Table) -> None:
        self.table = table
        self._rows: List[tuple] = []
        self._refresh: "OrderedDict[int, float]" = OrderedDict()
        # Link rows are built positionally for bulk loading; pin the order.
        expected = ("oid_src", "sid_src", "oid_dst", "sid_dst", "wgt_fwd", "wgt_rev")
        if tuple(table.schema.column_names) != expected:
            raise ValueError(f"LINK schema order {table.schema.column_names} != {expected}")

    def add_rows(self, rows: Sequence[tuple]) -> None:
        self._rows.extend(rows)

    def refresh(self, visited_oid: int, relevance: float) -> None:
        """Set ``wgt_fwd`` of every edge into *visited_oid* at the flush."""
        self._refresh[visited_oid] = relevance

    def flush(self) -> List[tuple]:
        """Write the buffered rows and refreshes; returns the rows inserted, in order."""
        rows, self._rows = self._rows, []
        if rows:
            self.table.insert_many(rows)
        updates: Dict[int, float] = {}
        for oid, relevance in self._refresh.items():
            updates.update(dict.fromkeys(self.table.lookup_rids("link_dst", (oid,)), relevance))
        if updates:
            self.table.update_column("wgt_fwd", updates)
        self._refresh = OrderedDict()
        return rows


def _close_loop(loop: asyncio.AbstractEventLoop) -> None:
    """Tear a drain loop down as ``asyncio.run`` does (``asyncio.Runner`` needs 3.11).

    A failed round's cancelled waits run to their end first, so their
    ``finally`` blocks (a pooled fetch slot's release) execute.
    """
    try:
        leftover = asyncio.all_tasks(loop)
        for task in leftover:
            task.cancel()
        if leftover:
            loop.run_until_complete(asyncio.gather(*leftover, return_exceptions=True))
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.run_until_complete(loop.shutdown_default_executor())
    finally:
        loop.close()


class CrawlEngine:
    """Executes crawl rounds of K URLs against a frontier."""

    def __init__(
        self,
        fetcher: Fetcher,
        classifier: HierarchicalModel,
        taxonomy: TopicTaxonomy,
        database: Database,
        config: CrawlerConfig,
        frontier: Frontier,
        trace: CrawlTrace,
        transport: Optional[FetchTransport] = None,
    ) -> None:
        if config.engine not in ENGINE_MODES:
            raise ValueError(
                f"unknown engine mode {config.engine!r}; expected one of {ENGINE_MODES}"
            )
        if config.engine == "sharded":
            raise ValueError(
                "engine='sharded' is not a CrawlEngine mode: it partitions the "
                "crawl across worker processes.  Drive it through "
                "FocusSystem.start/crawl (repro.crawler.sharded builds the "
                "coordinator and shard workers)."
            )
        if config.score_backend not in SCORE_BACKENDS:
            raise ValueError(
                f"unknown score backend {config.score_backend!r}; "
                f"expected one of {SCORE_BACKENDS}"
            )
        if config.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        check_ranges(config)
        if config.checkpoint_interval_s < 0:
            raise ValueError("checkpoint_interval_s must be >= 0")
        self.fetcher = fetcher
        #: The fetch I/O layer; built from config unless injected (tests).
        #: Cassette-aware: a ``cassette_path`` wraps the configured
        #: transport in a recorder, or replays an existing cassette with
        #: no inner transport at all.
        self.transport: FetchTransport = transport or transport_for_config(config, fetcher)
        #: Validates the inflight knobs eagerly (FetchPolicy raises on
        #: negatives) and is reused by every drained round.
        self.fetch_policy = FetchPolicy(
            max_inflight=config.max_inflight,
            per_server_inflight=config.per_server_inflight,
        )
        self.database = database
        self.config = config
        self.frontier = frontier
        self.trace = trace
        #: Checkpoint sink (e.g. :class:`repro.core.checkpoint.CheckpointManager`);
        #: when set, the engine calls ``checkpointer.save()`` at each
        #: ``checkpoint_every`` boundary and ``checkpoint_interval_s`` tick.
        self.checkpointer = None
        self._tick = 0
        self._since_distillation = 0
        self._since_checkpoint = 0
        self._last_checkpoint_s: Optional[float] = None
        self._stagnation_misses = 0
        #: Length of the trace's failure list at the last :meth:`mark_saved`.
        self._saved_mark: Optional[int] = None
        #: Wall-clock seconds of round processing (classify + commit) that
        #: ran while fetches were still in flight, and total round
        #: processing time — the drain's overlap instrumentation.
        self.fetch_overlap_s = 0.0
        self._round_process_s = 0.0
        #: oid -> measured relevance of every visited page, in visit order.
        self._relevance: Dict[int, float] = {}
        self._scorer = PageScorer(classifier, taxonomy, config)
        self._link_writer = BufferedLinkWriter(database.table("LINK"))
        #: The last distillation, until :meth:`sync` writes it to HUBS and AUTH.
        self._unwritten_scores: Optional[DistillationResult] = None
        self._incremental: Optional[IncrementalDistiller] = None
        #: Cumulative wall-clock seconds per pipeline stage (monitoring and
        #: the benchmark's per-stage breakdown).
        self.stage_timings: Dict[str, float] = {
            "fetch": 0.0,
            "classify": 0.0,
            "write": 0.0,
            "distill": 0.0,
        }

    # -- shape -----------------------------------------------------------------------
    @property
    def round_size(self) -> int:
        """K: URLs checked out per round — 1 under ``engine="serial"``."""
        return 1 if self.config.engine == "serial" else self.config.batch_size

    def fetch_overlap_ratio(self) -> float:
        """Fraction of round processing that ran while fetches were in flight.

        0.0 when every round ran inline (its outcomes were settled before
        processing began); approaches 1.0 when drained rounds hide nearly
        all classification/write work behind transport latency.
        """
        if self._round_process_s <= 0.0:
            return 0.0
        return self.fetch_overlap_s / self._round_process_s

    def pipeline_stats(self) -> Dict[str, object]:
        """Saturation counters: fetch overlap and frontier shape."""
        return {
            "fetch_overlap_ratio": self.fetch_overlap_ratio(),
            "frontier": self.frontier.heap_stats(),
        }

    # -- public API ------------------------------------------------------------------
    def run(self, budget: int, max_rounds: Optional[int] = None) -> CrawlTrace:
        """Run crawl rounds until the page budget or the frontier is exhausted.

        *max_rounds* caps how many rounds (frontier checkouts) this call
        executes and then returns with the crawl still resumable — the
        cooperative-scheduling hook the multi-tenant :mod:`repro.service`
        job manager interleaves jobs with.  Crucially the *budget* stays
        the full page budget either way: round sizing is a function of
        ``budget - pages_fetched``, so slicing a crawl into stepped calls
        visits bit-for-bit the pages a single ``run(budget)`` would.
        Returning does not flush the write buffers either, so the rows
        land where a single run puts them; the crawl's end does, and
        :meth:`sync` does on demand.
        """
        if max_rounds is not None and max_rounds < 1:
            raise ValueError("max_rounds must be >= 1 (or None for unlimited)")
        if (
            self.config.checkpoint_interval_s
            and self.checkpointer is not None
            and self._last_checkpoint_s is None
        ):
            # The wall clock is not resumable state: the interval timer
            # starts at the first run after build or resume, and a crawl
            # sliced into stepped calls keeps one timer across them.
            self._last_checkpoint_s = time.monotonic()
        # Build the link graph (one LINK scan) before this run's first
        # flush, which then feeds it.
        self._incremental_distiller()
        rounds = range(max_rounds) if max_rounds is not None else itertools.count()
        self._run_rounds(budget, rounds)
        return self.trace

    def run_distillation(self) -> DistillationResult:
        """Re-score hubs/authorities over the current crawl graph and boost frontier URLs.

        The CRAWL and LINK buffers flush first, so the link graph holds
        every edge.  The scores are written to HUBS and AUTH at the next
        :meth:`sync`; the boosts are buffered CRAWL changes, written at
        the next flush.
        """
        self._flush()
        started = time.perf_counter()
        distiller = self._incremental_distiller()
        # The live map is safe to hand over: distillation only reads it
        # (and the link graph relies on seeing the same dict grow).
        result = distiller.run(self._relevance, max_iterations=self.config.distill_iterations)
        self._unwritten_scores = result
        if self.config.hub_boost_top_k > 0:
            # The top hubs' off-server citations, read off the graph: it
            # holds exactly LINK's non-nepotistic edges, in heap order.
            hubs = {oid for oid, _ in result.top_hubs(self.config.hub_boost_top_k)}
            self.frontier.boost_oids(
                distiller.graph.cited_by(hubs), self.config.hub_boost_priority
            )
        self.trace.distillations += 1
        self.trace.last_distillation = result
        self._since_distillation = 0
        self.stage_timings["distill"] += time.perf_counter() - started
        return result

    def relevance_map(self) -> Dict[int, float]:
        """oid -> R(page) of every visited page, in visit order."""
        return dict(self._relevance)

    def sync(self) -> None:
        """Write every buffered change: CRAWL, LINK, HUBS and AUTH then hold the crawl as of now.

        The engine calls it at each ``checkpoint_every`` boundary and at
        the crawl's end; anything that reads the tables from outside the
        engine mid-crawl calls it first.  HUBS and AUTH are rewritten with
        the last distillation's scores, in graph-node order, and only if a
        distillation ran since they were last written: nothing inside the
        crawl reads them.
        """
        self._flush()
        result, self._unwritten_scores = self._unwritten_scores, None
        if result is not None:
            started = time.perf_counter()
            oids, hubs, authorities = result.dense
            write_scores(self.database.table("HUBS"), oids, hubs.tolist())
            write_scores(self.database.table("AUTH"), oids, authorities.tolist())
            self.stage_timings["write"] += time.perf_counter() - started

    def _flush(self) -> None:
        """Write the buffered CRAWL and LINK changes.

        The LINK rows it inserts go on to the distiller's link graph,
        once that exists (it is built from a LINK scan, which sees them).
        """
        started = time.perf_counter()
        self.frontier.flush_batch()
        inserted = self._link_writer.flush()
        self.stage_timings["write"] += time.perf_counter() - started
        if self._incremental is not None:
            self._incremental.add_rows(inserted)

    # -- checkpointing ----------------------------------------------------------------
    def state_snapshot(self) -> Dict[str, object]:
        """What the engine holds that the tables do not, to continue a crawl after a restart.

        Captured right after a :meth:`sync`: the small state and the
        trace's failures and counters.  The rest is rebuilt by
        :meth:`restore_state` — the visits and the frontier from CRAWL,
        the relevance map from the visits, the last distillation from
        HUBS and AUTH.
        """
        trace = self.trace
        return {
            **self._small_state(),
            "trace": CrawlTrace(
                failed_urls=trace.failed_urls,
                distillations=trace.distillations,
                stagnated=trace.stagnated,
            ),
        }

    def _small_state(self) -> Dict[str, object]:
        """The part of the state that does not grow: written whole every time."""
        last = self.trace.last_distillation
        return {
            "tick": self._tick,
            "since_distillation": self._since_distillation,
            "since_checkpoint": self._since_checkpoint,
            "stagnation_misses": self._stagnation_misses,
            "iterations": 0 if last is None else last.iterations,
            "attached_scores": self.frontier.attached_scores(),
        }

    def mark_saved(self) -> None:
        """Start a new delta interval: the state as of now is on disk."""
        self._saved_mark = len(self.trace.failed_urls)

    def state_delta(self) -> tuple:
        """What :meth:`state_snapshot` gained since :meth:`mark_saved`, positionally.

        ``(small state, failed-URL tail, distillations, stagnated)``: the
        failures only ever grow, so their tail is written.
        :meth:`fold_state` applies it.
        """
        if self._saved_mark is None:
            raise RuntimeError("state_delta() needs a mark_saved() to be relative to")
        trace = self.trace
        return (
            self._small_state(),
            trace.failed_urls[self._saved_mark:],
            trace.distillations,
            trace.stagnated,
        )

    @staticmethod
    def fold_state(state: Dict[str, object], deltas: Sequence[tuple]) -> Dict[str, object]:
        """Apply :meth:`state_delta` tuples, oldest first, to a :meth:`state_snapshot`.

        Folds in place — into a snapshot read back from disk, never into
        a live one, whose trace is the engine's own — and returns *state*.
        """
        trace: CrawlTrace = state["trace"]
        for small, failed_urls, distillations, stagnated in deltas:
            state.update(small)
            trace.failed_urls.extend(failed_urls)
            trace.distillations = distillations
            trace.stagnated = stagnated
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        """Adopt a checkpointed engine state (the database must already be recovered).

        The frontier and the trace's visits are rebuilt from one CRAWL
        scan (a visit is a visited row, its tick ``lastvisited``), the
        relevance map from the visits (in visit order), and the link
        graph from LINK; the last distillation is read back from HUBS and
        AUTH, which the save's sync wrote, in the graph's node order —
        the order the live result's score dicts had.
        """
        self._tick = state["tick"]
        self._since_distillation = state["since_distillation"]
        self._since_checkpoint = state["since_checkpoint"]
        self._stagnation_misses = state["stagnation_misses"]
        # The trace is shared with the driving crawler: refill it in place.
        saved, trace = state["trace"], self.trace
        visits = self.frontier.restore_from_table(state["attached_scores"])
        trace.visits[:] = [PageVisit(*visit) for visit in visits]
        trace.failed_urls[:] = saved.failed_urls
        trace.distillations = saved.distillations
        trace.stagnated = saved.stagnated
        self._relevance = {url_oid(visit.url): visit.relevance for visit in trace.visits}
        # A checkpoint is taken right after a sync: its scores are on disk.
        self._unwritten_scores = None
        self._incremental = None
        trace.last_distillation = (
            self._stored_distillation(state["iterations"]) if trace.distillations else None
        )

    def _stored_distillation(self, iterations: int) -> DistillationResult:
        """The scores HUBS and AUTH hold, ordered by the link graph's nodes."""
        _src, _dst, oids = self._incremental_distiller().graph.arrays()

        def in_node_order(name: str) -> Dict[int, float]:
            stored = dict(self.database.table(name).rows())
            return {oid: stored[oid] for oid in oids if oid in stored}

        return DistillationResult(in_node_order("HUBS"), in_node_order("AUTH"), iterations)

    # -- the round ---------------------------------------------------------------------
    def _checkout(self, budget: int) -> List[str]:
        """Open a round: the best ``min(K, budget left)`` frontier URLs.

        Empty when the run is over — the budget is spent, or the
        frontier is (which marks the crawl stagnated).
        """
        remaining = budget - self.trace.pages_fetched
        if remaining <= 0:
            return []
        urls = self.frontier.pop_batch(min(self.round_size, remaining))
        if not urls:
            self.trace.stagnated = True
        return urls

    def _close_round(self) -> None:
        """Distil when due and take a ``checkpoint_every`` boundary; both flush the write buffers.

        Otherwise the round's writes stay buffered.
        """
        if (
            self.config.distill_every
            and self._since_distillation >= self.config.distill_every
        ):
            self.run_distillation()
        self._maybe_checkpoint()

    def _run_rounds(self, budget: int, rounds) -> None:
        """Check out, fetch, process and close rounds; the transport picks the fetch path.

        A round whose fetches, prepared in checkout order, are all settled
        is processed inline; any other drains on one event loop, created
        at the first such round and torn down when this call ends.
        """
        loop: Optional[asyncio.AbstractEventLoop] = None
        try:
            for _ in rounds:
                urls = self._checkout(budget)
                if not urls:
                    # Frontier empty (or the budget was spent before this
                    # call): the crawl is over.
                    self.sync()
                    break
                started = time.perf_counter()
                pendings = [self.transport.prepare(url) for url in urls]
                self.stage_timings["fetch"] += time.perf_counter() - started
                if all(pending.settled for pending in pendings):
                    started = time.perf_counter()
                    stop = self._process_group([(url, p.result) for url, p in zip(urls, pendings)])
                    self._round_process_s += time.perf_counter() - started
                else:
                    loop = loop or asyncio.new_event_loop()
                    stop = loop.run_until_complete(self._drain_round(urls, pendings))
                self._close_round()
                if stop or self.trace.pages_fetched >= budget:
                    # Stagnated or budget spent: the crawl is over.
                    self.sync()
                    break
        finally:
            if loop is not None:
                _close_loop(loop)

    def _process_group(self, group: Sequence[Tuple[str, FetchResult]]) -> bool:
        """Record failures, classify, and commit one contiguous result group.

        *group* is a checkout-order slice of the round.  An inline round
        is one group; a drained round hands over each contiguous
        completed prefix as it arrives, so processing overlaps the
        still-in-flight tail.  Returns True when the stagnation patience
        ran out (the round still finishes).
        """
        config = self.config
        stop = False
        fetched: List[Tuple[str, FetchResult]] = []
        for url, result in group:
            if result.status is FetchStatus.OK:
                fetched.append((url, result))
                self._stagnation_misses = 0
                continue
            self.frontier.record_failure(
                url, config.max_retries, permanent=permanent_failure(result.status)
            )
            self.trace.failed_urls.append(url)
            self._stagnation_misses += 1
            if self._stagnation_misses >= config.stagnation_patience:
                self.trace.stagnated = True
                stop = True
        started = time.perf_counter()
        outcomes = self._scorer.classify([result for _url, result in fetched])
        self.stage_timings["classify"] += time.perf_counter() - started
        for (url, result), outcome in zip(fetched, outcomes):
            self._commit_visit(url, result, outcome)
        return stop

    def _commit_visit(self, url: str, result: FetchResult, outcome: BatchClassification) -> None:
        """Record one classified page: frontier state, links, expansion, trace."""
        self._tick += 1
        relevance = outcome.relevance
        entry = self.frontier.record_visit(url, relevance, self._tick, kcid=outcome.best_leaf_cid)
        self._relevance[entry.oid] = relevance
        targets = link_targets(entry.oid, result.out_links)
        self._link_writer.add_rows(
            [link_row(self.frontier, entry.oid, entry.sid, *target, relevance) for target in targets]
        )
        self._link_writer.refresh(entry.oid, relevance)
        priority = expansion_priority(
            self.config.focus_mode, relevance, self._scorer.hard_accepts(outcome)
        )
        if priority is not None:
            self.frontier.add_many(targets, priority)
        self.trace.visits.append(PageVisit(self._tick, url, relevance, outcome.best_leaf_cid))
        self._since_distillation += 1
        self._since_checkpoint += 1

    def _maybe_checkpoint(self) -> None:
        """Flush at a ``checkpoint_every`` boundary, and save a resume point when one is due.

        Two independent triggers for a save: every ``checkpoint_every``
        successful fetches, and every ``checkpoint_interval_s``
        wall-clock seconds — the latter bounds at-risk work when fetches
        are slow (real networks) rather than plentiful.  The boundary
        flushes whether or not a checkpointer is attached, so where a row
        lands never depends on one.  The counter/timer reset *before*
        the save so the persisted engine state carries zero
        progress-toward-next-checkpoint, matching what a resumed engine
        starts from.
        """
        every, interval = self.config.checkpoint_every, self.config.checkpoint_interval_s
        boundary = bool(every) and self._since_checkpoint >= every
        if boundary:
            self._since_checkpoint = 0
            self.sync()
        if self.checkpointer is None:
            return
        last = self._last_checkpoint_s
        if not boundary and not (
            interval and last is not None and time.monotonic() - last >= interval
        ):
            return
        if interval:
            self._last_checkpoint_s = time.monotonic()
        self.checkpointer.save()

    # -- the drain ---------------------------------------------------------------------
    def _spawn_wait_tasks(self, pendings: Sequence[object]) -> List["asyncio.Task"]:
        """Wrap prepared fetches in wait tasks behind the round's in-flight gates.

        Gates are per round: every task of a round ends inside its drain.
        """
        transport = self.transport
        per_server = self.fetch_policy.per_server_inflight
        gate = asyncio.Semaphore(self.fetch_policy.effective_inflight(self.round_size))
        server_gates: Dict[str, asyncio.Semaphore] = {}

        async def wait_one(pending):
            async with gate:
                if per_server:
                    host = host_of(pending.url)
                    server_gate = server_gates.setdefault(
                        host, asyncio.Semaphore(per_server)
                    )
                    async with server_gate:
                        return await transport.wait(pending)
                return await transport.wait(pending)

        return [asyncio.create_task(wait_one(pending)) for pending in pendings]

    async def _drain_round(self, urls: Sequence[str], pendings: Sequence[object]) -> bool:
        """Wait out the round's fetches, processing done prefixes in checkout order.

        Up to ``FetchPolicy.effective_inflight`` fetches stay outstanding
        (optionally capped per server); completed pages are classified and
        committed — in checkout order, as contiguous completed prefixes —
        while later fetches are still in flight.  Determinism rests on the
        transport contract: every draw happens in ``prepare``, called
        synchronously in checkout order, and classification outcomes are
        grouping-invariant, so completion timing can change only the wall
        clock, never the crawl.
        """
        tasks = self._spawn_wait_tasks(pendings)
        stop = False
        index = 0
        try:
            while index < len(tasks):
                waited = time.perf_counter()
                head = await tasks[index]
                self.stage_timings["fetch"] += time.perf_counter() - waited
                group = [(urls[index], head)]
                index += 1
                while index < len(tasks) and tasks[index].done():
                    group.append((urls[index], tasks[index].result()))
                    index += 1
                in_flight = index < len(tasks)
                started = time.perf_counter()
                if self._process_group(group):
                    stop = True
                elapsed = time.perf_counter() - started
                self._round_process_s += elapsed
                if in_flight:
                    self.fetch_overlap_s += elapsed
        finally:
            # Only reachable with pending tasks if a fetch or processing
            # raised; _close_loop runs the cancelled tasks to their end.
            for task in tasks[index:]:
                task.cancel()
        return stop

    # -- distillation plumbing -------------------------------------------------------
    def _incremental_distiller(self) -> IncrementalDistiller:
        if self._incremental is None:
            self._incremental = IncrementalDistiller(
                self.database,
                rho=self.config.rho,
                max_iterations=self.config.distill_iterations,
            )
        return self._incremental
