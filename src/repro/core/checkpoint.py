"""Crawl checkpoints: pause, kill, and resume long-running crawls.

The paper's systems argument is that a focused crawl is a *long-running,
pausable* process precisely because all of its state lives in the
database.  This module closes the loop for our engine: a
:class:`CheckpointManager` rides the engine's round boundaries and saves,
with the database's own atomic snapshot, only the state the tables do
not hold —

* the engine's round counters and stagnation streak, the iteration
  count of the last distillation, the trace's distillation count and
  stagnation flag, and the hub/authority scores
  ``Frontier.update_scores`` attached (no crawl path sets any);
* the positions of the simulated-network RNG streams (the engine's
  fetch transport — fetcher plus any latency-injection layer — and the
  server pool), so a resumed crawl sees the identical failure/latency
  sequence the uninterrupted crawl would have seen.

Everything else is rebuilt from the recovered tables: the frontier and
the trace's visits from one CRAWL scan (a row's rank in heap order is
its discovery number, a server's load its count of visited rows, a
visit a visited row ordered by ``lastvisited``), the trace's failed URLs
from one FAILED scan (a row per failed attempt, in attempt order), the
link graph from LINK, the relevance map from the visits, and the last
distillation from HUBS and AUTH (the save's sync writes them) in the
link graph's node order.

**One record per save.**  None of that state grows with the crawl, so
every save writes it whole: a :class:`CheckpointHeader` — format
version and a :class:`CrawlCheckpoint` of the crawl's constants, the
engine state, the fetcher state and the RNG positions (about 0.5 kB
together) — is the snapshot record's ``app_state``
(:meth:`repro.minidb.Database.checkpoint`).  The snapshot rename that
publishes the tables publishes it, so a crash can never publish crawl
state and table state from different moments.

Resume opens the database pinned to its snapshot (``replay_wal=False``
discards the redo tail of work the engine will redo deterministically)
and rebuilds the crawler around the record and the tables; a resumed
crawl then visits exactly the pages — with bit-identical relevance
floats — that the uninterrupted crawl would have visited.  A header of
another format version is refused by name, as the database refuses a
snapshot of another format.

This is the one recovery path.  A sharded crawl is not checkpointed:
its shard databases live in memory inside the workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.crawler.focused import CrawlerConfig, FocusedCrawler
from repro.minidb import Database
from repro.minidb.errors import StorageError
from repro.webgraph.servers import ServerPool
from repro.webgraph.transport import FetchTransport

#: Version of the checkpoint record: a header holding one whole
#: :class:`CrawlCheckpoint`, with the failed URLs in FAILED.
FORMAT_VERSION = 4


@dataclass
class CrawlCheckpoint:
    """The crawl-level state of a checkpoint: its constants and what the tables do not hold."""

    config: CrawlerConfig
    focused: bool
    seeds: List[str]
    good_topics: List[str]
    fetch_failure_seed: int
    engine_state: Dict[str, Any]
    fetcher_state: Dict[str, Any]
    server_rng_state: Dict[str, Any]
    checkpoints_saved: int = 0


@dataclass
class CheckpointHeader:
    """What the snapshot record's ``app_state`` holds: the format version and the checkpoint.

    Kept apart from :class:`CrawlCheckpoint` so that a header of any
    version unpickles, and is refused by its number.
    """

    version: int
    checkpoint: CrawlCheckpoint


class CheckpointManager:
    """Snapshots a running crawl into its (durable) database.

    Attach one to a crawl by assigning it to ``engine.checkpointer`` and
    setting ``CrawlerConfig.checkpoint_every``; the engine then calls
    :meth:`save` after every N successful fetches, at a round boundary.
    Every save — those, interval saves, a pause's, a finished crawl's —
    first flushes the engine's write buffers (``CrawlEngine.sync``), so
    the tables it snapshots hold the crawl as of the save.
    """

    def __init__(
        self,
        database: Database,
        crawler: FocusedCrawler,
        fetcher: FetchTransport,
        servers: ServerPool,
        seeds: List[str],
        good_topics: List[str],
        fetch_failure_seed: int = 0,
        focused: bool = True,
    ) -> None:
        if not database.backend.persistent:
            raise StorageError(
                "crawl checkpoints need a durable database; open one with Database.open(path)"
            )
        self.database = database
        self.crawler = crawler
        self.fetcher = fetcher
        self.servers = servers
        self.seeds = list(seeds)
        self.good_topics = list(good_topics)
        self.fetch_failure_seed = fetch_failure_seed
        self.focused = focused
        self.checkpoints_saved = 0
        #: Wall-clock seconds the crawl spent paused inside each
        #: :meth:`save` — the price of durability (flush + snapshot + any
        #: segment compaction), read by the benchmark.
        self.pause_log: list[float] = []

    def attach(self) -> None:
        """Register with the crawl engine as its checkpoint sink."""
        self.crawler.engine.checkpointer = self

    def continue_from(self, checkpoint: CrawlCheckpoint) -> None:
        """Go on counting saves from where *checkpoint* left off."""
        self.checkpoints_saved = checkpoint.checkpoints_saved

    def save(self) -> None:
        """Checkpoint the database with the crawl state as of now, written whole."""
        started = time.perf_counter()
        self.checkpoints_saved += 1
        engine = self.crawler.engine
        engine.sync()
        checkpoint = CrawlCheckpoint(
            config=self.crawler.config,
            focused=self.focused,
            seeds=self.seeds,
            good_topics=self.good_topics,
            fetch_failure_seed=self.fetch_failure_seed,
            engine_state=engine.state_snapshot(),
            fetcher_state=self.fetcher.state_snapshot(),
            server_rng_state=self.servers.rng_state(),
            checkpoints_saved=self.checkpoints_saved,
        )
        self.database.checkpoint(app_state=CheckpointHeader(FORMAT_VERSION, checkpoint))
        self.pause_log.append(time.perf_counter() - started)

    @staticmethod
    def load(path: str, buffer_pool_pages: int = 256) -> tuple[Database, CrawlCheckpoint]:
        """Recover the database pinned to its last checkpoint, plus the crawl state.

        Post-checkpoint WAL records are discarded (not replayed): the
        resumed engine re-executes that work deterministically, and
        replaying it would leave the tables ahead of the engine state.
        The checkpointed crawl config's storage policy is re-applied by
        the resume path.
        """
        database = Database.open(path, buffer_pool_pages=buffer_pool_pages, replay_wal=False)
        try:
            return database, read_checkpoint(database, path)
        except BaseException:
            database.close()
            raise


def read_checkpoint(database: Database, path: str = "") -> CrawlCheckpoint:
    """The crawl checkpoint *database* was last saved with.

    Raises :class:`StorageError` when the snapshot holds none, or one in
    another format (named, with the one this build reads — a format is
    refused whole rather than half-read).
    """
    header = database.app_state()
    if not isinstance(header, CheckpointHeader):
        raise StorageError(f"{path!r} holds no crawl checkpoint to resume from")
    if header.version != FORMAT_VERSION:
        raise StorageError(
            f"{path!r} holds a crawl checkpoint in format {header.version}; "
            f"this build reads format {FORMAT_VERSION}"
        )
    return header.checkpoint
