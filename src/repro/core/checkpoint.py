"""Crawl checkpoints: pause, kill, and resume long-running crawls.

The paper's systems argument is that a focused crawl is a *long-running,
pausable* process precisely because all of its state lives in the
database.  This module closes the loop for our engine: a
:class:`CheckpointManager` rides the engine's round boundaries and saves,
with the database's own atomic snapshot, only the state the tables do
not hold —

* the engine's round counters and stagnation streak, the iteration
  count of the last distillation, and the hub/authority scores
  ``Frontier.update_scores`` attached (no crawl path sets any);
* the trace's failed URLs, its distillation count and its stagnation
  flag;
* the positions of the simulated-network RNG streams (the engine's
  fetch transport — fetcher plus any latency-injection layer — and the
  server pool), so a resumed crawl sees the identical failure/latency
  sequence the uninterrupted crawl would have seen.

Everything else is rebuilt from the recovered tables: the frontier and
the trace's visits from one CRAWL scan (a row's rank in heap order is
its discovery number, a server's load its count of visited rows, a
visit a visited row ordered by ``lastvisited``), the link graph from
LINK, the relevance map from the visits, and the last distillation from
HUBS and AUTH (the save's sync writes them) in the link graph's node
order.

**The frame chain.**  The failed-URL list grows with the crawl, so the
state is not re-written whole.  It is a chain of *frames*
``[base, d1, ..., dk]``:

* the **base**, written by a chain's first save (page 0 of the crawl),
  holds ``CrawlEngine.state_snapshot()`` in full;
* a **delta**, written by every later save, holds what the interval
  changed (``CrawlEngine.state_delta()``): the tail of the failure
  list, and — small, so written whole — the counters and the RNG
  positions.

Every frame is one positional tuple, pickled and appended to the
database's segment file (the ``frames=`` of
:meth:`repro.minidb.Database.checkpoint`), where it stays: frames are
only appended.  The snapshot record's ``app_state`` is only a
:class:`CheckpointHeader`: format version, the crawl's constants, and
the frame numbers of the live chain.  A delta is about 1 kB on the
``crawl_durable`` shape: the interval's failed URLs plus the small state
and RNG positions, so it grows with the interval's failures and the
attached scores, not with the crawl's size.

**Why the segment file and not a sidecar.**  A frame is tracked in the
snapshot record's page directory like a page image, so it is published
by the one commit point the database already has (the snapshot rename):
a crash can never publish crawl state and table state from different
moments, nor a header without its frames.  A frame a crash left
unpublished is an unreferenced tail the segment compactor reclaims at a
checkpoint; live ones are copied by it; all of it runs through the
``FileOps`` fault seam.  A second file would need each of those again,
with crash windows of its own.

Resume opens the database pinned to its snapshot (``replay_wal=False``
discards the redo tail of work the engine will redo deterministically),
folds base and deltas back into the ``state_snapshot()`` shape, and
rebuilds the crawler around it and the tables; a resumed crawl then
visits exactly the pages — with bit-identical relevance floats — that
the uninterrupted crawl would have visited, and its next checkpoint
extends the chain it was loaded from.  A header of another format
version is refused by name, as the database refuses a snapshot of
another format.

This is the one recovery path.  A sharded crawl is not checkpointed:
its shard databases live in memory inside the workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.crawler.engine import CrawlEngine
from repro.crawler.focused import CrawlerConfig, FocusedCrawler
from repro.minidb import Database
from repro.minidb.errors import StorageError
from repro.webgraph.servers import ServerPool
from repro.webgraph.transport import FetchTransport

#: Version of the header/frame layout: a frame is exactly
#: ``(kind, engine part, fetcher state, RNG state)``.
FORMAT_VERSION = 3

#: First item of a frame's tuple.
BASE_FRAME = "base"
DELTA_FRAME = "delta"


@dataclass
class CheckpointHeader:
    """What the snapshot record's ``app_state`` holds: constants and the chain."""

    version: int
    config: CrawlerConfig
    focused: bool
    seeds: List[str]
    good_topics: List[str]
    fetch_failure_seed: int
    #: Frame numbers of the base, then of each delta.
    chain: List[int]


@dataclass
class CrawlCheckpoint:
    """The crawl-level state of a checkpoint, folded back from its chain."""

    config: CrawlerConfig
    focused: bool
    seeds: List[str]
    good_topics: List[str]
    fetch_failure_seed: int
    engine_state: Dict[str, Any]
    fetcher_state: Dict[str, Any]
    server_rng_state: Dict[str, Any]
    checkpoints_saved: int = 0
    #: The chain the state was folded from, for the resumed manager to extend.
    chain: List[int] = field(default_factory=list)


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
        #: Frame numbers of the live chain, base first.
        self.chain: List[int] = []
        #: Wall-clock seconds the crawl spent paused inside each
        #: :meth:`save` — the price of durability (flush + snapshot + any
        #: segment compaction), read by the benchmark.
        self.pause_log: list[float] = []

    def attach(self) -> None:
        """Register with the crawl engine as its checkpoint sink."""
        self.crawler.engine.checkpointer = self

    def continue_from(self, checkpoint: CrawlCheckpoint) -> None:
        """Extend the chain *checkpoint* was loaded from.

        Call once the crawler holds the checkpoint's state: the next
        save is then a delta against it.
        """
        self.checkpoints_saved = checkpoint.checkpoints_saved
        self.chain = list(checkpoint.chain)
        self.crawler.engine.mark_saved()

    def save(self) -> None:
        """Checkpoint the database, appending this interval's frame to the chain.

        The chain's first save writes the base, every later one a delta.
        """
        started = time.perf_counter()
        self.checkpoints_saved += 1
        engine = self.crawler.engine
        engine.sync()
        if self.chain:
            kind, part = DELTA_FRAME, engine.state_delta()
        else:
            kind, part = BASE_FRAME, engine.state_snapshot()
        frame = (kind, part, self.fetcher.state_snapshot(), self.servers.rng_state())
        # Saves are numbered from 1 and each writes one frame, so the
        # count is the frame's number; a crash's unpublished frame has
        # the number the resumed crawl's next save reuses.
        frame_no = self.checkpoints_saved
        self.chain = self.chain + [frame_no]
        self.database.checkpoint(
            app_state=CheckpointHeader(
                version=FORMAT_VERSION,
                config=self.crawler.config,
                focused=self.focused,
                seeds=self.seeds,
                good_topics=self.good_topics,
                fetch_failure_seed=self.fetch_failure_seed,
                chain=self.chain,
            ),
            frames={frame_no: frame},
        )
        engine.mark_saved()
        self.pause_log.append(time.perf_counter() - started)

    @staticmethod
    def load(
        path: str, buffer_pool_pages: int = 256, storage=None
    ) -> tuple[Database, CrawlCheckpoint]:
        """Recover the database pinned to its last checkpoint, plus the crawl state.

        Post-checkpoint WAL records are discarded (not replayed): the
        resumed engine re-executes that work deterministically, and
        replaying it would leave the tables ahead of the engine state.
        The crawl state is the chain's base with its deltas folded in,
        oldest first.  *storage* (a :class:`~repro.minidb.StorageConfig`)
        overrides the reopen's durability knobs; the checkpointed crawl
        config's own storage policy is re-applied by the resume path
        either way.
        """
        database = Database.open(
            path, buffer_pool_pages=buffer_pool_pages, replay_wal=False, storage=storage
        )
        try:
            return database, read_checkpoint(database, path)
        except BaseException:
            database.close()
            raise


def read_checkpoint(database: Database, path: str = "") -> CrawlCheckpoint:
    """Fold the crawl checkpoint *database* was last saved with.

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
    frames = [database.read_frame(frame_no) for frame_no in header.chain]
    if any(len(frame) != 4 for frame in frames):
        raise StorageError(
            f"{path!r}: a checkpoint frame is not (kind, engine part, fetcher state, RNG state)"
        )
    kinds, engine_parts, fetcher_states, rng_states = zip(*frames)
    if list(kinds) != [BASE_FRAME] + [DELTA_FRAME] * (len(frames) - 1):
        raise StorageError(f"{path!r}: the checkpoint's frame chain is not base + deltas")
    return CrawlCheckpoint(
        config=header.config,
        focused=header.focused,
        seeds=header.seeds,
        good_topics=header.good_topics,
        fetch_failure_seed=header.fetch_failure_seed,
        engine_state=CrawlEngine.fold_state(engine_parts[0], engine_parts[1:]),
        fetcher_state=fetcher_states[-1],
        server_rng_state=rng_states[-1],
        # Every save writes one frame and numbers it with its count.
        checkpoints_saved=header.chain[-1],
        chain=list(header.chain),
    )
