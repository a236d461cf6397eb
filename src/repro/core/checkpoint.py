"""Crawl checkpoints: pause, kill, and resume long-running crawls.

The paper's systems argument is that a focused crawl is a *long-running,
pausable* process precisely because all of its state lives in the
database.  This module closes the loop for our engine: a
:class:`CheckpointManager` rides the engine's round boundaries and saves,
with the database's own atomic snapshot, the state that lives *outside*
the tables —

* the engine's round counters, per-oid relevance map, and stagnation
  streak, plus the trace accumulated so far;
* the frontier's entries/priorities, per-server load, and discovery
  watermark;
* the positions of the simulated-network RNG streams (the engine's
  fetch transport — fetcher plus any latency-injection layer — and the
  server pool), so a resumed crawl sees the identical failure/latency
  sequence the uninterrupted crawl would have seen;
* the incremental distiller's LINK high-water mark and pending weight
  updates (the cached adjacency itself is rebuilt from the recovered
  heap);
* the last distillation's scores, always as the two score dicts: the
  distillation kernel's array-backed result pickles in that shape, so
  the bytes do not depend on the backing.

**The frame chain.**  That state grows with the crawl (one frontier
entry per known URL, one trace visit per page) while a checkpoint
interval changes little of it, so it is not re-written whole.  It is a
chain of *frames* ``[base, d1, ..., dk]``:

* the **base** holds ``Frontier.state_snapshot()`` and
  ``CrawlEngine.state_snapshot()`` in full;
* a **delta** holds what the interval changed
  (``Frontier.state_delta()``, ``CrawlEngine.state_delta()``): the
  current tuple of every frontier entry that was added, re-prioritised,
  visited, failed or re-scored; the load of the servers visited; the
  tails of the trace's visit and failure lists and of the relevance map;
  the last distillation if there was one; and — small, so written whole
  — the counters, the delta cache's watermark and the RNG positions.

Every frame is one positional tuple, pickled and appended to the
database's segment file (the ``frames=`` of
:meth:`repro.minidb.Database.checkpoint`).  The snapshot record's
``app_state`` is only a :class:`CheckpointHeader`: format version, the
crawl's constants, and the frame numbers of the live chain.  When the
deltas of a chain weigh as much as its base (:data:`REBASE_RATIO`), the
next save writes a fresh base from the live objects and drops the old
chain.  A base can have grown by no more than its deltas carried, so
each one is paid for twice over by the deltas it retires — frame bytes
over a crawl stay within three times the delta bytes, where re-writing
the state whole costs (checkpoints / 2) times the final state — and a
recovery never folds more delta bytes than a base plus one frame.

**Why the segment file and not a sidecar.**  A frame is tracked in the
snapshot record's page directory like a page image, so it is published
by the one commit point the database already has (the snapshot rename):
a crash can never publish crawl state and table state from different
moments, nor a header without its frames.  A frame a crash left
unpublished is an unreferenced tail; a dropped one is garbage the
segment compactor reclaims at a checkpoint; live ones are copied
by it; all of it runs through the ``FileOps`` fault seam.  A second file
would need each of those again, with crash windows of its own.

Resume opens the database pinned to its snapshot (``replay_wal=False``
discards the redo tail of work the engine will redo deterministically),
folds base and deltas back into the two ``state_snapshot()`` shapes, and
rebuilds the crawler around them; a resumed crawl then visits exactly the
pages — with bit-identical relevance floats — that the uninterrupted
crawl would have visited, and its next checkpoint extends the chain it
was loaded from.

This is the one recovery path.  A sharded crawl is not checkpointed:
its shard databases live in memory inside the workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.crawler.engine import CrawlEngine
from repro.crawler.focused import CrawlerConfig, FocusedCrawler
from repro.crawler.frontier import Frontier
from repro.minidb import Database
from repro.minidb.errors import StorageError
from repro.webgraph.servers import ServerPool
from repro.webgraph.transport import FetchTransport

#: Version of the header/frame layout.  Format 1 was a whole
#: :class:`CrawlCheckpoint` pickled into the snapshot record.
FORMAT_VERSION = 2

#: A chain is replaced by a fresh base once its deltas weigh this many
#: times its base.  At 1 the new base is at most twice the deltas it
#: retires, and recovery reads at most about two bases' worth of bytes.
REBASE_RATIO = 1.0

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
    frontier_state: Dict[str, Any]
    fetcher_state: Dict[str, Any]
    server_rng_state: Dict[str, Any]
    checkpoints_saved: int = 0
    #: The chain the state was folded from, for the resumed manager to extend.
    chain: List[int] = field(default_factory=list)


class CheckpointManager:
    """Snapshots a running crawl into its (durable) database.

    Attach one to a crawl by assigning it to ``engine.checkpointer`` and
    setting ``CrawlerConfig.checkpoint_every``; the engine then calls
    :meth:`save` after every N successful fetches, at a round boundary
    where all write buffers are flushed.
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
        #: Cumulative wall-clock seconds the crawl spent paused inside
        #: :meth:`save` — the price of durability (flush + snapshot +
        #: any segment compaction), reported by the throughput bench.
        self.save_seconds = 0.0
        #: Per-checkpoint pauses (the deltas summed into save_seconds);
        #: the bench compares pause floors checkpoint-by-checkpoint
        #: across repeats, which a single cumulative scalar can't support.
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
        self._mark_saved()

    def save(self) -> None:
        """Checkpoint the database, appending this interval's frame to the chain."""
        started = time.perf_counter()
        self.checkpoints_saved += 1
        engine = self.crawler.engine
        frontier = self.crawler.frontier
        database = self.database
        sizes = [database.frame_size(frame_no) for frame_no in self.chain]
        if not sizes or sum(sizes[1:]) >= REBASE_RATIO * sizes[0]:
            kind, frontier_part, engine_part = (
                BASE_FRAME, frontier.state_snapshot(), engine.state_snapshot()
            )
            dropped, kept = self.chain, []
        else:
            kind, frontier_part, engine_part = (
                DELTA_FRAME, frontier.state_delta(), engine.state_delta()
            )
            dropped, kept = [], self.chain
        # Saves are numbered from 1 and each writes one frame, so the
        # count is the frame's number; a crash's unpublished frame has
        # the number the resumed crawl's next save reuses.
        frame_no = self.checkpoints_saved
        self.chain = kept + [frame_no]
        database.checkpoint(
            app_state=CheckpointHeader(
                version=FORMAT_VERSION,
                config=self.crawler.config,
                focused=self.focused,
                seeds=self.seeds,
                good_topics=self.good_topics,
                fetch_failure_seed=self.fetch_failure_seed,
                chain=self.chain,
            ),
            frames={
                frame_no: (
                    kind,
                    frontier_part,
                    engine_part,
                    self.fetcher.state_snapshot(),
                    self.servers.rng_state(),
                )
            },
            drop_frames=dropped,
        )
        self._mark_saved()
        paused = time.perf_counter() - started
        self.save_seconds += paused
        self.pause_log.append(paused)

    def _mark_saved(self) -> None:
        self.crawler.frontier.mark_saved()
        self.crawler.engine.mark_saved()

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
    if isinstance(header, CheckpointHeader):
        version = header.version
    elif isinstance(header, CrawlCheckpoint):
        version = 1
    else:
        raise StorageError(f"{path!r} holds no crawl checkpoint to resume from")
    if version != FORMAT_VERSION:
        raise StorageError(
            f"{path!r} holds a crawl checkpoint in format {version}; "
            f"this build reads format {FORMAT_VERSION}"
        )
    frames = [database.read_frame(frame_no) for frame_no in header.chain]
    if [frame[0] for frame in frames] != [BASE_FRAME] + [DELTA_FRAME] * (len(frames) - 1):
        raise StorageError(f"{path!r}: the checkpoint's frame chain is not base + deltas")
    base, deltas = frames[0], frames[1:]
    last = frames[-1]
    return CrawlCheckpoint(
        config=header.config,
        focused=header.focused,
        seeds=header.seeds,
        good_topics=header.good_topics,
        fetch_failure_seed=header.fetch_failure_seed,
        frontier_state=Frontier.fold_state(base[1], [delta[1] for delta in deltas]),
        engine_state=CrawlEngine.fold_state(base[2], [delta[2] for delta in deltas]),
        fetcher_state=last[3],
        server_rng_state=last[4],
        # Every save writes one frame and numbers it with its count.
        checkpoints_saved=header.chain[-1],
        chain=list(header.chain),
    )
