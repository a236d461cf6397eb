"""Crawl checkpoints: pause, kill, and resume long-running crawls.

The paper's systems argument is that a focused crawl is a *long-running,
pausable* process precisely because all of its state lives in the
database.  This module closes the loop for our engine: a
:class:`CheckpointManager` rides the engine's round boundaries and saves,
inside the database's own atomic snapshot, the small amount of state
that lives *outside* the tables —

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
  heap).  A checkpoint without them (``delta_cache`` is ``None``: saved
  by the former serial loop, before every crawl distilled through it)
  resumes with an empty cache, whose first refresh reads LINK from
  page 0;
* the last distillation's scores, always as the two score dicts: the
  numpy backend's array-backed result pickles in that shape, so the
  snapshot's bytes do not depend on the backing.

Because the blob is stored by :meth:`repro.minidb.Database.checkpoint`
in the same atomically renamed snapshot record as the page directory, a
crash can never publish crawl state and table state from different
moments.  Resume opens the database pinned to that snapshot
(``replay_wal=False`` discards the redo tail of work the engine will
redo deterministically) and rebuilds the crawler around it; a resumed
crawl then visits exactly the pages — with bit-identical relevance
floats — that the uninterrupted crawl would have visited.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.crawler.focused import CrawlerConfig, FocusedCrawler
from repro.minidb import Database, FileOps
from repro.minidb.errors import StorageError
from repro.minidb.wal import dump_record, load_record, read_frame_at, write_frame
from repro.webgraph.servers import ServerPool
from repro.webgraph.transport import FetchTransport

#: File name of the sharded coordinator's manifest inside a checkpoint
#: directory; its presence is how :meth:`FocusSystem.resume` tells a
#: sharded checkpoint from a single-database one.
MANIFEST_FILE = "coordinator.manifest"


@dataclass
class CrawlCheckpoint:
    """The crawl-level state stored inside a database snapshot."""

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
    extras: Dict[str, Any] = field(default_factory=dict)


@dataclass
class CoordinatorManifest:
    """The crawl-level state of a *sharded* crawl's checkpoint.

    Where a single-engine checkpoint rides inside the one database's
    atomic snapshot, a sharded crawl has N databases and one coordinator;
    the manifest is the coordinator's atomically-replaced sidecar file in
    the checkpoint directory.  ``round`` is the authoritative recovery
    point: every shard database rewinds to it via its WAL cut markers
    (``Database.open(replay_upto_cut=round)``), so the manifest and all N
    databases always recover to one common round boundary no matter
    where a crash landed.
    """

    round: int
    shards: int
    config: CrawlerConfig
    focused: bool
    seeds: List[str]
    good_topics: List[str]
    fetch_failure_seed: int
    engine_state: Dict[str, Any]
    #: Per-shard frontier / transport / server-RNG snapshots, index-aligned.
    shard_states: List[Dict[str, Any]]
    checkpoints_saved: int = 0
    extras: Dict[str, Any] = field(default_factory=dict)


def write_coordinator_manifest(
    directory: str, manifest: CoordinatorManifest, ops: FileOps | None = None
) -> str:
    """Atomically publish *manifest* into the checkpoint *directory*.

    Write-to-temp, fsync, rename — the manifest is either the old one or
    the new one, never torn.  The payload is one CRC-framed pickle (the
    WAL's frame format), so a partially written temp file can never be
    mistaken for a manifest.  *ops* is the fault-injection seam the
    sharded kill/resume torture tests crash inside.
    """
    ops = ops or FileOps()
    os.makedirs(directory, exist_ok=True)
    final = os.path.join(directory, MANIFEST_FILE)
    tmp = final + ".tmp"
    fh = ops.open(tmp, "wb")
    try:
        write_frame(fh, dump_record(manifest))
        ops.fsync(fh)
    finally:
        fh.close()
    ops.replace(tmp, final)
    return final


def read_coordinator_manifest(directory: str) -> CoordinatorManifest:
    """Load the checkpoint *directory*'s coordinator manifest.

    Reads are not routed through the fault-injection seam (the crash
    model kills processes, not completed disk writes).
    """
    path = os.path.join(directory, MANIFEST_FILE)
    if not os.path.exists(path):
        raise StorageError(f"{directory!r} holds no coordinator manifest")
    with open(path, "rb") as fh:
        manifest = load_record(read_frame_at(fh, 0))
    if not isinstance(manifest, CoordinatorManifest):
        raise StorageError(f"{path!r} does not contain a coordinator manifest")
    return manifest


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

    def save(self) -> None:
        """Checkpoint the database with the current crawl state riding along."""
        started = time.perf_counter()
        self.checkpoints_saved += 1
        self.database.checkpoint(app_state=self._crawl_state())
        paused = time.perf_counter() - started
        self.save_seconds += paused
        self.pause_log.append(paused)

    def _crawl_state(self) -> CrawlCheckpoint:
        engine = self.crawler.engine
        return CrawlCheckpoint(
            config=self.crawler.config,
            focused=self.focused,
            seeds=self.seeds,
            good_topics=self.good_topics,
            fetch_failure_seed=self.fetch_failure_seed,
            engine_state=engine.state_snapshot(),
            frontier_state=self.crawler.frontier.state_snapshot(),
            fetcher_state=self.fetcher.state_snapshot(),
            server_rng_state=self.servers.rng_state(),
            checkpoints_saved=self.checkpoints_saved,
        )

    @staticmethod
    def load(
        path: str, buffer_pool_pages: int = 256, storage=None
    ) -> tuple[Database, CrawlCheckpoint]:
        """Recover the database pinned to its last checkpoint, plus the crawl state.

        Post-checkpoint WAL records are discarded (not replayed): the
        resumed engine re-executes that work deterministically, and
        replaying it would leave the tables ahead of the engine state.
        *storage* (a :class:`~repro.minidb.StorageConfig`) overrides the
        reopen's durability knobs; the checkpointed crawl config's own
        storage policy is re-applied by the resume path either way.
        """
        database = Database.open(
            path, buffer_pool_pages=buffer_pool_pages, replay_wal=False, storage=storage
        )
        state = database.app_state()
        if not isinstance(state, CrawlCheckpoint):
            database.close()
            raise StorageError(f"{path!r} holds no crawl checkpoint to resume from")
        return database, state
