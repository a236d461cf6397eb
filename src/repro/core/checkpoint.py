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
version and a :class:`CrawlCheckpoint` of the crawl's settled
:class:`~repro.core.config.JobSpec` (topics, normalised seeds, the
crawler config with the page budget folded in), the engine state, the
fetcher state and the RNG positions — is the snapshot record's ``app_state``
(:meth:`repro.minidb.Database.checkpoint`).  The snapshot rename that
publishes the tables publishes it, so a crash can never publish crawl
state and table state from different moments.

Resume reads the record first, without opening the database, so a
crawl it refuses (another format, other topics) leaves the directory
untouched.  It then opens the database under the spec's storage policy,
pinned to its snapshot (``replay_wal=False`` discards the redo tail of
work the engine will redo deterministically), and rebuilds the crawler
around the record and the tables; a resumed
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
from typing import Any, Dict

from repro.crawler.focused import FocusedCrawler
from repro.minidb import Database
from repro.minidb.database import read_app_state
from repro.minidb.errors import StorageError
from repro.webgraph.servers import ServerPool
from repro.webgraph.transport import FetchTransport

from .config import JobSpec

#: Version of the checkpoint record: a header holding one whole
#: :class:`CrawlCheckpoint`, whose constants are the crawl's settled JobSpec.
FORMAT_VERSION = 5


@dataclass
class CrawlCheckpoint:
    """The crawl-level state of a checkpoint: its job and what the tables do not hold."""

    #: The settled job: topics, normalised seeds, the crawler config with
    #: the page budget (and for an unfocused job, its preset) folded in.
    spec: JobSpec
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

    A manager attaches itself to the crawl's engine as its checkpoint
    sink; with ``CrawlerConfig.checkpoint_every`` set, the engine then calls
    :meth:`save` after every N successful fetches, at a round boundary.
    Every save — those, interval saves, a pause's, a finished crawl's —
    first flushes the engine's write buffers (``CrawlEngine.sync``), so
    the tables it snapshots hold the crawl as of the save.
    """

    def __init__(
        self,
        database: Database,
        crawler: FocusedCrawler,
        spec: JobSpec,
    ) -> None:
        if not database.backend.persistent:
            raise StorageError(
                "crawl checkpoints need a durable database; open one with Database.open(path)"
            )
        self.database = database
        self.crawler = crawler
        #: The checkpointed fetch layer: the engine's transport (not the
        #: bare fetcher) snapshots the whole I/O stack's RNG streams, and
        #: the server pool the fetcher draws from has one of its own.
        self.fetcher: FetchTransport = crawler.engine.transport
        self.servers: ServerPool = crawler.fetcher.web.servers
        self.spec = spec
        self.checkpoints_saved = 0
        #: Wall-clock seconds the crawl spent paused inside each
        #: :meth:`save` — the price of durability (flush + snapshot + any
        #: segment compaction), read by the benchmark.
        self.pause_log: list[float] = []
        crawler.engine.checkpointer = self

    def save(self) -> None:
        """Checkpoint the database with the crawl state as of now, written whole."""
        started = time.perf_counter()
        self.checkpoints_saved += 1
        engine = self.crawler.engine
        engine.sync()
        checkpoint = CrawlCheckpoint(
            spec=self.spec,
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

        The database opens under the checkpointed crawl config's storage
        policy (buffer pool, WAL group commit, compaction), with
        *buffer_pool_pages* as the default a policy without a pool size
        defers to.  Post-checkpoint WAL records are discarded (not
        replayed): the resumed engine re-executes that work
        deterministically, and replaying it would leave the tables ahead
        of the engine state.
        """
        checkpoint = read_checkpoint(path)
        database = Database.open(
            path,
            buffer_pool_pages=buffer_pool_pages,
            storage=checkpoint.spec.crawler.resolve_storage(),
            replay_wal=False,
        )
        return database, checkpoint


def read_checkpoint(path: str) -> CrawlCheckpoint:
    """The crawl checkpoint the database at *path* was last saved with.

    Read from the snapshot without opening the database, so nothing in
    the directory changes.  Raises :class:`StorageError` when the
    snapshot holds none, or one in another format (named, with the one
    this build reads — a format is refused whole rather than half-read).
    """
    header = read_app_state(path)
    if not isinstance(header, CheckpointHeader):
        raise StorageError(f"{path!r} holds no crawl checkpoint to resume from")
    if header.version != FORMAT_VERSION:
        raise StorageError(
            f"{path!r} holds a crawl checkpoint in format {header.version}; "
            f"this build reads format {FORMAT_VERSION}"
        )
    return header.checkpoint
