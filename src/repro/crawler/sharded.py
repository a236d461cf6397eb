"""The sharded crawl engine: N workers, one deterministic crawl.

``engine="sharded"`` partitions a crawl by server — shard ``i`` owns
every host with ``server_sid(host) % N == i`` — across N workers, each
holding a frontier shard, a private server-pool RNG, and its own durable
minidb (segment + WAL) under ``<checkpoint_dir>/shard-XX``.  A
coordinator drives lockstep rounds; all cross-shard effects travel as
:mod:`repro.crawler.handoff` messages and are applied in one canonical
order, so the page sequence, relevance floats, and logical table state
are a pure function of the crawl content:

* ``N=1`` is bit-identical to :class:`~.engine.CrawlEngine` at the same
  round size (same server-pool stream, same heap keys, same ticks);
* ``N>=2`` runs are bit-identical to *each other* for any N and any
  message-delivery timing: per-host RNG substreams make fetch outcomes
  shard-count invariant, and coordinator-assigned ticks/discovery
  numbers make ordering timing-invariant.

This module holds what sharding adds — partitioning, the round
protocol, coordinator-side tick/discovery assignment, merged-graph
distillation, cut markers and the manifest.  The stages of a round
themselves (classify behind the outcome LRU, out-link targets and LINK
rows, the buffered link flush, hub boosts, the focus rule, the
checkpoint-due test) are :mod:`~.engine`'s, called here on each shard's
slice.

One round is five hops: (1) the coordinator asks every shard for its
best *k* frontier candidates; (2) shards check them out locally;
(3) the coordinator merges by frontier key and selects the global
top-K; (4) shards fetch/classify their selections in global position
order and report outcomes; (5) the coordinator assigns ticks and
discovery numbers, routes link handoffs by destination shard, folds the
merged edge list (distillation runs coordinator-side over the union),
and sends each shard its :class:`~.handoff.ApplyRound` slice.

Durability: shards stamp a WAL cut marker per applied round
(:meth:`~repro.minidb.Database.log_cut`); a checkpoint is a barrier —
sync every shard WAL, atomically write the coordinator manifest
(:mod:`repro.core.checkpoint`), then snapshot each shard database.
Resume reopens every shard with ``replay_upto_cut=<manifest round>``,
rewinding all N databases to one common round boundary no matter where
a crash landed.
"""

from __future__ import annotations

import copy
import time
import traceback
from collections import deque
from dataclasses import asdict, replace
from hashlib import blake2b
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.classifier.model import HierarchicalModel
from repro.classifier.training import ModelInstaller
from repro.core.schema import create_crawl_tables, create_focus_database
from repro.distiller.compiled import CompiledLinkGraph, compiled_weighted_hits
from repro.distiller.hits import DistillationResult, weighted_hits
from repro.distiller.weights import Link
from repro.minidb import Database
from repro.taxonomy.tree import TopicTaxonomy
from repro.webgraph.fetch import Fetcher, FetchStats, FetchStatus
from repro.webgraph.servers import ServerPool
from repro.webgraph.transport import build_transport
from repro.webgraph.urls import normalize_url, server_sid, url_oid

from .engine import (
    BufferedLinkWriter,
    CrawlerConfig,
    CrawlTrace,
    PageScorer,
    PageVisit,
    boost_hub_neighbours,
    checkpoint_due,
    expansion_priority,
    link_row,
    link_targets,
    permanent_failure,
)
from .frontier import Frontier
from .handoff import (
    ApplyLinks,
    ApplyRound,
    CandidateReply,
    CheckoutRequest,
    HandoffRecord,
    MessagePipe,
    OutcomeRecord,
    OutcomeReply,
    SelectionMsg,
    merge_handoffs,
    shard_of_sid,
)
from .policies import aggressive_discovery, breadth_first

__all__ = [
    "InProcessShardRunner",
    "MultiprocessShardRunner",
    "ShardServerPool",
    "ShardWorker",
    "ShardedCheckpointManager",
    "ShardedCrawler",
    "ShardedEngine",
    "build_sharded_crawler",
    "shard_db_path",
]

#: Stage keys shared with :class:`~.engine.CrawlEngine.stage_timings`.
_STAGES = ("fetch", "classify", "write")


def shard_db_path(checkpoint_dir: str, shard: int) -> str:
    """The durable database directory of one shard."""
    return str(Path(checkpoint_dir) / f"shard-{shard:02d}")


class ShardServerPool(ServerPool):
    """A server pool whose failure/latency stream is split per host.

    The single-stream pool makes fetch outcomes depend on the *global*
    interleaving of fetches — fine for one worker, fatal for N: moving a
    host to another shard would shift every draw after it.  Here each
    host draws from its own ``default_rng`` seeded by
    ``blake2b(f"{failure_seed}:{host}")``, so a host's outcome sequence
    depends only on the order of fetches *from that host* — which the
    coordinator fixes in global position order — never on N or on what
    other shards are doing.  Used for ``N >= 2``; ``N=1`` keeps the
    sequential clone so it stays bit-identical to the in-process engine,
    latencies included.
    """

    def __init__(self, profiles, failure_seed: int) -> None:
        super().__init__(profiles=profiles, rng=np.random.default_rng(0))
        self.failure_seed = failure_seed
        self._host_rngs: Dict[str, np.random.Generator] = {}

    def _host_rng(self, name: str) -> np.random.Generator:
        rng = self._host_rngs.get(name)
        if rng is None:
            digest = blake2b(
                f"{self.failure_seed}:{name}".encode(), digest_size=8
            ).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "big"))
            self._host_rngs[name] = rng
        return rng

    def simulate_fetch(self, name: str) -> tuple[bool, float]:
        profile = self.get(name)
        rng = self._host_rng(name)
        latency = float(rng.exponential(profile.mean_latency_ms))
        if rng.random() < profile.failure_rate:
            return False, latency * 2.5
        return True, latency

    def rng_state(self) -> dict:
        return {
            name: rng.bit_generator.state for name, rng in self._host_rngs.items()
        }

    def restore_rng(self, state: dict) -> None:
        self._host_rngs = {}
        for name, rng_state in state.items():
            rng = np.random.default_rng(0)
            rng.bit_generator.state = rng_state
            self._host_rngs[name] = rng


class ShardWorker:
    """One shard: a frontier, a database, a fetch stream, a classifier.

    Process-agnostic — the in-process runner holds these directly, the
    multiprocessing runner builds one from the pickled *payload* inside
    each spawned worker.  All crawl-visible decisions (ticks, discovery
    numbers, selection) come from the coordinator; the worker's job is
    to execute its slice and keep its tables bit-identical to the same
    slice of a single-engine crawl.
    """

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.shard: int = payload["shard"]
        self.shards: int = payload["shards"]
        self.config: CrawlerConfig = payload["config"]
        self.classifier: HierarchicalModel = payload["model"]
        self.taxonomy: TopicTaxonomy = payload["taxonomy"]
        failure_seed: int = payload["failure_seed"]
        web = payload["web"]
        # Private fetch stream: sequential clone at N=1 (bit-identical to
        # the in-process engine), per-host substreams at N>=2 (N-invariant).
        if self.shards == 1:
            pool = web.servers.clone()
            pool.reseed(failure_seed)
        else:
            pool = ShardServerPool(web.servers.profiles, failure_seed)
        self.pool = pool
        self.web = copy.copy(web)
        self.web.servers = pool
        self.fetcher = Fetcher(self.web, failure_seed=failure_seed)
        self.transport = build_transport(
            self.config.transport, self.fetcher, self.config.transport_options
        )
        wrap = payload.get("transport_wrap")
        if wrap is not None:
            self.transport = wrap(self.transport)

        db_path = payload.get("db_path")
        resume = payload.get("resume")
        self.durable = db_path is not None
        pages = payload.get("buffer_pool_pages", 2048)
        storage = self.config.resolve_storage()
        if db_path is None:
            self.database = create_focus_database(pages)
        elif resume is None:
            self.database = create_focus_database(pages, path=db_path, storage=storage)
        else:
            # Rewind to the manifest's round: replay the WAL only through
            # the last cut marker <= round and truncate the rest.
            self.database = Database.open(
                db_path,
                buffer_pool_pages=pages,
                storage=storage,
                replay_upto_cut=resume["round"],
            )
            create_crawl_tables(self.database)
        if not self.database.has_table("TAXONOMY"):
            ModelInstaller(self.database).install(self.classifier)

        ordering = self.config.ordering
        if ordering is None:
            ordering = (
                breadth_first() if self.config.focus_mode == "none" else aggressive_discovery()
            )
        self.frontier = Frontier(self.database, ordering)
        # The engine's own classify and record stages, run on this shard's slice.
        self._scorer = PageScorer(self.classifier, self.taxonomy, self.config)
        self._link_writer = BufferedLinkWriter(self.database.table("LINK"))
        self.timings: Dict[str, float] = {stage: 0.0 for stage in _STAGES}
        if resume is not None:
            self.frontier.restore_state(resume["frontier"])
            self.transport.restore_state(resume["fetcher"])
            self.pool.restore_rng(resume["server_rng"])
            self.timings.update(resume.get("timings", {}))

    # -- message dispatch ---------------------------------------------------------
    def handle(self, message: Any) -> Tuple[bool, Any]:
        """Process one coordinator message; returns ``(replied, value)``."""
        if isinstance(message, CheckoutRequest):
            return True, self.checkout(message)
        if isinstance(message, SelectionMsg):
            return True, self.fetch_round(message)
        if isinstance(message, ApplyRound):
            self.apply_round(message)
            return False, None
        op = message[0]
        if op == "seeds":
            self.frontier.add_many_discovered(message[1], 1.0)
            return False, None
        if op == "ping":
            return True, ("ok", self.shard)
        if op == "sync_wal":
            if self.durable:
                self.database.sync_wal()
            return True, ("ok", self.shard)
        if op == "checkpoint_db":
            if self.durable:
                self.database.checkpoint(
                    app_state={"shard": self.shard, "round": message[1]}
                )
            return True, ("ok", self.shard)
        if op == "manifest_state":
            return True, self.manifest_state()
        if op == "io_snapshot":
            return True, self.database.io_snapshot()
        if op == "heap_stats":
            return True, self.frontier.heap_stats()
        raise ValueError(f"unknown shard message {message!r}")

    # -- round protocol -----------------------------------------------------------
    def checkout(self, message: CheckoutRequest) -> CandidateReply:
        """Pop this shard's best *k* candidates with their frontier keys."""
        urls = self.frontier.pop_batch(message.k)
        candidates = []
        for url in urls:
            entry = self.frontier.entry(url)
            candidates.append((self.frontier.current_key(entry), entry.oid, url))
        return CandidateReply(round=message.round, shard=self.shard, candidates=candidates)

    def fetch_round(self, message: SelectionMsg) -> OutcomeReply:
        """Fetch and classify the selected URLs, in global position order."""
        for url in message.rejected:
            self.frontier.requeue(url)
        stats_before = asdict(self.fetcher.stats)
        started = time.perf_counter()
        results = [
            (pos, url, self.transport.fetch(url)) for pos, url in message.selected
        ]
        self.timings["fetch"] += time.perf_counter() - started

        started = time.perf_counter()
        outcomes = iter(
            self._scorer.classify(
                [
                    (self.frontier.entry(url).oid, result)
                    for _pos, url, result in results
                    if result.status is FetchStatus.OK
                ]
            )
        )
        self.timings["classify"] += time.perf_counter() - started

        records: List[OutcomeRecord] = []
        for pos, url, result in results:
            entry = self.frontier.entry(url)
            if result.status is not FetchStatus.OK:
                records.append(
                    OutcomeRecord(
                        pos=pos,
                        url=url,
                        oid=entry.oid,
                        sid=entry.sid,
                        ok=False,
                        permanent=permanent_failure(result.status),
                    )
                )
                continue
            outcome = next(outcomes)
            records.append(
                OutcomeRecord(
                    pos=pos,
                    url=url,
                    oid=entry.oid,
                    sid=entry.sid,
                    ok=True,
                    server=result.server,
                    relevance=outcome.relevance,
                    best_leaf=self._scorer.best_leaf(outcome),
                    hard_accepts=self._scorer.hard_accepts(outcome),
                    out_degree=len(result.out_links),
                    targets=link_targets(entry.oid, result.out_links),
                )
            )
        stats_after = asdict(self.fetcher.stats)
        delta = {key: stats_after[key] - stats_before[key] for key in stats_after}
        return OutcomeReply(
            round=message.round,
            shard=self.shard,
            outcomes=records,
            fetch_stats=delta,
            timings=dict(self.timings),
        )

    def apply_round(self, message: ApplyRound) -> None:
        """Commit this shard's slice of the round (see ApplyRound's contract)."""
        started = time.perf_counter()
        self.frontier.begin_batch()
        for url, permanent in message.failures:
            self.frontier.record_failure(
                url, self.config.max_retries, permanent=permanent
            )
        records = merge_handoffs([batch.records for batch in message.links])
        # Visits and expansions interleave in global position order (a
        # visit at pos sorts before its own links at (pos, 0..)): the
        # serverload snapshot a new frontier entry takes must count
        # exactly the visits the in-process engine had committed when it
        # expanded the same link.
        ops: List[Tuple[int, int, Any]] = [
            (visit[4], -1, visit) for visit in message.visits
        ]
        ops.extend((record.pos, record.link_idx, record) for record in records)
        ops.sort(key=lambda op: (op[0], op[1]))
        for _pos, link_idx, op in ops:
            if link_idx < 0:
                url, tick, relevance, best_leaf, _pos = op
                self.frontier.record_visit(url, relevance, tick, kcid=best_leaf)
            elif op.expand:
                self.frontier.add_many_discovered(
                    [(op.dst_url, op.dst_oid, op.dst_sid, op.discovered)],
                    op.priority,
                )

        # This shard owns every destination, so link_row's wgt_fwd lookup
        # is local and exact; refreshes follow the inserts, in visit order.
        self._link_writer.add_rows(
            [
                link_row(
                    self.frontier,
                    record.src_oid,
                    record.src_sid,
                    record.dst_url,
                    record.dst_oid,
                    record.dst_sid,
                    record.src_relevance,
                )
                for record in records
            ]
        )
        for url, _tick, relevance, _leaf, _pos in message.visits:
            self._link_writer.refresh(self.frontier.entry(url).oid, relevance)
        self._link_writer.flush()

        if message.scores is not None:
            hub_items, auth_items = message.scores
            hubs = self.database.table("HUBS")
            auth = self.database.table("AUTH")
            hubs.truncate()
            auth.truncate()
            hubs.insert_many(hub_items)
            auth.insert_many(auth_items)
        boost_hub_neighbours(
            self._link_writer.table, self.frontier, message.boost_hubs, message.boost_priority
        )

        self.frontier.flush_batch()
        if message.log_cut and self.durable:
            self.database.log_cut(message.round)
        self.timings["write"] += time.perf_counter() - started

    # -- checkpoint support -------------------------------------------------------
    def manifest_state(self) -> Dict[str, Any]:
        """This shard's slice of the coordinator manifest (round boundary only)."""
        return {
            "frontier": self.frontier.state_snapshot(),
            "fetcher": self.transport.state_snapshot(),
            "server_rng": self.pool.rng_state(),
            "timings": dict(self.timings),
        }

    def close(self) -> None:
        if not self.database.closed:
            self.database.close()


def _shard_worker_main(conn, payload: Dict[str, Any]) -> None:
    """Entry point of a spawned shard worker process."""
    try:
        worker = ShardWorker(payload)
    except Exception:
        conn.send(("__shard_error__", traceback.format_exc()))
        return
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        if isinstance(message, tuple) and message and message[0] == "close":
            worker.close()
            try:
                conn.send(("closed", worker.shard))
            except OSError:
                pass
            break
        try:
            replied, value = worker.handle(message)
        except Exception:
            conn.send(("__shard_error__", traceback.format_exc()))
            break
        if replied:
            conn.send(value)


class InProcessShardRunner:
    """All shards in this process, behind per-shard FIFO message pipes.

    The runner only *drains* a shard's inbox when the coordinator needs
    something from it, so pending fire-and-forget messages (applies,
    seeds) sit queued exactly as they would in a real pipe.  *schedule*
    permutes the order shards are serviced in — the seam the
    determinism tests drive random delivery orders through; correctness
    never depends on it because per-pipe FIFO is preserved and all
    cross-shard merges are canonical.
    """

    def __init__(
        self,
        payloads: Sequence[Dict[str, Any]],
        schedule: Optional[Callable[[List[int]], List[int]]] = None,
    ) -> None:
        self.workers = [ShardWorker(payload) for payload in payloads]
        self.pipes = [MessagePipe() for _ in payloads]
        self.replies: List[deque] = [deque() for _ in payloads]
        self.schedule = schedule

    def _order(self, shards: Sequence[int]) -> List[int]:
        shards = list(shards)
        if self.schedule is None:
            return shards
        permuted = list(self.schedule(list(shards)))
        if sorted(permuted) != sorted(shards):
            raise ValueError("schedule must permute the shard list, not change it")
        return permuted

    def _drain(self, shard: int) -> None:
        for message in self.pipes[shard].drain():
            replied, value = self.workers[shard].handle(message)
            if replied:
                self.replies[shard].append(value)

    def send(self, shard: int, message: Any) -> None:
        self.pipes[shard].send(message)

    def request(self, shard: int, message: Any) -> Any:
        self.send(shard, message)
        self._drain(shard)
        return self.replies[shard].popleft()

    def gather(self, messages: Dict[int, Any]) -> Dict[int, Any]:
        for shard, message in messages.items():
            self.send(shard, message)
        out = {}
        for shard in self._order(list(messages)):
            self._drain(shard)
            out[shard] = self.replies[shard].popleft()
        return out

    def broadcast(self, message: Any) -> Dict[int, Any]:
        return self.gather({shard: message for shard in range(len(self.workers))})

    def stop(self) -> None:
        for shard in range(len(self.workers)):
            self.pipes[shard].drain()  # unprocessed messages die with the runner
        for worker in self.workers:
            worker.close()


class MultiprocessShardRunner:
    """N spawned worker processes, one duplex pipe each (the multi-core path)."""

    def __init__(self, payloads: Sequence[Dict[str, Any]]) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        self.processes = []
        self.conns = []
        for payload in payloads:
            parent, child = ctx.Pipe()
            process = ctx.Process(
                target=_shard_worker_main, args=(child, payload), daemon=True
            )
            process.start()
            child.close()
            self.processes.append(process)
            self.conns.append(parent)

    def _recv(self, shard: int) -> Any:
        try:
            reply = self.conns[shard].recv()
        except EOFError:
            raise RuntimeError(f"shard {shard} worker process died") from None
        if isinstance(reply, tuple) and reply and reply[0] == "__shard_error__":
            raise RuntimeError(f"shard {shard} worker failed:\n{reply[1]}")
        return reply

    def send(self, shard: int, message: Any) -> None:
        self.conns[shard].send(message)

    def request(self, shard: int, message: Any) -> Any:
        self.send(shard, message)
        return self._recv(shard)

    def gather(self, messages: Dict[int, Any]) -> Dict[int, Any]:
        for shard, message in messages.items():
            self.send(shard, message)
        return {shard: self._recv(shard) for shard in messages}

    def broadcast(self, message: Any) -> Dict[int, Any]:
        return self.gather({shard: message for shard in range(len(self.conns))})

    def stop(self) -> None:
        for conn in self.conns:
            try:
                conn.send(("close",))
            except (OSError, BrokenPipeError):
                pass
        for shard, conn in enumerate(self.conns):
            try:
                conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
        for process in self.processes:
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()


class ShardedEngine:
    """The coordinator: merges checkouts, assigns ticks, routes handoffs.

    Owns every global decision — selection, ticks, discovery numbers,
    stagnation, distillation — and the merged columnar edge list the
    sharded HITS reduction runs over.  Duck-types the slice of
    :class:`~.engine.CrawlEngine` that :class:`~repro.core.system.CrawlHandle`
    and the service job manager drive: ``run(budget, max_rounds)``,
    ``stage_timings``, ``checkpointer``, ``run_distillation``.
    """

    def __init__(
        self,
        runner,
        config: CrawlerConfig,
        trace: CrawlTrace,
        shards: int,
        durable: bool,
    ) -> None:
        self.runner = runner
        self.config = config
        self.trace = trace
        self.shards = shards
        self.durable = durable
        self.checkpointer = None
        self._round = 0
        self._tick = 0
        self._since_distillation = 0
        self._since_checkpoint = 0
        self._last_checkpoint_s: Optional[float] = None
        self._stagnation_misses = 0
        self._next_discovered = 0
        #: oid -> measured relevance of every visited page, in visit order.
        self._relevance: Dict[int, float] = {}
        self._sid_of: Dict[int, int] = {}
        self._url_of_oid: Dict[int, str] = {}
        #: The merged crawl graph in canonical append order — exactly the
        #: LINK insert order of the equivalent single-engine crawl.
        self._rows: List[tuple] = []
        self._dst_positions: Dict[int, List[int]] = {}
        self._graph: Optional[CompiledLinkGraph] = None
        #: Graph edge position of each of the first rows of ``_rows``
        #: (-1: nepotistic, dropped) — as many as the graph has folded.
        self._edge_of_row: List[int] = []
        #: Handoff accounting: "src->dst" -> records routed so far.
        self._handoff_watermarks: Dict[str, int] = {}
        self.fetch_stats = FetchStats()
        self._shard_timings: Dict[int, Dict[str, float]] = {}
        self._distill_s = 0.0

    # -- public surface ----------------------------------------------------------
    @property
    def stage_timings(self) -> Dict[str, float]:
        """Per-stage totals across shards (write lags one round per shard)."""
        totals = {stage: 0.0 for stage in _STAGES}
        for timings in self._shard_timings.values():
            for stage in _STAGES:
                totals[stage] += timings.get(stage, 0.0)
        totals["distill"] = self._distill_s
        return totals

    def fetch_overlap_ratio(self) -> float:
        return 0.0

    def url_of_oid(self, oid: int) -> Optional[str]:
        return self._url_of_oid.get(oid)

    def add_seeds(self, urls: Sequence[str]) -> None:
        per_shard: Dict[int, List[Tuple[str, int, int, int]]] = {}
        for url in urls:
            normalized = normalize_url(url)
            oid = url_oid(normalized)
            sid = server_sid(normalized)
            number = self._next_discovered
            self._next_discovered += 1
            self._sid_of.setdefault(oid, sid)
            self._url_of_oid.setdefault(oid, normalized)
            per_shard.setdefault(shard_of_sid(sid, self.shards), []).append(
                (normalized, oid, sid, number)
            )
        for shard, quads in per_shard.items():
            self.runner.send(shard, ("seeds", quads))
        self.runner.broadcast(("ping",))

    def run(self, budget: int, max_rounds: Optional[int] = None) -> CrawlTrace:
        """Run lockstep rounds until the budget or every frontier is exhausted."""
        if max_rounds is not None and max_rounds < 1:
            raise ValueError("max_rounds must be >= 1 (or None for unlimited)")
        if self.config.checkpoint_interval_s and self.checkpointer is not None:
            self._last_checkpoint_s = time.monotonic()
        stop = False
        rounds = 0
        while not stop and self.trace.pages_fetched < budget:
            if max_rounds is not None and rounds >= max_rounds:
                break
            rounds += 1
            if not self._run_round(budget):
                self.trace.stagnated = True
                break
            stop = self.trace.stagnated
        # The final round's ApplyRound is fire-and-forget; barrier so the
        # shard databases are consistent with the trace when run() returns.
        self.runner.broadcast(("ping",))
        return self.trace

    def run_distillation(self) -> DistillationResult:
        """Sharded reduction outside a round (the top_hubs-on-demand path)."""
        result, hub_parts, auth_parts, boost = self._compute_distillation()
        for shard in range(self.shards):
            self.runner.send(
                shard,
                ApplyRound(
                    round=self._round,
                    scores=(hub_parts[shard], auth_parts[shard]),
                    boost_hubs=boost,
                    boost_priority=self.config.hub_boost_priority,
                    log_cut=False,
                ),
            )
        self.runner.broadcast(("ping",))
        return result

    # -- the round ---------------------------------------------------------------
    def _run_round(self, budget: int) -> bool:
        """One five-hop round; returns False when every frontier came up empty."""
        self._round += 1
        round_no = self._round
        k = min(self.config.batch_size, budget - self.trace.pages_fetched)

        # Hops 1-2: checkout.  The global top-k is a subset of the union
        # of per-shard top-ks (each shard returns its k best).
        replies = self.runner.broadcast(CheckoutRequest(round=round_no, k=k))
        candidates: List[Tuple[tuple, int, str, int]] = []
        for shard in range(self.shards):
            for key, oid, url in replies[shard].candidates:
                candidates.append((key, oid, url, shard))
        candidates.sort(key=lambda item: (item[0], item[1]))
        selected = candidates[:k]
        if not selected:
            return False

        # Hop 3: selection fan-out (global positions), rejects returned.
        selections: Dict[int, SelectionMsg] = {}
        for shard in range(self.shards):
            selections[shard] = SelectionMsg(round=round_no)
        for pos, (_key, _oid, url, shard) in enumerate(selected):
            selections[shard].selected.append((pos, url))
        for _key, _oid, url, shard in candidates[k:]:
            selections[shard].rejected.append(url)
        involved = {
            shard
            for shard, message in selections.items()
            if message.selected or message.rejected
        }

        # Hop 4: fetch + classify, outcomes merged back in position order.
        outcome_replies = self.runner.gather(
            {shard: selections[shard] for shard in involved}
        )
        outcomes: List[OutcomeRecord] = []
        for shard, reply in outcome_replies.items():
            self._shard_timings[shard] = reply.timings
            for field_name, value in reply.fetch_stats.items():
                setattr(
                    self.fetch_stats,
                    field_name,
                    getattr(self.fetch_stats, field_name) + value,
                )
            outcomes.extend(reply.outcomes)
        outcomes.sort(key=lambda record: record.pos)

        # Global commit: stagnation scan, ticks, trace, edge folding, and
        # handoff routing — all in checkout order, exactly the order
        # CrawlEngine._process_group/_commit_visit would walk.
        failures: Dict[int, List[Tuple[str, bool]]] = {}
        visits: Dict[int, List[Tuple[str, int, float, Optional[int]]]] = {}
        handoffs: Dict[int, Dict[int, List[HandoffRecord]]] = {}
        successes: List[OutcomeRecord] = []
        for record in outcomes:
            src_shard = shard_of_sid(record.sid, self.shards)
            if not record.ok:
                failures.setdefault(src_shard, []).append(
                    (record.url, record.permanent)
                )
                self.trace.failed_urls.append(record.url)
                self._stagnation_misses += 1
                if self._stagnation_misses >= self.config.stagnation_patience:
                    self.trace.stagnated = True
                continue
            successes.append(record)
            self._stagnation_misses = 0
            self._tick += 1
            visits.setdefault(src_shard, []).append(
                (record.url, self._tick, record.relevance, record.best_leaf, record.pos)
            )
            self._relevance[record.oid] = record.relevance
            self._sid_of.setdefault(record.oid, record.sid)
            self._url_of_oid.setdefault(record.oid, record.url)
            priority = expansion_priority(
                self.config.focus_mode, record.relevance, record.hard_accepts
            )
            for link_idx, (target_url, target_oid, target_sid) in enumerate(
                record.targets
            ):
                number = self._next_discovered
                self._next_discovered += 1
                self._sid_of.setdefault(target_oid, target_sid)
                self._url_of_oid.setdefault(target_oid, target_url)
                handoff = HandoffRecord(
                    round=round_no,
                    pos=record.pos,
                    link_idx=link_idx,
                    src_oid=record.oid,
                    src_sid=record.sid,
                    dst_url=target_url,
                    dst_oid=target_oid,
                    dst_sid=target_sid,
                    src_relevance=record.relevance,
                    discovered=number,
                    expand=priority is not None,
                    priority=priority or 0.0,
                )
                dst_shard = shard_of_sid(target_sid, self.shards)
                handoffs.setdefault(dst_shard, {}).setdefault(src_shard, []).append(
                    handoff
                )
                self._append_edge(handoff)
            self.trace.visits.append(
                PageVisit(
                    tick=self._tick,
                    url=record.url,
                    relevance=record.relevance,
                    server=record.server,
                    out_degree=record.out_degree,
                    best_leaf_cid=record.best_leaf,
                )
            )
            self.trace.fetched_urls.append(record.url)
            self._since_distillation += 1
            self._since_checkpoint += 1
        # E_F refresh of the merged graph for this round's visits, after
        # the round's edges are appended (what each shard's link flush
        # does to its LINK partition).
        self._patch_forward(successes)

        distilled = bool(
            self.config.distill_every
            and self._since_distillation >= self.config.distill_every
        )
        if distilled:
            _result, hub_parts, auth_parts, boost = self._compute_distillation()

        # Hop 5: per-shard apply.
        for shard in range(self.shards):
            links = [
                ApplyLinks(src_shard=src, records=records)
                for src, records in sorted(handoffs.get(shard, {}).items())
            ]
            for batch in links:
                key = f"{batch.src_shard}->{shard}"
                self._handoff_watermarks[key] = self._handoff_watermarks.get(
                    key, 0
                ) + len(batch.records)
            message = ApplyRound(
                round=round_no,
                failures=failures.get(shard, []),
                visits=visits.get(shard, []),
                links=links,
                scores=(hub_parts[shard], auth_parts[shard]) if distilled else None,
                boost_hubs=boost if distilled else [],
                boost_priority=self.config.hub_boost_priority,
                log_cut=self.durable,
            )
            if (
                message.failures
                or message.visits
                or message.links
                or distilled
                or self.durable
            ):
                self.runner.send(shard, message)
        self._maybe_checkpoint()
        return True

    # -- merged-graph distillation -------------------------------------------------
    def _append_edge(self, record: HandoffRecord) -> None:
        relevance = self._relevance.get(record.dst_oid)
        forward = relevance if relevance is not None else record.src_relevance
        row = (
            record.src_oid,
            record.src_sid,
            record.dst_oid,
            record.dst_sid,
            forward,
            record.src_relevance,
        )
        position = len(self._rows)
        self._rows.append(row)
        self._dst_positions.setdefault(record.dst_oid, []).append(position)

    def _patch_forward(self, visited: List[OutcomeRecord]) -> None:
        edge_of_row = self._edge_of_row
        edges: List[int] = []
        forward: List[float] = []
        backward: List[float] = []
        for record in visited:
            for position in self._dst_positions.get(record.oid, ()):
                row = self._rows[position]
                self._rows[position] = row[:4] + (record.relevance, row[5])
                if position < len(edge_of_row) and edge_of_row[position] >= 0:
                    edges.append(edge_of_row[position])
                    forward.append(record.relevance)
                    backward.append(row[5])
        if edges:
            self._graph.patch(edges, forward, backward)

    def _ensure_graph(self) -> CompiledLinkGraph:
        if self._graph is None:
            self._graph = CompiledLinkGraph()
            self._edge_of_row = []
        fresh = self._rows[len(self._edge_of_row) :]
        if fresh:
            columns = [list(map(itemgetter(position), fresh)) for position in range(6)]
            self._edge_of_row.extend(self._graph.add_columns(*columns))
        return self._graph

    def _compute_distillation(self):
        started = time.perf_counter()
        if self.config.score_backend == "numpy":
            result = compiled_weighted_hits(
                self._ensure_graph(),
                relevance=self._relevance,
                rho=self.config.rho,
                max_iterations=self.config.distill_iterations,
            )
        else:
            result = weighted_hits(
                [Link(*row) for row in self._rows],
                relevance=self._relevance,
                rho=self.config.rho,
                max_iterations=self.config.distill_iterations,
            )
        self.trace.distillations += 1
        self.trace.last_distillation = result
        self._since_distillation = 0
        hub_parts: List[List[Tuple[int, float]]] = [[] for _ in range(self.shards)]
        auth_parts: List[List[Tuple[int, float]]] = [[] for _ in range(self.shards)]
        for oid, score in result.hub_scores.items():
            hub_parts[shard_of_sid(self._sid_of[oid], self.shards)].append((oid, score))
        for oid, score in result.authority_scores.items():
            auth_parts[shard_of_sid(self._sid_of[oid], self.shards)].append(
                (oid, score)
            )
        if result.hub_scores and self.config.hub_boost_top_k > 0:
            boost = [
                oid for oid, _ in result.top_hubs(self.config.hub_boost_top_k)
            ]
        else:
            boost = []
        self._distill_s += time.perf_counter() - started
        return result, hub_parts, auth_parts, boost

    # -- checkpointing -----------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        if self.checkpointer is None or not checkpoint_due(
            self.config, self._since_checkpoint, self._last_checkpoint_s
        ):
            return
        self._since_checkpoint = 0
        if self.config.checkpoint_interval_s:
            self._last_checkpoint_s = time.monotonic()
        self.checkpointer.save()

    def state_snapshot(self) -> Dict[str, Any]:
        """The coordinator's complete crawl state (round boundaries only)."""
        return {
            "round": self._round,
            "tick": self._tick,
            "since_distillation": self._since_distillation,
            "since_checkpoint": self._since_checkpoint,
            "stagnation_misses": self._stagnation_misses,
            "next_discovered": self._next_discovered,
            "relevance": dict(self._relevance),
            "sid_of": dict(self._sid_of),
            "url_of_oid": dict(self._url_of_oid),
            "rows": list(self._rows),
            "watermarks": dict(self._handoff_watermarks),
            "fetch_stats": asdict(self.fetch_stats),
            "shard_timings": {
                shard: dict(t) for shard, t in self._shard_timings.items()
            },
            "distill_s": self._distill_s,
            "trace": self.trace,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        self._round = state["round"]
        self._tick = state["tick"]
        self._since_distillation = state["since_distillation"]
        self._since_checkpoint = state["since_checkpoint"]
        self._stagnation_misses = state["stagnation_misses"]
        self._next_discovered = state["next_discovered"]
        self._relevance = dict(state["relevance"])
        self._sid_of = dict(state["sid_of"])
        self._url_of_oid = dict(state["url_of_oid"])
        self._rows = list(state["rows"])
        self._dst_positions = {}
        for position, row in enumerate(self._rows):
            self._dst_positions.setdefault(row[2], []).append(position)
        self._graph = None  # rebuilt (identically) on the next distillation
        self._edge_of_row = []
        self._handoff_watermarks = dict(state["watermarks"])
        self.fetch_stats = FetchStats(**state["fetch_stats"])
        self._shard_timings = {
            shard: dict(t) for shard, t in state["shard_timings"].items()
        }
        self._distill_s = state["distill_s"]
        self.trace.refill(state["trace"])


class _AggregateFetcher:
    """Duck-types the ``.stats`` surface of :class:`Fetcher` for CrawlHandle."""

    def __init__(self, engine: ShardedEngine) -> None:
        self._engine = engine

    @property
    def stats(self) -> FetchStats:
        return self._engine.fetch_stats


class _ShardedDatabaseStub:
    """Stands in for ``crawler.database``: sharded crawls have N of them.

    Knows how to close (shut the runner down) and report aggregated I/O;
    anything table-shaped raises with a pointer at the per-shard
    databases under the checkpoint directory.
    """

    sharded = True

    def __init__(self, crawler: "ShardedCrawler") -> None:
        self._crawler = crawler
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._crawler.shutdown()

    def io_snapshot(self) -> Dict[str, Any]:
        return self._crawler.io_snapshot()

    def __getattr__(self, name: str):
        raise AttributeError(
            f"sharded crawls keep one database per shard (shard-XX/ under the "
            f"checkpoint directory); {name!r} is not available on the "
            f"coordinator stub"
        )


class ShardedCrawler:
    """Duck-types :class:`~.focused.FocusedCrawler` over a shard fleet."""

    def __init__(
        self,
        engine: ShardedEngine,
        config: CrawlerConfig,
        trace: CrawlTrace,
    ) -> None:
        self.engine = engine
        self.config = config
        self.trace = trace
        self.database = _ShardedDatabaseStub(self)
        self.fetcher = _AggregateFetcher(engine)
        self._shutdown = False

    def add_seeds(self, urls: Sequence[str]) -> None:
        self.engine.add_seeds(urls)

    def top_hubs(self, k: int = 10) -> List[Tuple[str, float]]:
        if self.trace.last_distillation is None:
            self.engine.run_distillation()
        result = self.trace.last_distillation
        return [
            (self.engine.url_of_oid(oid) or str(oid), score)
            for oid, score in result.top_hubs(k)
        ]

    def top_authorities(self, k: int = 10) -> List[Tuple[str, float]]:
        if self.trace.last_distillation is None:
            self.engine.run_distillation()
        result = self.trace.last_distillation
        return [
            (self.engine.url_of_oid(oid) or str(oid), score)
            for oid, score in result.top_authorities(k)
        ]

    def io_snapshot(self) -> Dict[str, Any]:
        """Aggregated I/O counters plus the per-shard breakdown."""
        replies = self.engine.runner.broadcast(("io_snapshot",))
        shards = [replies[shard] for shard in range(self.engine.shards)]
        totals: Dict[str, Any] = {}
        for snapshot in shards:
            for key, value in snapshot.items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0.0) + value
        totals["shards"] = [dict(snapshot) for snapshot in shards]
        return totals

    def heap_stats(self) -> List[Dict[str, int]]:
        replies = self.engine.runner.broadcast(("heap_stats",))
        return [replies[shard] for shard in range(self.engine.shards)]

    def checkpoint_manager(self, path: str, **kwargs) -> "ShardedCheckpointManager":
        return ShardedCheckpointManager(self, path, **kwargs)

    def shutdown(self) -> None:
        if self._shutdown:
            return
        self._shutdown = True
        self.database._closed = True
        self.engine.runner.stop()


class ShardedCheckpointManager:
    """Kill-safe checkpoints for a shard fleet: manifest-then-shards.

    ``save()`` is a barrier protocol: (1) fsync every shard WAL — each
    already carries a cut marker per applied round; (2) atomically write
    the coordinator manifest (round, engine state, per-shard frontier /
    RNG / transport snapshots, handoff watermarks); (3) snapshot each
    shard database.  A crash anywhere leaves the *last committed
    manifest* authoritative, and every shard can rewind to its round via
    ``replay_upto_cut`` — shard snapshots are pure acceleration.
    """

    def __init__(
        self,
        crawler: ShardedCrawler,
        path: str,
        *,
        seeds: Sequence[str],
        good_topics: Sequence[str],
        fetch_failure_seed: int = 0,
        focused: bool = True,
        ops=None,
        checkpoints_saved: int = 0,
    ) -> None:
        from repro.core.checkpoint import CoordinatorManifest, write_coordinator_manifest

        self._manifest_cls = CoordinatorManifest
        self._write_manifest = write_coordinator_manifest
        self.crawler = crawler
        self.path = str(path)
        self.seeds = list(seeds)
        self.good_topics = list(good_topics)
        self.fetch_failure_seed = fetch_failure_seed
        self.focused = focused
        self.ops = ops
        self.checkpoints_saved = checkpoints_saved
        self.save_seconds = 0.0

    def attach(self) -> None:
        self.crawler.engine.checkpointer = self

    def save(self) -> None:
        started = time.perf_counter()
        engine = self.crawler.engine
        runner = engine.runner
        if engine.durable:
            runner.broadcast(("sync_wal",))
        shard_states = runner.broadcast(("manifest_state",))
        for shard, state in shard_states.items():
            engine._shard_timings[shard] = dict(state.get("timings", {}))
        manifest = self._manifest_cls(
            round=engine._round,
            shards=engine.shards,
            config=self.crawler.config,
            focused=self.focused,
            seeds=self.seeds,
            good_topics=self.good_topics,
            fetch_failure_seed=self.fetch_failure_seed,
            engine_state=engine.state_snapshot(),
            shard_states=[shard_states[shard] for shard in range(engine.shards)],
            checkpoints_saved=self.checkpoints_saved + 1,
        )
        self._write_manifest(self.path, manifest, ops=self.ops)
        self.checkpoints_saved += 1
        runner.broadcast(("checkpoint_db", engine._round))
        self.save_seconds += time.perf_counter() - started


def _shard_payloads(
    web,
    model: HierarchicalModel,
    taxonomy: TopicTaxonomy,
    config: CrawlerConfig,
    *,
    shards: int,
    fetch_failure_seed: int,
    buffer_pool_pages: int,
    checkpoint_dir: Optional[str],
    transport_wrap,
    manifest,
) -> List[Dict[str, Any]]:
    payloads = []
    for shard in range(shards):
        resume = None
        if manifest is not None:
            resume = {"round": manifest.round, **manifest.shard_states[shard]}
        payloads.append(
            {
                "shard": shard,
                "shards": shards,
                "config": config,
                "web": web,
                "model": model,
                "taxonomy": taxonomy,
                "failure_seed": fetch_failure_seed,
                "buffer_pool_pages": buffer_pool_pages,
                "db_path": (
                    shard_db_path(checkpoint_dir, shard) if checkpoint_dir else None
                ),
                "resume": resume,
                "transport_wrap": transport_wrap,
            }
        )
    return payloads


def build_sharded_crawler(
    web,
    model: HierarchicalModel,
    taxonomy: TopicTaxonomy,
    config: CrawlerConfig,
    *,
    focused: bool = True,
    fetch_failure_seed: int = 0,
    checkpoint_dir: Optional[str] = None,
    buffer_pool_pages: int = 2048,
    transport_wrap=None,
    schedule: Optional[Callable[[List[int]], List[int]]] = None,
    manifest=None,
) -> ShardedCrawler:
    """Construct the shard fleet + coordinator for ``engine="sharded"``.

    With *manifest* (a :class:`~repro.core.checkpoint.CoordinatorManifest`)
    the fleet resumes: every shard database reopens with
    ``replay_upto_cut=manifest.round`` and the coordinator adopts the
    manifest's engine state.
    """
    config = replace(config)
    if not focused:
        # As UnfocusedCrawler does: measure relevance, never use it.
        config.focus_mode = "none"
        if config.ordering is None:
            config.ordering = breadth_first()
        config.distill_every = 0
    shards = config.resolve_shards()
    runner_kind = getattr(config, "shard_runner", "process") or "process"
    if runner_kind not in ("process", "inprocess"):
        raise ValueError(
            f"unknown shard_runner {runner_kind!r}; expected 'process' or 'inprocess'"
        )
    if transport_wrap is not None and runner_kind != "inprocess":
        raise ValueError(
            "a wrapped transport cannot cross a process boundary; use "
            "shard_runner='inprocess' for transport-wrapped sharded crawls"
        )
    if schedule is not None and runner_kind != "inprocess":
        raise ValueError("delivery schedules only apply to shard_runner='inprocess'")
    storage = config.resolve_storage()
    if (
        checkpoint_dir is not None
        and shards > 1
        and storage.ops is not None
        and storage.ops_factory is None
    ):
        raise ValueError(
            "sharded durable crawls need storage.ops_factory (one FileOps per "
            "shard database); a single shared storage.ops instance would "
            "entangle the shards' file and fault-injection state"
        )
    payloads = _shard_payloads(
        web,
        model,
        taxonomy,
        config,
        shards=shards,
        fetch_failure_seed=fetch_failure_seed,
        buffer_pool_pages=buffer_pool_pages,
        checkpoint_dir=checkpoint_dir,
        transport_wrap=transport_wrap,
        manifest=manifest,
    )
    if runner_kind == "inprocess":
        runner = InProcessShardRunner(payloads, schedule=schedule)
    else:
        for payload in payloads:
            payload.pop("transport_wrap")
        runner = MultiprocessShardRunner(payloads)
    trace = CrawlTrace()
    engine = ShardedEngine(
        runner, config, trace, shards=shards, durable=checkpoint_dir is not None
    )
    crawler = ShardedCrawler(engine, config, trace)
    if manifest is not None:
        engine.restore_state(manifest.engine_state)
    return crawler
