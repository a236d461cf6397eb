"""The sharded crawl engine: N workers, one deterministic crawl.

``engine="sharded"`` partitions a crawl by server (``sid % N``) across N
workers, each holding a frontier shard, a private server-pool RNG, and
its own in-memory minidb.  A coordinator
drives lockstep rounds; all cross-shard effects travel as
:mod:`repro.crawler.handoff` column batches in one canonical order, so
the page sequence, relevance floats, and logical table state are a pure
function of the crawl content:

* ``N=1`` is bit-identical to :class:`~.engine.CrawlEngine` at the same
  round size (same server-pool stream, same heap keys, same ticks);
* ``N>=2`` runs are bit-identical to *each other* for any N and any
  message-delivery timing: per-host RNG substreams make fetch outcomes
  shard-count invariant, and coordinator-assigned ticks/discovery
  numbers make ordering timing-invariant.

This module holds what sharding adds — the round protocol,
coordinator-side tick/discovery assignment and merged-graph
distillation.  The stages of a round themselves (classify, out-link
targets, the buffered link flush, the score tables' rewrite, hub
boosts, the focus rule) are :mod:`~.engine`'s, called on each shard's
slice.

One round is three exchanges: (1) *checkout* — every shard finishes the
previous round if its scores were still outstanding, then proposes its
best *k* frontier candidates; the coordinator merges by frontier key
and selects the global top-K; (2) *fetch* — shards fetch/classify their
selections in global position order and report outcomes as column
batches; (3) *apply* — the coordinator assigns ticks and discovery
numbers by arithmetic on those columns, routes links by destination
shard and sends each shard its :class:`~.handoff.ApplyRound` at once.
While the shards write, the coordinator folds the round's edges into
the merged graph and, when due, runs HITS; a distilling round's scores
and hub boosts then ride in the next checkout request, and only then
does the shard flush its frontier.

A sharded crawl is not durable: its shard databases live in memory
inside the workers and die with them, and ``FocusSystem`` refuses a
checkpoint directory for it.
"""

from __future__ import annotations

import copy
import gc
import multiprocessing
import pickle
import time
import traceback
from collections import deque
from dataclasses import asdict
from hashlib import blake2b
from heapq import merge
from itertools import accumulate, count, repeat
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.classifier.model import HierarchicalModel
from repro.classifier.training import ModelInstaller
from repro.core.schema import create_focus_database
from repro.distiller.compiled import CompiledLinkGraph, compiled_weighted_hits
from repro.distiller.hits import DistillationResult
from repro.minidb.table import Table
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
    check_ranges,
    expansion_priority,
    permanent_failure,
    resolve_links,
    write_scores,
)
from .frontier import Frontier
from .handoff import (
    ApplyRound,
    CheckoutRequest,
    FinishRound,
    HandoffOrderError,
    OutcomeBatch,
    SelectionMsg,
    per_link,
    route_links,
)
from .policies import aggressive_discovery, breadth_first

__all__ = [
    "InProcessShardRunner",
    "MultiprocessShardRunner",
    "ShardServerPool",
    "ShardWorker",
    "ShardedCrawler",
    "ShardedEngine",
    "build_sharded_crawler",
]

#: Stage keys shared with :class:`~.engine.CrawlEngine.stage_timings`.
_STAGES = ("fetch", "classify", "write")

#: What a worker accumulates beside the stages (``ShardWorker.timings``):
#: seconds blocked in receive and seconds handling, by the kind of message
#: that ended the wait (``idle_checkout``: waiting on the coordinator's
#: edge fold and HITS with its own apply done); un-pickling; pickling +
#: sending; bytes.  Write-only: no decision reads them.
_KINDS = ("checkout", "fetch", "apply", "other")
_WORKER_PROTOCOL = (
    *("idle_" + kind for kind in _KINDS), *("handle_" + kind for kind in _KINDS),
    "decode", "encode", "bytes_in", "bytes_out",
)

#: The coordinator's side: seconds blocked on replies, pickling + sending, un-pickling.
_RUNNER_PROTOCOL = ("wait", "encode", "decode", "bytes_out", "bytes_in", "messages")

#: Round message type -> (the ``handle_*`` timing it counts under, its ShardWorker method).
_ROUND_MESSAGES = {
    CheckoutRequest: ("checkout", "checkout"),
    SelectionMsg: ("fetch", "fetch_round"),
    ApplyRound: ("apply", "apply_round"),
    FinishRound: ("apply", "finish_round"),
}

#: Seconds without a reply before a worker is reported as wedged, and seconds
#: ``stop()`` waits for the workers to close before it kills them.
_REPLY_TIMEOUT_S = 600.0
_STOP_TIMEOUT_S = 10.0


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


def boost_hub_neighbours(
    link_table: Table, frontier: Frontier, hub_oids, priority: float
) -> None:
    """Raise frontier priority of unvisited pages cited by the best hubs (§3.7).

    Only off-server citations count (rows in the pinned LINK schema
    order), and only targets *frontier* knows.  A shard's LINK holds the
    edges into its own hosts, so it walks its table; the single engine
    reads the same edges off its distiller's link graph.
    """
    for hub_oid in hub_oids:
        for _src, sid_src, oid_dst, sid_dst, _fwd, _rev in link_table.lookup(
            "link_src", (hub_oid,)
        ):
            if sid_src == sid_dst:
                continue
            target_url = frontier.url_of_oid(oid_dst)
            if target_url is not None:
                frontier.boost(target_url, priority)


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
        self.web = copy.copy(web)
        self.web.servers = pool
        self.fetcher = Fetcher(self.web, failure_seed=failure_seed)
        self.transport = build_transport(
            self.config.transport, self.fetcher, self.config.transport_options
        )
        wrap = payload.get("transport_wrap")
        if wrap is not None:
            self.transport = wrap(self.transport)

        self.database = create_focus_database(payload.get("buffer_pool_pages", 2048))
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
        self.timings: Dict[str, float] = dict.fromkeys(_STAGES + _WORKER_PROTOCOL, 0.0)

    # -- message dispatch ---------------------------------------------------------
    def handle(self, message: Any) -> Tuple[bool, Any]:
        """Process one coordinator message; returns ``(replied, value)``."""
        started = time.perf_counter()
        kind, method = _ROUND_MESSAGES.get(type(message), ("other", "_control"))
        try:
            value = getattr(self, method)(message)
        finally:
            self.timings["handle_" + kind] += time.perf_counter() - started
        return value is not None, value

    def _control(self, message: tuple) -> Any:
        """The tuple messages; every one but ``seeds`` is answered."""
        op = message[0]
        if op == "seeds":
            self.frontier.add_many_discovered(message[1], 1.0)
            self.frontier.flush_batch()  # seeding writes, as CrawlEngine's sync does
            return None
        if op == "ping":  # the barrier: its reply is this shard's timings
            return dict(self.timings)
        if op == "io_snapshot":
            return {**self.database.io_snapshot(), "protocol": dict(self.timings)}
        if op == "heap_stats":
            return self.frontier.heap_stats()
        raise ValueError(f"unknown shard message {message!r}")

    # -- round protocol -----------------------------------------------------------
    def checkout(self, message: CheckoutRequest) -> List[Tuple[tuple, int, str]]:
        """Close the last round if it is still open, then pop the best *k* candidates.

        Returns them best first as ``(key, oid, url)``, *key* being the
        frontier ordering key at checkout time — value tuples, so the
        coordinator's merge compares them exactly as the heap would.
        """
        if message.finish is not None:
            self.finish_round(message.finish)
        frontier = self.frontier
        entries = map(frontier.entry, frontier.pop_batch(message.k))
        return [(frontier.current_key(entry), entry.oid, entry.url) for entry in entries]

    def fetch_round(self, message: SelectionMsg) -> OutcomeBatch:
        """Fetch and classify the selected URLs, in global position order."""
        for url in message.rejected:
            self.frontier.requeue(url)
        stats_before = asdict(self.fetcher.stats)
        started = time.perf_counter()
        results = [
            (pos, self.frontier.entry(url), self.transport.fetch(url))
            for pos, url in message.selected
        ]
        self.timings["fetch"] += time.perf_counter() - started

        started = time.perf_counter()
        outcomes = iter(
            self._scorer.classify(
                [result for _pos, _entry, result in results if result.status is FetchStatus.OK]
            )
        )
        self.timings["classify"] += time.perf_counter() - started

        batch = OutcomeBatch()
        for pos, entry, result in results:
            if result.status is not FetchStatus.OK:
                batch.add(pos, entry.sid, failure=permanent_failure(result.status))
                continue
            outcome = next(outcomes)
            batch.add(
                pos,
                entry.sid,
                relevance=outcome.relevance,
                best_leaf=outcome.best_leaf_cid,
                hard_accepts=self._scorer.hard_accepts(outcome),
                targets=resolve_links(entry.oid, result.out_links),
            )
        stats_after = asdict(self.fetcher.stats)
        batch.fetch_stats = {key: stats_after[key] - stats_before[key] for key in stats_after}
        return batch

    def apply_round(self, message: ApplyRound) -> None:
        """Commit this shard's slice of the round (see ApplyRound's contract)."""
        started = time.perf_counter()
        discovered = message.discovery_numbers()  # refuses a batch out of canonical order
        starts = [0, *accumulate(message.count)]
        frontier = self.frontier
        for url, permanent in zip(message.fail_url, message.fail_permanent):
            frontier.record_failure(url, self.config.max_retries, permanent=permanent)
        # Walk citing pages, not links, by global position; a page's visit
        # (0) commits before its own links expand (1), before the next
        # page's visit: the serverload snapshot a new frontier entry takes
        # must count exactly the visits the in-process engine had
        # committed when it expanded the same page.
        for _pos, is_expansion, at in merge(
            zip(message.visit_pos, repeat(0), count()), zip(message.pos, repeat(1), count())
        ):
            if not is_expansion:
                relevance = message.visit_relevance[at]
                entry = frontier.record_visit(
                    message.visit_url[at], relevance, message.visit_tick[at],
                    kcid=message.visit_leaf[at],
                )
                self._link_writer.refresh(entry.oid, relevance)
            elif message.priority[at] is not None:
                start, stop = starts[at], starts[at + 1]
                frontier.add_many_discovered(
                    list(zip(
                        message.dst_url[start:stop], message.dst_oid[start:stop],
                        message.dst_sid[start:stop], discovered[start:stop],
                    )),
                    message.priority[at],
                )

        # LINK rows, a column at a time.  This shard owns every destination,
        # so wgt_fwd is local and exact (the destination's relevance once it
        # is visited, else the citing page's): one frontier lookup per target.
        backward = per_link(message.src_relevance, message.count)
        entries = map(frontier.get_normalized, message.dst_url)
        forward = [
            entry.relevance if entry is not None and entry.status == "visited" else relevance
            for entry, relevance in zip(entries, backward)
        ]
        self._link_writer.add_columns(
            per_link(message.src_oid, message.count), per_link(message.src_sid, message.count),
            message.dst_oid, message.dst_sid, forward, backward,
        )
        self._link_writer.flush()
        self.timings["write"] += time.perf_counter() - started
        if message.finish is not None:
            self.finish_round(message.finish)

    def finish_round(self, message: FinishRound) -> None:
        """Scores -> boosts -> frontier flush (see FinishRound)."""
        started = time.perf_counter()
        for table, (oids, scores) in message.scores.items():
            write_scores(self.database.table(table), oids, scores)
        boost_hub_neighbours(
            self._link_writer.table, self.frontier, message.boost_hubs, message.boost_priority
        )
        self.frontier.flush_batch()
        self.timings["write"] += time.perf_counter() - started

    def close(self) -> None:
        if not self.database.closed:
            self.database.close()


def _shard_worker_main(conn, payload: Dict[str, Any]) -> None:
    """Entry point of a spawned shard worker process."""
    try:
        worker = ShardWorker(payload)
    except Exception:
        conn.send_bytes(pickle.dumps(("__shard_error__", traceback.format_exc())))
        return
    timings = worker.timings
    # The payload (web, model, taxonomy) lives as long as this process:
    # keep the cyclic collector from re-traversing it on every full pass.
    gc.freeze()
    while True:
        waiting = time.perf_counter()
        try:
            data = conn.recv_bytes()
        except EOFError:  # the coordinator is gone: stop as a kill would
            return
        received = time.perf_counter()
        message = pickle.loads(data)
        timings["idle_" + _ROUND_MESSAGES.get(type(message), ("other",))[0]] += received - waiting
        timings["decode"] += time.perf_counter() - received
        timings["bytes_in"] += len(data)
        if message == ("close",):
            worker.close()
            return
        try:
            replied, value = worker.handle(message)
        except Exception:
            conn.send_bytes(pickle.dumps(("__shard_error__", traceback.format_exc())))
            return  # mid-round state: leave the database as a kill would
        if replied:
            started = time.perf_counter()
            data = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            conn.send_bytes(data)
            timings["encode"] += time.perf_counter() - started
            timings["bytes_out"] += len(data)


def _gather(self, messages: Dict[int, Any]) -> Dict[int, Any]:
    """Send each shard its message, then collect one reply from each."""
    for shard, message in messages.items():
        self.send(shard, message)
    return {shard: self._recv(shard) for shard in self._order(list(messages))}


def _broadcast(self, message: Any) -> Dict[int, Any]:
    return self.gather({shard: message for shard in range(self.shards)})


def _request(self, shard: int, message: Any) -> Any:
    return self.gather({shard: message})[shard]


class InProcessShardRunner:
    """All shards in this process, behind per-shard FIFO message pipes.

    A shard's inbox is only drained when the coordinator needs a reply
    from it, so fire-and-forget messages (applies, seeds) sit queued as
    they would in a real pipe.  *schedule* permutes the order shards are
    serviced in — the seam the determinism tests drive random delivery
    orders through; correctness never depends on it because per-pipe FIFO
    is preserved and every batch is verified against the canonical order
    on receipt.  Messages are handed over by reference, never encoded.
    """

    def __init__(
        self,
        payloads: Sequence[Dict[str, Any]],
        schedule: Optional[Callable[[List[int]], List[int]]] = None,
    ) -> None:
        self.workers = [ShardWorker(payload) for payload in payloads]
        self.shards = len(self.workers)
        #: Per-shard FIFO inboxes standing in for the pipes.
        self.pipes: List[List[Any]] = [[] for _ in payloads]
        self.replies: List[deque] = [deque() for _ in payloads]
        self.schedule = schedule
        self.timings: Dict[str, float] = dict.fromkeys(_RUNNER_PROTOCOL, 0.0)

    def _order(self, shards: List[int]) -> List[int]:
        if self.schedule is None:
            return shards
        permuted = list(self.schedule(list(shards)))
        if sorted(permuted) != sorted(shards):
            raise ValueError("schedule must permute the shard list, not change it")
        return permuted

    def send(self, shard: int, message: Any) -> None:
        self.pipes[shard].append(message)

    def _recv(self, shard: int) -> Any:
        messages, self.pipes[shard] = self.pipes[shard], []
        for message in messages:
            replied, value = self.workers[shard].handle(message)
            if replied:
                self.replies[shard].append(value)
        return self.replies[shard].popleft()

    gather, broadcast, request = _gather, _broadcast, _request

    def stop(self) -> None:  # unprocessed messages die with the runner
        for worker in self.workers:
            worker.close()


class MultiprocessShardRunner:
    """N spawned worker processes, one duplex pipe each (the multi-core path).

    Speaks the in-process runner's messages, pickled.  A worker that died
    or sent no reply within ``_REPLY_TIMEOUT_S`` fails the call with a
    ``RuntimeError`` naming the shard (and carrying the worker's
    traceback when it sent one); :meth:`stop` reaps every child within
    ``_STOP_TIMEOUT_S``, terminating the ones that do not close.
    """

    def __init__(self, payloads: Sequence[Dict[str, Any]]) -> None:
        ctx = multiprocessing.get_context("spawn")
        self.shards = len(payloads)
        self.processes = []
        self.conns = []
        self.timings: Dict[str, float] = dict.fromkeys(_RUNNER_PROTOCOL, 0.0)
        try:
            for payload in payloads:
                parent, child = ctx.Pipe()
                process = ctx.Process(
                    target=_shard_worker_main, args=(child, payload), daemon=True
                )
                process.start()
                child.close()
                self.processes.append(process)
                self.conns.append(parent)
        except BaseException:
            self.stop()
            raise

    def _failure(self, shard: int, what: str) -> RuntimeError:
        code = self.processes[shard].exitcode  # None: still running
        return RuntimeError(f"shard {shard} worker {what} (exit code {code})")

    def _recv(self, shard: int) -> Any:
        conn = self.conns[shard]
        started = time.perf_counter()
        try:
            if not conn.poll(_REPLY_TIMEOUT_S):
                raise self._failure(shard, f"sent no reply in {_REPLY_TIMEOUT_S:g} s")
            data = conn.recv_bytes()
        except (EOFError, OSError):
            self.processes[shard].join(timeout=1.0)
            raise self._failure(shard, "process died") from None
        received = time.perf_counter()
        reply = pickle.loads(data)
        self.timings["wait"] += received - started
        self.timings["decode"] += time.perf_counter() - received
        self.timings["bytes_in"] += len(data)
        if isinstance(reply, tuple) and reply and reply[0] == "__shard_error__":
            raise RuntimeError(f"shard {shard} worker failed:\n{reply[1]}")
        return reply

    def send(self, shard: int, message: Any) -> None:
        started = time.perf_counter()
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        try:
            self.conns[shard].send_bytes(data)
        except OSError:  # BrokenPipeError: the worker is gone
            self.processes[shard].join(timeout=1.0)
            raise self._failure(shard, "process died") from None
        self.timings["encode"] += time.perf_counter() - started
        self.timings["bytes_out"] += len(data)
        self.timings["messages"] += 1

    _order = staticmethod(list)  # pipes deliver when they deliver: nothing to permute
    gather, broadcast, request = _gather, _broadcast, _request

    def stop(self) -> None:
        deadline = time.monotonic() + _STOP_TIMEOUT_S
        for conn in self.conns:
            try:
                conn.send_bytes(pickle.dumps(("close",)))
            except OSError:
                pass
        for process in self.processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():  # wedged, or blocked sending a reply nobody reads
                process.kill()
                process.join()
        for conn in self.conns:
            conn.close()


class ShardedEngine:
    """The coordinator: merges checkouts, assigns ticks, routes handoffs.

    Owns every global decision — selection, ticks, discovery numbers,
    stagnation, distillation — and the merged columnar edge list the
    sharded HITS reduction runs over.  Duck-types the slice of
    :class:`~.engine.CrawlEngine` that :class:`~repro.core.system.CrawlHandle`
    and the service job manager drive: ``run(budget, max_rounds)``,
    ``stage_timings``, ``run_distillation``, ``sync``.
    """

    def __init__(self, runner, config: CrawlerConfig, trace: CrawlTrace, shards: int) -> None:
        check_ranges(config)
        self.runner = runner
        self.config = config
        self.trace = trace
        self.shards = shards
        self._round = 0
        self._tick = 0
        self._since_distillation = 0
        self._stagnation_misses = 0
        self._next_discovered = 0
        #: oid -> measured relevance of every visited page, in visit order.
        self._relevance: Dict[int, float] = {}
        self._sid_of: Dict[int, int] = {}
        self._url_of_oid: Dict[int, str] = {}
        #: The merged crawl graph, nepotistic edges left out, in canonical
        #: append order — the LINK insert order of the equivalent
        #: single-engine crawl.
        self._graph = CompiledLinkGraph()
        #: A distilling round's per-shard FinishRound, not yet sent.
        self._unfinished: Optional[List[FinishRound]] = None
        self.fetch_stats = FetchStats()
        #: Every worker's ``timings`` as of the last barrier.
        self._shard_timings: Dict[int, Dict[str, float]] = {}
        self._distill_s = 0.0
        self._commit_s = 0.0

    # -- public surface ----------------------------------------------------------
    @property
    def stage_timings(self) -> Dict[str, float]:
        """Per-stage totals across shards, as of the barrier that closed the last ``run()``."""
        shards = self._shard_timings.values()
        totals = {stage: sum(t.get(stage, 0.0) for t in shards) for stage in _STAGES}
        totals["distill"] = self._distill_s
        return totals

    def protocol_timings(self) -> Dict[str, Any]:
        """Where a sharded round's time goes: coordinator and per-shard seconds and bytes.

        Coordinator: ``wait`` (blocked on replies), ``encode``/``decode``
        (pickling and pipe), ``commit`` (selection, ticks, routing, edge
        fold), ``distill``.  Shards: ``ShardWorker.timings`` as of the last
        barrier.  Observability only — nothing in the crawl reads these.
        """
        return {
            "coordinator": {
                **self.runner.timings, "commit": self._commit_s, "distill": self._distill_s
            },
            "shards": [dict(self._shard_timings.get(shard, {})) for shard in range(self.shards)],
        }

    def fetch_overlap_ratio(self) -> float:
        return 0.0

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
            per_shard.setdefault(sid % self.shards, []).append((normalized, oid, sid, number))
        for shard, quads in per_shard.items():
            self.runner.send(shard, ("seeds", quads))
        self._barrier()

    def run(self, budget: int, max_rounds: Optional[int] = None) -> CrawlTrace:
        """Run lockstep rounds until the budget or every frontier is exhausted."""
        if max_rounds is not None and max_rounds < 1:
            raise ValueError("max_rounds must be >= 1 (or None for unlimited)")
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
        # Applies are fire-and-forget; barrier so the shard databases are
        # consistent with the trace, and the timings current, on return.
        self._barrier()
        return self.trace

    def sync(self) -> None:
        """Nothing to flush here: each shard flushes its own tables at seeding
        and every round."""

    def run_distillation(self) -> DistillationResult:
        """Sharded reduction outside a round (the top_hubs-on-demand path)."""
        self._unfinished = self._distill()
        self._barrier()
        return self.trace.last_distillation

    def _barrier(self) -> None:
        """Close an open round, then wait for every shard and take its timings."""
        self._send_unfinished()
        self._shard_timings = self.runner.broadcast(("ping",))

    def _send_unfinished(self) -> None:
        unfinished, self._unfinished = self._unfinished, None
        for shard, finish in enumerate(unfinished or ()):
            self.runner.send(shard, finish)

    # -- the round ---------------------------------------------------------------
    def _run_round(self, budget: int) -> bool:
        """One round; returns False when every frontier came up empty."""
        self._round += 1
        round_no = self._round
        shards = self.shards
        k = min(self.config.batch_size, budget - self.trace.pages_fetched)

        # Checkout.  The global top-k is a subset of the union of per-shard
        # top-ks (each shard returns its k best); a distilling round's
        # scores and boosts reach the shards here, ahead of the pop.
        unfinished, self._unfinished = self._unfinished or [None] * shards, None
        replies = self.runner.gather(
            {shard: CheckoutRequest(k, finish) for shard, finish in enumerate(unfinished)}
        )
        started = time.perf_counter()
        candidates: List[Tuple[tuple, int, str, int]] = []
        for shard in range(shards):
            candidates.extend((key, oid, url, shard) for key, oid, url in replies[shard])
        candidates.sort(key=lambda item: (item[0], item[1]))
        selected = candidates[:k]
        if not selected:
            return False

        # Selection fan-out (global positions), rejects returned.
        selections = [SelectionMsg() for _ in range(shards)]
        for pos, (_key, _oid, url, shard) in enumerate(selected):
            selections[shard].selected.append((pos, url))
        for _key, _oid, url, shard in candidates[k:]:
            selections[shard].rejected.append(url)
        self._commit_s += time.perf_counter() - started

        # Fetch + classify on the owning shards.
        involved = enumerate(selections)
        outcomes = self.runner.gather(
            {shard: message for shard, message in involved if message.selected or message.rejected}
        )

        # Global commit, in checkout order — the order CrawlEngine's
        # _process_group/_commit_visit would walk — then the applies leave
        # at once: everything after them overlaps the shards' writes.
        started = time.perf_counter()
        applies, headers, links = self._commit(round_no, selected, outcomes)
        every = self.config.distill_every
        distilling = bool(every and self._since_distillation >= every)
        self._commit_s += time.perf_counter() - started
        for shard, message in enumerate(applies):
            if not distilling:
                message.finish = FinishRound(round=round_no)
            if message.fail_url or message.visit_url or message.pos:
                self.runner.send(shard, message)
        started = time.perf_counter()
        self._fold_edges(headers, links)
        self._commit_s += time.perf_counter() - started
        if distilling:
            self._unfinished = self._distill()
        return True

    def _commit(self, round_no: int, selected, outcomes: Dict[int, OutcomeBatch]):
        """Ticks, discovery numbers, trace and routing for one round's outcomes.

        Returns the per-shard :class:`ApplyRound` messages and the round's
        out-links in canonical order — the citing pages' header columns
        and the per-link columns that :func:`~.handoff.route_links` dealt
        to the destinations.
        """
        shards, config, trace = self.shards, self.config, self.trace
        applies = [ApplyRound(round=round_no) for _ in range(shards)]
        headers: List[list] = [[] for _ in ApplyRound.HEADERS[:-1]]
        links: List[list] = [[] for _ in ApplyRound.LINKS]
        page_at = [0] * shards
        link_at = [0] * shards
        for shard, batch in outcomes.items():
            for name, value in batch.fetch_stats.items():
                setattr(self.fetch_stats, name, getattr(self.fetch_stats, name) + value)
            if batch.pos != [pos for pos, item in enumerate(selected) if item[3] == shard] or (
                sum(batch.links) != len(batch.dst_url)
            ):
                raise HandoffOrderError(
                    f"round {round_no}: shard {shard}'s outcome columns (positions {batch.pos}, "
                    f"{len(batch.dst_url)} targets) are not its selection, in order"
                )
            self._sid_of.update(zip(batch.dst_oid, batch.dst_sid))
            self._url_of_oid.update(zip(batch.dst_oid, batch.dst_url))
        for pos, (_key, oid, url, shard) in enumerate(selected):
            batch = outcomes[shard]
            at = page_at[shard]
            page_at[shard] = at + 1
            apply = applies[shard]
            if batch.failure[at] is not None:
                apply.fail_url.append(url)
                apply.fail_permanent.append(batch.failure[at])
                trace.failed_urls.append(url)
                self._stagnation_misses += 1
                if self._stagnation_misses >= config.stagnation_patience:
                    trace.stagnated = True
                continue
            self._stagnation_misses = 0
            self._tick += 1
            sid, relevance = batch.sid[at], batch.relevance[at]
            best_leaf = batch.best_leaf[at]
            for column, value in zip(
                (apply.visit_pos, apply.visit_url, apply.visit_tick,
                 apply.visit_relevance, apply.visit_leaf),
                (pos, url, self._tick, relevance, best_leaf),
            ):
                column.append(value)
            self._relevance[oid] = relevance
            self._sid_of.setdefault(oid, sid)
            self._url_of_oid.setdefault(oid, url)
            cited = batch.links[at]
            if cited:
                start = link_at[shard]
                stop = link_at[shard] = start + cited
                priority = expansion_priority(config.focus_mode, relevance, batch.hard_accepts[at])
                page = (pos, oid, sid, relevance, priority, self._next_discovered, cited)
                for column, value in zip(headers, page):
                    column.append(value)
                self._next_discovered += cited
                targets = (batch.dst_url[start:stop], batch.dst_oid[start:stop], batch.dst_sid[start:stop])
                for column, more in zip(links, (range(cited), *targets)):
                    column.extend(more)
            trace.visits.append(PageVisit(self._tick, url, relevance, best_leaf))
            self._since_distillation += 1
        route_links(applies, headers, links)
        return applies, headers, links

    # -- merged-graph distillation -------------------------------------------------
    def _fold_edges(self, headers, links) -> None:
        """Append one round's edges to the merged graph.

        The round's links in canonical order — the order each shard's link
        flush inserts them into its LINK partition — as the graph's four
        columns, a citing page's oid and sid once per link.  The graph
        drops the nepotistic ones and holds no weights: HITS reads both
        from the relevance map, the floats the shards' LINK rows store.
        """
        counts = headers[-1]
        self._graph.add_columns(
            per_link(headers[1], counts), per_link(headers[2], counts), links[2], links[3]
        )

    def _distill(self) -> List[FinishRound]:
        """HITS over the merged graph; returns every shard's scores and boosts."""
        started = time.perf_counter()
        config = self.config
        options = dict(
            relevance=self._relevance, rho=config.rho, max_iterations=config.distill_iterations
        )
        result = compiled_weighted_hits(self._graph, **options)
        self.trace.distillations += 1
        self.trace.last_distillation = result
        self._since_distillation = 0
        boost: List[int] = []
        if result.hub_scores and config.hub_boost_top_k > 0:
            boost = [oid for oid, _ in result.top_hubs(config.hub_boost_top_k)]
        finishes = [
            FinishRound(
                round=self._round, scores={"HUBS": ([], []), "AUTH": ([], [])},
                boost_hubs=boost, boost_priority=config.hub_boost_priority,
            )
            for _ in range(self.shards)
        ]
        sid_of = self._sid_of
        for table, scores in (("HUBS", result.hub_scores), ("AUTH", result.authority_scores)):
            for oid, score in scores.items():
                oids, values = finishes[sid_of[oid] % self.shards].scores[table]
                oids.append(oid)
                values.append(score)
        self._distill_s += time.perf_counter() - started
        return finishes


class _ShardedDatabaseStub:
    """Stands in for ``crawler.database``: sharded crawls have N of them.

    Knows how to close (shut the runner down) and report aggregated I/O;
    anything table-shaped raises: the shard databases live in memory
    inside the workers, out of the coordinator's reach.
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
            f"sharded crawls keep one database per shard, in memory inside the "
            f"shard workers; {name!r} is not available on the coordinator stub"
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
        #: The ``.stats`` surface of :class:`Fetcher`, summed over the shards.
        self.fetcher = SimpleNamespace(stats=engine.fetch_stats)
        self._shutdown = False

    def add_seeds(self, urls: Sequence[str]) -> None:
        self.engine.add_seeds(urls)

    def _ranked(self, ranking: str, k: int) -> List[Tuple[str, float]]:
        if self.trace.last_distillation is None:
            self.engine.run_distillation()
        best = getattr(self.trace.last_distillation, ranking)(k)
        return [(self.engine._url_of_oid.get(oid) or str(oid), score) for oid, score in best]

    def top_hubs(self, k: int = 10) -> List[Tuple[str, float]]:
        return self._ranked("top_hubs", k)

    def top_authorities(self, k: int = 10) -> List[Tuple[str, float]]:
        return self._ranked("top_authorities", k)

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

    def shutdown(self) -> None:
        if self._shutdown:
            return
        self._shutdown = True
        self.database._closed = True
        self.engine.runner.stop()


def build_sharded_crawler(
    web,
    model: HierarchicalModel,
    taxonomy: TopicTaxonomy,
    config: CrawlerConfig,
    *,
    fetch_failure_seed: int = 0,
    buffer_pool_pages: int = 2048,
    transport_wrap=None,
    schedule: Optional[Callable[[List[int]], List[int]]] = None,
) -> ShardedCrawler:
    """Construct the shard fleet + coordinator for ``engine="sharded"``."""
    shards = config.shards
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    runner_kind = config.shard_runner or "process"
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
    payloads = [
        {
            "shard": shard,
            "shards": shards,
            "config": config,
            "web": web,
            "model": model,
            "taxonomy": taxonomy,
            "failure_seed": fetch_failure_seed,
            "buffer_pool_pages": buffer_pool_pages,
            "transport_wrap": transport_wrap,
        }
        for shard in range(shards)
    ]
    if runner_kind == "inprocess":
        runner = InProcessShardRunner(payloads, schedule=schedule)
    else:
        runner = MultiprocessShardRunner(payloads)
    trace = CrawlTrace()
    try:
        engine = ShardedEngine(runner, config, trace, shards=shards)
    except ValueError:
        runner.stop()
        raise
    return ShardedCrawler(engine, config, trace)
