"""Which public callables a traced run wraps, and the per-layer metrics they give.

A layer is a package under ``src/repro/``.  ``install`` names the calls
into each layer; ``layer_metrics`` turns the tracer's totals and the
program's own public snapshots into the names listed in
``metrics.PER_LAYER``.  Times under a span name are *self* times summed
over calls, so a layer is not charged for the layers it calls (a table
insert is not charged for the WAL append beneath it).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Sequence

from repro import (
    CheckpointManager,
    CrawlerConfig,
    CrawlHandle,
    FocusSystem,
    JobManager,
    JobSpec,
    ReplayTransport,
)
from repro.classifier.compiled import CompiledHierarchicalModel
from repro.classifier.model import HierarchicalModel
from repro.classifier.tokenizer import term_frequencies
from repro.crawler.frontier import Frontier
from repro.crawler.sharded import MultiprocessShardRunner
from repro.distiller import compiled_weighted_hits, weighted_hits
from repro.experiments.workloads import build_crawl_web
from repro.minidb import Database
from repro.minidb.table import Table
from repro.minidb.wal import WriteAheadLog
from repro.webgraph.transport import LatencyTransport, SimulatedTransport, parse_html

from metrics import PER_LAYER, median, percentile
from trace import Tracer
from workloads import Context, Repeat


def _first_len(args: tuple, kwargs: dict) -> int:
    """Rows, edges or documents handed to a bulk call (its first argument)."""
    return len(args[1]) if len(args) > 1 and hasattr(args[1], "__len__") else 1


def _graph_len(args: tuple, kwargs: dict) -> int:
    graph = args[0] if args else kwargs.get("graph", kwargs.get("links", ()))
    return len(graph) if hasattr(graph, "__len__") else 0


def install(tracer: Tracer) -> None:
    """Wrap the calls into each layer.  ``keep=True`` names also keep span records."""
    method, function = tracer.wrap_method, tracer.wrap_function
    # classifier
    function(term_frequencies, "classifier.tokenize")
    method(CompiledHierarchicalModel, "classify_batch", "classifier.classify", True, _first_len)
    method(HierarchicalModel, "classify_batch", "classifier.classify", True, _first_len)
    method(HierarchicalModel, "relevance", "classifier.classify")
    method(HierarchicalModel, "best_leaf", "classifier.classify")
    method(FocusSystem, "train", "classifier.train", True)
    # distiller
    function(compiled_weighted_hits, "distiller.hits", True, _graph_len)
    function(weighted_hits, "distiller.hits", True, _graph_len)
    # crawler
    method(CrawlHandle, "step", "crawler.round", True)
    for name in ("add_many_discovered", "add_many"):
        method(Frontier, name, "crawler.frontier_push", False, _first_len)
    for name in ("add_url", "boost", "update_scores"):
        method(Frontier, name, "crawler.frontier_push", False, lambda args, kwargs: 1)
    method(Frontier, "pop_batch", "crawler.frontier_pop", True, lambda args, kwargs: args[1])
    method(Frontier, "pop_next", "crawler.frontier_pop", False, lambda args, kwargs: 1)
    for name in ("send", "gather", "broadcast", "request"):
        method(MultiprocessShardRunner, name, "crawler.handoff", name != "send")
    # webgraph
    function(build_crawl_web, "webgraph.build", True)
    for transport in (SimulatedTransport, LatencyTransport):
        for name in ("fetch", "prepare"):
            method(transport, name, "webgraph.fetch")
    # minidb
    method(Table, "insert_many", "minidb.insert", True, _first_len)
    method(Table, "insert", "minidb.insert", False, lambda args, kwargs: 1)
    method(Table, "update_rows", "minidb.update", True, _first_len)
    method(Table, "update_column", "minidb.update", True, lambda args, kwargs: len(args[2]))
    method(Table, "update_row", "minidb.update", False, lambda args, kwargs: 1)
    for name in ("get_by_key", "lookup", "lookup_rids"):
        method(Table, name, "minidb.lookup")
    method(WriteAheadLog, "append", "minidb.wal_append")
    method(WriteAheadLog, "sync", "minidb.wal_sync", True)
    method(Database, "checkpoint", "minidb.checkpoint", True)
    method(Database, "sql", "minidb.sql", True)
    method(CheckpointManager, "load", "minidb.recovery", True)
    # core
    method(CheckpointManager, "save", "core.checkpoint_save", True)
    method(FocusSystem, "start", "core.start", True)
    method(FocusSystem, "resume", "core.resume", True)
    # service
    method(JobManager, "step_once", "service.step", True)
    for name in ("progress", "harvest_sql", "query", "stats"):
        method(JobManager, name, "service.read", True)


# -- probes: layers no workload drives hard enough to read from a crawl --------------
def _render_html(url: str, tokens: Sequence[str], links: Sequence[str]) -> str:
    anchors = "".join(f'<li><a href="{link}">{link}</a></li>' for link in links)
    return (
        f"<html><head><title>{url}</title><style>p {{margin: 0}}</style></head>"
        f"<body><p>{' '.join(tokens)}</p><ul>{anchors}</ul></body></html>"
    )


def probe_parse_html(ctx: Context, pages: int = 200) -> float:
    """Microseconds per KiB for ``parse_html`` over pages of this seed's web."""
    web = ctx.system.web
    documents = []
    for url in web.urls()[:pages]:
        page = web.page(url)
        documents.append((url, _render_html(url, page.tokens, web.out_links(url))))
    size_kb = sum(len(text) for _url, text in documents) / 1024.0
    started = time.perf_counter()
    for url, text in documents:
        parse_html(text, url)
    return (time.perf_counter() - started) * 1e6 / size_kb if size_kb else 0.0


def probe_cassette_decode(ctx: Context, pages: int) -> float:
    """MB/s for ``ReplayTransport(path)`` on a cassette recorded from this web."""
    with tempfile.TemporaryDirectory(dir=ctx.work) as folder:
        path = str(Path(folder) / "probe.jsonl")
        config = CrawlerConfig(
            max_pages=pages,
            distill_every=0,
            engine="batched",
            batch_size=ctx.sizes["batch_size"],
            score_backend="numpy",
            fetch_mode="threaded",
            prefetch=False,
        )
        spec = JobSpec(
            seeds=ctx.seeds,
            max_pages=pages,
            crawler=config,
            cassette_path=path,
            cassette_mode="record",
        )
        handle = ctx.system.start(spec)
        handle.run()
        handle.close()
        size_mb = Path(path).stat().st_size / 1e6
        started = time.perf_counter()
        ReplayTransport(path)
        elapsed = time.perf_counter() - started
    return size_mb / elapsed if elapsed else 0.0


# -- the per-layer metrics -----------------------------------------------------------
def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def client_metrics(plain: Sequence[Repeat]) -> Dict[str, float]:
    """What the clients of the service saw, pooled over the untraced repeats.

    End-to-end in kind, but only ``service_mix`` has clients beside its
    crawls; every other workload reads 0 here.
    """
    reads = [ms for repeat in plain for ms in repeat.reads_ms()]
    latencies = [seconds for repeat in plain for seconds in repeat.job_latencies()]
    return {
        "service.read_p50_ms": median(reads),
        "service.read_p95_ms": percentile(reads, 0.95),
        "service.job_latency_p50_s": median(latencies),
    }


def layer_metrics(
    plain: Sequence[Repeat],
    traced: Sequence[Repeat],
    totals: Sequence[Dict[str, Dict[str, float]]],
    round_ms: Sequence[float],
    setup_totals: Dict[str, Dict[str, float]],
    setups: int,
    probes: Dict[str, float],
    straggler_ms: float,
) -> Dict[str, float]:
    """Every ``PER_LAYER`` name for one workload; per-repeat means unless noted.

    *plain* are the untraced repeats of the same process (stage times and
    the wall they must add up to), *traced* the traced ones with their
    tracer *totals*; *round_ms* pools the traced repeats' round spans.
    """
    runs = len(totals) or 1

    def spans(name: str, key: str) -> float:
        return sum(total.get(name, {}).get(key, 0.0) for total in totals) / runs

    def counter(*path: str) -> float:
        values = []
        for repeat in traced:
            node: Any = repeat.counters
            for key in path:
                node = node.get(key, 0.0) if isinstance(node, dict) else 0.0
            values.append(float(node))
        return _mean(values)

    def sql_ms(kind: str) -> float:
        """The statement run straight on the finished store (no lock, no HTTP)."""
        return median(
            [ms for repeat in traced for ms in repeat.counters.get("direct_sql_ms", {}).get(kind, [])]
        )

    wall = median([repeat.run.wall_s for repeat in plain])
    stage = {
        name: median([repeat.stages.get(name, 0.0) for repeat in plain])
        for name in ("fetch", "classify", "write", "distill")
    }
    docs = spans("classifier.tokenize", "calls")
    classify_s = spans("classifier.classify", "self_s")
    tokenize_s = spans("classifier.tokenize", "self_s")
    hits_s = spans("distiller.hits", "self_s")
    edges = spans("distiller.hits", "units")
    pauses = [pause for repeat in traced for pause in repeat.counters.get("pauses", [])]
    pages = _mean([repeat.pages for repeat in traced]) or 1.0
    hits, misses = counter("cache", "hits"), counter("cache", "misses")
    logical, physical = counter("io", "logical_reads"), counter("io", "physical_reads")
    idle_http = [ms for repeat in traced for ms in repeat.counters.get("idle_http_ms", [])]
    idle_direct = [ms for repeat in traced for ms in repeat.counters.get("idle_direct_ms", [])]
    reader_wall = counter("reader_wall_s")
    service_reads = _mean([len(repeat.reads) for repeat in traced]) if reader_wall else 0.0
    iterations = CrawlerConfig().distill_iterations

    values = {
        # Of host-speed scaled times: two or three repeats of each kind do
        # not average the host's speed out.
        "trace.overhead_ratio": (
            median([repeat.run.scaled_s for repeat in traced])
            / median([repeat.run.scaled_s for repeat in plain])
            if traced
            else 0.0
        ),
        "classifier.tokenize_s": tokenize_s,
        "classifier.classify_s": classify_s,
        "classifier.docs": docs,
        "classifier.us_per_doc": (tokenize_s + classify_s) * 1e6 / docs if docs else 0.0,
        "classifier.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "classifier.train_s": setup_totals.get("classifier.train", {}).get("total_s", 0.0) / setups,
        "distiller.hits_s": hits_s,
        "distiller.runs": spans("distiller.hits", "calls"),
        "distiller.edges": edges,
        "distiller.ns_per_edge_iter": hits_s * 1e9 / (edges * iterations) if edges else 0.0,
        "crawler.stage_fetch_s": stage["fetch"],
        "crawler.stage_classify_s": stage["classify"],
        "crawler.stage_write_s": stage["write"],
        "crawler.stage_distill_s": stage["distill"],
        "crawler.other_share": 1.0 - sum(stage.values()) / wall if wall else 0.0,
        "crawler.rounds": len(round_ms) / runs,
        "crawler.round_p50_ms": median(round_ms),
        "crawler.round_p95_ms": percentile(round_ms, 0.95),
        "crawler.frontier_push_s": spans("crawler.frontier_push", "self_s"),
        "crawler.frontier_pop_s": spans("crawler.frontier_pop", "self_s"),
        "crawler.frontier_pushes": spans("crawler.frontier_push", "units"),
        "crawler.frontier_pops": spans("crawler.frontier_pop", "units"),
        "crawler.fetch_overlap_ratio": counter("fetch_overlap_ratio"),
        "crawler.prefetch_stale_ratio": counter("prefetch_stale_ratio"),
        "crawler.spawn_s": (
            _mean([repeat.start_s for repeat in traced]) if spans("crawler.handoff", "calls") else 0.0
        ),
        "crawler.handoff_s": spans("crawler.handoff", "self_s"),
        "crawler.handoff_msgs": spans("crawler.handoff", "calls"),
        "webgraph.fetch_s": spans("webgraph.fetch", "self_s"),
        "webgraph.fetch_calls": counter("fetch_attempts"),
        "webgraph.fetch_failed": counter("fetch_failed"),
        "webgraph.injected_latency_s": counter("injected_s"),
        "webgraph.straggler_rounds": (
            sum(1 for ms in round_ms if ms >= straggler_ms) / runs if straggler_ms else 0.0
        ),
        "webgraph.build_s": setup_totals.get("webgraph.build", {}).get("total_s", 0.0),
        "webgraph.parse_html_us_per_kb": probes.get("parse_html_us_per_kb", 0.0),
        "webgraph.cassette_decode_mb_s": probes.get("cassette_decode_mb_s", 0.0),
        "minidb.insert_s": spans("minidb.insert", "self_s"),
        "minidb.insert_rows": spans("minidb.insert", "units"),
        "minidb.update_s": spans("minidb.update", "self_s"),
        "minidb.update_rows": spans("minidb.update", "units"),
        "minidb.lookup_s": spans("minidb.lookup", "self_s"),
        "minidb.lookups": spans("minidb.lookup", "calls"),
        "minidb.buffer_hit_ratio": 1.0 - physical / logical if logical else 0.0,
        "minidb.pages_read": physical,
        "minidb.wal_append_s": spans("minidb.wal_append", "self_s"),
        "minidb.wal_sync_s": spans("minidb.wal_sync", "self_s"),
        "minidb.wal_bytes": counter("io", "wal_bytes_written"),
        "minidb.wal_fsyncs": counter("io", "wal_fsyncs"),
        "minidb.pages_flushed": counter("io", "pages_flushed"),
        "minidb.checkpoints": spans("minidb.checkpoint", "calls"),
        "minidb.checkpoint_pause_s": sum(pauses) / runs,
        "minidb.checkpoint_pause_max_ms": max(pauses) * 1e3 if pauses else 0.0,
        "minidb.segment_bytes_live": counter("io", "segment_bytes_live"),
        "minidb.segment_bytes_dead": counter("io", "segment_bytes_dead"),
        "minidb.bytes_reclaimed": counter("io", "bytes_reclaimed"),
        "minidb.compactions": counter("io", "compactions_run"),
        "minidb.wal_bytes_per_page": counter("io", "wal_bytes_written") / pages,
        "minidb.disk_bytes_per_page": counter("disk_bytes") / pages,
        "minidb.recovery_s": spans("minidb.recovery", "self_s"),
        "minidb.sql_agg_ms": sql_ms("agg"),
        "minidb.sql_reach_ms": sql_ms("reach"),
        "minidb.sql_join_ms": sql_ms("join"),
        "minidb.sql_harvest_ms": sql_ms("harvest"),
        "minidb.plan_compile_us": counter("plan_compile_us"),
        "core.start_s": spans("core.start", "self_s"),
        "core.resume_s": spans("core.resume", "self_s"),
        "core.checkpoint_save_s": spans("core.checkpoint_save", "self_s"),
        "service.step_s": spans("service.step", "total_s"),
        "service.steps": spans("service.step", "calls"),
        "service.read_direct_p50_ms": median(idle_direct),
        "service.http_overhead_ms": median(idle_http) - median(idle_direct) if idle_http else 0.0,
        "service.reads_per_s": service_reads / reader_wall if reader_wall else 0.0,
        "service.pool_waits": counter("pool", "waits"),
        "service.pool_peak_inflight": counter("pool", "peak_inflight"),
        "service.client_think_ms": (
            (reader_wall - counter("reader_in_requests_s")) * 1e3 / service_reads
            if service_reads
            else 0.0
        ),
    }
    values.update(client_metrics(plain))
    missing = {name for name, _unit, _better in PER_LAYER} ^ set(values)
    if missing:
        raise AssertionError(f"per-layer names out of step with metrics.PER_LAYER: {sorted(missing)}")
    return values
