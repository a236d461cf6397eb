"""The six workloads: what each one configures, drives, reads and checks.

Every workload builds its inputs from the seed alone
(``build_crawl_web(seed, scale)`` and the system trained over it) and
drives the program only through public callables of ``repro``.  One
*repeat* is: start a job (untimed), drive it to its terminal state
(timed), and record what the job's own public snapshots say.  Only
``service_mix`` has clients beside the crawl, so only there are reads and
job latencies measured.  Page counts, ``distill_every``,
``checkpoint_every`` and the kill point are the ISSUE's sizing divided
by five so that the contract's 136 runs fit its time cap, and the web is
scale 1.0, not 2.0 (generating it and pickling it to every shard fleet
cost a quarter more time per run).  ``SIZES`` is the one place they live;
README.md has the stage shares measured at these sizes.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import math
import shutil
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.experiments.workloads as webs
from repro import CrawlerConfig, CrawlMonitor, CrawlService, FocusSystem, JobManager, JobSpec
from repro.webgraph.urls import normalize_url, url_oid

from hostspeed import Phase
from metrics import ROOT, median, usable_cpus

#: Scratch space for durable stores; inside the checkout, ignored by git.
WORK = ROOT / ".bench_work"

SIZES: Dict[str, Any] = {
    "web_scale": 1.0,
    "pages": {
        "crawl_mem": 2400,
        "crawl_default": 800,
        "crawl_latency": 600,
        "crawl_durable": 1600,
        "service_mix": 300,  # per tenant
        "crawl_sharded": 2400,
    },
    "tenants": 6,
    "shards": 2,
    "batch_size": 32,
    "distill_every": 40,
    "checkpoint_every": 100,
    "kill_at": 960,
    "harvest_bucket": 20,
    #: Chunks a timed crawl is driven in, with a calibration slice between
    #: them (see hostspeed.py); stepping does not change the crawl.
    "chunks": 12,
}


def sizes(quick: bool) -> Dict[str, Any]:
    """``SIZES``, or a tenth of it for the smoke test."""
    if not quick:
        return SIZES
    tenth = dict(SIZES)
    tenth["web_scale"] = 0.3
    tenth["pages"] = {name: max(pages // 10, 32) for name, pages in SIZES["pages"].items()}
    tenth["distill_every"] = 10
    tenth["checkpoint_every"] = 16
    tenth["kill_at"] = SIZES["kill_at"] // 10
    tenth["harvest_bucket"] = 5
    return tenth


TERMINAL = ("completed", "exhausted", "cancelled", "failed")


def monitoring_queries(seeds: Sequence[str]) -> Dict[str, str]:
    """The ``/query`` statements, keyed on pages every crawl visits first."""
    oids = [url_oid(normalize_url(url)) for url in seeds]
    in_list = ", ".join(str(oid) for oid in oids[:12])
    every_seed = ", ".join(str(oid) for oid in oids)
    return {
        "point": f"select oid, relevance, status from CRAWL where oid in ({every_seed})",
        "agg": "select count(*) n, avg(relevance) r from CRAWL where status = 'visited'",
        "reach": f"select count(*) n from CRAWL where reachable_from(oid, {oids[0]}, 'link_graph')",
        "join": (
            "select C.oid, L.oid_dst from CRAWL C, LINK L "
            f"where C.oid = L.oid_src and C.oid in ({in_list})"
        ),
    }


def crawl_digest(urls: Sequence[str], relevance: Sequence[float]) -> str:
    """Fetched URLs in order plus every relevance float, bit for bit."""
    digest = hashlib.sha256()
    for url in urls:
        digest.update(url.encode("utf-8") + b"\n")
    for value in relevance:
        digest.update(repr(value).encode("ascii") + b"\n")
    return digest.hexdigest()


@dataclass
class Context:
    """One set-up: the web, the trained system, and what derives from the seed."""

    sizes: Dict[str, Any]
    system: FocusSystem
    seeds: Tuple[str, ...]
    queries: Dict[str, str]
    work: Path


@dataclass
class Repeat:
    """What one repeat measured."""

    budget: int = 0
    pages: int = 0
    #: Job creation (fleet spawn for a sharded job); not in throughput.
    start_s: float = 0.0
    #: The timed crawl.
    run: Phase = field(default_factory=Phase)
    harvest: float = 0.0
    digest: str = ""
    stages: Dict[str, float] = field(default_factory=dict)
    #: ``service_mix`` only: (kind, milliseconds) of every read beside the
    #: crawls, and seconds from submit to terminal of every tenant, as measured.
    reads: List[Tuple[str, float]] = field(default_factory=list)
    bad_reads: int = 0
    job_latencies_s: List[float] = field(default_factory=list)
    jobs_failed: int = 0
    #: Public snapshots, for the per-layer metrics.
    counters: Dict[str, Any] = field(default_factory=dict)
    #: (name, passed) of every output check this repeat made.
    checks: List[Tuple[str, bool]] = field(default_factory=list)

    # -- reported (host-speed scaled, see hostspeed.py) -------------------------------
    @property
    def pages_per_s(self) -> float:
        return self.pages / self.run.scaled_s

    def reads_ms(self) -> List[float]:
        return [ms * self.run.scale for _kind, ms in self.reads]

    def job_latencies(self) -> List[float]:
        return [seconds * self.run.scale for seconds in self.job_latencies_s]


def build_web(seed: int, quick: bool):
    """The run's input: the synthetic web of this seed (generated once, not set-up)."""
    return webs.build_crawl_web(seed, sizes(quick)["web_scale"])


def build_context(web, seed: int, quick: bool, work: Path, phase: Phase) -> Context:
    """One set-up of the program over the web: taxonomy, examples, trained classifier."""
    size = sizes(quick)
    system = phase.chunk(
        lambda: webs.build_crawl_workload(seed=seed, scale=size["web_scale"], web=web).system
    )
    seeds = tuple(system.default_seeds())
    return Context(
        sizes=size,
        system=system,
        seeds=seeds,
        queries=monitoring_queries(seeds),
        work=work,
    )


def time_store_queries(ctx: Context, database, counters: Dict[str, Any], times: int = 3) -> None:
    """Per-layer probe: the monitoring statements straight on a finished store.

    No lock, no HTTP, no crawl beside them: what minidb itself costs.
    ``Database.explain`` parses and plans without executing.
    """
    direct_ms = counters.setdefault("direct_sql_ms", {})
    calls = {kind: (lambda sql=sql: database.sql(sql)) for kind, sql in ctx.queries.items()}
    calls["harvest"] = lambda: CrawlMonitor(database).harvest_rate_by_bucket(
        ctx.sizes["harvest_bucket"]
    )
    for kind, call in calls.items():
        for _ in range(times):
            started = time.perf_counter()
            call()
            direct_ms.setdefault(kind, []).append((time.perf_counter() - started) * 1e3)
    plans = []
    for sql in ctx.queries.values():
        for _ in range(5):
            started = time.perf_counter()
            database.explain(sql)
            plans.append((time.perf_counter() - started) * 1e6)
    counters["plan_compile_us"] = median(plans)


def _latency_layer(transport: Any) -> Any:
    """The ``LatencyTransport`` inside a transport stack, if there is one."""
    while transport is not None and not hasattr(transport, "injected_s"):
        transport = getattr(transport, "inner", None)
    return transport


def _numbers(snapshot: Dict[str, Any]) -> Dict[str, float]:
    return {key: value for key, value in snapshot.items() if isinstance(value, (int, float))}


def _add(into: Dict[str, float], more: Dict[str, float]) -> Dict[str, float]:
    for key, value in more.items():
        into[key] = into.get(key, 0.0) + value
    return into


class Workload:
    """What ``run.py`` asks of a workload: start, discard, warm_up, repeat, and these."""

    name = ""
    why = ""
    #: A round at least this long waited for a timed-out fetch (0: no timeouts injected).
    straggler_ms = 0.0

    def budget(self, ctx: Context) -> int:
        return ctx.sizes["pages"][self.name]

    def worker_pids(self) -> Sequence[int]:
        """Processes other than this one that do the workload's work now."""
        return ()

    def invalid_on_host(self) -> Optional[str]:
        """Why this host cannot run the workload as designed, or None."""
        return None

    def final_checks(self, ctx: Context, repeats: Sequence[Repeat]) -> List[Tuple[str, bool]]:
        """Checks across repeats: the same seed must give the same crawl every time."""
        digests = {repeat.digest for repeat in repeats}
        return [("same_digest_every_repeat", len(digests) == 1)]


class CrawlWorkload(Workload):
    """A single crawl job driven to completion through its ``CrawlHandle``."""

    #: Whether ``handle.database`` answers SQL (not so for a shard fleet).
    queryable = True

    def config(self, ctx: Context) -> CrawlerConfig:
        raise NotImplementedError

    # -- one repeat -----------------------------------------------------------------
    def start(self, ctx: Context):
        return ctx.system.start(
            JobSpec(seeds=ctx.seeds, max_pages=self.budget(ctx), crawler=self.config(ctx))
        )

    def discard(self, armed) -> None:
        armed.close()

    def rounds(self, ctx: Context) -> int:
        """Engine rounds a full crawl takes, failed fetches aside."""
        return math.ceil(self.budget(ctx) / self.config(ctx).batch_size)

    def drive(self, ctx: Context, handle, traced: bool, phase: Phase):
        """Run the job to its terminal state; returns the handle that finished it."""
        self._run(ctx, handle, None, traced, phase)
        return handle

    def _run(self, ctx: Context, handle, rounds: Optional[int], traced: bool, phase: Phase) -> None:
        """Step *rounds* rounds (None: to the end) in timed chunks.

        The engine sizes every round from the full budget, so a crawl
        stepped in chunks visits the pages of an uninterrupted one.  A
        traced run steps one round at a time: every round is a span.
        """
        per_chunk = max(1, self.rounds(ctx) // ctx.sizes["chunks"])
        done = 0
        while not handle.done and (rounds is None or done < rounds):
            count = per_chunk if rounds is None else min(per_chunk, rounds - done)
            if traced:
                phase.chunk(lambda: [handle.step(1) for _ in range(count)])
            else:
                phase.chunk(lambda: handle.step(count))
            done += count

    def repeat(self, ctx: Context, traced: bool, armed=None) -> Repeat:
        gc.collect()
        record = Repeat(budget=self.budget(ctx), run=Phase(self.worker_pids))
        started = time.perf_counter()
        handle = armed if armed is not None else self.start(ctx)
        record.start_s = time.perf_counter() - started
        handle = self.drive(ctx, handle, traced, record.run)
        record.jobs_failed = 0 if handle.status == "completed" else 1
        try:
            self.observe(ctx, handle, record)
            if traced and self.queryable:
                time_store_queries(ctx, handle.database, record.counters)
        finally:
            self.finish(ctx, handle, record)
        return record

    def observe(self, ctx: Context, handle, record: Repeat) -> None:
        result = handle.result()
        trace = handle.trace
        engine = handle.crawler.engine
        record.pages = result.pages_fetched()
        record.harvest = result.harvest_rate()
        record.digest = crawl_digest(trace.fetched_urls, trace.relevance_series())
        _add(record.stages, dict(engine.stage_timings))
        counters = record.counters
        counters["fetch_attempts"] = handle.fetch_attempts()
        counters["fetch_failed"] = len(trace.failed_urls)
        counters["distillations"] = trace.distillations
        _add(counters.setdefault("io", {}), _numbers(handle.io_snapshot()))
        if hasattr(engine, "cache_stats"):
            counters["cache"] = engine.cache_stats()
            counters["prefetch_stale_ratio"] = engine.prefetch_stale_ratio()
        counters["fetch_overlap_ratio"] = engine.fetch_overlap_ratio()
        latency = _latency_layer(getattr(engine, "transport", None))
        if latency is not None:
            counters["injected_s"] = latency.injected_s
        if handle.manager is not None:
            counters.setdefault("pauses", []).extend(handle.manager.pause_log)

    def finish(self, ctx: Context, handle, record: Repeat) -> None:
        handle.close()

    def warm_up(self, ctx: Context, armed) -> None:
        """One untimed repeat on the handle the last set-up armed."""
        self.repeat(ctx, traced=False, armed=armed)


class CrawlMem(CrawlWorkload):
    name = "crawl_mem"
    why = (
        "CPU-bound headline: batched K=32, numpy, simulated transport, memory store, 2400 pages, distill "
        "every 40. Measured: distill 34%, write 26%, fetch 13%, classify 12%, other 15% of wall; CPU 99%."
    )

    def config(self, ctx: Context) -> CrawlerConfig:
        return CrawlerConfig(
            max_pages=self.budget(ctx),
            distill_every=ctx.sizes["distill_every"],
            engine="batched",
            batch_size=ctx.sizes["batch_size"],
            score_backend="numpy",
            fetch_mode="threaded",
            prefetch=False,
        )


class CrawlDefault(CrawlWorkload):
    name = "crawl_default"
    why = (
        "Bare CrawlerConfig(max_pages=800, distill_every=40): serial loop, python backend, the oracle of "
        "every bit-identity pin. Measured: distill 46%, classify 30%, write 10%, fetch 3%, other 12% of wall."
    )

    def config(self, ctx: Context) -> CrawlerConfig:
        return CrawlerConfig(max_pages=self.budget(ctx), distill_every=ctx.sizes["distill_every"])


class CrawlLatency(CrawlMem):
    name = "crawl_latency"
    why = (
        "Fetch-bound: batched/numpy, async fetch over the latency transport (25 ms, 1% timeouts of 120 ms), "
        "600 pages. Measured: fetch 82% of wall, CPU 20%, a third of the rounds wait for a straggler."
    )

    straggler_ms = 120.0

    def config(self, ctx: Context) -> CrawlerConfig:
        config = super().config(ctx)
        config.fetch_mode = "async"
        config.transport = "latency"
        config.transport_options = {
            "mean_latency_ms": 25.0,
            "jitter": 0.3,
            "timeout_rate": 0.01,
            "timeout_ms": self.straggler_ms,
            "max_retries": 1,
            # The latency and timeout draws belong to the workload, not to
            # the seed: 20 rounds are too few to average out which of them
            # wait for a straggler (+-18 % on pages_per_s from that alone).
            "seed": 0,
        }
        return config


class CrawlDurable(CrawlMem):
    name = "crawl_durable"
    why = (
        "Storage-bound: crawl_mem on a durable store (checkpoint every 100), 1600 pages, abandoned at 960, "
        "resumed. Measured: checkpoint pauses 29%, recovery 18%, distill 19%, write 12% of wall."
    )

    def __init__(self) -> None:
        self._made = 0
        self._reference: Optional[Dict[str, Any]] = None

    def config(self, ctx: Context) -> CrawlerConfig:
        config = super().config(ctx)
        config.checkpoint_every = ctx.sizes["checkpoint_every"]
        config.wal_fsync_batch = 64
        return config

    def start(self, ctx: Context):
        self._made += 1
        path = ctx.work / f"durable-{self._made}"
        return ctx.system.start(
            JobSpec(
                seeds=ctx.seeds,
                max_pages=self.budget(ctx),
                crawler=self.config(ctx),
                checkpoint_dir=str(path),
            )
        )

    def discard(self, armed) -> None:
        armed.close()
        shutil.rmtree(armed.spec.checkpoint_dir, ignore_errors=True)

    def drive(self, ctx: Context, handle, traced: bool, phase: Phase):
        kill_rounds = math.ceil(ctx.sizes["kill_at"] / ctx.sizes["batch_size"])
        self._run(ctx, handle, kill_rounds, traced, phase)
        self._before_kill = {
            "io": _numbers(handle.io_snapshot()),
            "pauses": list(handle.manager.pause_log),
            "stages": dict(handle.crawler.engine.stage_timings),
            "pages": handle.pages_fetched,
        }
        # The first handle is abandoned here: never closed, nothing saved
        # after its last periodic checkpoint, as when the process is killed
        # between rounds.  The rounds since that checkpoint are crawled again.
        resumed = phase.chunk(lambda: ctx.system.resume(handle.spec.checkpoint_dir))
        self._run(ctx, resumed, None, traced, phase)
        return resumed

    def observe(self, ctx: Context, handle, record: Repeat) -> None:
        before = self._before_kill
        _add(record.stages, before["stages"])
        record.counters["io"] = dict(before["io"])
        record.counters["pauses"] = list(before["pauses"])
        record.counters["pages_at_kill"] = before["pages"]
        super().observe(ctx, handle, record)
        # Sizes are states, not flows: the resumed store's own reading stands.
        for key, value in _numbers(handle.io_snapshot()).items():
            if key.startswith("segment_bytes") or key == "hit_ratio":
                record.counters["io"][key] = value
        record.checks.append(
            ("resumed_equals_uninterrupted", self._crawl_facts(handle) == self._reference)
        )

    @staticmethod
    def _crawl_facts(handle) -> Dict[str, Any]:
        database = handle.database
        return {
            "urls": list(handle.trace.fetched_urls),
            "relevance": [repr(value) for value in handle.trace.relevance_series()],
            "rows": {
                name: database.table(name).row_count for name in ("CRAWL", "LINK", "HUBS", "AUTH")
            },
        }

    def finish(self, ctx: Context, handle, record: Repeat) -> None:
        handle.close()
        path = Path(handle.spec.checkpoint_dir)
        record.counters["disk_bytes"] = sum(
            entry.stat().st_size for entry in path.rglob("*") if entry.is_file()
        )
        shutil.rmtree(path, ignore_errors=True)

    def warm_up(self, ctx: Context, armed) -> None:
        """The uninterrupted durable run every killed-and-resumed repeat must equal."""
        armed.run()
        self._reference = self._crawl_facts(armed)
        self.discard(armed)


class CrawlSharded(CrawlMem):
    name = "crawl_sharded"
    why = (
        "crawl_mem under engine=sharded, 2 worker processes (= nproc): the only run of sharded.py, handoff.py, "
        "the round protocol. Measured: a worker spends 30% of wall writing; spawn (1.3 s) is in setup_s."
    )

    #: One database per shard, each in its worker: none here to query.
    queryable = False

    def __init__(self) -> None:
        self._fleet: Sequence[Any] = ()

    def worker_pids(self) -> Sequence[int]:
        return [process.pid for process in self._fleet if process.is_alive()]

    def invalid_on_host(self) -> Optional[str]:
        cpus = usable_cpus()
        if SIZES["shards"] > cpus:
            return f"shards={SIZES['shards']} > nproc={cpus}"
        return None

    def config(self, ctx: Context) -> CrawlerConfig:
        config = super().config(ctx)
        config.engine = "sharded"
        config.shards = ctx.sizes["shards"]
        config.shard_runner = "process"
        return config

    def start(self, ctx: Context):
        handle = super().start(ctx)
        runner = handle.crawler.engine.runner
        self._fleet = runner.processes
        # Barrier: every worker has unpickled its payload, so spawn is
        # in the start time and not in the crawl's.
        runner.broadcast(("ping",))
        return handle


class ServiceMix(Workload):
    """Six tenants behind the HTTP service, one closed-loop reader beside them."""

    name = "service_mix"
    why = (
        "Reads beside writes: 6 tenants x 300 pages (async, 10 ms latency) over HTTP, one closed-loop reader. "
        "Measured: fetch 34%, write 13%, other 39% of wall (HTTP, lock); a read is 100 ms, 45 of it HTTP."
    )

    def __init__(self) -> None:
        self._solo: Dict[int, str] = {}
        self._repeats = 0

    def spec(self, ctx: Context, tenant: int) -> JobSpec:
        config = CrawlerConfig(
            max_pages=self.budget(ctx),
            distill_every=ctx.sizes["distill_every"],
            engine="batched",
            batch_size=ctx.sizes["batch_size"],
            score_backend="numpy",
            fetch_mode="async",
            prefetch=False,
            transport="latency",
            transport_options={"mean_latency_ms": 10.0, "seed": 0},
        )
        return JobSpec(
            seeds=ctx.seeds,
            max_pages=self.budget(ctx),
            fetch_failure_seed=tenant,
            crawler=config,
            name=f"tenant-{tenant}",
        )

    def start(self, ctx: Context) -> CrawlService:
        service = CrawlService(JobManager(ctx.system))
        service.start()
        return service

    def discard(self, armed: CrawlService) -> None:
        armed.stop()

    def warm_up(self, ctx: Context, armed: CrawlService) -> None:
        """Each tenant's spec run solo: the reference of the checks, and the warm-up."""
        self.discard(armed)
        for tenant in range(ctx.sizes["tenants"]):
            handle = ctx.system.start(self.spec(ctx, tenant))
            handle.run()
            self._solo[tenant] = crawl_digest(
                handle.trace.fetched_urls, handle.trace.relevance_series()
            )
            handle.close()

    # -- HTTP -----------------------------------------------------------------------
    @staticmethod
    def _call(conn: http.client.HTTPConnection, method: str, path: str, body=None):
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, json.loads(data.decode("utf-8"))

    def read_paths(self, ctx: Context, job_id: str) -> List[Tuple[str, str]]:
        base = f"/jobs/{job_id}"
        query = {kind: urllib.parse.urlencode({"sql": sql}) for kind, sql in ctx.queries.items()}
        return [
            ("progress", base),
            ("harvest", f"{base}/harvest?bucket={ctx.sizes['harvest_bucket']}"),
            ("agg", f"{base}/query?{query['agg']}"),
            ("reach", f"{base}/query?{query['reach']}"),
            ("join", f"{base}/query?{query['join']}"),
            ("stats", f"{base}/stats"),
            # The listing ends each cycle so that the reader sees every
            # job's state seven reads apart, not forty-two.
            ("jobs", "/jobs"),
        ]

    def repeat(self, ctx: Context, traced: bool, armed: Optional[CrawlService] = None) -> Repeat:
        gc.collect()
        # One chunk (see _submit_and_read), so two gaps: four slices in each.
        record = Repeat(budget=self.budget(ctx) * ctx.sizes["tenants"], run=Phase(gap=4))
        self._repeats += 1
        started = time.perf_counter()
        service = armed if armed is not None else self.start(ctx)
        record.start_s = time.perf_counter() - started
        conn = http.client.HTTPConnection(service.host, service.port, timeout=120)
        try:
            job_ids = record.run.chunk(lambda: self._submit_and_read(ctx, conn, record))
            self._collect(ctx, service, job_ids, record)
            if traced:
                self._idle_reads(ctx, conn, service.manager, job_ids, record)
        finally:
            conn.close()
            service.stop()
        return record

    def _submit_and_read(self, ctx: Context, conn, record: Repeat) -> List[str]:
        """Submit every tenant, then read in a closed loop until all are terminal.

        One connection, one request outstanding: the next read is sent
        when the last reply has arrived, as a polling dashboard does.  The
        whole of it is one chunk of the phase: the crawls run on the
        service's threads throughout, so there is no moment between
        submit and the last terminal state at which a calibration slice
        would have the processor to itself.
        """
        job_ids = []
        for tenant in range(ctx.sizes["tenants"]):
            status, reply = self._call(conn, "POST", "/jobs", self.spec(ctx, tenant).to_dict())
            if status != 200:
                raise RuntimeError(f"submit failed: {status} {reply}")
            job_ids.append(reply["id"])
        live = set(job_ids)
        paths = {job_id: self.read_paths(ctx, job_id) for job_id in job_ids}
        loop_started = time.perf_counter()
        in_requests = 0.0
        while live:
            for job_id in job_ids:
                for kind, path in paths[job_id]:
                    started = time.perf_counter()
                    status, reply = self._call(conn, "GET", path)
                    elapsed = time.perf_counter() - started
                    in_requests += elapsed
                    record.reads.append((kind, elapsed * 1e3))
                    record.bad_reads += status != 200
                    if kind == "jobs" and status == 200:
                        live = {job["id"] for job in reply if job["status"] not in TERMINAL}
                if not live:
                    break
        record.counters["reader_wall_s"] = time.perf_counter() - loop_started
        record.counters["reader_in_requests_s"] = in_requests
        return job_ids

    def _fresh_call(self, service: CrawlService, path: str):
        """One GET on a connection of its own.

        The untimed bookkeeping does not reuse the reader's connection: on
        a kept-alive one every reply waits ~40 ms for a delayed ACK (see
        ``service.http_overhead_ms``), a new one starts in quick-ACK mode.
        """
        conn = http.client.HTTPConnection(service.host, service.port, timeout=120)
        try:
            return self._call(conn, "GET", path)
        finally:
            conn.close()

    def _collect(self, ctx: Context, service: CrawlService, job_ids, record: Repeat) -> None:
        """Results, checks and public snapshots of the finished jobs."""
        manager = service.manager
        relevance_sum = 0.0
        digest = hashlib.sha256()
        counters = record.counters
        for tenant, job_id in enumerate(job_ids):
            status, summary = self._fresh_call(service, f"/jobs/{job_id}/result")
            if status != 200 or summary["status"] != "completed":
                record.jobs_failed += 1
                continue
            record.pages += summary["pages_fetched"]
            relevance_sum += sum(summary["relevance"])
            record.job_latencies_s.append(summary["latency_s"])
            tenant_digest = crawl_digest(summary["fetched_urls"], summary["relevance"])
            digest.update(tenant_digest.encode("ascii"))
            record.checks.append(
                (f"tenant_{tenant}_equals_solo", tenant_digest == self._solo.get(tenant))
            )
            stats = manager.stats(job_id)
            _add(record.stages, stats["stage_timings"])
            _add(counters.setdefault("io", {}), _numbers(stats["io"]))
            engine = manager.result(job_id).crawler.engine
            _add(
                counters,
                {
                    "fetch_attempts": summary["fetch_attempts"],
                    "fetch_failed": summary["failures"],
                    "distillations": summary["distillations"],
                    "injected_s": _latency_layer(engine.transport).injected_s,
                },
            )
        record.harvest = relevance_sum / record.pages if record.pages else 0.0
        record.digest = digest.hexdigest()
        counters["pool"] = manager.pool.snapshot()
        # Each repeat checks one tenant's finished store over the wire, in rotation.
        tenant = self._repeats % len(job_ids)
        self._check_queries(ctx, service, tenant, job_ids[tenant], record)

    def _check_queries(
        self, ctx: Context, service: CrawlService, tenant: int, job_id: str, record: Repeat
    ) -> None:
        """``/query`` answers must equal ``Database.sql`` on the finished store."""
        database = service.manager.result(job_id).database
        for kind, path in self.read_paths(ctx, job_id):
            if kind not in ctx.queries:
                continue
            status, rows = self._fresh_call(service, path)
            direct = database.sql(ctx.queries[kind])
            record.checks.append(
                (f"tenant_{tenant}_query_{kind}_equals_direct", status == 200 and rows == direct[:200])
            )
        time_store_queries(ctx, database, record.counters, times=1)

    def _idle_reads(self, ctx: Context, conn, manager: JobManager, job_ids, record: Repeat) -> None:
        """The same reads with no crawl running: over HTTP, then straight on the manager.

        On the reader's own kept-alive connection.  Their difference is
        what the HTTP layer costs; the reads beside the crawl above cost
        that plus the wait for the sweep thread.
        """
        bucket = ctx.sizes["harvest_bucket"]
        over_http, direct = [], []
        for job_id in job_ids:
            for _kind, path in self.read_paths(ctx, job_id):
                started = time.perf_counter()
                self._call(conn, "GET", path)
                over_http.append((time.perf_counter() - started) * 1e3)
            calls = [
                lambda: manager.progress(job_id),
                lambda: manager.harvest_sql(job_id, bucket),
                lambda: manager.query(job_id, ctx.queries["agg"]),
                lambda: manager.query(job_id, ctx.queries["reach"]),
                lambda: manager.query(job_id, ctx.queries["join"]),
                lambda: manager.stats(job_id),
                manager.jobs,
            ]
            for call in calls:
                started = time.perf_counter()
                call()
                direct.append((time.perf_counter() - started) * 1e3)
        record.counters["idle_http_ms"] = over_http
        record.counters["idle_direct_ms"] = direct


WORKLOADS = {
    workload.name: workload
    for workload in (
        CrawlMem(),
        CrawlDefault(),
        CrawlLatency(),
        CrawlDurable(),
        ServiceMix(),
        CrawlSharded(),
    )
}
