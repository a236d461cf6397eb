"""The simulated fetcher: how crawlers observe the synthetic web.

A crawler never touches :class:`~repro.webgraph.graph.WebGraph` ground
truth directly; it calls :meth:`Fetcher.fetch` with a URL and gets back a
:class:`FetchResult` carrying only what an HTTP fetch plus HTML parsing
would yield — status, tokens, out-links (as the web stores them: the
builder normalises them, and the crawl engine resolves every link
itself), and the serving host.  The fetcher also simulates transient
server failures and dead links (404s), and accumulates simulated latency
so experiments can report a crawl "timeline" without real network time.

The crawl engine reaches this class through the transport layer
(:mod:`repro.webgraph.transport`): the default ``SimulatedTransport``
wraps it bit for bit, and ``LatencyTransport`` turns its simulated
latency model into real wall-clock delays for overlap experiments.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field

import numpy as np

from .graph import WebGraph
from .urls import host_of, normalize_url, server_sid, url_oid


class FetchStatus(enum.Enum):
    """Outcome of a single fetch attempt."""

    OK = "ok"
    NOT_FOUND = "not_found"      # dead link / page does not exist
    SERVER_ERROR = "server_error"  # transient failure, retry may succeed
    SKIPPED = "skipped"          # permanently refused: robots, redirect cap/loop, content gate


@dataclass
class FetchResult:
    """What the crawler learns from one fetch attempt."""

    url: str
    status: FetchStatus
    tokens: list[str] = field(default_factory=list)
    out_links: list[str] = field(default_factory=list)
    server: str = ""
    latency_ms: float = 0.0
    #: Machine-readable reason for non-OK outcomes (e.g. ``"robots"``,
    #: ``"redirect-loop"``, ``"content-type"``); empty for OK fetches.
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status is FetchStatus.OK

    @property
    def oid(self) -> int:
        return url_oid(self.url)

    @property
    def sid(self) -> int:
        return server_sid(self.server or host_of(self.url))


@dataclass
class FetchStats:
    """Aggregate fetcher counters."""

    attempts: int = 0
    successes: int = 0
    not_found: int = 0
    server_errors: int = 0
    total_latency_ms: float = 0.0
    skipped: int = 0

    def record(self, result: FetchResult) -> None:
        self.attempts += 1
        self.total_latency_ms += result.latency_ms
        if result.status is FetchStatus.OK:
            self.successes += 1
        elif result.status is FetchStatus.NOT_FOUND:
            self.not_found += 1
        elif result.status is FetchStatus.SKIPPED:
            self.skipped += 1
        else:
            self.server_errors += 1


class Fetcher:
    """Fetches pages from a :class:`WebGraph`, simulating network behaviour.

    ``failure_seed`` controls the transient-failure stream independently of
    the graph's own seed so crawl experiments are repeatable.
    """

    def __init__(self, web: WebGraph, failure_seed: int = 0, simulate_failures: bool = True) -> None:
        self.web = web
        self.simulate_failures = simulate_failures
        self.stats = FetchStats()
        self._rng = np.random.default_rng(failure_seed)
        # The simulated failure/latency stream and the stats counters are
        # shared mutable state.  The engine fetches from one thread, but a
        # fetcher reached from several (a caller's own threads) must still
        # draw one sequence, so draws are serialised (the simulation is
        # CPU-only anyway).
        self._lock = threading.Lock()

    def fetch(self, url: str) -> FetchResult:
        """Attempt to fetch *url* once (thread-safe)."""
        with self._lock:
            return self._fetch_locked(url)

    # -- checkpointing ------------------------------------------------------
    def state_snapshot(self) -> dict:
        """The fetcher's resumable state: its RNG stream position and counters."""
        from dataclasses import asdict

        return {"rng": self._rng.bit_generator.state, "stats": asdict(self.stats)}

    def restore_state(self, state: dict) -> None:
        """Rewind to a snapshot, so the latency/failure draws continue exactly."""
        self._rng.bit_generator.state = state["rng"]
        self.stats = FetchStats(**state["stats"])

    def _fetch_locked(self, url: str) -> FetchResult:
        normalized = normalize_url(url)
        host = host_of(normalized)
        if not self.web.has_page(normalized):
            result = FetchResult(
                url=normalized,
                status=FetchStatus.NOT_FOUND,
                server=host,
                latency_ms=float(self._rng.exponential(80.0)),
            )
            self.stats.record(result)
            return result
        page = self.web.page(normalized)
        if self.simulate_failures and host in self.web.servers:
            success, latency = self.web.servers.simulate_fetch(host)
        else:
            success, latency = True, float(self._rng.exponential(100.0))
        if not success:
            result = FetchResult(
                url=normalized,
                status=FetchStatus.SERVER_ERROR,
                server=page.server,
                latency_ms=latency,
            )
            self.stats.record(result)
            return result
        result = FetchResult(
            url=normalized,
            status=FetchStatus.OK,
            tokens=list(page.tokens),
            out_links=list(page.out_links),
            server=page.server,
            latency_ms=latency,
        )
        self.stats.record(result)
        return result
