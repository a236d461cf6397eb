"""Fetch transports: the pluggable I/O layer between the crawl engine and a web.

The engine never talks to a :class:`~repro.webgraph.fetch.Fetcher` (or a
network) directly any more; it talks to a *transport*.  A transport
exposes the same fetch semantics three ways:

* ``fetch(url)`` — the synchronous one-shot used by the sharded workers;
* ``prepare(url)`` / ``await wait(pending)`` — the two-phase form the
  engine's round loop uses.  **Every random draw happens inside
  ``prepare``**, synchronously, in submission order; ``wait`` only waits
  out the (real or simulated) latency.  This is the determinism
  contract: the shared failure/latency RNG streams advance in checkout
  order, so the order in which concurrent fetches *complete* can never
  change the draw sequence — same seed, same failure stream, any
  interleaving.  A round of :attr:`PendingFetch.settled` fetches runs
  inline, without an event loop.
* ``state_snapshot()`` / ``restore_state()`` — checkpoint/resume hooks,
  so a resumed crawl continues the exact RNG streams.

Three transports are provided:

* :class:`SimulatedTransport` — wraps the CPU-only simulated fetcher
  bit for bit (the default; existing crawls are unchanged).
* :class:`LatencyTransport` — injects configurable real wall-clock
  latency, jitter, timeouts, and retries around an inner transport, so
  fetch/compute overlap is measurable without touching a network.  All
  of its draws also happen at ``prepare`` time, so a latency crawl is
  the crawl of its inner transport, whatever the completion order.
* :class:`HttpTransport` — the real-network fetcher: robots.txt
  honoring with a TTL cache, manual redirect following with hop cap and
  loop detection, content-type/size gating, retry/backoff whose jitter
  is drawn in ``prepare``, and one shared client session per transport:
  a stdlib ``urllib`` opener, so fetching needs no extra dependency.

The cassette record/replay layer that makes real-network crawls
CI-deterministic lives in :mod:`repro.webgraph.cassette` and wraps any
of these transports.
"""

from __future__ import annotations

import asyncio
import threading
import time
import urllib.request
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Protocol, runtime_checkable

import numpy as np

from .fetch import Fetcher, FetchResult, FetchStats, FetchStatus
from .servers import ServerPool
from .urls import host_of, normalize_url

#: Transport names accepted by ``CrawlerConfig.transport``.
TRANSPORTS = ("simulated", "latency", "http")


@dataclass
class PendingFetch:
    """A fetch in flight between :meth:`prepare` and :meth:`wait`.

    For the deterministic transports the outcome is already fully
    resolved (``result`` is set and ``delay_s`` is the wall-clock the
    transport still owes); for :class:`HttpTransport` the real I/O
    happens later, inside ``wait``.
    """

    url: str
    result: Optional[FetchResult] = None
    delay_s: float = 0.0
    attempts: int = 1
    #: Pre-drawn retry backoff delays (seconds), one per potential retry.
    #: Drawn inside ``prepare`` so the jitter stream advances in checkout
    #: order regardless of completion interleaving.
    backoffs: list[float] = field(default_factory=list)

    @property
    def settled(self) -> bool:
        """The outcome is known and no wait is owed: ``wait`` would return it at once."""
        return self.result is not None and self.delay_s == 0


@runtime_checkable
class FetchTransport(Protocol):
    """What the crawl engine requires of a fetch transport."""

    def fetch(self, url: str) -> FetchResult: ...

    def prepare(self, url: str) -> PendingFetch: ...

    async def wait(self, pending: PendingFetch) -> FetchResult: ...

    def state_snapshot(self) -> dict: ...

    def restore_state(self, state: dict) -> None: ...


class SimulatedTransport:
    """The default transport: the simulated :class:`Fetcher`, bit for bit.

    ``fetch`` delegates straight to :meth:`Fetcher.fetch`, and the
    snapshot/restore pair delegates to the fetcher's own RNG-stream
    checkpointing — a crawl that never asks for latency injection or a
    real network behaves exactly as it did before transports existed.
    """

    def __init__(self, fetcher: Fetcher) -> None:
        self.fetcher = fetcher

    @property
    def stats(self) -> FetchStats:
        return self.fetcher.stats

    def fetch(self, url: str) -> FetchResult:
        return self.fetcher.fetch(url)

    def prepare(self, url: str) -> PendingFetch:
        # The outcome is resolved NOW, synchronously: the shared
        # failure/latency streams advance in submission (checkout) order,
        # so async completion interleaving cannot change the draws.
        return PendingFetch(url=url, result=self.fetcher.fetch(url))

    async def wait(self, pending: PendingFetch) -> FetchResult:
        return pending.result

    def state_snapshot(self) -> dict:
        return self.fetcher.state_snapshot()

    def restore_state(self, state: dict) -> None:
        self.fetcher.restore_state(state)


class LatencyTransport:
    """Wraps a transport with real wall-clock latency, jitter, timeouts, retries.

    The point is to give the simulated web the *shape* of a network —
    high-latency fetches the engine can overlap with classification —
    without needing one.  Content still comes from the inner transport;
    this layer decides *when* it arrives and whether it times out first.

    Determinism: every draw (latency, jitter, timeout, retry count)
    comes from this transport's own seeded generator, consumed entirely
    inside :meth:`prepare` — in checkout order, and under a lock, so a
    transport reached from more than one thread still draws one
    sequence.  A latency crawl is therefore identical drained (delays
    owed) and inline (``time_scale=0``: nothing owed), and its RNG stream
    checkpoints/restores exactly like the simulated fetcher's.

    ``per_server`` overrides the mean latency (milliseconds) for
    specific hosts; :meth:`from_server_pool` derives those overrides
    from a :class:`~repro.webgraph.servers.ServerPool`'s profiles.
    """

    def __init__(
        self,
        inner: FetchTransport,
        mean_latency_ms: float = 5.0,
        jitter: float = 0.3,
        timeout_ms: float = 50.0,
        timeout_rate: float = 0.0,
        max_retries: int = 1,
        seed: int = 0,
        time_scale: float = 1.0,
        per_server: Optional[Dict[str, float]] = None,
    ) -> None:
        if mean_latency_ms < 0 or timeout_ms < 0 or time_scale < 0:
            raise ValueError("latencies and time_scale must be non-negative")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if not 0.0 <= timeout_rate < 1.0:
            raise ValueError("timeout_rate must be in [0, 1)")
        self.inner = inner
        self.mean_latency_ms = mean_latency_ms
        self.jitter = jitter
        self.timeout_ms = timeout_ms
        self.timeout_rate = timeout_rate
        self.max_retries = max_retries
        self.time_scale = time_scale
        self.per_server = dict(per_server or {})
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        #: Total wall-clock seconds of injected latency (before scaling).
        self.injected_s = 0.0
        self.timeouts = 0

    @classmethod
    def from_server_pool(
        cls, inner: FetchTransport, pool: ServerPool, scale: float = 1.0, **kwargs
    ) -> "LatencyTransport":
        """Derive per-host mean latencies from a server pool's profiles."""
        per_server = {
            name: pool.latency_profile(name)[0] * scale for name in pool.names()
        }
        return cls(inner, per_server=per_server, **kwargs)

    def fetch(self, url: str) -> FetchResult:
        pending = self.prepare(url)
        if pending.delay_s > 0:
            time.sleep(pending.delay_s)
        return pending.result

    def prepare(self, url: str) -> PendingFetch:
        with self._lock:
            result = self.inner.fetch(url)
            host = result.server or host_of(normalize_url(url))
            mean_ms = self.per_server.get(host, self.mean_latency_ms)
            # Timeout/retry loop: each timed-out attempt costs the full
            # timeout budget; one attempt beyond max_retries fails the fetch.
            attempts = 1
            delay_ms = 0.0
            timed_out = False
            while self._rng.random() < self.timeout_rate:
                delay_ms += self.timeout_ms
                self.timeouts += 1
                if attempts > self.max_retries:
                    timed_out = True
                    break
                attempts += 1
            if not timed_out:
                # Uniform jitter around the per-host mean.
                spread = 1.0 - self.jitter + 2.0 * self.jitter * self._rng.random()
                delay_ms += mean_ms * spread
            if timed_out:
                result = FetchResult(
                    url=result.url,
                    status=FetchStatus.SERVER_ERROR,
                    server=result.server,
                    latency_ms=delay_ms,
                )
            delay_s = delay_ms / 1000.0
            self.injected_s += delay_s
            return PendingFetch(
                url=url,
                result=result,
                delay_s=delay_s * self.time_scale,
                attempts=attempts,
            )

    async def wait(self, pending: PendingFetch) -> FetchResult:
        if pending.delay_s > 0:
            await asyncio.sleep(pending.delay_s)
        return pending.result

    def state_snapshot(self) -> dict:
        return {
            "inner": self.inner.state_snapshot(),
            "rng": self._rng.bit_generator.state,
            "injected_s": self.injected_s,
            "timeouts": self.timeouts,
        }

    def restore_state(self, state: dict) -> None:
        self.inner.restore_state(state["inner"])
        self._rng.bit_generator.state = state["rng"]
        self.injected_s = state["injected_s"]
        self.timeouts = state["timeouts"]


@dataclass
class HttpResponse:
    """One raw HTTP exchange as the session backend reports it.

    ``headers`` keys are lower-cased; ``body`` is capped at the byte
    budget the caller passed (one extra byte is read so oversize bodies
    are detectable without buffering them).
    """

    status: int
    headers: Dict[str, str]
    body: bytes
    url: str


class _StdlibNoRedirect(urllib.request.HTTPRedirectHandler):
    """Refuse automatic redirects: 3xx surfaces as an HTTPError response."""

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


class StdlibSessionBackend:
    """The HTTP session of :class:`HttpTransport`: ``urllib`` in a thread executor.

    One redirect-disabled ``OpenerDirector`` plays the role of the shared
    client session: it is loop-independent, so a crawl that drains on
    one asyncio loop per ``run()`` call (per round when stepped) still
    reuses the same opener for its whole lifetime.
    """

    def __init__(self) -> None:
        self._opener = urllib.request.build_opener(_StdlibNoRedirect())
        self.requests = 0

    async def get(
        self, url: str, headers: Dict[str, str], timeout_s: float, max_bytes: int
    ) -> HttpResponse:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, self._get_sync, url, headers, timeout_s, max_bytes
        )

    def _get_sync(
        self, url: str, headers: Dict[str, str], timeout_s: float, max_bytes: int
    ) -> HttpResponse:
        import urllib.error

        self.requests += 1
        request = urllib.request.Request(url, headers=headers)
        try:
            response = self._opener.open(request, timeout=timeout_s)
        except urllib.error.HTTPError as exc:
            # Non-2xx (including the redirects our handler refused): the
            # error object *is* the response.
            response = exc
        with response:
            body = response.read(max_bytes + 1)
            status = getattr(response, "status", None)
            if status is None:
                status = getattr(response, "code", 0)
            return HttpResponse(
                status=int(status),
                headers={k.lower(): v for k, v in response.headers.items()},
                body=body,
                url=url,
            )

    def close(self) -> None:
        self._opener.close()


@dataclass
class _RobotsEntry:
    """One host's cached robots.txt verdict machine, with its fetch time."""

    parser: object
    fetched_at: float


#: Default MIME types the fetcher will parse; everything else is gated.
DEFAULT_CONTENT_TYPES = ("text/html", "application/xhtml+xml")


class HttpTransport:
    """The real-network transport: a production HTTP fetcher.

    What the stub grew into (PR 10):

    * **one shared session** per transport (a
      :class:`StdlibSessionBackend`), with an explicit :meth:`close`;
    * **robots.txt**: fetched once per host through the same session,
      cached with a TTL, and honoured (disallowed URLs come back
      ``SKIPPED``/``robots`` without touching the page) — re-checked at
      every redirect hop against the *target* host's rules;
    * **redirect chains**: followed manually up to ``max_redirects``
      hops with loop detection — a cap overrun or revisit refuses the
      URL (``SKIPPED``/``redirect-cap`` or ``redirect-loop``) instead of
      spinning;
    * **content gating**: only ``allowed_content_types`` bodies up to
      ``max_content_bytes`` are parsed; others are ``SKIPPED``;
    * **timeout/retry/backoff**: transient errors and 5xx retry up to
      ``max_retries`` times with exponential backoff whose jitter factors
      are **drawn in** :meth:`prepare` from a seeded generator — in
      checkout order, the determinism contract the engine's drain (and
      the cassette layer) rests on;
    * **per-host politeness**: ``per_host_delay_s`` spaces requests to
      one host; in-flight caps stay with the engine's
      :class:`~repro.crawler.policies.FetchPolicy` seam (PR 4).

    :meth:`prepare` resolves nothing (the I/O is in :meth:`wait`), so
    the engine drains every round, overlapping the network waits.  Wrap
    the transport in a
    :class:`~repro.webgraph.cassette.RecordingTransport` to make a live
    crawl replayable; checkpoints carry counters plus the RNG position.
    """

    def __init__(
        self,
        timeout_s: float = 20.0,
        max_retries: int = 1,
        user_agent: str = "repro-focused-crawler/0.2 (+research reproduction)",
        max_links: int = 500,
        max_redirects: int = 5,
        max_content_bytes: int = 2 * 1024 * 1024,
        allowed_content_types: tuple = DEFAULT_CONTENT_TYPES,
        honor_robots: bool = True,
        robots_ttl_s: float = 3600.0,
        retry_backoff_s: float = 0.25,
        retry_jitter: float = 0.5,
        per_host_delay_s: float = 0.0,
        seed: int = 0,
        clock=None,
    ) -> None:
        if max_redirects < 0 or max_retries < 0:
            raise ValueError("max_redirects and max_retries must be >= 0")
        if timeout_s <= 0 or max_content_bytes <= 0:
            raise ValueError("timeout_s and max_content_bytes must be positive")
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.user_agent = user_agent
        self.max_links = max_links
        self.max_redirects = max_redirects
        self.max_content_bytes = max_content_bytes
        self.allowed_content_types = tuple(ct.lower() for ct in allowed_content_types)
        self.honor_robots = honor_robots
        self.robots_ttl_s = robots_ttl_s
        self.retry_backoff_s = retry_backoff_s
        self.retry_jitter = retry_jitter
        self.per_host_delay_s = per_host_delay_s
        self._clock = clock or time.monotonic
        self._backend = StdlibSessionBackend()
        self.stats = FetchStats()
        self._stats_lock = threading.Lock()
        self._rng = np.random.default_rng(seed)
        self._rng_lock = threading.Lock()
        self._robots_cache: Dict[str, _RobotsEntry] = {}
        self._robots_locks: Dict[str, asyncio.Lock] = {}
        self._robots_locks_loop: Optional[asyncio.AbstractEventLoop] = None
        self._next_request_at: Dict[str, float] = {}
        self._host_lock = threading.Lock()
        #: Observability hook: when set, robots / redirect / error events
        #: are reported as plain dicts (the cassette recorder hangs here).
        self.events = None
        self.robots_fetches = 0
        self.redirects_followed = 0
        #: Loop owned by the synchronous fetch() path (created lazily,
        #: released by close()), so serial fetches share one loop and its
        #: executor threads.  The lock serialises sync fetches from
        #: different threads on the one loop; the engine's drain is where
        #: fetches overlap.
        self._own_loop: Optional[asyncio.AbstractEventLoop] = None
        self._own_loop_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release the shared session and the sync path's loop (idempotent)."""
        backend, self._backend = self._backend, None
        loop, self._own_loop = self._own_loop, None
        if backend is not None:
            backend.close()
        if loop is not None and not loop.is_closed():
            loop.close()

    def _require_backend(self) -> StdlibSessionBackend:
        if self._backend is None:
            raise RuntimeError("HttpTransport is closed")
        return self._backend

    # -- FetchTransport ----------------------------------------------------
    def fetch(self, url: str) -> FetchResult:
        # One private loop for the sync path, reused across serial
        # fetches, rather than a new loop and executor per fetch.
        pending = self.prepare(url)
        with self._own_loop_lock:
            if self._own_loop is None or self._own_loop.is_closed():
                self._own_loop = asyncio.new_event_loop()
            return self._own_loop.run_until_complete(self.wait(pending))

    def prepare(self, url: str) -> PendingFetch:
        # The only draws of this transport happen HERE, synchronously, in
        # checkout order: the jitter factors of every potential retry
        # backoff.  wait() performs the actual I/O, so the engine's
        # max_inflight gate bounds real connection concurrency.
        pending = PendingFetch(url=url)
        with self._rng_lock:
            pending.backoffs = [
                self.retry_backoff_s
                * (2.0**index)
                * (1.0 + self.retry_jitter * float(self._rng.random()))
                for index in range(self.max_retries)
            ]
        return pending

    async def wait(self, pending: PendingFetch) -> FetchResult:
        url = normalize_url(pending.url)
        host = host_of(url)
        started = time.perf_counter()

        def done(status: FetchStatus, detail: str = "", tokens=None, links=None) -> FetchResult:
            return self._record(
                FetchResult(
                    url=pending.url,
                    status=status,
                    tokens=tokens or [],
                    out_links=links or [],
                    server=host,
                    latency_ms=(time.perf_counter() - started) * 1000.0,
                    detail=detail,
                )
            )

        if not url.startswith(("http://", "https://")):
            return done(FetchStatus.SKIPPED, detail="scheme")
        if self.honor_robots and not await self._robots_allows(url):
            return done(FetchStatus.SKIPPED, detail="robots")

        current = url
        seen = {current}
        hops = 0
        retries_used = 0
        while True:
            response, detail = await self._get_with_retries(current, pending, retries_used)
            retries_used = pending.attempts - 1
            if response is None:
                return done(FetchStatus.SERVER_ERROR, detail=detail)
            status = response.status
            if 300 <= status < 400:
                location = response.headers.get("location")
                if not location:
                    return done(FetchStatus.SKIPPED, detail="redirect-no-location")
                target = self._resolve_link(current, location)
                if target is None or not target.startswith(("http://", "https://")):
                    return done(FetchStatus.SKIPPED, detail="scheme")
                target = normalize_url(target)
                hops += 1
                if hops > self.max_redirects:
                    self._emit({"kind": "redirect", "url": current, "target": target, "refused": "cap"})
                    return done(FetchStatus.SKIPPED, detail="redirect-cap")
                if target in seen:
                    self._emit({"kind": "redirect", "url": current, "target": target, "refused": "loop"})
                    return done(FetchStatus.SKIPPED, detail="redirect-loop")
                seen.add(target)
                # Each hop — including a cross-host one — must honour the
                # *target* host's robots rules, not just the original URL's.
                if self.honor_robots and not await self._robots_allows(target):
                    self._emit({"kind": "redirect", "url": current, "target": target, "refused": "robots"})
                    return done(FetchStatus.SKIPPED, detail="robots")
                self.redirects_followed += 1
                self._emit({"kind": "redirect", "url": current, "target": target, "hop": hops})
                current = target
                continue
            if status in (404, 410):
                return done(FetchStatus.NOT_FOUND, detail=f"http-{status}")
            if 400 <= status < 500:
                return done(FetchStatus.SKIPPED, detail=f"http-{status}")
            if status >= 500:
                return done(FetchStatus.SERVER_ERROR, detail=f"http-{status}")
            content_type = response.headers.get("content-type", "").split(";")[0].strip().lower()
            if self.allowed_content_types and content_type not in self.allowed_content_types:
                return done(FetchStatus.SKIPPED, detail="content-type")
            if len(response.body) > self.max_content_bytes:
                return done(FetchStatus.SKIPPED, detail="too-large")
            text = self._decode(response)
            tokens, links = parse_html(text, base_url=current, max_links=self.max_links)
            return done(FetchStatus.OK, tokens=tokens, links=links)

    async def _get_with_retries(
        self, url: str, pending: PendingFetch, retries_used: int
    ) -> tuple[Optional[HttpResponse], str]:
        """One GET with transient-error/5xx retries; (None, detail) when exhausted.

        The retry budget (and its prepared backoff draws) is shared
        across a redirect chain's hops, so one URL can never consume more
        than ``max_retries`` extra requests in total.
        """
        backend = self._require_backend()
        headers = {"User-Agent": self.user_agent}
        await self._politeness_delay(host_of(url))
        detail = "network"
        for spent in range(retries_used, self.max_retries + 1):
            pending.attempts = spent + 1
            try:
                response = await backend.get(url, headers, self.timeout_s, self.max_content_bytes)
            except OSError as exc:  # URLError and socket timeouts included
                detail = "network"
                self._emit({"kind": "error", "url": url, "error": type(exc).__name__})
                response = None
            if response is not None and response.status < 500:
                return response, ""
            if response is not None:
                detail = f"http-{response.status}"
            if spent >= self.max_retries:
                return (response, detail) if response is not None else (None, detail)
            delay = pending.backoffs[spent] if spent < len(pending.backoffs) else self.retry_backoff_s
            if delay > 0:
                await asyncio.sleep(delay)
        return None, detail  # pragma: no cover - loop always returns

    async def _politeness_delay(self, host: str) -> None:
        """Space requests to one host at least ``per_host_delay_s`` apart."""
        if self.per_host_delay_s <= 0:
            return
        with self._host_lock:
            now = self._clock()
            next_ok = self._next_request_at.get(host, now)
            wait_s = max(0.0, next_ok - now)
            self._next_request_at[host] = max(now, next_ok) + self.per_host_delay_s
        if wait_s > 0:
            await asyncio.sleep(wait_s)

    # -- robots ------------------------------------------------------------
    async def _robots_allows(self, url: str) -> bool:
        parser = await self._robots_parser(url)
        if parser is None:
            return True
        return parser.can_fetch(self.user_agent, url)

    async def _robots_parser(self, url: str):
        from urllib.parse import urlsplit

        parts = urlsplit(url)
        base = f"{parts.scheme}://{parts.netloc}"
        now = self._clock()
        entry = self._robots_cache.get(base)
        if entry is not None and now - entry.fetched_at < self.robots_ttl_s:
            return entry.parser
        lock = self._robots_lock(base)
        async with lock:
            entry = self._robots_cache.get(base)
            now = self._clock()
            if entry is not None and now - entry.fetched_at < self.robots_ttl_s:
                return entry.parser
            parser = await self._fetch_robots(base)
            self._robots_cache[base] = _RobotsEntry(parser=parser, fetched_at=now)
            return parser

    def _robots_lock(self, base: str) -> asyncio.Lock:
        # asyncio.Lock binds to the loop that first acquires it, and the
        # engine drains on one event loop per run() call — per round when
        # it is stepped — so a lock cached on round A's loop would raise
        # "bound to a different event loop" when a robots TTL expiry
        # re-acquires it on round B's.  Scope the cache to the running loop.
        loop = asyncio.get_running_loop()
        if self._robots_locks_loop is not loop:
            self._robots_locks = {}
            self._robots_locks_loop = loop
        return self._robots_locks.setdefault(base, asyncio.Lock())

    async def _fetch_robots(self, base: str):
        """Fetch and parse ``robots.txt``; None (allow everything) on any failure.

        A 2xx body is parsed; anything else — 4xx, 5xx, redirects,
        connection errors — is treated as "no robots restrictions", the
        conventional crawler behaviour for absent/unreachable files.
        """
        from urllib.robotparser import RobotFileParser

        backend = self._require_backend()
        robots_url = f"{base}/robots.txt"
        self.robots_fetches += 1
        try:
            response = await backend.get(
                robots_url, {"User-Agent": self.user_agent}, self.timeout_s, 512 * 1024
            )
        except OSError:
            self._emit({"kind": "robots", "url": robots_url, "status": "error"})
            return None
        self._emit({"kind": "robots", "url": robots_url, "status": response.status})
        if not 200 <= response.status < 300:
            return None
        parser = RobotFileParser()
        parser.parse(response.body.decode("utf-8", errors="replace").splitlines())
        return parser

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _resolve_link(base: str, target: str) -> Optional[str]:
        from urllib.parse import urljoin

        try:
            return urljoin(base, target.strip())
        except ValueError:
            return None

    @staticmethod
    def _decode(response: HttpResponse) -> str:
        content_type = response.headers.get("content-type", "")
        charset = "utf-8"
        for part in content_type.split(";")[1:]:
            key, _, value = part.partition("=")
            if key.strip().lower() == "charset" and value.strip():
                charset = value.strip().strip('"').strip("'")
        try:
            return response.body.decode(charset, errors="replace")
        except LookupError:
            return response.body.decode("utf-8", errors="replace")

    def _emit(self, event: dict) -> None:
        if self.events is not None:
            self.events(event)

    def _record(self, result: FetchResult) -> FetchResult:
        with self._stats_lock:
            self.stats.record(result)
        return result

    # -- checkpointing -----------------------------------------------------
    def state_snapshot(self) -> dict:
        # The robots cache is soft state (re-fetchable, TTL-bounded); the
        # resumable hard state is the counters plus the backoff RNG
        # position, so a resumed crawl draws the identical jitter stream.
        with self._rng_lock:
            rng = self._rng.bit_generator.state
        return {
            "stats": asdict(self.stats),
            "rng": rng,
            "robots_fetches": self.robots_fetches,
            "redirects_followed": self.redirects_followed,
        }

    def restore_state(self, state: dict) -> None:
        self.stats = FetchStats(**state["stats"])
        if "rng" in state:
            with self._rng_lock:
                self._rng.bit_generator.state = state["rng"]
        self.robots_fetches = state.get("robots_fetches", 0)
        self.redirects_followed = state.get("redirects_followed", 0)


def parse_html(text: str, base_url: str, max_links: int = 500) -> tuple[list[str], list[str]]:
    """Crude HTML → (tokens, absolute out-links) used by :class:`HttpTransport`.

    Hardened for real-web input: malformed/truncated markup never raises;
    hrefs that fail to resolve are dropped; only absolute ``http(s)``
    links survive; fragments and query strings are stripped (the frontier
    keys pages by canonical URL, and ``#``/``?`` variants would explode
    it with aliases).
    """
    import re
    from urllib.parse import urljoin, urlsplit, urlunsplit

    links: list[str] = []
    for href in re.findall(r"""(?i)href\s*=\s*["']([^"'#]+)""", text):
        if len(links) >= max_links:
            break
        try:
            absolute = urljoin(base_url, href.strip())
            if not absolute.startswith(("http://", "https://")):
                continue
            parts = urlsplit(absolute)
        except ValueError:
            continue
        if not parts.netloc:
            continue
        links.append(urlunsplit((parts.scheme, parts.netloc, parts.path or "/", "", "")))
    stripped = re.sub(r"(?s)<(script|style)[^>]*>.*?</\1>", " ", text)
    stripped = re.sub(r"<[^>]+>", " ", stripped)
    tokens = re.findall(r"[a-z][a-z0-9]+", stripped.lower())
    return tokens, links


def build_transport(
    name: str, fetcher: Fetcher, options: Optional[dict] = None
) -> FetchTransport:
    """Construct a transport by registry name (``CrawlerConfig.transport``).

    ``options`` is the plain-data ``CrawlerConfig.transport_options``
    mapping, so a transport choice rides along inside crawl checkpoints
    and a resumed crawl rebuilds the identical stack.
    """
    options = dict(options or {})
    if name == "simulated":
        if options:
            raise ValueError(
                f"the simulated transport takes no options, got {sorted(options)}"
            )
        return SimulatedTransport(fetcher)
    if name == "latency":
        from_pool = options.pop("per_server_from_pool", False)
        inner = SimulatedTransport(fetcher)
        if from_pool:
            scale = options.pop("per_server_scale", 1.0)
            return LatencyTransport.from_server_pool(
                inner, fetcher.web.servers, scale=scale, **options
            )
        return LatencyTransport(inner, **options)
    if name == "http":
        return HttpTransport(**options)
    raise ValueError(f"unknown transport {name!r}; expected one of {TRANSPORTS}")
