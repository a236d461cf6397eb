"""The shared fetch pipeline: one politeness gate multiplexing every job.

The paper pitches the crawler as a long-running shared service; at
"millions of users" scale the scarce resource is the fetch pipeline —
total connections in flight and per-server politeness — not any single
crawl.  A :class:`SharedFetchPool` owns that global budget (expressed as
the crawler's own :class:`~repro.crawler.policies.FetchPolicy`) and
hands each job a :class:`PooledTransport`: a thin wrapper around the
job's private transport stack that acquires a pool slot around every
fetch.

Determinism is untouched by the pool.  The transport contract says all
random draws happen inside ``prepare()``, synchronously in checkout
order — so :class:`PooledTransport` gates only ``fetch``/``wait`` (the
latency/WAIT side), never ``prepare`` (the draw side).  Throttling a
job can therefore delay *when* a page arrives, never *what* it is, and
every job stays bit-identical to the same job run alone.  A fetch
settled at ``prepare`` (a simulated tenant's) owes no wait: it takes no
slot and is counted there.

The gate is a plain counter under a ``threading.Lock`` rather than an
``asyncio`` primitive: each engine ``run()`` call (each step of a job)
drains on an event loop of its own, jobs may also fetch synchronously,
and a started :class:`~repro.service.jobs.JobManager` steps every job on
a thread of its own — so acquirers really do arrive from several threads
and loops at once, and ``peak_inflight`` counts fetches of different
tenants that were outstanding together.  The lock is held for counter
arithmetic only, never across a fetch or a sleep.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Dict, Optional

from repro.crawler.policies import FetchPolicy
from repro.webgraph.fetch import FetchResult
from repro.webgraph.transport import FetchTransport, PendingFetch
from repro.webgraph.urls import host_of, normalize_url

#: How long an acquirer sleeps between slot polls.  The pool spans event
#: loops and threads, so waiting is polling; the interval trades a little
#: latency for negligible idle CPU.
_POLL_INTERVAL_S = 0.0005


class SharedFetchPool:
    """A global in-flight/politeness budget shared by every crawl job.

    ``policy.max_inflight`` caps fetches outstanding across *all* jobs
    (0 = unlimited); ``policy.per_server_inflight`` caps them per host,
    which is the politeness guarantee multi-tenancy actually needs — K
    jobs crawling the same community would otherwise multiply the
    per-host pressure by K.
    """

    def __init__(self, policy: Optional[FetchPolicy] = None) -> None:
        self.policy = policy or FetchPolicy()
        self._lock = threading.Lock()
        self._inflight = 0
        self._per_server: Dict[str, int] = {}
        #: Lifetime counters for the service's stats endpoint.
        self.total_fetches = 0
        self.peak_inflight = 0
        self.waits = 0

    # -- slot management ----------------------------------------------------
    def _try_acquire(self, host: str) -> bool:
        with self._lock:
            cap = self.policy.max_inflight
            if cap and self._inflight >= cap:
                return False
            per_server = self.policy.per_server_inflight
            if per_server and self._per_server.get(host, 0) >= per_server:
                return False
            self._inflight += 1
            self._per_server[host] = self._per_server.get(host, 0) + 1
            if self._inflight > self.peak_inflight:
                self.peak_inflight = self._inflight
            return True

    def acquire(self, host: str) -> None:
        """Block until a slot for *host* is free (sync fetch path)."""
        while not self._try_acquire(host):
            with self._lock:
                self.waits += 1
            time.sleep(_POLL_INTERVAL_S)

    async def acquire_async(self, host: str) -> None:
        """Await a slot for *host* without blocking the event loop."""
        while not self._try_acquire(host):
            with self._lock:
                self.waits += 1
            await asyncio.sleep(_POLL_INTERVAL_S)

    def release(self, host: str) -> None:
        with self._lock:
            self._inflight -= 1
            remaining = self._per_server.get(host, 1) - 1
            if remaining:
                self._per_server[host] = remaining
            else:
                self._per_server.pop(host, None)
            self.total_fetches += 1

    def count_settled(self) -> None:
        """Count a fetch settled at ``prepare``, which never takes a slot."""
        with self._lock:
            self.total_fetches += 1

    # -- job plumbing -------------------------------------------------------
    def wrap(self, transport: FetchTransport) -> "PooledTransport":
        """The ``transport_wrap`` hook handed to :meth:`FocusSystem.start`."""
        return PooledTransport(self, transport)

    def snapshot(self) -> dict:
        """JSON-safe pool counters for the service's stats endpoint."""
        with self._lock:
            return {
                "max_inflight": self.policy.max_inflight,
                "per_server_inflight": self.policy.per_server_inflight,
                "inflight": self._inflight,
                "peak_inflight": self.peak_inflight,
                "total_fetches": self.total_fetches,
                "waits": self.waits,
            }


class PooledTransport:
    """A job's transport stack behind the shared pool's politeness gate.

    Implements the full :class:`~repro.webgraph.transport.FetchTransport`
    protocol by delegation; checkpoints pass straight through to the
    inner stack, so durable pause/resume of a pooled job is identical to
    a solo one.
    """

    def __init__(self, pool: SharedFetchPool, inner: FetchTransport) -> None:
        self.pool = pool
        self.inner = inner

    def fetch(self, url: str) -> FetchResult:
        host = host_of(normalize_url(url))
        self.pool.acquire(host)
        try:
            return self.inner.fetch(url)
        finally:
            self.pool.release(host)

    def prepare(self, url: str) -> PendingFetch:
        # Never gated: draws must advance in checkout order regardless of
        # what other tenants have in flight.
        pending = self.inner.prepare(url)
        if pending.settled:
            self.pool.count_settled()
        return pending

    async def wait(self, pending: PendingFetch) -> FetchResult:
        if pending.settled:  # counted at prepare; nothing outstanding to gate
            return await self.inner.wait(pending)
        host = host_of(normalize_url(pending.url))
        await self.pool.acquire_async(host)
        try:
            return await self.inner.wait(pending)
        finally:
            self.pool.release(host)

    def state_snapshot(self) -> dict:
        return self.inner.state_snapshot()

    def restore_state(self, state: dict) -> None:
        self.inner.restore_state(state)
