"""Crawl-as-a-service: multi-tenant job manager + HTTP API.

The paper's closing pitch is the crawler as a shared, long-running
service.  This package supplies that layer over the reproduction:

* :class:`~repro.service.pool.SharedFetchPool` — one global
  in-flight/politeness budget multiplexing every tenant's fetches;
* :class:`~repro.service.jobs.JobManager` — K concurrent crawl jobs,
  each stepped on its own thread under its own fair lock (or swept
  round-robin inline), each bit-identical to a solo run;
* :class:`~repro.service.http.CrawlService` — a stdlib-only JSON HTTP
  facade: submit :class:`~repro.core.config.JobSpec`s, poll progress,
  stream harvest curves and I/O stats, pause/resume/cancel.
"""

from .http import CrawlService, serve
from .jobs import JobManager, JobRecord, build_manager
from .pool import PooledTransport, SharedFetchPool

__all__ = [
    "CrawlService",
    "JobManager",
    "JobRecord",
    "PooledTransport",
    "SharedFetchPool",
    "build_manager",
    "serve",
]
