"""repro: reproduction of "Distributed Hypertext Resource Discovery Through Examples".

Chakrabarti, van den Berg, Dom — VLDB 1999 (the "Focus" project).

The package is organised bottom-up:

* :mod:`repro.minidb` — a small relational engine (the paper's DB2 role).
* :mod:`repro.webgraph` — a synthetic distributed hypertext (the paper's Web role).
* :mod:`repro.taxonomy` — the topic tree and example documents.
* :mod:`repro.classifier` — hierarchical naive Bayes, SingleProbe and BulkProbe.
* :mod:`repro.distiller` — relevance-weighted HITS, in-memory and join-based.
* :mod:`repro.crawler` — the crawl engine, frontier policies, monitoring.
* :mod:`repro.core` — the FocusSystem facade, schemata, metrics, configuration.
* :mod:`repro.service` — the multi-tenant crawl service (job manager + HTTP API).
* :mod:`repro.experiments` — regeneration of every figure in the paper's evaluation.

This top-level module is the supported public surface: everything an
application (or the bundled ``examples/``) needs imports from ``repro``
directly.

Quickstart::

    from repro import FocusSystem, FocusConfig

    system = FocusSystem.bootstrap(FocusConfig(good_topics=["recreation/cycling"]))
    system.train()
    result = system.crawl(max_pages=500)
    print(result.harvest_rate())

Crawl as a service::

    from repro import CrawlService, JobManager, JobSpec

    with CrawlService(JobManager(system)) as service:
        ...  # POST JobSpec.to_dict() to http://127.0.0.1:{service.port}/jobs

Record a real-web crawl once, replay it deterministically forever::

    # First run records every fetch into the cassette; later runs
    # (cassette_mode="auto") replay it with no network stack at all.
    result = system.start(JobSpec(crawler=CrawlerConfig(cassette_path="crawl.jsonl"))).run()
"""

from .core.checkpoint import CheckpointManager, CrawlCheckpoint
from .core.config import FocusConfig, JobSpec
from .core.schema import create_focus_database
from .core.system import CrawlHandle, CrawlResult, FocusSystem
from .crawler.engine import CrawlTrace
from .crawler.focused import CrawlerConfig
from .crawler.monitor import CrawlMonitor
from .crawler.policies import CrawlOrdering, FetchPolicy
from .crawler.sharded import ShardedCrawler, build_sharded_crawler
from .experiments.workloads import build_crawl_workload
from .minidb import Database, ExplainResult, Plan, StorageConfig
from .service import CrawlService, JobManager, SharedFetchPool, serve
from .webgraph.cassette import (
    CassetteError,
    CassetteMismatch,
    RecordingTransport,
    ReplayTransport,
    lint_cassette,
)
from .webgraph.graph import WebConfig
from .webgraph.transport import HttpTransport

__version__ = "0.1.0"

__all__ = [
    "CassetteError",
    "CassetteMismatch",
    "CheckpointManager",
    "CrawlCheckpoint",
    "CrawlHandle",
    "CrawlMonitor",
    "CrawlOrdering",
    "CrawlResult",
    "CrawlService",
    "CrawlTrace",
    "CrawlerConfig",
    "Database",
    "ExplainResult",
    "FetchPolicy",
    "FocusConfig",
    "FocusSystem",
    "HttpTransport",
    "JobManager",
    "JobSpec",
    "Plan",
    "RecordingTransport",
    "ReplayTransport",
    "ShardedCrawler",
    "SharedFetchPool",
    "StorageConfig",
    "WebConfig",
    "build_crawl_workload",
    "build_sharded_crawler",
    "create_focus_database",
    "lint_cassette",
    "serve",
    "__version__",
]
