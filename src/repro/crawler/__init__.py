"""crawler: frontier management, the crawl engine, monitoring."""

from .engine import CrawlEngine, CrawlerConfig, CrawlTrace, PageVisit
from .focused import FocusedCrawler
from .frontier import Frontier, FrontierEntry
from .monitor import CrawlMonitor, StagnationReport
from .policies import (
    ORDERINGS,
    CrawlOrdering,
    aggressive_discovery,
    breadth_first,
    crawl_maintenance,
    ordering_by_name,
    recovery_ordering,
    relevance_only,
)
from .sharded import ShardedCrawler, ShardedEngine, build_sharded_crawler

__all__ = [
    "CrawlEngine",
    "CrawlMonitor",
    "CrawlOrdering",
    "CrawlTrace",
    "CrawlerConfig",
    "FocusedCrawler",
    "Frontier",
    "FrontierEntry",
    "ORDERINGS",
    "PageVisit",
    "ShardedCrawler",
    "ShardedEngine",
    "StagnationReport",
    "aggressive_discovery",
    "breadth_first",
    "build_sharded_crawler",
    "crawl_maintenance",
    "ordering_by_name",
    "recovery_ordering",
    "relevance_only",
]
