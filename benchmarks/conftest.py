"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one of the paper's figures (see
DESIGN.md §4 and EXPERIMENTS.md).  The synthetic web and the trained
classifier are built once per session; individual benchmarks then time
the crawl / classification / distillation step they correspond to and
attach the figure's headline numbers as ``extra_info`` so the JSON
output of ``pytest benchmarks/ --benchmark-only --benchmark-json=...``
doubles as the experiment record.

The engine's round size is exposed as a pytest option so the crawl
benchmarks can sweep it::

    pytest benchmarks/bench_fig5_harvest.py --batch 8

Throughput is not measured here: the repository benchmark is
``BENCHMARK.json`` + ``benchmarks/suite/`` (see its README).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.crawler.engine import CrawlerConfig
from repro.experiments.workloads import build_crawl_workload

#: Scale factor for the benchmark web: large enough for the paper's effects,
#: small enough that the whole benchmark suite finishes in a few minutes.
BENCH_SCALE = 0.6
BENCH_SEED = 7
BENCH_CRAWL_PAGES = 600


def pytest_addoption(parser):
    parser.addoption(
        "--batch",
        type=int,
        default=1,
        help="crawl engine round size K for the crawl benchmarks",
    )


@pytest.fixture(scope="session")
def crawl_workload():
    """The trained crawling workload shared by the Figure 5/6/7 benchmarks."""
    return build_crawl_workload(seed=BENCH_SEED, scale=BENCH_SCALE, max_pages=BENCH_CRAWL_PAGES)


@pytest.fixture(scope="session")
def bench_crawl_pages() -> int:
    """Crawl budget used by the crawl-level benchmarks."""
    return BENCH_CRAWL_PAGES


@pytest.fixture()
def engine_crawler_config(request, crawl_workload, bench_crawl_pages) -> CrawlerConfig:
    """The workload's own crawler config plus the --batch sweep."""
    return dataclasses.replace(
        crawl_workload.system.config.crawler,
        max_pages=bench_crawl_pages,
        batch_size=request.config.getoption("--batch"),
    )
