"""Shared test fixtures.

Heavy artefacts (the synthetic web, the trained classifier) are built once
per session from a deliberately small configuration so the whole suite
stays fast while still exercising every subsystem end to end.
"""

from __future__ import annotations

import pytest

from repro.classifier.training import ClassifierTrainer, ModelInstaller
from repro.core.schema import create_focus_database
from repro.crawler.engine import CrawlEngine
from repro.minidb import Database
from repro.taxonomy.examples import generate_examples
from repro.taxonomy.tree import TopicTaxonomy
from repro.webgraph.graph import SyntheticWebBuilder, WebConfig

GOOD_TOPIC = "recreation/cycling"


def small_web_config(seed: int = 11) -> WebConfig:
    """A miniature synthetic web used across the test suite."""
    return WebConfig(
        seed=seed,
        pages_per_topic=40,
        topic_page_overrides={GOOD_TOPIC: 120},
        background_pages=260,
        mean_doc_length=60,
        popular_sites=6,
        servers_per_topic=4,
        background_servers=12,
        pages_per_server=12,
        link_locality_window=15,
        seed_region_fraction=0.3,
    )


@pytest.fixture(scope="session")
def small_web():
    return SyntheticWebBuilder(small_web_config()).build()


@pytest.fixture(scope="session")
def taxonomy(small_web):
    tax = TopicTaxonomy.from_topic_tree(small_web.topic_tree)
    tax.mark_good([GOOD_TOPIC])
    return tax


@pytest.fixture(scope="session")
def examples(taxonomy, small_web):
    return generate_examples(taxonomy, small_web, per_leaf=12, seed=23)


@pytest.fixture(scope="session")
def trained_model(taxonomy, examples):
    return ClassifierTrainer(taxonomy, examples).train()


@pytest.fixture(scope="session")
def model_database(trained_model):
    """A database with the classifier tables installed (shared, read-only use)."""
    database = Database(buffer_pool_pages=1024)
    ModelInstaller(database).install(trained_model)
    return database


@pytest.fixture()
def crawl_database():
    """A fresh crawl database (CRAWL/LINK/HUBS/AUTH) per test."""
    return create_focus_database(buffer_pool_pages=512)


@pytest.fixture()
def empty_database():
    return Database(buffer_pool_pages=64)


@pytest.fixture()
def drained_rounds(monkeypatch):
    """The size of every round that drained through the asyncio pipeline.

    Empty when every round ran inline: the transport settled all of its
    outcomes at ``prepare``.
    """
    sizes = []
    drain = CrawlEngine._drain_round

    async def counted(engine, urls, *args):
        sizes.append(len(urls))
        return await drain(engine, urls, *args)

    monkeypatch.setattr(CrawlEngine, "_drain_round", counted)
    return sizes
