"""When a crawl writes its rows: a function of progress alone.

The engine buffers CRAWL and LINK writes in memory and flushes them at
points fixed by crawl progress — before each distillation, at each
``checkpoint_every`` boundary, and when the crawl is over — or when a
reader outside the engine asks (``CrawlEngine.sync``).  It keeps the
last distillation's scores and writes them to HUBS and AUTH at a sync
only: a ``checkpoint_every`` boundary, the end, or such a reader.  Where
a row of any of the four tables lands on its heap page follows from
those points, so it must not depend on how the crawl is driven:

* ``run(budget)``, one round per ``step`` and twelve rounds per ``step``;
* a memory store and a durable one with the same ``checkpoint_every``
  (whose checkpointer saves, and so syncs, at exactly those boundaries);
* a crawl killed mid-way and resumed from its last checkpoint, and the
  crawl that never died.

Each case draws its crawl shape — budget, distillation and checkpoint
cadence, failure stream, kill point — from a seeded generator; these are
invariants, not recorded digests.  A last test pins the K=1 write counts:
a return to one flush per round, or to a score write per distillation,
fails here, not only on the benchmark.
"""

import dataclasses
import random
from hashlib import blake2b

import pytest

from repro.core.config import FocusConfig, JobSpec
from repro.core.system import FocusSystem
from repro.crawler.focused import CrawlerConfig
from repro.webgraph.fetch import Fetcher

GOOD = "recreation/cycling"

#: Generator seeds per round size; widen for a longer soak.
SEEDS = (0, 1, 2)


class KillSwitch(Exception):
    """Stands in for SIGKILL: aborts the crawl at an arbitrary fetch."""


@pytest.fixture(scope="module")
def system(small_web):
    config = FocusConfig(good_topics=(GOOD,), examples_per_leaf=12, seed_count=8)
    focus = FocusSystem.from_web(small_web, [GOOD], config)
    focus.train()
    return focus


def draw_case(k: int, seed: int):
    """(crawler config, fetch failure seed, kill point) for one generated case."""
    rng = random.Random(1000 * k + seed)
    max_pages = rng.randrange(150, 301)
    config = CrawlerConfig(
        max_pages=max_pages,
        distill_every=rng.choice([0, rng.randrange(12, 45)]),
        checkpoint_every=rng.randrange(9, 40),
        engine="serial" if k == 1 else "batched",
        batch_size=k,
    )
    return config, rng.randrange(8), rng.randrange(10, max_pages)


def placement(database) -> dict:
    """The four tables as ``(page_no, slot, key columns)`` in heap order, digested."""
    digests = {}
    for name, key_width in (("CRAWL", 1), ("LINK", 3), ("HUBS", 1), ("AUTH", 1)):
        table = database.table(name)
        state = blake2b(digest_size=8)
        for rid, row in table.scan():
            state.update(repr((*table.heap.locate(rid), *row[:key_width])).encode())
        digests[name] = (state.hexdigest(), table.page_count, len(table))
    return digests


def start(system, config, failure_seed, checkpoint_dir=None):
    return system.start(
        JobSpec(crawler=config, fetch_failure_seed=failure_seed, checkpoint_dir=checkpoint_dir)
    )


def stepped(handle, rounds):
    while not handle.done:
        handle.step(rounds)
    return handle


def facts(handle):
    trace = handle.trace
    placed = placement(handle.database)
    handle.close()
    return trace.fetched_urls, trace.relevance_series(), placed


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [1, 8])
def test_row_placement_does_not_depend_on_how_the_crawl_is_driven(
    system, tmp_path, monkeypatch, k, seed
):
    config, failure_seed, kill_after = draw_case(k, seed)

    def fresh():
        return start(system, dataclasses.replace(config), failure_seed)

    single = fresh()
    single.run()
    reference = facts(single)
    assert reference[0], "the generated crawl fetched nothing"

    assert facts(stepped(fresh(), 1)) == reference, "step(1) x N"
    assert facts(stepped(fresh(), 12)) == reference, "step(12) x N"

    durable = start(system, dataclasses.replace(config), failure_seed, str(tmp_path / "durable"))
    durable.run()
    assert durable.manager.checkpoints_saved > 2
    assert facts(durable) == reference, "durable store"

    real_fetch = Fetcher.fetch
    calls = {"n": 0}

    def killing(self, url):
        calls["n"] += 1
        if calls["n"] > kill_after:
            raise KillSwitch
        return real_fetch(self, url)

    monkeypatch.setattr(Fetcher, "fetch", killing)
    killed = start(system, dataclasses.replace(config), failure_seed, str(tmp_path / "killed"))
    with pytest.raises(KillSwitch):
        killed.run()
    killed.close()
    monkeypatch.setattr(Fetcher, "fetch", real_fetch)
    resumed = system.resume(str(tmp_path / "killed"))
    resumed.run()
    assert facts(resumed) == reference, f"killed after {kill_after} fetches and resumed"


def test_a_k1_crawl_writes_crawl_rows_once_per_flush_point_not_once_per_round(system):
    distill_every, checkpoint_every = 40, 70
    config = CrawlerConfig(
        max_pages=150, distill_every=distill_every, checkpoint_every=checkpoint_every,
        engine="serial",
    )
    handle = start(system, config, failure_seed=3)
    crawl = handle.database.table("CRAWL")
    inserts, updates = [], []
    insert_many, update_rows = crawl.insert_many, crawl.update_rows

    def counted_insert(rows):
        inserts.append(len(rows))
        return insert_many(rows)

    def counted_update(changes):
        updates.append(len(changes))
        return update_rows(changes)

    crawl.insert_many, crawl.update_rows = counted_insert, counted_update
    rounds = {"n": 0}
    checkout = handle.crawler.engine._checkout

    def counted_checkout(budget):
        rounds["n"] += 1
        return checkout(budget)

    handle.crawler.engine._checkout = counted_checkout
    store = handle.crawler.engine._score_store
    store_dense, score_writes = store.store_dense, []

    def counted_store(name, oids, scores):
        score_writes.append((name, handle.trace.pages_fetched))
        return store_dense(name, oids, scores)

    store.store_dense = counted_store
    handle.run()
    pages = handle.trace.pages_fetched
    assert pages == 150 and not handle.trace.stagnated
    # Flush points: every distillation, every checkpoint boundary, the end
    # (here none of them coincide).
    points = {*range(distill_every, pages + 1, distill_every)}
    points |= {*range(checkpoint_every, pages + 1, checkpoint_every)}
    points.add(pages)
    assert len(points) == handle.trace.distillations + pages // checkpoint_every + 1 == 6
    assert len(inserts) == len(points)
    assert len(updates) <= len(points)
    assert rounds["n"] >= pages
    # Scores are written at the syncs that follow a distillation: the
    # boundary at 70 (after 40) and at 140 (after 80 and 120); not at 150.
    assert score_writes == [("HUBS", 70), ("AUTH", 70), ("HUBS", 140), ("AUTH", 140)]
    handle.close()
