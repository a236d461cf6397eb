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
invariants, not recorded digests.

What a sync leaves in HUBS and AUTH is checked too: after every sync of
a K=1, a K=8 and a killed-and-resumed crawl, each table holds exactly the
last distillation's non-zero scores, one row per oid, and the union of
the shard tables of a sharded crawl holds the coordinator's last result.
A resume reads each score table once.  A last test pins the K=1 write
counts: a return to one flush per round, or to a score write per
distillation, fails here, not only on the benchmark.
"""

import dataclasses
import random
from collections import Counter
from hashlib import blake2b

import pytest

import repro.crawler.engine as engine_module
from repro.core.config import FocusConfig, JobSpec
from repro.core.schema import create_focus_database
from repro.core.system import FocusSystem
from repro.crawler.engine import CrawlEngine
from repro.crawler.focused import CrawlerConfig
from repro.crawler.frontier import Frontier
from repro.crawler.sharded import build_sharded_crawler
from repro.minidb.table import Table
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


def kill_fetches_after(monkeypatch, attempts):
    """Raise :class:`KillSwitch` out of every fetch after the first *attempts*."""
    real_fetch = Fetcher.fetch
    calls = {"n": 0}

    def killing(self, url):
        calls["n"] += 1
        if calls["n"] > attempts:
            raise KillSwitch
        return real_fetch(self, url)

    monkeypatch.setattr(Fetcher, "fetch", killing)


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
    kill_fetches_after(monkeypatch, kill_after)
    killed = start(system, dataclasses.replace(config), failure_seed, str(tmp_path / "killed"))
    with pytest.raises(KillSwitch):
        killed.run()
    killed.close()
    monkeypatch.setattr(Fetcher, "fetch", real_fetch)
    resumed = system.resume(str(tmp_path / "killed"))
    resumed.run()
    assert facts(resumed) == reference, f"killed after {kill_after} fetches and resumed"


def test_a_k1_crawl_writes_crawl_rows_once_per_flush_point_not_once_per_round(
    system, monkeypatch
):
    distill_every, checkpoint_every = 40, 70
    config = CrawlerConfig(
        max_pages=150, distill_every=distill_every, checkpoint_every=checkpoint_every,
        batch_size=1,
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
    write_scores, score_writes = engine_module.write_scores, []

    def counted_write(table, oids, scores):
        score_writes.append((table.name, handle.trace.pages_fetched))
        return write_scores(table, oids, scores)

    monkeypatch.setattr(engine_module, "write_scores", counted_write)
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


def test_crawl_holds_no_row_before_the_first_flush(system, monkeypatch):
    """Every CRAWL write waits in the frontier's buffer: the table is empty
    until the crawl's first flush (seeding's), and unchanged from one
    flush to the next."""
    flush, seen = CrawlEngine._flush, []

    def watched(engine):
        crawl = engine.database.table("CRAWL")
        seen.append(list(crawl.rows()))
        flush(engine)
        seen.append(list(crawl.rows()))

    monkeypatch.setattr(CrawlEngine, "_flush", watched)
    config = CrawlerConfig(
        max_pages=120, distill_every=30, checkpoint_every=45, engine="batched", batch_size=8
    )
    handle = start(system, config, failure_seed=3)
    assert seen[0] == [] and len(seen[1]) == len(handle.spec.seeds)
    handle.run()
    assert handle.trace.distillations >= 3 and len(seen) >= 2 * 7
    for flushed, next_seen in zip(seen[1::2], seen[2::2]):
        assert next_seen == flushed
    assert len(seen[-1]) == len(handle.crawler.frontier.known_urls())
    handle.close()


def test_a_standalone_frontier_writes_nothing_until_flush_batch():
    """Adds, checkouts, visits, failures and boosts change the entries at
    once and CRAWL only at ``flush_batch``, which writes each entry's
    last state; later changes wait for the next flush."""
    database = create_focus_database(buffer_pool_pages=64)
    crawl = database.table("CRAWL")
    frontier = Frontier(database)

    def table_state():
        return sorted((row[1], row[3], row[4], row[6], row[8]) for row in crawl.rows())

    def entry_state():
        return sorted(
            (entry.url, entry.relevance, entry.numtries, entry.lastvisited,
             "frontier" if entry.status == "in_flight" else entry.status)
            for entry in map(frontier.entry, frontier.known_urls())
        )

    for n in range(4):
        frontier.add_seed(f"http://s{n}.example/")
    first, second = frontier.pop_batch(2)
    frontier.record_visit(first, relevance=0.8, tick=1, kcid=5)
    frontier.record_failure(second, max_retries=2)
    frontier.add_url("http://t.example/a", relevance=0.3)
    frontier.boost("http://t.example/a", relevance=0.6)
    assert len(crawl) == 0
    frontier.flush_batch()
    assert table_state() == entry_state() and len(crawl) == 5
    [third] = frontier.pop_batch(1)
    frontier.record_visit(third, relevance=0.4, tick=2)
    frontier.boost("http://t.example/a", relevance=0.9)
    flushed = table_state()
    assert flushed != entry_state()
    frontier.flush_batch()
    assert table_state() == entry_state()


def assert_scores_equal(table, scores):
    """*table* holds exactly ``scores.items()``: one row per oid, in the order given."""
    rows = list(table.rows())
    assert len({oid for oid, _score in rows}) == len(rows), f"{table.name}: an oid twice"
    assert len(rows) == len(scores), table.name
    assert rows == list(scores.items()), table.name


def check_every_sync(monkeypatch):
    """After every sync, HUBS and AUTH hold the last distillation; returns the checks run."""
    sync, checks = CrawlEngine.sync, []

    def checked_sync(engine):
        sync(engine)
        last = engine.trace.last_distillation
        tables = engine.database.table("HUBS"), engine.database.table("AUTH")
        if last is None:
            assert not any(map(len, tables))
        else:
            assert_scores_equal(tables[0], last.hub_scores)
            assert_scores_equal(tables[1], last.authority_scores)
        checks.append(last is not None)

    monkeypatch.setattr(CrawlEngine, "sync", checked_sync)
    return checks


@pytest.mark.parametrize("k", [1, 8])
def test_after_every_sync_hubs_and_auth_hold_the_last_distillation(
    system, tmp_path, monkeypatch, k
):
    config = CrawlerConfig(
        max_pages=200, distill_every=30, checkpoint_every=45,
        batch_size=k,
    )
    checks = check_every_sync(monkeypatch)
    single = start(system, dataclasses.replace(config), failure_seed=3)
    single.run()
    single.close()
    assert sum(checks) >= 4, checks

    # Killed mid-crawl and resumed: the resumed crawl's syncs are checked
    # against the distillation it read back, then against the ones it runs.
    real_fetch = Fetcher.fetch
    kill_fetches_after(monkeypatch, 150)
    killed = start(system, dataclasses.replace(config), 3, str(tmp_path / "killed"))
    with pytest.raises(KillSwitch):
        killed.run()
    killed.close()
    monkeypatch.setattr(Fetcher, "fetch", real_fetch)
    checks.clear()
    resumed = system.resume(str(tmp_path / "killed"))
    resumed.run()
    assert resumed.trace.pages_fetched == 200
    assert sum(checks) >= 2, checks
    resumed.close()


def test_a_resume_reads_hubs_and_auth_once(system, tmp_path, monkeypatch):
    """From ``resume()`` through its first sync, each score table is scanned once.

    The resume rebuilds the last distillation from HUBS and AUTH; the
    crawl then distils again before its next checkpoint boundary, whose
    sync rewrites both tables without reading them.
    """
    config = CrawlerConfig(
        max_pages=150, distill_every=30, checkpoint_every=40, engine="batched", batch_size=8
    )
    real_fetch = Fetcher.fetch
    kill_fetches_after(monkeypatch, 95)
    killed = start(system, config, 3, str(tmp_path / "killed"))
    with pytest.raises(KillSwitch):
        killed.run()
    killed.close()
    monkeypatch.setattr(Fetcher, "fetch", real_fetch)

    scans, first_sync = Counter(), []
    for method in ("scan", "rows"):
        def counted(table, read=getattr(Table, method)):
            scans[table.name] += 1
            return read(table)

        monkeypatch.setattr(Table, method, counted)
    sync, write_scores = CrawlEngine.sync, engine_module.write_scores
    written = []

    def first_sync_reads(engine):
        sync(engine)
        if not first_sync:
            first_sync.append((scans["HUBS"], scans["AUTH"], list(written)))

    def recorded_write(table, oids, scores):
        written.append(table.name)
        return write_scores(table, oids, scores)

    monkeypatch.setattr(CrawlEngine, "sync", first_sync_reads)
    monkeypatch.setattr(engine_module, "write_scores", recorded_write)
    resumed = system.resume(str(tmp_path / "killed"))
    assert resumed.trace.distillations and resumed.trace.last_distillation.hub_scores
    resumed.run()
    # The first sync after the resume wrote the scores of a fresh distillation.
    assert first_sync == [(1, 1, ["HUBS", "AUTH"])]
    resumed.close()


def test_the_shard_score_tables_together_hold_the_last_distillation(
    small_web, trained_model, taxonomy
):
    config = CrawlerConfig(
        max_pages=120, distill_every=25, engine="sharded", shards=2, shard_runner="inprocess",
        batch_size=8,
    )
    crawler = build_sharded_crawler(
        small_web, trained_model, taxonomy, config, fetch_failure_seed=0
    )
    crawler.add_seeds(small_web.keyword_seed_pages(GOOD, count=8))
    try:
        trace = crawler.engine.run(config.max_pages)
        last = trace.last_distillation
        assert trace.distillations >= 3 and last.hub_scores
        for name, scores in (("HUBS", last.hub_scores), ("AUTH", last.authority_scores)):
            rows = [
                row for worker in crawler.engine.runner.workers
                for row in worker.database.table(name).rows()
            ]
            assert len({oid for oid, _score in rows}) == len(rows) == len(scores), name
            assert dict(rows) == scores, name
    finally:
        crawler.shutdown()
