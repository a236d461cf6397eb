"""When a crawl writes its rows: a function of progress alone.

The engine buffers CRAWL, LINK and FAILED writes in memory and writes
them at its syncs only (``CrawlEngine.sync``): at seeding, at each
``checkpoint_every`` boundary, when the crawl is over, and when a reader
outside the engine asks.  A distillation writes nothing.  The last
distillation's scores go to HUBS and AUTH at those syncs too.  Where
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
counts: a return to a write per round or per distillation, or to a
``link_dst`` read inside a memory crawl, fails here, not only on the
benchmark.
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


def test_a_k1_crawl_writes_its_tables_once_per_sync_and_never_at_a_distillation(
    system, monkeypatch
):
    distill_every, checkpoint_every = 40, 70
    config = CrawlerConfig(
        max_pages=150, distill_every=distill_every, checkpoint_every=checkpoint_every,
        batch_size=1,
    )
    handle = start(system, config, failure_seed=3)
    engine = handle.crawler.engine
    # (table, method, pages fetched, inside a sync) of every CRAWL, LINK and
    # FAILED write; a write method one of them calls is not counted again.
    writes, in_sync, in_write = [], [], []
    for name in ("CRAWL", "LINK", "FAILED"):
        table = handle.database.table(name)
        for method in ("insert_many", "update_rows", "update_column"):
            def counted(*args, _name=name, _method=method, _write=getattr(table, method)):
                if not in_write:
                    writes.append((_name, _method, handle.trace.pages_fetched, bool(in_sync)))
                in_write.append(True)
                try:
                    return _write(*args)
                finally:
                    in_write.pop()

            setattr(table, method, counted)
    sync, syncs = engine.sync, []

    def watched_sync():
        in_sync.append(True)
        try:
            sync()
        finally:
            in_sync.pop()
        syncs.append(handle.trace.pages_fetched)

    engine.sync = watched_sync
    rounds = {"n": 0}
    checkout = engine._checkout

    def counted_checkout(budget):
        rounds["n"] += 1
        return checkout(budget)

    engine._checkout = counted_checkout
    write_scores, score_writes = engine_module.write_scores, []

    def counted_write(table, oids, scores):
        score_writes.append((table.name, handle.trace.pages_fetched))
        return write_scores(table, oids, scores)

    monkeypatch.setattr(engine_module, "write_scores", counted_write)
    handle.run()
    pages = handle.trace.pages_fetched
    assert pages == 150 and not handle.trace.stagnated
    assert rounds["n"] >= pages and handle.trace.distillations == 3
    # The syncs: every checkpoint boundary and the end (the engine's, then
    # the handle's, which finds nothing left to write); none at a distillation.
    assert syncs == [70, 140, 150, 150]
    assert all(inside for *_, inside in writes)
    for name in ("CRAWL", "LINK"):
        inserts = [at for table, method, at, _ in writes if table == name and "insert" in method]
        assert inserts == [70, 140, 150], name
    # The written CRAWL rows that changed since seeding's sync, and since
    # each sync after it: one update_rows per sync, never one per row.
    updates = [at for table, method, at, _ in writes if table == "CRAWL" and "update" in method]
    assert updates == [70, 140, 150]
    failed = [at for table, method, at, _ in writes if table == "FAILED"]
    assert failed and set(failed) <= set(syncs) and len(set(failed)) == len(failed)
    # The wgt_fwd refresh of rows an earlier sync wrote: none at the first.
    refreshes = [at for table, method, at, _ in writes if table == "LINK" and "update" in method]
    assert refreshes == [140, 150]
    # Scores are written at the syncs that follow a distillation: the
    # boundary at 70 (after 40) and at 140 (after 80 and 120); not at 150.
    assert score_writes == [("HUBS", 70), ("AUTH", 70), ("HUBS", 140), ("AUTH", 140)]
    handle.close()


def test_a_memory_crawl_reads_no_link_dst(system, monkeypatch):
    """``wgt_fwd`` is settled as the rows are inserted, and only rows an
    earlier sync wrote are refreshed through ``link_dst``: a memory crawl
    writes LINK once, at its end, so it never probes that index."""
    config = CrawlerConfig(max_pages=300, distill_every=40, batch_size=32)
    handle = start(system, config, failure_seed=3)
    link_dst = handle.database.table("LINK").indexes["link_dst"]
    distil, probes = CrawlEngine.run_distillation, []

    def counted(engine):
        result = distil(engine)
        probes.append(link_dst.probe_count)
        return result

    monkeypatch.setattr(CrawlEngine, "run_distillation", counted)
    handle.run()
    assert handle.trace.distillations == len(probes) >= 3
    assert probes == [0] * len(probes) and link_dst.probe_count == 0
    assert len(handle.database.table("LINK")) > 0
    handle.close()


def test_crawl_holds_no_row_before_the_first_flush(system, monkeypatch):
    """Every CRAWL, LINK and FAILED write waits in the engine's buffers:
    the tables are empty until the crawl's first sync (seeding's), and
    unchanged from one sync to the next, distillations included."""
    sync, seen = CrawlEngine.sync, []

    def tables(engine):
        return [list(engine.database.table(name).rows()) for name in ("CRAWL", "LINK", "FAILED")]

    def watched(engine):
        seen.append(tables(engine))
        sync(engine)
        seen.append(tables(engine))

    monkeypatch.setattr(CrawlEngine, "sync", watched)
    config = CrawlerConfig(
        max_pages=120, distill_every=30, checkpoint_every=45, engine="batched", batch_size=8
    )
    handle = start(system, config, failure_seed=3)
    assert seen[0] == [[], [], []] and len(seen[1][0]) == len(handle.spec.seeds)
    handle.run()
    # Syncs at seeding, two checkpoint boundaries and the end (the
    # engine's and the handle's); three distillations between them.
    assert handle.trace.distillations == 3 and len(seen) == 2 * 5
    for synced, next_seen in zip(seen[1::2], seen[2::2]):
        assert next_seen == synced
    assert all(seen[-1]) and len(seen[-1][0]) == len(handle.crawler.frontier.known_urls())
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
