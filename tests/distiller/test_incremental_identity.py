"""One distill stage, bit for bit: the incremental feed against a full scan.

Every in-process crawl distils through ``IncrementalDistiller``, whose
graph is fed the rows each LINK flush inserts and whose HITS reads the
edge weights from the relevance map, and stays in arrays from the LINK
append to the HUBS/AUTH write.  The feed this replaced — materialise the
whole LINK table, score it from scratch with the stored weights, walk a
score dict into the table — lives on here as the oracle:

(a) at every distillation of a K=1 crawl, the stored HUBS/AUTH rows
    and ``trace.last_distillation`` equal a recompute over a full LINK
    scan, and the reference ``weighted_hits`` edge walk to 1e-9;
(b) a ``CompiledLinkGraph`` grown by interleaved ``add_columns`` /
    ``arrays()`` equals ``compile_links`` of the final edge list — the
    graph built edge by edge — across several capacity doublings;
(c) ``Table.update_column``'s column write equals ``update_rows`` and,
    handed a bad value or record id mid-batch, changes nothing — in
    memory, in the journal, or in what a reopened durable store holds;
(d) a K=1 crawl killed and resumed is the uninterrupted crawl;
(e) the weight rule the kernel rests on holds on every LINK row at every
    flush point of drawn crawls (K, focus mode, failure seed, distillation
    interval), across a kill and resume, and on each shard's LINK of a
    sharded crawl; and at every distillation the crawl's graph is
    ``compile_links`` of a full LINK scan, and the graph a distiller
    built from the table at that moment;
(f) ``write_scores`` handed a graph's node list and dense scores issues
    the mutations of a truncate plus a score-dict insert: same rows, same
    record ids, same journal records.
"""

import os
import pickle
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.classifier.training import ModelInstaller
from repro.core.config import FocusConfig, JobSpec
from repro.core.schema import create_focus_database
from repro.core.system import FocusSystem
from repro.crawler.engine import CrawlEngine, CrawlerConfig, write_scores
from repro.crawler.focused import FocusedCrawler
from repro.distiller.compiled import CompiledLinkGraph, compile_links, compiled_weighted_hits
from repro.distiller.db_distiller import IncrementalDistiller
from repro.distiller.hits import DistillationResult, weighted_hits
from repro.distiller.weights import Link
from repro.minidb import FLOAT, INTEGER, TEXT, Database, make_schema
from repro.minidb.errors import SchemaError, StorageError
from repro.minidb.pages import rid_fields, rid_of
from repro.webgraph.fetch import Fetcher

GOOD = "recreation/cycling"


# -- the deleted feed, kept as the oracle ---------------------------------------------
def full_scan_links(database):
    """Materialise the whole LINK table, the way distillation used to."""
    table = database.table("LINK")
    schema = table.schema
    links = []
    for row in table.rows():
        mapping = schema.row_to_mapping(row)
        links.append(
            Link(
                oid_src=mapping["oid_src"],
                sid_src=mapping["sid_src"],
                oid_dst=mapping["oid_dst"],
                sid_dst=mapping["sid_dst"],
                wgt_fwd=mapping["wgt_fwd"],
                wgt_rev=mapping["wgt_rev"],
            )
        )
    return links


def from_scratch(database, relevance, config, hits=compiled_weighted_hits):
    """HITS over a full LINK scan: the crawl's kernel, or ``hits=weighted_hits``."""
    links = full_scan_links(database)
    return hits(
        links if hits is weighted_hits else compile_links(links),
        relevance=dict(relevance),
        rho=config.rho,
        max_iterations=config.distill_iterations,
    )


def score_rows(database, name):
    return {row[0]: row[1] for row in database.table(name).rows()}


def assert_same_result(result, oracle):
    # Item lists, not dicts: key order is part of the contract (it is the
    # order a sync writes HUBS and AUTH rows in and the tie-break of top_hubs).
    assert list(result.hub_scores.items()) == list(oracle.hub_scores.items())
    assert list(result.authority_scores.items()) == list(oracle.authority_scores.items())
    assert result.iterations == oracle.iterations
    for k in (1, 10, 10_000):
        assert result.top_hubs(k) == oracle.top_hubs(k)
        assert result.top_authorities(k) == oracle.top_authorities(k)


# -- (a) every distillation of a K=1 crawl --------------------------------------------
@pytest.fixture(scope="module")
def crawl_seeds(small_web):
    return small_web.keyword_seed_pages(GOOD, count=8)


class TestSerialCrawlDistillsLikeAFullScan:
    def test_every_distillation_equals_a_from_scratch_recompute(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        database = create_focus_database(buffer_pool_pages=512)
        ModelInstaller(database).install(trained_model)
        small_web.servers.reseed(0)
        config = CrawlerConfig(max_pages=150, distill_every=25, engine="serial")
        crawler = FocusedCrawler(
            Fetcher(small_web, failure_seed=0), trained_model, taxonomy, database, config
        )
        crawler.add_seeds(crawl_seeds)
        engine = crawler.engine
        checked = []
        incremental = engine.run_distillation

        def distil_and_compare():
            # The oracle first, over the tables the distiller reads (its
            # run starts with this flush): the boost that follows a
            # distillation does not touch LINK or the relevance map, but
            # keep the order honest.
            engine.sync()
            oracle = from_scratch(database, engine.relevance_map(), config)
            reference = from_scratch(database, engine.relevance_map(), config, weighted_hits)
            result = incremental()
            assert_same_result(result, oracle)
            assert set(result.hub_scores) == set(reference.hub_scores)
            assert set(result.authority_scores) == set(reference.authority_scores)
            for oid, score in reference.hub_scores.items():
                assert result.hub_scores[oid] == pytest.approx(score, abs=1e-9)
            for oid, score in reference.authority_scores.items():
                assert result.authority_scores[oid] == pytest.approx(score, abs=1e-9)
            assert crawler.trace.last_distillation is result
            # HUBS and AUTH are written at a sync, as for any outside reader.
            engine.sync()
            assert score_rows(database, "HUBS") == oracle.hub_scores
            assert score_rows(database, "AUTH") == oracle.authority_scores
            checked.append(len(oracle.hub_scores))
            return result

        engine.run_distillation = distil_and_compare
        trace = crawler.crawl()
        assert trace.distillations == len(checked) >= 5
        assert checked[-1] > checked[0] > 0  # the graph grew between runs

    def test_numpy_result_is_array_backed_and_pickles(self):
        links = [Link(1, 10, 2, 20, 0.9, 0.8), Link(3, 30, 2, 20, 0.7, 0.6), Link(2, 20, 4, 40)]
        relevance = {1: 0.9, 2: 0.8, 3: 0.7, 4: 0.6}
        result = compiled_weighted_hits(compile_links(links), relevance)
        assert result.dense is not None
        assert "hub_scores" not in vars(result)  # not built until read
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert list(clone.hub_scores.items()) == list(result.hub_scores.items())

    def test_dense_ranking_breaks_ties_like_the_dict_sort(self):
        oids = [50, 40, 30, 20, 10, 60]
        hubs = np.array([0.2, 0.0, 0.2, 0.4, 0.2, 0.0])
        auth = np.array([0.0, 0.5, 0.0, 0.5, 0.0, 0.0])
        dense = DistillationResult.from_dense(oids, hubs, auth, 3)
        plain = DistillationResult(
            {50: 0.2, 30: 0.2, 20: 0.4, 10: 0.2}, {40: 0.5, 20: 0.5}, iterations=3
        )
        assert dense == plain
        for k in range(6):
            assert dense.top_hubs(k) == plain.top_hubs(k)
            assert dense.top_authorities(k) == plain.top_authorities(k)
        assert dense.hub_threshold(0.9) == plain.hub_threshold(0.9)


def assert_same_arrays(graph, oracle):
    assert len(graph) == len(oracle)
    for column, oracle_column in zip(graph.arrays()[:2], oracle.arrays()[:2]):
        np.testing.assert_array_equal(column, oracle_column)
    assert graph.arrays()[2] == oracle.arrays()[2]
    np.testing.assert_array_equal(graph.uniform_hubs(), oracle.uniform_hubs())


# -- (b) the growable compiled graph --------------------------------------------------
def random_row(rng, nodes):
    src, dst = rng.randrange(nodes), rng.randrange(nodes)
    # A fifth of the edges are nepotistic (same server): never compiled.
    sid_dst = src % 7 if rng.random() < 0.2 else 100 + dst % 7
    return (src, src % 7, dst, sid_dst)


class TestGrowableCompiledGraph:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_appends_equal_a_one_shot_compile(self, seed):
        rng = random.Random(seed)
        graph = CompiledLinkGraph()
        capacity = len(graph.arrays()[0].base)
        rows = []
        folded = 0
        relevance = {}
        doublings = 0

        def fold():
            nonlocal folded
            fresh = rows[folded:]
            if fresh:
                graph.add_columns(*zip(*fresh))
                folded = len(rows)

        # 3000 edges over 1500 nodes, folded in batches of 1 to ~60 rows:
        # edge buffers double 256 -> 4096 and node buffers 256 -> 2048 on
        # the way, some of them in the middle of a batch.
        for step in range(3000):
            if rng.random() < 0.95 or not rows:
                rows.append(random_row(rng, 1500))
                if rng.random() < 0.05:
                    fold()
            else:
                # The crawl's map: only ever gains keys between runs.
                for _ in range(rng.randrange(1, 30)):
                    relevance.setdefault(rng.randrange(1500), rng.random())
                fold()
                self.assert_equals_one_shot(graph, rows, relevance)
            if len(graph.arrays()[0].base) != capacity:
                capacity = len(graph.arrays()[0].base)
                doublings += 1
        assert doublings >= 3
        fold()
        # Nepotistic rows got no edge.
        assert len(graph) == sum(row[1] != row[3] for row in rows) < len(rows)
        self.assert_equals_one_shot(graph, rows, relevance)
        # A different map (and a shrunken one) is gathered afresh.
        self.assert_equals_one_shot(graph, rows, {oid: 0.5 for oid in range(0, 1500, 2)})
        relevance.pop(next(iter(relevance)))
        self.assert_equals_one_shot(graph, rows, relevance)

    @staticmethod
    def assert_equals_one_shot(graph, rows, relevance):
        oracle_graph = compile_links(Link(*row) for row in rows)  # edge by edge
        assert_same_arrays(graph, oracle_graph)
        # The same dict object each time: exercises the incremental gather.
        result = compiled_weighted_hits(graph, relevance)
        oracle = compiled_weighted_hits(oracle_graph, dict(relevance))
        if len(graph):
            np.testing.assert_array_equal(result.dense[1], oracle.dense[1])
            np.testing.assert_array_equal(result.dense[2], oracle.dense[2])
        assert_same_result(result, oracle)

    def test_views_handed_out_survive_growth(self):
        graph = CompiledLinkGraph()
        graph.add_columns([1], [1], [2], [2])
        src, dst, _oids = graph.arrays()
        more = [(index, 1, index + 1, 2) for index in range(1, 600)]
        graph.add_columns(*zip(*more))
        assert len(src) == 1 and (src[0], dst[0]) == (0, 1)  # a snapshot of its moment
        assert len(graph.arrays()[0]) == 600

    def test_an_all_nepotistic_batch_adds_nothing(self):
        graph = CompiledLinkGraph()
        graph.add_columns([1, 2], [7, 8], [3, 4], [7, 8])
        assert len(graph) == 0 and graph.arrays()[2] == []


# -- (c) update_column's column write -------------------------------------------------
def fill(database):
    table = database.create_table(
        "T", make_schema(("k", INTEGER, False), ("v", FLOAT), ("note", TEXT), primary_key=["k"])
    )
    rids = table.insert_many([(k, float(k), f"row{k}") for k in range(90)])
    assert table.page_count >= 4
    return table, rids


def paged_table():
    """A table of 90 rows over several 512-byte pages, with a journal."""
    table, rids = fill(Database(buffer_pool_pages=4, page_size=512))
    journal = []
    table.set_journal(journal.append)
    return table, rids, journal


BAD_UPDATES = [
    (lambda rids: (rids[40], "not a float"), SchemaError),
    (lambda rids: (rid_of(rid_fields(rids[0])[0], 999, 0), 1.0), StorageError),
    (lambda rids: (rid_of(*rid_fields(rids[40])[:2], 999), 1.0), StorageError),
]


class TestColumnWriteUpdateColumn:
    @pytest.mark.parametrize("order", ["ascending", "shuffled", "page-hopping"])
    def test_equals_update_rows(self, order):
        fast, rids, fast_journal = paged_table()
        slow, slow_rids, slow_journal = paged_table()
        assert rids == slow_rids
        picks = list(range(0, 90, 2))
        if order == "shuffled":
            random.Random(5).shuffle(picks)
        elif order == "page-hopping":  # slot-major: consecutive rows on different pages
            picks = sorted(picks, key=lambda k: rid_fields(rids[k])[:0:-1])
        # Fresh, equal-but-not-identical ids, as a WAL replay hands out.
        updates = [(rid_of(*rid_fields(rids[k])), k / 7) for k in picks]
        assert fast.update_column("v", updates) == len(picks)
        assert slow.update_rows([(rid, {"v": value}) for rid, value in updates]) == len(picks)
        assert list(fast.scan()) == list(slow.scan())
        assert [page.used_bytes for page in fast.heap.scan_pages()] == [
            page.used_bytes for page in slow.heap.scan_pages()
        ]
        # One column-shaped record against a change dict per row.
        (record,) = fast_journal
        assert record == (
            "update_column",
            "T",
            "v",
            [rid_fields(rid)[1] for rid, _value in updates],
            [rid_fields(rid)[2] for rid, _value in updates],
            [value for _rid, value in updates],
        )
        (row_shaped,) = slow_journal
        assert row_shaped[0] == "update" and len(row_shaped[2]) == len(picks)

    def test_a_row_named_twice_keeps_its_later_value(self):
        table, rids, _journal = paged_table()
        before = [page.used_bytes for page in table.heap.scan_pages()]
        table.update_column("v", [(rids[3], None), (rids[4], 1.5), (rids[3], 2.5), (rids[4], None)])
        assert table.read(rids[3])[1] == 2.5 and table.read(rids[4])[1] is None
        after = [page.used_bytes for page in table.heap.scan_pages()]
        assert sum(before) - sum(after) == 7  # one FLOAT became a NULL

    @pytest.mark.parametrize("bad_update, error", BAD_UPDATES)
    def test_a_bad_update_mid_batch_changes_nothing(self, bad_update, error):
        table, rids, journal = paged_table()
        before = list(table.scan())
        used = [page.used_bytes for page in table.heap.scan_pages()]
        updates = [(rids[k], -1.0 - k) for k in range(30, 50)]
        updates[10] = bad_update(rids)
        with pytest.raises(error):
            table.update_column("v", updates)
        with pytest.raises(error):
            table.update_rows([(rid, {"v": value}) for rid, value in updates])
        with pytest.raises(SchemaError):
            table.insert_many([(100, 1.0, "ok"), (101, "not a float", "bad"), (102, 2.0, "ok")])
        # A batch that raised wrote nothing and journals nothing.
        assert list(table.scan()) == before
        assert [page.used_bytes for page in table.heap.scan_pages()] == used
        assert journal == []

    @pytest.mark.parametrize("bad_update, error", BAD_UPDATES)
    def test_a_raising_batch_leaves_memory_and_log_agreeing(self, bad_update, error, tmp_path):
        """Durable variant: raise mid-batch, abandon the handle, reopen."""
        database = Database.open(str(tmp_path / "db"), buffer_pool_pages=4, page_size=512)
        table, rids = fill(database)
        database.checkpoint()
        table.update_column("v", [(rids[k], 100.0 + k) for k in range(0, 90, 3)])  # logged
        updates = [(rids[k], -1.0 - k) for k in range(30, 50)]
        updates[10] = bad_update(rids)
        with pytest.raises(error):
            table.update_column("v", updates)
        in_memory = list(table.scan())
        assert not any(row[1] is not None and row[1] < 0 for _rid, row in in_memory)
        database.sync_wal()
        del database, table  # abandoned, not closed: no flush, no checkpoint
        reopened = Database.open(str(tmp_path / "db"), buffer_pool_pages=4, page_size=512)
        assert list(reopened.table("T").scan()) == in_memory
        reopened.close()


# -- (d) kill and resume a K=1 crawl --------------------------------------------------
MAX_PAGES = 120
FETCH_FAILURE_SEED = 3


class KillSwitch(Exception):
    """Stands in for SIGKILL: aborts the crawl at an arbitrary fetch."""


def serial_config():
    return CrawlerConfig(
        max_pages=MAX_PAGES,
        distill_every=20,
        checkpoint_every=25,
        engine="serial",
    )


def rows_with_rids(database, name):
    table = database.table(name)
    return [(table.heap.locate(rid), row) for rid, row in table.scan()]


def crawl_facts(result):
    database = result.database
    last = result.trace.last_distillation
    return {
        "urls": list(result.trace.fetched_urls),
        "relevance": [repr(value) for value in result.trace.relevance_series()],
        "failed": list(result.trace.failed_urls),
        "distillations": result.trace.distillations,
        "tables": {name: rows_with_rids(database, name) for name in ("CRAWL", "LINK", "HUBS", "AUTH")},
        "hubs": list(last.hub_scores.items()),
        "authorities": list(last.authority_scores.items()),
    }


@pytest.fixture(scope="module")
def resume_system(small_web):
    config = FocusConfig(good_topics=(GOOD,), examples_per_leaf=12, seed_count=8)
    system = FocusSystem.from_web(small_web, [GOOD], config)
    system.train()
    return system


@pytest.fixture(scope="module")
def uninterrupted(resume_system):
    result = resume_system.crawl(
        crawler_config=serial_config(), fetch_failure_seed=FETCH_FAILURE_SEED
    )
    assert result.trace.distillations >= 5
    return crawl_facts(result)


def killed_then_resumed(
    system, directory, monkeypatch, kill_after, config=None, failure_seed=FETCH_FAILURE_SEED
):
    real_fetch = Fetcher.fetch
    calls = {"n": 0}

    def killing(self, url):
        calls["n"] += 1
        if calls["n"] > kill_after:
            raise KillSwitch
        return real_fetch(self, url)

    monkeypatch.setattr(Fetcher, "fetch", killing)
    with pytest.raises(KillSwitch):
        system.crawl(
            crawler_config=config or serial_config(),
            fetch_failure_seed=failure_seed,
            checkpoint_dir=str(directory),
        )
    monkeypatch.setattr(Fetcher, "fetch", real_fetch)
    resumed = system.crawl(resume_from=str(directory))
    facts = crawl_facts(resumed)
    resumed.database.close()
    return facts


class TestSerialKillResume:
    # 33: after one distillation and one checkpoint; 71: two checkpoints
    # in, the last one between distillations with weight refreshes pending.
    @pytest.mark.parametrize("kill_after", [33, 71])
    def test_killed_and_resumed_is_the_uninterrupted_crawl(
        self, resume_system, uninterrupted, tmp_path, monkeypatch, kill_after
    ):
        facts = killed_then_resumed(resume_system, tmp_path / "crawl", monkeypatch, kill_after)
        assert facts == uninterrupted


# -- (e) the weight rule the kernel rests on -------------------------------------------
#: Case seeds; ``REPRO_TORTURE_SEEDS=1,2,...`` draws others.
RULE_SEEDS = [
    int(seed) for seed in os.environ.get("REPRO_TORTURE_SEEDS", "0,1,2,3,4,5,6,7").split(",")
]


def assert_weight_rule(database, relevance):
    """Every LINK row, compared with ``==``: ``wgt_rev`` is R of the citing
    page; ``wgt_fwd`` is R of the cited page if it is visited, else R of
    the citing page.  Returns the row count."""
    rows = list(database.table("LINK").rows())
    for oid_src, _sid_src, oid_dst, _sid_dst, wgt_fwd, wgt_rev in rows:
        assert wgt_rev == relevance[oid_src], (oid_src, oid_dst, wgt_rev)
        assert wgt_fwd == relevance.get(oid_dst, relevance[oid_src]), (oid_src, oid_dst, wgt_fwd)
    return len(rows)


def draw_case(seed):
    """A crawl drawn from *seed*: round size, focus mode, failure seed, distillation interval."""
    rng = random.Random(seed)
    k = rng.choice([1, 8])
    config = CrawlerConfig(
        max_pages=MAX_PAGES,
        focus_mode=rng.choice(["soft", "hard", "none"]),
        distill_every=rng.choice([10, 20, 30]),
        checkpoint_every=25,
        engine="serial" if k == 1 else "batched",
        batch_size=k,
    )
    return config, rng.randrange(100), rng.randrange(20, 100)


class TestWeightRule:
    """What lets the crawl's HITS take its edge weights from the relevance
    map: on every edge it scores, they are the floats LINK stores."""

    @pytest.mark.parametrize("seed", RULE_SEEDS)
    def test_every_flush_and_distillation_of_a_drawn_crawl(
        self, resume_system, tmp_path, monkeypatch, seed
    ):
        config, failure_seed, kill_after = draw_case(seed)
        sync, distil = CrawlEngine.sync, CrawlEngine.run_distillation
        flushes = []
        distillations = []

        def checked_sync(engine):
            sync(engine)
            flushes.append(assert_weight_rule(engine.database, engine._relevance))

        def checked_distillation(engine):
            result = distil(engine)
            graph = engine._incremental_distiller().graph
            assert_same_arrays(graph, compile_links(full_scan_links(engine.database)))
            assert_same_arrays(graph, IncrementalDistiller(engine.database).graph)
            distillations.append(len(graph))
            return result

        monkeypatch.setattr(CrawlEngine, "sync", checked_sync)
        monkeypatch.setattr(CrawlEngine, "run_distillation", checked_distillation)
        result = resume_system.crawl(
            crawler_config=replace(config), fetch_failure_seed=failure_seed
        )
        uninterrupted = crawl_facts(result)
        assert flushes[-1] == len(result.database.table("LINK")) > 0
        assert result.trace.distillations == len(distillations) >= 3
        assert distillations[-1] > distillations[0]

        flushes.clear()
        facts = killed_then_resumed(
            resume_system, tmp_path / "crawl", monkeypatch, kill_after,
            config=replace(config), failure_seed=failure_seed,
        )
        assert flushes and facts == uninterrupted

    def test_each_shards_link_in_a_sharded_crawl(self, resume_system):
        config = CrawlerConfig(
            max_pages=MAX_PAGES, distill_every=20, batch_size=8,
            engine="sharded", shards=2, shard_runner="inprocess",
        )
        handle = resume_system.start(JobSpec(max_pages=MAX_PAGES, crawler=config))
        try:
            engine = handle.crawler.engine
            rows = 0
            while not handle.done:
                handle.step(1)
                rows = sum(
                    assert_weight_rule(worker.database, engine._relevance)
                    for worker in engine.runner.workers
                )
            assert rows > 0 and handle.trace.distillations >= 3
        finally:
            handle.close()


# -- (f) the score tables: graph-order write vs dict write ----------------------------
def journalled_score_database():
    database = create_focus_database(buffer_pool_pages=64)
    journal = []
    database.table("HUBS").set_journal(journal.append)
    return database, journal


def dict_store(table, scores):
    """The dict-path oracle: a truncate, then the score dict's items in order."""
    table.truncate()
    table.insert_many(scores.items())


class TestDenseScoreStore:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_dense_path_issues_the_dict_paths_mutations(self, seed):
        rng = random.Random(seed)
        dict_db, dict_journal = journalled_score_database()
        dense_db, dense_journal = journalled_score_database()
        # Rows some earlier writer left behind, two of them for oids the
        # graph never densifies: both paths must delete those.
        leftovers = [(oid, rng.random()) for oid in (3, 5, 9000, 9001)]
        for database in (dict_db, dense_db):
            database.table("HUBS").insert_many(leftovers)
        dict_journal.clear()
        dense_journal.clear()

        oids = []  # append-only, as a graph's node list
        scores = np.zeros(0)
        for step in range(12):
            oids.extend(range(len(oids), len(oids) + rng.randrange(0, 25)))
            scores = np.concatenate([scores, np.zeros(len(oids) - len(scores))])
            for index in rng.sample(range(len(oids)), len(oids) // 3):
                scores[index] = rng.choice([0.0, rng.random()])  # appear, drift, vanish
            as_dict = {oid: score for oid, score in zip(oids, scores.tolist()) if score != 0.0}
            dict_store(dict_db.table("HUBS"), as_dict)
            # As a sync hands it over: the graph's node list (which may run
            # ahead of the scores) and the dense scores as a list.
            write_scores(dense_db.table("HUBS"), oids + [len(oids)], scores.tolist())
            assert rows_with_rids(dense_db, "HUBS") == rows_with_rids(dict_db, "HUBS")
            assert dense_journal == dict_journal
            assert score_rows(dense_db, "HUBS") == as_dict
        # Journal payloads are what a WAL would pickle: plain floats, one
        # truncate per write and at most one whole-row insert after it (none
        # when every score is zero).
        kinds = "".join(record[0][0] for record in dense_journal)
        assert kinds.count("t") == 12 and kinds.replace("ti", "t") == "t" * 12 and "i" in kinds
        for record in dense_journal:
            assert record[1] == "HUBS"
            for oid, score in record[2] if record[0] == "insert" else ():
                assert type(oid) is int and type(score) is float

    def test_switching_forms_resynchronises_from_the_table(self):
        """A shard's write (its own oids) between two graph-order writes:
        the table holds exactly the last write, whichever form made it."""
        database, _journal = journalled_score_database()
        table = database.table("HUBS")
        oids = [7, 8, 9]
        write_scores(table, oids, np.array([0.5, 0.0, 0.25]).tolist())
        assert score_rows(database, "HUBS") == {7: 0.5, 9: 0.25}
        write_scores(table, [8, 9], [0.1, 0.25])
        assert score_rows(database, "HUBS") == {8: 0.1, 9: 0.25}
        write_scores(table, oids, np.array([0.5, 0.1, 0.0]).tolist())
        assert score_rows(database, "HUBS") == {7: 0.5, 8: 0.1}
