"""One distill stage, bit for bit: the incremental feed against a full scan.

Every in-process crawl distils through ``IncrementalDistiller``
fed by ``LinkDeltaCache``, and stays in arrays from the LINK append to
the HUBS/AUTH write.  The feed this replaced — materialise the whole
LINK table, score it from scratch, walk a score dict into the table —
lives on here as the oracle:

(a) at every distillation of a K=1 crawl, the stored HUBS/AUTH rows
    and ``trace.last_distillation`` equal a recompute over a full LINK
    scan, and the reference ``weighted_hits`` edge walk to 1e-9;
(b) a ``CompiledLinkGraph`` grown by interleaved ``add_columns`` /
    ``patch`` / ``arrays()`` equals ``compile_links`` of the final edge
    list — the graph built edge by edge — across several capacity
    doublings;
(c) ``ScoreTableStore.store_dense`` issues the mutations ``store``
    issues: same rows, same record ids, same journal records;
(d) ``Table.update_column``'s column write equals ``update_rows`` and,
    handed a bad value or record id mid-batch, changes nothing — in
    memory, in the journal, or in what a reopened durable store holds;
(e) a K=1 crawl killed and resumed — also from a checkpoint shaped like
    the ones the old serial loop wrote before it fed the cache — is the
    uninterrupted crawl.
"""

import pickle
import random

import numpy as np
import pytest

from repro.classifier.training import ModelInstaller
from repro.core.config import FocusConfig
from repro.core.schema import create_focus_database
from repro.core.system import FocusSystem
from repro.crawler.engine import CrawlEngine, CrawlerConfig
from repro.crawler.focused import FocusedCrawler
from repro.distiller.compiled import CompiledLinkGraph, compile_links, compiled_weighted_hits
from repro.distiller.db_distiller import LinkDeltaCache
from repro.distiller.hits import DistillationResult, weighted_hits
from repro.distiller.score_store import ScoreTableStore
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
    # order ScoreTableStore inserts rows in and the tie-break of top_hubs).
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
            # The oracle first: the boost that follows a distillation does
            # not touch LINK or the relevance map, but keep the order honest.
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
            assert score_rows(database, "HUBS") == oracle.hub_scores
            assert score_rows(database, "AUTH") == oracle.authority_scores
            checked.append(len(oracle.hub_scores))
            return result

        engine.run_distillation = distil_and_compare
        trace = crawler.crawl()
        assert trace.distillations == len(checked) >= 5
        assert checked[-1] > checked[0] > 0  # the graph grew between runs

    def test_numpy_result_is_array_backed_and_pickles_as_dicts(self):
        links = [Link(1, 10, 2, 20, 0.9, 0.8), Link(3, 30, 2, 20, 0.7, 0.6), Link(2, 20, 4, 40)]
        relevance = {1: 0.9, 2: 0.8, 3: 0.7, 4: 0.6}
        result = compiled_weighted_hits(compile_links(links), relevance)
        assert result.dense is not None
        assert "hub_scores" not in vars(result)  # not built until read
        clone = pickle.loads(pickle.dumps(result))
        assert clone.dense is None
        assert clone == result
        assert list(clone.hub_scores.items()) == list(result.hub_scores.items())
        # What a checkpoint written before the dense form holds: the three
        # fields as the instance dict.  It must load as a dict-backed result.
        old = DistillationResult.__new__(DistillationResult)
        old.__dict__.update(
            hub_scores=dict(result.hub_scores),
            authority_scores=dict(result.authority_scores),
            iterations=result.iterations,
        )
        assert pickle.dumps(old) == pickle.dumps(result)
        assert old.top_hubs(2) == result.top_hubs(2)

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


# -- (a') the compiled graph of a crawl: column batches against edge by edge ------------
def assert_same_arrays(graph, oracle):
    assert len(graph) == len(oracle)
    for column, oracle_column in zip(graph.arrays()[:4], oracle.arrays()[:4]):
        np.testing.assert_array_equal(column, oracle_column)  # NaN == NaN here
    assert graph.arrays()[4] == oracle.arrays()[4]
    np.testing.assert_array_equal(graph.uniform_hubs(), oracle.uniform_hubs())


class TestBatchFoldEqualsRowFold:
    def test_a_crawls_graph_is_the_one_built_edge_by_edge(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        """At every distillation of a K=8 crawl — nepotistic edges in the
        table, ``wgt_fwd`` refreshed between distillations — the cache's
        graph, fed page column slices, is bit for bit ``compile_links``
        of a full LINK scan (one ``add`` per edge, in heap order); so is
        the graph of a cache restored from its snapshot mid-crawl, as a
        resumed crawl's is."""
        database = create_focus_database(buffer_pool_pages=512)
        ModelInstaller(database).install(trained_model)
        small_web.servers.reseed(0)
        config = CrawlerConfig(max_pages=160, distill_every=25, engine="batched", batch_size=8)
        crawler = FocusedCrawler(
            Fetcher(small_web, failure_seed=0), trained_model, taxonomy, database, config
        )
        crawler.add_seeds(crawl_seeds)
        engine = crawler.engine
        link = database.table("LINK")
        incremental = engine.run_distillation
        seen = []
        restored = []

        def distil_and_compare():
            result = incremental()
            cache = engine._incremental_distiller().cache
            links = full_scan_links(database)
            assert_same_arrays(cache.graph, compile_links(links))
            assert len(cache) == len(links)
            seen.append((len(links), sum(link_.is_nepotistic for link_ in links)))
            if len(seen) == 2:  # "killed" here: only the snapshot survives
                restored.append(LinkDeltaCache(link))
                restored[0].restore_state(cache.state_snapshot())
            for other in restored:  # ...and keeps up by its own refreshes
                other.note_updated(self.refreshed)
                other.refresh()
                assert_same_arrays(other.graph, cache.graph)
            self.refreshed = []
            return result

        note_updated = engine._incremental_distiller().note_updated

        def remember(rids):
            rids = list(rids)
            self.refreshed.extend(rids)
            note_updated(rids)

        self.refreshed = []
        engine._incremental_distiller().note_updated = remember
        engine.run_distillation = distil_and_compare
        trace = crawler.crawl()
        assert trace.distillations == len(seen) >= 5 and restored
        assert seen[-1][0] > seen[0][0] and seen[-1][1] > 0  # grew; some nepotistic
        assert link.page_count > 3


# -- (b) the growable compiled graph --------------------------------------------------
def random_row(rng, nodes):
    src, dst = rng.randrange(nodes), rng.randrange(nodes)
    # A fifth of the edges are nepotistic (same server): never compiled.
    sid_dst = src % 7 if rng.random() < 0.2 else 100 + dst % 7
    # None: "no stored weight", scored from the endpoint's relevance.
    weights = [rng.choice([None, rng.random()]) for _ in range(2)]
    return (src, src % 7, dst, sid_dst, *weights)


class TestGrowableCompiledGraph:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_mutations_equal_a_one_shot_compile(self, seed):
        rng = random.Random(seed)
        graph = CompiledLinkGraph()
        capacity = len(graph.arrays()[0].base)
        rows = []
        edge_of_row = []  # what add_columns said of each row folded so far
        relevance = {}
        doublings = 0

        def fold():
            fresh = rows[len(edge_of_row) :]
            if fresh:
                edge_of_row.extend(graph.add_columns(*zip(*fresh)))

        # 3000 edges over 1500 nodes, folded in batches of 1 to ~60 rows:
        # edge buffers double 256 -> 4096 and node buffers 256 -> 2048 on
        # the way, some of them in the middle of a batch.
        for step in range(3000):
            choice = rng.random()
            if choice < 0.75 or not rows:
                rows.append(random_row(rng, 1500))
                if rng.random() < 0.05:
                    fold()
            elif choice < 0.95:
                position = rng.randrange(len(rows))
                patched = rows[position][:4] + (rng.random(), rng.choice([None, rng.random()]))
                rows[position] = patched
                if position < len(edge_of_row) and edge_of_row[position] >= 0:
                    graph.patch([edge_of_row[position]], [patched[4]], [patched[5]])
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
        # Nepotistic rows got no edge; the others, consecutive ones.
        kept = [edge for edge in edge_of_row if edge >= 0]
        assert kept == list(range(len(graph))) and len(kept) < len(rows)
        self.assert_equals_one_shot(graph, rows, relevance)
        # A different map (and a shrunken one) is gathered afresh.
        self.assert_equals_one_shot(graph, rows, {oid: 0.5 for oid in range(0, 1500, 2)})
        relevance.pop(next(iter(relevance)))
        self.assert_equals_one_shot(graph, rows, relevance)

    @staticmethod
    def assert_equals_one_shot(graph, rows, relevance):
        oracle_graph = compile_links(Link(*row) for row in rows)  # edge by edge
        assert len(graph) == len(oracle_graph)
        for column, oracle_column in zip(graph.arrays()[:4], oracle_graph.arrays()[:4]):
            np.testing.assert_array_equal(column, oracle_column)  # NaN == NaN here
        assert graph.arrays()[4] == oracle_graph.arrays()[4]
        np.testing.assert_array_equal(graph.uniform_hubs(), oracle_graph.uniform_hubs())
        # The same dict object each time: exercises the incremental gather.
        result = compiled_weighted_hits(graph, relevance)
        oracle = compiled_weighted_hits(oracle_graph, dict(relevance))
        if len(graph):
            np.testing.assert_array_equal(result.dense[1], oracle.dense[1])
            np.testing.assert_array_equal(result.dense[2], oracle.dense[2])
        assert_same_result(result, oracle)

    def test_views_handed_out_survive_growth(self):
        graph = CompiledLinkGraph()
        assert graph.add_columns([1], [1], [2], [2], [0.5], [0.25]) == [0]
        src, _dst, fwd, _rev, _oids = graph.arrays()
        more = [(index, 1, index + 1, 2, 0.5, 0.25) for index in range(1, 600)]
        graph.add_columns(*zip(*more))
        graph.patch([0], [0.75], [0.25])
        assert len(src) == 1 and fwd[0] == 0.5  # a snapshot of its moment
        assert graph.arrays()[2][0] == 0.75

    def test_an_all_nepotistic_batch_adds_nothing(self):
        graph = CompiledLinkGraph()
        assert graph.add_columns([1, 2], [7, 8], [3, 4], [7, 8], [0.5, None], [None, 0.5]) == [-1, -1]
        assert len(graph) == 0 and graph.arrays()[4] == []


# -- (c) the score store: dense path vs dict path -------------------------------------
def journalled_score_database():
    database = create_focus_database(buffer_pool_pages=64)
    journal = []
    database.table("HUBS").set_journal(journal.append)
    return database, journal


def rows_with_rids(database, name):
    table = database.table(name)
    return [(table.heap.locate(rid), row) for rid, row in table.scan()]


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
        dict_store, dense_store = ScoreTableStore(dict_db), ScoreTableStore(dense_db)

        oids = []  # append-only, as a graph's node list
        scores = np.zeros(0)
        for step in range(12):
            oids.extend(range(len(oids), len(oids) + rng.randrange(0, 25)))
            scores = np.concatenate([scores, np.zeros(len(oids) - len(scores))])
            for index in rng.sample(range(len(oids)), len(oids) // 3):
                scores[index] = rng.choice([0.0, rng.random()])  # appear, drift, vanish
            if step == 7:  # the resume path: both caches rebuilt from the table
                dict_store.invalidate()
                dense_store.invalidate()
            as_dict = {oid: score for oid, score in zip(oids, scores.tolist()) if score != 0.0}
            dict_store.store("HUBS", as_dict)
            dense_store.store_dense("HUBS", oids, scores.copy())
            assert rows_with_rids(dense_db, "HUBS") == rows_with_rids(dict_db, "HUBS")
            assert dense_journal == dict_journal
            assert score_rows(dense_db, "HUBS") == as_dict
        assert dense_store.rows_written == dict_store.rows_written > 0
        assert dense_store.rows_skipped == dict_store.rows_skipped > 0
        # Journal payloads are what a WAL would pickle: plain floats, one
        # column-shaped record per score rewrite.
        rewrites = [record for record in dense_journal if record[0] == "update_column"]
        assert rewrites and not any(record[0] == "update" for record in dense_journal)
        for _op, table, column, page_nos, slots, values in rewrites:
            assert (table, column) == ("HUBS", "score")
            assert len(page_nos) == len(slots) == len(values)
            assert all(type(value) is float for value in values)

    def test_switching_forms_resynchronises_from_the_table(self):
        database, _journal = journalled_score_database()
        store = ScoreTableStore(database)
        oids = [7, 8, 9]
        store.store_dense("HUBS", oids, np.array([0.5, 0.0, 0.25]))
        store.store("HUBS", {8: 0.1, 9: 0.25})
        assert score_rows(database, "HUBS") == {8: 0.1, 9: 0.25}
        store.store_dense("HUBS", oids, np.array([0.5, 0.1, 0.0]))
        assert score_rows(database, "HUBS") == {7: 0.5, 8: 0.1}


# -- (d) update_column's column write -------------------------------------------------
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


# -- (e) kill and resume a K=1 crawl --------------------------------------------------
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


def killed_then_resumed(system, directory, monkeypatch, kill_after):
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
            crawler_config=serial_config(),
            fetch_failure_seed=FETCH_FAILURE_SEED,
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

    def test_resumes_from_a_checkpoint_without_delta_cache_state(
        self, resume_system, uninterrupted, tmp_path, monkeypatch
    ):
        """A checkpoint that carries no delta-cache state.

        The shape the old serial loop saved before it fed the cache (that
        loop had no distiller to snapshot), and still the shape of a
        crawl's initial checkpoint: ``delta_cache=None`` — whichever
        frame, base or delta, said so last — and a dict-backed
        ``last_distillation``.
        """
        snapshot = CrawlEngine.state_snapshot
        delta = CrawlEngine.state_delta
        shapes = []

        def old_shape(engine):
            state = snapshot(engine)
            assert state["delta_cache"] is not None or engine.trace.pages_fetched == 0
            state["delta_cache"] = None
            last = state["trace"].last_distillation
            if last is not None:
                state["trace"].last_distillation = pickle.loads(pickle.dumps(last))
                assert state["trace"].last_distillation.dense is None
            shapes.append(state)
            return state

        def old_delta(engine):
            small, *tails = delta(engine)
            assert small["delta_cache"] is not None
            small["delta_cache"] = None
            shapes.append(small)
            return (small, *tails)

        monkeypatch.setattr(CrawlEngine, "state_snapshot", old_shape)
        monkeypatch.setattr(CrawlEngine, "state_delta", old_delta)
        facts = killed_then_resumed(resume_system, tmp_path / "crawl", monkeypatch, 71)
        assert len(shapes) >= 3
        assert facts == uninterrupted
