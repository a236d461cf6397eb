"""Determinism and equivalence tests for the sharded crawl engine.

The sharded engine is a pure *process-model* change, and these tests pin
the three contracts that make it one:

* ``N=1`` sharded is bit-identical to the batched engine — page
  sequence, relevance floats, failures, and final table state;
* ``N>=2`` runs are bit-identical to *each other* for any shard count
  and any message-delivery schedule (the handoff-determinism property);
* the multiprocessing runner produces exactly what the in-process
  runner produces (same workers, different transport);
* the crawl lives in the workers' memory: stepping, pausing and a
  worker's failure are in-process events, and no file is written.
"""

import multiprocessing
import random
import time

import pytest

from repro.classifier.compiled import CompiledHierarchicalModel
from repro.classifier.training import ModelInstaller
from repro.core.config import FocusConfig, JobSpec
from repro.core.schema import create_focus_database
from repro.core.system import FocusSystem
from repro.crawler.engine import CrawlEngine, CrawlerConfig, CrawlTrace
from repro.crawler.focused import FocusedCrawler
from repro.crawler.frontier import Frontier
from repro.crawler.sharded import ShardedEngine, ShardServerPool, build_sharded_crawler
from repro.webgraph.fetch import Fetcher
from repro.webgraph.urls import server_sid

GOOD = "recreation/cycling"


@pytest.fixture(scope="module")
def crawl_seeds(small_web):
    return small_web.keyword_seed_pages(GOOD, count=8)


def run_reference(small_web, trained_model, taxonomy, seeds, **kwargs):
    """A batched-engine crawl — the bit-level reference for sharded N=1."""
    database = create_focus_database(buffer_pool_pages=512)
    ModelInstaller(database).install(trained_model)
    small_web.servers.reseed(0)
    fetcher = Fetcher(small_web, failure_seed=0)
    config = CrawlerConfig(engine="batched", **kwargs)
    crawler = FocusedCrawler(fetcher, trained_model, taxonomy, database, config)
    crawler.add_seeds(seeds)
    trace = crawler.crawl()
    return crawler, database, trace


def run_sharded(
    small_web, trained_model, taxonomy, seeds, *, shards,
    schedule=None, **kwargs,
):
    config = CrawlerConfig(
        engine="sharded", shards=shards, shard_runner="inprocess", **kwargs
    )
    crawler = build_sharded_crawler(
        small_web, trained_model, taxonomy, config,
        fetch_failure_seed=0, schedule=schedule,
    )
    crawler.add_seeds(seeds)
    trace = crawler.engine.run(crawler.config.max_pages)
    return crawler, trace


def visit_tuples(trace):
    return [
        (v.tick, v.url, v.relevance, v.best_leaf_cid)
        for v in trace.visits
    ]


def table_rows(database, name):
    return sorted(tuple(row) for row in database.table(name).rows())


def sharded_table_rows(crawler, name):
    """The union of one table across all shard databases."""
    rows = []
    for worker in crawler.engine.runner.workers:
        rows.extend(tuple(row) for row in worker.database.table(name).rows())
    return sorted(rows)


class TestShardedMatchesBatched:
    KWARGS = dict(max_pages=100, batch_size=8, distill_every=40)

    @pytest.mark.parametrize(
        "kwargs",
        [
            KWARGS,
            # distill_every not a multiple of K: distilling rounds (scores
            # follow in the next checkout) and plain ones (the finish rides
            # in the apply) alternate, and HUBS/AUTH are rewritten at each.
            dict(max_pages=100, batch_size=8, distill_every=12),
            dict(max_pages=160, batch_size=32, distill_every=40),
        ],
        ids=["K8-every40", "K8-every12", "K32-every40"],
    )
    def test_n1_bit_identical_to_batched(
        self, small_web, trained_model, taxonomy, crawl_seeds, kwargs
    ):
        """One shard reproduces the batched engine exactly: visits, floats,
        failures, distillation cadence, and the logical table state."""
        _, ref_db, ref = run_reference(
            small_web, trained_model, taxonomy, crawl_seeds, **kwargs
        )
        crawler, trace = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=1, **kwargs
        )
        try:
            assert visit_tuples(trace) == visit_tuples(ref)
            assert trace.relevance_series() == ref.relevance_series()  # bitwise
            assert trace.failed_urls == ref.failed_urls
            assert trace.distillations == ref.distillations > 1
            for name in ("CRAWL", "LINK", "HUBS", "AUTH"):
                assert sharded_table_rows(crawler, name) == table_rows(ref_db, name), name
        finally:
            crawler.shutdown()

    def test_n2_equals_n4(self, small_web, trained_model, taxonomy, crawl_seeds):
        """Shard count is invisible to the crawl: N=2 and N=4 agree bitwise."""
        c2, t2 = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=2, **self.KWARGS
        )
        c4, t4 = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=4, **self.KWARGS
        )
        try:
            assert visit_tuples(t2) == visit_tuples(t4)
            assert t2.relevance_series() == t4.relevance_series()
            assert t2.failed_urls == t4.failed_urls
            for name in ("CRAWL", "LINK", "HUBS", "AUTH"):
                assert sharded_table_rows(c2, name) == sharded_table_rows(c4, name)
        finally:
            c2.shutdown()
            c4.shutdown()

    def test_n4_partitions_by_server(self, small_web, trained_model, taxonomy, crawl_seeds):
        """Every CRAWL row lives on the shard its server hashes to."""
        crawler, _ = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=4,
            max_pages=40, batch_size=8, distill_every=0,
        )
        try:
            for shard, worker in enumerate(crawler.engine.runner.workers):
                urls = [m["url"] for m in worker.database.table("CRAWL").rows_as_dicts()]
                assert urls, f"shard {shard} owns no URLs"
                assert all(server_sid(url) % 4 == shard for url in urls)
        finally:
            crawler.shutdown()

    def test_shards_write_their_seeds_at_seeding(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        """Seeding is a flush point on a shard as in the single engine: each
        shard's CRAWL holds its seeds before round 1."""
        config = CrawlerConfig(
            engine="sharded", shards=2, shard_runner="inprocess", max_pages=40, batch_size=8
        )
        crawler = build_sharded_crawler(
            small_web, trained_model, taxonomy, config, fetch_failure_seed=0
        )
        try:
            crawler.add_seeds(crawl_seeds)
            written = [
                [row["url"] for row in worker.database.table("CRAWL").rows_as_dicts()]
                for worker in crawler.engine.runner.workers
            ]
            assert sum(len(urls) for urls in written) == len(set(crawl_seeds))
            for shard, urls in enumerate(written):
                assert all(server_sid(url) % 2 == shard for url in urls)
        finally:
            crawler.shutdown()

    def test_hard_focus_parity(self, small_web, trained_model, taxonomy, crawl_seeds):
        kwargs = dict(max_pages=60, batch_size=8, distill_every=0, focus_mode="hard")
        _, _, ref = run_reference(
            small_web, trained_model, taxonomy, crawl_seeds, **kwargs
        )
        crawler, trace = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=1, **kwargs
        )
        try:
            assert visit_tuples(trace) == visit_tuples(ref)
        finally:
            crawler.shutdown()
        c2, t2 = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=2, **kwargs
        )
        c3, t3 = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=3, **kwargs
        )
        try:
            assert visit_tuples(t2) == visit_tuples(t3)
        finally:
            c2.shutdown()
            c3.shutdown()

    def test_unfocused_breadth_first_parity(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        """Coordinator-assigned discovery numbers keep BFS shard-invariant."""
        # The unfocused baseline's preset (FocusSystem.start, focused=False).
        kwargs = dict(max_pages=60, batch_size=8, focus_mode="none", distill_every=0)
        _, _, ref = run_reference(small_web, trained_model, taxonomy, crawl_seeds, **kwargs)
        crawler, trace = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=1,
            **kwargs,
        )
        try:
            assert visit_tuples(trace) == visit_tuples(ref)
        finally:
            crawler.shutdown()
        c2, t2 = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=2,
            **kwargs,
        )
        c4, t4 = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=4,
            **kwargs,
        )
        try:
            assert visit_tuples(t2) == visit_tuples(t4)
        finally:
            c2.shutdown()
            c4.shutdown()

    def test_top_hubs_available(self, small_web, trained_model, taxonomy, crawl_seeds):
        crawler, _ = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=2,
            max_pages=50, batch_size=8, distill_every=25,
        )
        try:
            hubs = crawler.top_hubs(5)
            auth = crawler.top_authorities(5)
            assert hubs and all(isinstance(u, str) and s >= 0 for u, s in hubs)
            assert auth
        finally:
            crawler.shutdown()

    def test_every_fetched_page_is_classified_once(
        self, small_web, trained_model, taxonomy, crawl_seeds, monkeypatch
    ):
        """Across two shards, the documents the Eq. 2 kernel scores are the
        pages fetched, each once; a failed fetch is not classified."""
        scored = []
        classify_batch = CompiledHierarchicalModel.classify_batch

        def recording(model, documents):
            scored.extend(documents)
            return classify_batch(model, documents)

        monkeypatch.setattr(CompiledHierarchicalModel, "classify_batch", recording)
        crawler, trace = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=2,
            max_pages=50, batch_size=8, distill_every=25,
        )
        try:
            assert trace.pages_fetched == 50 and trace.failed_urls
            assert len(scored) == 50

            fetched = [small_web.page(url).tokens for url in trace.fetched_urls]
            assert sorted(scored) == sorted(fetched)
        finally:
            crawler.shutdown()


class TestHandoffDeterminism:
    """The property at the heart of the design: delivery timing is invisible."""

    def test_any_delivery_schedule_is_bit_identical(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        """Random per-step permutations of the shard service order change
        nothing: same page sequence, same relevance floats, same tables."""
        kwargs = dict(max_pages=60, batch_size=8, distill_every=30)
        _, baseline = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=4, **kwargs
        )
        base_visits = visit_tuples(baseline)
        base_relevance = baseline.relevance_series()
        for seed in range(5):
            rng = random.Random(seed)

            def schedule(shards, rng=rng):
                rng.shuffle(shards)
                return shards

            crawler, trace = run_sharded(
                small_web, trained_model, taxonomy, crawl_seeds, shards=4,
                schedule=schedule, **kwargs,
            )
            try:
                assert visit_tuples(trace) == base_visits, f"schedule seed {seed}"
                assert trace.relevance_series() == base_relevance
            finally:
                crawler.shutdown()

    def test_shard_server_pool_streams_are_per_host(self):
        pool_a = ShardServerPool({}, failure_seed=3)
        pool_b = ShardServerPool({}, failure_seed=3)
        for name in ("alpha.example.org", "beta.example.org"):
            pool_a.ensure(name)
            pool_b.ensure(name)
        # Interleaving order differs; per-host sequences must not.
        a = [pool_a.simulate_fetch("alpha.example.org") for _ in range(4)]
        a += [pool_a.simulate_fetch("beta.example.org") for _ in range(4)]
        b = []
        for _ in range(4):
            b.append(("beta", pool_b.simulate_fetch("beta.example.org")))
            b.append(("alpha", pool_b.simulate_fetch("alpha.example.org")))
        assert [x for tag, x in b if tag == "alpha"] == a[:4]
        assert [x for tag, x in b if tag == "beta"] == a[4:]


def start_process_fleet(small_web, trained_model, taxonomy, seeds, **kwargs):
    config = CrawlerConfig(engine="sharded", shards=2, shard_runner="process", **kwargs)
    crawler = build_sharded_crawler(
        small_web, trained_model, taxonomy, config, fetch_failure_seed=0
    )
    crawler.add_seeds(seeds)
    return crawler


class TestMultiprocessRunner:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_pages=30, batch_size=6, distill_every=15),
            # The in-process runner hands the column lists over by reference;
            # pickling copies them.  A receiver that mutated or kept a
            # received column would alias the coordinator's state in one
            # runner and not in the other: only this pin would see it.
            dict(max_pages=96, batch_size=32, distill_every=40),
        ],
        ids=["K6", "K32"],
    )
    def test_process_runner_matches_inprocess(
        self, small_web, trained_model, taxonomy, crawl_seeds, kwargs
    ):
        """Spawned worker processes produce the identical crawl."""
        in_crawler, in_trace = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=2, **kwargs
        )
        in_hubs = in_crawler.top_hubs(5)
        in_crawler.shutdown()
        crawler = start_process_fleet(small_web, trained_model, taxonomy, crawl_seeds, **kwargs)
        try:
            mp_trace = crawler.engine.run(crawler.config.max_pages)
            assert visit_tuples(mp_trace) == visit_tuples(in_trace)
            assert mp_trace.relevance_series() == in_trace.relevance_series()
            assert mp_trace.failed_urls == in_trace.failed_urls
            assert crawler.top_hubs(5) == in_hubs
            coordinator = crawler.engine.protocol_timings()["coordinator"]
            assert coordinator["bytes_out"] > 0 and coordinator["bytes_in"] > 0
        finally:
            crawler.shutdown()

    def test_killed_worker_fails_the_crawl_by_name_in_bounded_time(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        """``process.kill()`` one worker mid-crawl: the next ``run()`` raises
        naming the shard within seconds, and ``shutdown()`` reaps every child."""
        crawler = start_process_fleet(
            small_web, trained_model, taxonomy, crawl_seeds,
            max_pages=60, batch_size=6, distill_every=15,
        )
        try:
            crawler.engine.run(crawler.config.max_pages, max_rounds=2)
            crawler.engine.runner.processes[1].kill()
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="shard 1 worker"):
                crawler.engine.run(crawler.config.max_pages)
            assert time.monotonic() - started < 10.0
        finally:
            started = time.monotonic()
            crawler.shutdown()
            assert time.monotonic() - started < 15.0
        assert not multiprocessing.active_children()

    def test_worker_error_carries_its_traceback(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        crawler = start_process_fleet(
            small_web, trained_model, taxonomy, crawl_seeds, max_pages=10, batch_size=5
        )
        try:
            with pytest.raises(RuntimeError, match="shard 0 worker failed(.|\n)*unknown shard message"):
                crawler.engine.runner.request(0, ("no-such-op",))
        finally:
            crawler.shutdown()
        assert not multiprocessing.active_children()


class TestStatsAggregation:
    def test_io_snapshot_totals_and_per_shard_breakdown(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        crawler, _ = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=3,
            max_pages=30, batch_size=6, distill_every=0,
        )
        try:
            snapshot = crawler.io_snapshot()
            shards = snapshot["shards"]
            assert len(shards) == 3
            numeric = [k for k, v in snapshot.items() if isinstance(v, (int, float))]
            assert numeric
            for key in numeric:
                assert snapshot[key] == pytest.approx(
                    sum(s.get(key, 0) for s in shards)
                )
        finally:
            crawler.shutdown()

    def test_stage_timings_sum_shards_and_include_distill(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        crawler, _ = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=2,
            max_pages=30, batch_size=6, distill_every=15,
        )
        try:
            timings = crawler.engine.stage_timings
            assert set(timings) == {"fetch", "classify", "write", "distill"}
            assert timings["fetch"] > 0.0
            assert timings["classify"] > 0.0
            assert timings["distill"] > 0.0
            assert crawler.engine.fetch_overlap_ratio() == 0.0
        finally:
            crawler.shutdown()

    def test_stage_timings_are_the_workers_own_after_every_run(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        """The closing barrier carries the timings: no round stale, and the
        last apply's write is in — after a one-round quantum and after the
        whole crawl."""
        config = CrawlerConfig(
            engine="sharded", shards=2, shard_runner="inprocess",
            max_pages=30, batch_size=6, distill_every=12,
        )
        crawler = build_sharded_crawler(
            small_web, trained_model, taxonomy, config, fetch_failure_seed=0
        )
        crawler.add_seeds(crawl_seeds)
        try:
            for max_rounds in (1, 1, None):
                crawler.engine.run(config.max_pages, max_rounds=max_rounds)
                workers = crawler.engine.runner.workers
                timings = crawler.engine.stage_timings
                for stage in ("fetch", "classify", "write"):
                    assert timings[stage] == sum(worker.timings[stage] for worker in workers)
                assert timings["write"] > 0.0
        finally:
            crawler.shutdown()

    def test_protocol_timings_are_reported_apart_from_the_stages(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        crawler, _ = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=2,
            max_pages=30, batch_size=6, distill_every=12,
        )
        try:
            protocol = crawler.engine.protocol_timings()
            assert {"wait", "encode", "decode", "commit", "distill", "bytes_out", "bytes_in",
                    "messages"} <= set(protocol["coordinator"])
            assert protocol["coordinator"]["commit"] > 0.0
            assert len(protocol["shards"]) == 2
            for shard, part in enumerate(protocol["shards"]):
                assert {"idle_checkout", "idle_fetch", "idle_apply", "decode", "handle_checkout",
                        "handle_fetch", "handle_apply", "bytes_in", "bytes_out"} <= set(part)
                assert part["handle_fetch"] > 0.0 and part["handle_apply"] > 0.0
                carried = crawler.io_snapshot()["shards"][shard]["protocol"]
                assert carried["handle_apply"] == part["handle_apply"]
                assert carried["bytes_in"] == part["bytes_in"]
            assert set(crawler.engine.stage_timings) == {"fetch", "classify", "write", "distill"}
        finally:
            crawler.shutdown()

    def test_fetch_stats_aggregate_across_shards(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        crawler, trace = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=2,
            max_pages=30, batch_size=6, distill_every=0,
        )
        try:
            stats = crawler.fetcher.stats
            assert stats.successes == len(trace.visits)
            assert stats.attempts >= stats.successes
        finally:
            crawler.shutdown()

    def test_heap_stats_one_entry_per_shard(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        crawler, _ = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=2,
            max_pages=20, batch_size=5, distill_every=0,
        )
        try:
            stats = crawler.heap_stats()
            assert len(stats) == 2
            for entry in stats:
                assert {"heap_size", "frontier_size", "tuples_scanned", "compactions"} <= set(entry)
        finally:
            crawler.shutdown()


@pytest.fixture(scope="module")
def sharded_system(small_web):
    config = FocusConfig(good_topics=(GOOD,), examples_per_leaf=12, seed_count=8)
    system = FocusSystem.from_web(small_web, [GOOD], config)
    system.train()
    return system


def start_sharded_job(system, **kwargs):
    config = CrawlerConfig(
        engine="sharded", shards=2, shard_runner="inprocess",
        max_pages=60, batch_size=6, distill_every=15, **kwargs,
    )
    return system.start(JobSpec(max_pages=60, crawler=config))


class TestInMemoryShards:
    """A sharded crawl lives in its workers' memory: it pauses, steps and
    fails inside one process, and a quantum boundary is invisible to it."""

    @pytest.mark.parametrize(
        "runner, rounds", [("inprocess", 1), ("inprocess", 4), ("process", 3)],
        ids=["inprocess-1", "inprocess-4", "process-3"],
    )
    def test_stepped_crawl_equals_one_run(
        self, small_web, trained_model, taxonomy, crawl_seeds, runner, rounds
    ):
        """Quanta of *rounds* rounds — each closed by the barrier that flushes
        a distilling round's scores early — give the one-call crawl."""
        kwargs = dict(max_pages=60, batch_size=6, distill_every=15)
        whole, whole_trace = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=2, **kwargs
        )
        whole_hubs = whole.top_hubs(5)
        whole.shutdown()
        config = CrawlerConfig(engine="sharded", shards=2, shard_runner=runner, **kwargs)
        crawler = build_sharded_crawler(
            small_web, trained_model, taxonomy, config, fetch_failure_seed=0
        )
        crawler.add_seeds(crawl_seeds)
        try:
            quanta = 0
            while crawler.engine.trace.pages_fetched < config.max_pages:
                crawler.engine.run(config.max_pages, max_rounds=rounds)
                quanta += 1
            trace = crawler.engine.trace
            assert quanta > 1
            assert trace.distillations == whole_trace.distillations > 0
            assert visit_tuples(trace) == visit_tuples(whole_trace)
            assert trace.relevance_series() == whole_trace.relevance_series()
            assert trace.failed_urls == whole_trace.failed_urls
            assert crawler.top_hubs(5) == whole_hubs
        finally:
            crawler.shutdown()

    def test_a_sharded_crawl_writes_no_file(
        self, small_web, trained_model, taxonomy, crawl_seeds, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        crawler, trace = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=2,
            max_pages=40, batch_size=5, distill_every=15,
        )
        try:
            assert trace.pages_fetched == 40
            for worker in crawler.engine.runner.workers:
                assert not worker.database.backend.persistent
                assert len(worker.database.table("CRAWL")) > 0
        finally:
            crawler.shutdown()
        assert list(tmp_path.iterdir()) == []

    def test_a_distilling_rounds_links_reach_the_shards_before_its_scores(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        """A distilling round reaches a shard in two messages: the apply (links,
        frontier writes left pending) at once, the scores and boosts with the
        next checkout; every other round's apply carries an empty finish."""
        crawler = build_sharded_crawler(
            small_web, trained_model, taxonomy,
            CrawlerConfig(
                engine="sharded", shards=2, shard_runner="inprocess",
                max_pages=60, batch_size=6, distill_every=15,
            ),
            fetch_failure_seed=0,
        )
        crawler.add_seeds(crawl_seeds)
        worker = crawler.engine.runner.workers[1]
        apply_round, finish_round = worker.apply_round, worker.finish_round
        events = []

        def logged_apply(message):
            events.append(("apply", message.round, message.finish is not None))
            apply_round(message)

        def logged_finish(message):
            finish_round(message)
            frontier = worker.frontier
            flushed = not frontier._pending_new and not frontier._changed
            events.append(("finish", message.round, bool(message.scores), flushed))

        worker.apply_round, worker.finish_round = logged_apply, logged_finish
        try:
            trace = crawler.engine.run(60)
        finally:
            crawler.shutdown()
        assert trace.distillations > 0
        split = [event for event in events if event[0] == "apply" and not event[2]]
        assert len(split) == trace.distillations
        for _apply, round_no, _finish in split:
            at = events.index(("apply", round_no, False))
            assert events[at + 1] == ("finish", round_no, True, True)
        assert all(
            event[3] for event in events if event[0] == "finish"
        ), "every finish leaves no CRAWL write pending"

    def test_a_shard_error_between_a_rounds_halves_fails_the_job(self, sharded_system):
        """The worker dies after a distilling round's links and before its
        scores: the job fails with that error, and a failed job stays failed."""
        handle = start_sharded_job(sharded_system)
        worker = handle.crawler.engine.runner.workers[1]
        finish_round = worker.finish_round
        crash = RuntimeError("between a round's links and its scores")

        def die_before_the_scores(message):
            if message.scores:
                raise crash
            finish_round(message)

        worker.finish_round = die_before_the_scores
        try:
            with pytest.raises(RuntimeError, match="links and its scores"):
                handle.run()
            assert handle.status == "failed"
            assert handle.error is crash
            assert 0 < handle.trace.pages_fetched < 60
            assert handle.step() == 0
        finally:
            handle.close()
        assert handle.crawler.database.closed

    def test_a_paused_sharded_job_resumes_to_the_uninterrupted_crawl(self, sharded_system):
        """Pause holds the shard fleet in memory (no checkpoint is written);
        resume continues it, bit for bit."""
        reference = start_sharded_job(sharded_system)
        expected = reference.run()
        expected_visits = visit_tuples(expected.trace)
        reference.close()

        handle = start_sharded_job(sharded_system)
        try:
            handle.step(rounds=3)
            fetched = handle.trace.pages_fetched
            handle.pause()
            assert handle.step() == 0
            assert handle.trace.pages_fetched == fetched
            handle.resume()
            result = handle.run()
            assert handle.status == "completed"
            assert visit_tuples(result.trace) == expected_visits
            assert result.trace.relevance_series() == expected.trace.relevance_series()
        finally:
            handle.close()


class TestGuards:
    def test_crawl_engine_rejects_sharded_mode(
        self, trained_model, taxonomy, small_web, crawl_database
    ):
        fetcher = Fetcher(small_web, failure_seed=0)
        config = CrawlerConfig(engine="sharded")
        frontier = Frontier(crawl_database)
        with pytest.raises(ValueError, match="sharded"):
            CrawlEngine(
                fetcher, trained_model, taxonomy, crawl_database, config,
                frontier, trace=None,
            )

    def test_auto_never_resolves_to_sharded(self):
        config = CrawlerConfig(engine="auto", batch_size=8, shards=4)
        assert config.engine == "auto"  # sharding stays opt-in per config

    def test_env_does_not_set_the_shard_count(self, monkeypatch):
        """The session default ``REPRO_ENGINE_SHARDS`` was removed: N is the field's."""
        monkeypatch.setenv("REPRO_ENGINE_SHARDS", "4")
        assert CrawlerConfig(engine="sharded").shards == 1

    def test_shard_count_below_one_refused(self, small_web, trained_model, taxonomy):
        config = CrawlerConfig(engine="sharded", shards=0, shard_runner="inprocess")
        with pytest.raises(ValueError, match="shards must be >= 1"):
            build_sharded_crawler(small_web, trained_model, taxonomy, config)

    @pytest.mark.parametrize("rho", [-0.5, float("nan"), float("inf")])
    def test_negative_rho_refused(self, small_web, trained_model, taxonomy, rho):
        """Edges into unvisited pages (relevance 0.0) would pass HITS' filter;
        under a NaN or infinite ρ none would."""
        config = CrawlerConfig(engine="sharded", shards=2, shard_runner="process", rho=rho)
        with pytest.raises(ValueError, match="rho must be >= 0 and finite"):
            ShardedEngine(None, config, CrawlTrace(), shards=2)
        before = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match="rho must be >= 0 and finite"):
            build_sharded_crawler(small_web, trained_model, taxonomy, config)
        assert set(multiprocessing.active_children()) <= before  # its workers were stopped

    def test_unknown_runner_rejected(self, small_web, trained_model, taxonomy):
        config = CrawlerConfig(engine="sharded", shard_runner="threads")
        with pytest.raises(ValueError, match="shard_runner"):
            build_sharded_crawler(small_web, trained_model, taxonomy, config)

    def test_schedule_requires_inprocess_runner(self, small_web, trained_model, taxonomy):
        config = CrawlerConfig(engine="sharded", shard_runner="process")
        with pytest.raises(ValueError, match="inprocess"):
            build_sharded_crawler(
                small_web, trained_model, taxonomy, config,
                schedule=lambda shards: shards,
            )

    def test_database_stub_points_at_shard_databases(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        crawler, _ = run_sharded(
            small_web, trained_model, taxonomy, crawl_seeds, shards=2,
            max_pages=10, batch_size=5, distill_every=0,
        )
        try:
            assert crawler.database.sharded is True
            with pytest.raises(AttributeError, match="in memory inside the shard workers"):
                crawler.database.table("CRAWL")
        finally:
            crawler.shutdown()
        assert crawler.database.closed
