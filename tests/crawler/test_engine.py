"""Equivalence and behaviour tests for the crawl engine's round kernel.

The round size K and the fetch path must be pure *execution strategy*
choices:

* at K=1 the kernel is the paper's one-URL-at-a-time loop — pinned to
  digests recorded from the deleted serial loop in ``test_golden_k1.py``;
* at larger K the interleaving changes, but on a bounded web the crawl
  converges to exactly the same visited set;
* recorded relevance and best leaf are the single-document Eq. 2
  reference's, relevance to 1e-9 (the crawl scores with the columnar
  kernel, which sums in another order);
* inline ≡ drain, and stepped ≡ one run;
* the incremental distiller must agree with a full-table recomputation.
"""

import asyncio
import time

import pytest

from repro.classifier.tokenizer import term_frequencies
from repro.core.config import JobSpec
from repro.core.schema import create_focus_database
from repro.crawler.engine import CrawlerConfig, OutcomeLRU
from repro.crawler.focused import FocusedCrawler
from repro.distiller.hits import weighted_hits
from repro.webgraph.fetch import Fetcher

GOOD = "recreation/cycling"


def run_crawl(
    small_web,
    trained_model,
    taxonomy,
    seeds,
    simulate_failures=True,
    **config_kwargs,
):
    from repro.classifier.training import ModelInstaller

    database = create_focus_database(buffer_pool_pages=512)
    ModelInstaller(database).install(trained_model)
    # The server farm's failure stream is shared state on the web graph;
    # reseed per run so every crawl sees the identical stream.
    small_web.servers.reseed(0)
    fetcher = Fetcher(small_web, failure_seed=0, simulate_failures=simulate_failures)
    config = CrawlerConfig(**config_kwargs)
    crawler = FocusedCrawler(fetcher, trained_model, taxonomy, database, config)
    crawler.add_seeds(seeds)
    trace = crawler.crawl()
    return crawler, database, trace


@pytest.fixture(scope="module")
def crawl_seeds(small_web):
    return small_web.keyword_seed_pages(GOOD, count=8)


class TestSerialBatchedEquivalence:
    def test_k8_converges_to_same_crawl_set(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        """On a bounded web a K=8 crawl visits exactly the K=1 set."""
        kwargs = dict(max_pages=10_000, distill_every=0, simulate_failures=False,
                      stagnation_patience=10_000)
        _, _, one = run_crawl(small_web, trained_model, taxonomy, crawl_seeds, **kwargs)
        _, _, eight = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds,
            batch_size=8, **kwargs,
        )
        assert one.stagnated and eight.stagnated  # frontier exhausted
        assert one.visited_set() == eight.visited_set()

    def test_k1_stepped_rounds_are_the_single_run(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        """``run(budget, max_rounds=1)`` stepped to completion is ``run(budget)``,
        tables included, with distillations falling between the steps."""
        kwargs = dict(max_pages=90, distill_every=40, engine="serial")
        _, whole_db, whole = run_crawl(small_web, trained_model, taxonomy, crawl_seeds, **kwargs)
        stepped_crawler, stepped_db, stepped = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds, **{**kwargs, "max_pages": 0}
        )
        assert stepped.pages_fetched == 0
        steps = 0
        while stepped.pages_fetched < 90:
            stepped_crawler.engine.run(90, max_rounds=1)
            steps += 1
        assert steps >= 90  # one checkout per step, failures included
        assert whole.fetched_urls == stepped.fetched_urls
        assert whole.relevance_series() == stepped.relevance_series()  # bitwise
        assert whole.failed_urls == stepped.failed_urls
        assert whole.distillations == stepped.distillations
        for table in ("CRAWL", "LINK", "HUBS", "AUTH"):
            assert sorted(whole_db.table(table).rows()) == sorted(stepped_db.table(table).rows())

    def test_batched_relevance_matches_reference_classifier(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        """The columnar kernel records Equation-3 relevance to 1e-9 of the
        single-document reference, and the reference's best leaf."""
        _, _, batched = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds,
            max_pages=60, distill_every=0, batch_size=8, simulate_failures=False,
        )
        for visit in batched.visits:
            frequencies = term_frequencies(small_web.page(visit.url).tokens)
            reference = trained_model.relevance(frequencies)
            assert visit.relevance == pytest.approx(reference, abs=1e-9)
            assert visit.best_leaf_cid == trained_model.best_leaf(frequencies)


class TestIncrementalDistillation:
    def test_incremental_agrees_with_full_recomputation(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        """Engine distillation over the delta cache == full LINK-table HITS."""
        crawler, _, trace = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds,
            max_pages=120, distill_every=40, batch_size=8,
        )
        assert trace.distillations >= 2
        # A fresh run folds the rounds recorded since the last in-crawl
        # distillation into the cached adjacency before scoring.
        incremental = crawler.run_distillation()
        full = weighted_hits(
            crawler._links_from_table(),
            relevance=crawler._relevance_map(),
            rho=crawler.config.rho,
            max_iterations=crawler.config.distill_iterations,
        )
        assert set(incremental.hub_scores) == set(full.hub_scores)
        assert set(incremental.authority_scores) == set(full.authority_scores)
        for oid, score in full.hub_scores.items():
            assert incremental.hub_scores[oid] == pytest.approx(score, abs=1e-9)
        for oid, score in full.authority_scores.items():
            assert incremental.authority_scores[oid] == pytest.approx(score, abs=1e-9)

    def test_distiller_runs_every_distill_every_visits(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        """The engine runs the distiller on its own cadence; no write fires it."""
        _, database, trace = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds,
            max_pages=100, distill_every=30, engine="serial", simulate_failures=False,
        )
        assert len(trace.visits) >= 90
        assert trace.distillations == len(trace.visits) // 30
        assert len(database.table("HUBS")) > 0

    def test_distill_every_zero_never_distils(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        _, database, trace = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds,
            max_pages=60, distill_every=0, engine="serial", simulate_failures=False,
        )
        assert len(trace.visits) == 60
        assert trace.distillations == 0
        assert trace.last_distillation is None
        assert len(database.table("HUBS")) == 0
        assert len(database.table("AUTH")) == 0


class TestScoringKernel:
    """The crawl scores with one kernel; ``score_backend`` no longer selects one."""

    def test_hard_focus_decisions_match_the_oracle(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        """Hard focus expands a page on its best leaf: the kernel must pick
        the reference's leaf for every visit, not just agree on relevance."""
        _, _, trace = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds,
            max_pages=60, distill_every=0, focus_mode="hard",
            simulate_failures=False, engine="batched", batch_size=4,
        )
        assert len(trace.visits) == 60
        for visit in trace.visits:
            frequencies = term_frequencies(small_web.page(visit.url).tokens)
            assert visit.best_leaf_cid == trained_model.best_leaf(frequencies)
            assert visit.relevance == pytest.approx(
                trained_model.relevance(frequencies), abs=1e-9
            )

    def test_every_accepted_backend_name_is_the_same_crawl(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        kwargs = dict(max_pages=120, distill_every=40, engine="batched", batch_size=8)
        python_trace, numpy_trace = [
            run_crawl(
                small_web, trained_model, taxonomy, crawl_seeds, score_backend=name, **kwargs
            )[2]
            for name in ("python", "numpy")
        ]
        assert python_trace.fetched_urls == numpy_trace.fetched_urls
        assert python_trace.relevance_series() == numpy_trace.relevance_series()  # bitwise
        assert python_trace.last_distillation == numpy_trace.last_distillation

    def test_stage_timings_recorded(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        crawler, _, _ = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds,
            max_pages=40, distill_every=20, batch_size=8,
        )
        timings = crawler.engine.stage_timings
        assert set(timings) == {"fetch", "classify", "write", "distill"}
        assert timings["fetch"] > 0 and timings["classify"] > 0
        assert timings["write"] > 0 and timings["distill"] > 0

    def test_invalid_backend_rejected(self, small_web, trained_model, taxonomy):
        with pytest.raises(ValueError):
            run_crawl(small_web, trained_model, taxonomy, [], score_backend="fortran")


class TestEngineConfig:
    def test_invalid_engine_mode_rejected(self, small_web, trained_model, taxonomy):
        with pytest.raises(ValueError):
            run_crawl(small_web, trained_model, taxonomy, [], engine="warp")

    def test_batch_size_must_be_positive(self, small_web, trained_model, taxonomy):
        with pytest.raises(ValueError):
            run_crawl(small_web, trained_model, taxonomy, [], batch_size=0)

    def test_round_size_is_batch_size_except_under_serial(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        for engine, expected in (("auto", 4), ("batched", 4), ("serial", 1)):
            crawler, _, _ = run_crawl(
                small_web, trained_model, taxonomy, crawl_seeds,
                max_pages=10, batch_size=4, engine=engine,
            )
            assert crawler.engine.round_size == expected

    def test_cache_stats_exposed(self, small_web, trained_model, taxonomy, crawl_seeds):
        crawler, _, _ = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds,
            max_pages=30, batch_size=4, simulate_failures=False,
        )
        stats = crawler.engine.cache_stats()
        assert stats["misses"] == 30  # every page classified once
        assert stats["entries"] == 30


#: A latency transport that owes a wait on every fetch but never times
#: out: its crawl is the simulated crawl, fetched through the drain.
DELAYED = dict(transport="latency", transport_options={"mean_latency_ms": 1.0, "seed": 4})


class TestAsyncFetchPipeline:
    """The transport picks the fetch path, and the path never changes the crawl.

    A round whose fetches are all settled at ``prepare`` (simulated,
    replay, latency at ``time_scale=0``) runs inline, with no event loop;
    any other round drains through the asyncio pipeline.  Draws happen
    at prepare() time in checkout order and commits happen in checkout
    order, so inline ≡ drain bit for bit, and completion interleaving can
    only move wall clock around.  Under a delayed latency transport the
    drain must actually *move* it: overlapping I/O with classification
    is the whole point.
    """

    def test_drained_latency_matches_inline_simulated_bit_for_bit(
        self, small_web, trained_model, taxonomy, crawl_seeds, drained_rounds
    ):
        kwargs = dict(max_pages=120, distill_every=50, engine="batched", batch_size=8)
        _, inline_db, inline = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds, **kwargs
        )
        assert drained_rounds == []
        _, drained_db, drained = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds, **DELAYED, **kwargs
        )
        assert drained_rounds and max(drained_rounds) == 8
        assert inline.fetched_urls == drained.fetched_urls
        assert inline.relevance_series() == drained.relevance_series()  # bitwise
        assert inline.failed_urls == drained.failed_urls
        assert inline.distillations == drained.distillations
        for table in ("CRAWL", "LINK", "HUBS", "AUTH"):
            assert sorted(inline_db.table(table).rows()) == sorted(drained_db.table(table).rows())

    def test_max_inflight_cannot_change_the_crawl(
        self, small_web, trained_model, taxonomy, crawl_seeds, drained_rounds
    ):
        kwargs = dict(max_pages=80, distill_every=0, engine="batched", batch_size=8, **DELAYED)
        _, _, unbounded = run_crawl(small_web, trained_model, taxonomy, crawl_seeds, **kwargs)
        _, _, narrow = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds, max_inflight=2, **kwargs
        )
        _, _, polite = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds,
            max_inflight=4, per_server_inflight=1, **kwargs,
        )
        assert unbounded.fetched_urls == narrow.fetched_urls == polite.fetched_urls
        assert (
            unbounded.relevance_series()
            == narrow.relevance_series()
            == polite.relevance_series()
        )
        assert len(drained_rounds) >= 3 * 10  # every round of all three crawls

    def test_latency_transport_inline_matches_drain(
        self, small_web, trained_model, taxonomy, crawl_seeds, drained_rounds
    ):
        """The latency transport's own timeout stream, walked inline
        (``time_scale=0`` owes no wait) and through the drain, gives
        identical traces."""
        options = {"mean_latency_ms": 1.0, "timeout_rate": 0.1, "timeout_ms": 2.0, "seed": 4}
        kwargs = dict(max_pages=60, distill_every=0, engine="batched", batch_size=8,
                      transport="latency")
        _, _, inline = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds,
            transport_options={**options, "time_scale": 0.0}, **kwargs,
        )
        assert drained_rounds == []
        _, _, drained = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds, transport_options=options, **kwargs
        )
        assert drained_rounds
        assert inline.fetched_urls == drained.fetched_urls
        assert inline.relevance_series() == drained.relevance_series()
        assert inline.failed_urls == drained.failed_urls

    def test_simulated_and_replay_crawls_create_no_event_loop(
        self, small_web, trained_model, taxonomy, crawl_seeds, tmp_path, monkeypatch
    ):
        """Settled outcomes never reach asyncio: recording over the
        simulated transport and replaying the cassette both run inline."""

        def refuse(*args, **kwargs):
            raise AssertionError("an inline crawl created an event loop")

        monkeypatch.setattr(asyncio, "new_event_loop", refuse)
        monkeypatch.setattr(asyncio, "run", refuse)
        kwargs = dict(max_pages=60, distill_every=30, engine="batched", batch_size=8)
        _, _, plain = run_crawl(small_web, trained_model, taxonomy, crawl_seeds, **kwargs)
        path = str(tmp_path / "crawl.jsonl")
        traces = []
        for mode in ("record", "replay"):
            crawler, _, trace = run_crawl(
                small_web, trained_model, taxonomy, crawl_seeds,
                cassette_path=path, cassette_mode=mode, **kwargs,
            )
            traces.append(trace)
            if mode == "record":
                crawler.engine.transport.close()
            else:
                crawler.engine.transport.assert_exhausted()
        for trace in traces:
            assert trace.fetched_urls == plain.fetched_urls
            assert trace.relevance_series() == plain.relevance_series()
            assert trace.failed_urls == plain.failed_urls

    def test_delayed_latency_crawl_overlaps_fetch_with_processing(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        kwargs = dict(max_pages=48, distill_every=0, engine="batched", batch_size=8)
        inline_crawler, _, _ = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds, **kwargs
        )
        drained_crawler, _, _ = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds, transport="latency",
            transport_options={"mean_latency_ms": 5.0, "seed": 4}, **kwargs,
        )
        assert inline_crawler.engine.fetch_overlap_ratio() == 0.0
        assert drained_crawler.engine.fetch_overlap_ratio() > 0.0

    @pytest.mark.walltime
    def test_drain_overlaps_latency_with_scoring(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        """With injected latency (5 ms mean) the drained crawl runs at >= 2x
        a sequential ``LatencyTransport.fetch`` loop over the same fetches,
        because sleeps overlap each other and classification.  That loop
        sleeps through every injected delay one after another, so
        ``injected_s`` (the sum of the delays, ``time_scale=1``) is a floor
        on its wall time.  Marked `walltime`: coverage tracing slows the
        compute side while the sleeps stay fixed, so the coverage job
        deselects it."""
        started = time.perf_counter()
        crawler, _, trace = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds,
            max_pages=96, distill_every=0, engine="batched", batch_size=16,
            transport="latency", transport_options={"mean_latency_ms": 5.0, "seed": 4},
        )
        drained_s = time.perf_counter() - started
        assert trace.pages_fetched == 96
        sequential_floor_s = crawler.engine.transport.injected_s
        assert drained_s <= sequential_floor_s / 2.0
        assert crawler.engine.fetch_overlap_ratio() > 0.0

    @pytest.mark.parametrize("fetch_mode", ["auto", "threaded", "async", "telepathy"])
    def test_fetch_mode_is_accepted_and_ignored(
        self, small_web, trained_model, taxonomy, crawl_seeds, fetch_mode
    ):
        kwargs = dict(max_pages=40, distill_every=20, engine="batched", batch_size=8)
        _, base_db, base = run_crawl(small_web, trained_model, taxonomy, crawl_seeds, **kwargs)
        _, moded_db, moded = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds, fetch_mode=fetch_mode, **kwargs
        )
        assert moded.fetched_urls == base.fetched_urls
        assert moded.relevance_series() == base.relevance_series()
        assert sorted(moded_db.table("LINK").rows()) == sorted(base_db.table("LINK").rows())

    def test_job_spec_with_fetch_mode_still_loads(self):
        spec = JobSpec.from_dict({"max_pages": 5, "crawler": {"fetch_mode": "async"}})
        assert spec.crawler.fetch_mode == "async"
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_negative_inflight_rejected(self, small_web, trained_model, taxonomy):
        with pytest.raises(ValueError):
            run_crawl(small_web, trained_model, taxonomy, [], max_inflight=-1)

    def test_unknown_transport_rejected(self, small_web, trained_model, taxonomy):
        with pytest.raises(ValueError):
            run_crawl(small_web, trained_model, taxonomy, [], transport="morse")


class TestCrossRoundPrefetch:
    """``prefetch=True`` is accepted and ignored: cross-round prefetch was
    removed, and an old config that asks for it crawls what it crawls
    without the flag — URLs, relevance floats, failures, all four tables,
    inline and through the drain."""

    def assert_same_crawl(self, a_db, a_trace, b_db, b_trace):
        assert a_trace.fetched_urls == b_trace.fetched_urls
        assert a_trace.relevance_series() == b_trace.relevance_series()  # bitwise
        assert a_trace.failed_urls == b_trace.failed_urls
        assert a_trace.distillations == b_trace.distillations
        for table in ("CRAWL", "LINK", "HUBS", "AUTH"):
            assert sorted(a_db.table(table).rows()) == sorted(b_db.table(table).rows())

    def test_prefetch_bit_identical_simulated(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        kwargs = dict(max_pages=120, distill_every=50, engine="batched", batch_size=8)
        _, base_db, base = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds, prefetch=False, **kwargs
        )
        _, pre_db, pre = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds, prefetch=True, **kwargs
        )
        self.assert_same_crawl(base_db, base, pre_db, pre)

    def test_prefetch_bit_identical_latency(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        kwargs = dict(max_pages=80, distill_every=30, engine="batched", batch_size=8, **DELAYED)
        _, base_db, base = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds, prefetch=False, **kwargs
        )
        _, pre_db, pre = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds, prefetch=True, **kwargs
        )
        self.assert_same_crawl(base_db, base, pre_db, pre)

    def test_prefetch_leaves_no_counters(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        crawler, _, _ = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds,
            max_pages=120, distill_every=40, engine="batched", batch_size=8,
            prefetch=True, **DELAYED,
        )
        engine = crawler.engine
        # The stale-ratio stub reads zero and nothing else reports prefetch.
        assert engine.prefetch_stale_ratio() == 0.0
        assert set(engine.pipeline_stats()) == {"fetch_overlap_ratio", "frontier"}
        assert "prefetch" not in engine._small_state()

    def test_prefetch_ignored_at_k1(
        self, small_web, trained_model, taxonomy, crawl_seeds
    ):
        kwargs = dict(max_pages=40, distill_every=0, engine="serial")
        _, base_db, base = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds, prefetch=False, **kwargs
        )
        _, pre_db, pre = run_crawl(
            small_web, trained_model, taxonomy, crawl_seeds, prefetch=True, **kwargs
        )
        self.assert_same_crawl(base_db, base, pre_db, pre)


class TestOutcomeLRU:
    def test_put_get_and_eviction(self):
        cache = OutcomeLRU(capacity=2)
        cache.put(1, "a")
        cache.put(2, "b")
        assert cache.get(1) == "a"   # refreshes 1
        cache.put(3, "c")            # evicts 2 (least recent)
        assert cache.get(2) is None
        assert cache.get(1) == "a"
        assert cache.get(3) == "c"
        assert len(cache) == 2
        assert cache.hits == 3 and cache.misses == 1

    def test_zero_capacity_disables_cache(self):
        cache = OutcomeLRU(capacity=0)
        cache.put(1, "a")
        assert cache.get(1) is None
        assert len(cache) == 0
