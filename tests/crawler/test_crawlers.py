"""Integration tests for the focused crawler, the unfocused baseline, and monitoring."""

import pytest

from repro.core.schema import create_focus_database
from repro.crawler.focused import CrawlerConfig, FocusedCrawler
from repro.crawler.monitor import CrawlMonitor
from repro.crawler.policies import breadth_first
from repro.webgraph.fetch import Fetcher

GOOD = "recreation/cycling"


def make_crawler(small_web, trained_model, taxonomy, focused=True, **config_kwargs):
    from repro.classifier.training import ModelInstaller

    database = create_focus_database(buffer_pool_pages=512)
    # The crawl database also carries the classifier tables, as in the paper's
    # single-DB architecture (monitoring SQL joins CRAWL with TAXONOMY).
    ModelInstaller(database).install(trained_model)
    fetcher = Fetcher(small_web, simulate_failures=False)
    if not focused:
        # The unfocused baseline's preset (FocusSystem.start, focused=False).
        config_kwargs.update(focus_mode="none", distill_every=0)
    config = CrawlerConfig(max_pages=config_kwargs.pop("max_pages", 120), **config_kwargs)
    crawler = FocusedCrawler(fetcher, trained_model, taxonomy, database, config)
    return crawler, database


@pytest.fixture(scope="module")
def focused_run(small_web, trained_model, taxonomy):
    """One moderately sized focused crawl shared by several read-only tests."""
    crawler, database = make_crawler(
        small_web, trained_model, taxonomy, max_pages=150, distill_every=60
    )
    seeds = small_web.keyword_seed_pages(GOOD, count=10)
    crawler.add_seeds(seeds)
    trace = crawler.crawl()
    return crawler, database, trace, seeds


class TestFocusedCrawler:
    def test_crawl_fetches_requested_number_of_pages(self, focused_run):
        _, _, trace, _ = focused_run
        assert trace.pages_fetched == 150
        assert len(trace.fetched_urls) == 150
        assert len(set(trace.fetched_urls)) == 150  # no page fetched twice

    def test_crawl_tables_populated(self, focused_run):
        _, database, trace, _ = focused_run
        visited = database.sql("select count(*) n from CRAWL where status = 'visited'")[0]["n"]
        assert visited == trace.pages_fetched
        assert len(database.table("LINK")) > trace.pages_fetched
        frontier = database.sql("select count(*) n from CRAWL where status = 'frontier'")[0]["n"]
        assert frontier > 0

    def test_harvest_beats_unfocused_baseline(self, small_web, trained_model, taxonomy, focused_run):
        _, _, focused_trace, seeds = focused_run
        baseline, _ = make_crawler(
            small_web, trained_model, taxonomy, focused=False, max_pages=150
        )
        baseline.add_seeds(seeds)
        unfocused_trace = baseline.crawl()
        focused_harvest = sum(focused_trace.relevance_series()) / 150
        unfocused_harvest = sum(unfocused_trace.relevance_series()) / 150
        assert focused_harvest > unfocused_harvest

    def test_distillation_ran_and_scores_stored(self, focused_run):
        crawler, database, trace, _ = focused_run
        assert trace.distillations >= 1
        assert len(database.table("HUBS")) > 0
        top_hubs = crawler.top_hubs(5)
        assert top_hubs and all(isinstance(url, str) for url, _ in top_hubs)
        assert crawler.top_authorities(5)

    def test_link_weights_reflect_relevance(self, focused_run):
        _, database, _, _ = focused_run
        rows = database.sql("select wgt_fwd, wgt_rev from LINK limit 200")
        assert all(0.0 <= r["wgt_fwd"] <= 1.0 and 0.0 <= r["wgt_rev"] <= 1.0 for r in rows)

    def test_visits_record_best_leaf_class(self, focused_run, taxonomy):
        _, _, trace, _ = focused_run
        assert all(visit.best_leaf_cid is not None for visit in trace.visits)
        leaf_cids = {leaf.cid for leaf in taxonomy.leaves()}
        assert all(visit.best_leaf_cid in leaf_cids for visit in trace.visits)

    def test_hard_focus_mode_expands_fewer_links(self, small_web, trained_model, taxonomy):
        soft, _ = make_crawler(small_web, trained_model, taxonomy, max_pages=60, focus_mode="soft", distill_every=0)
        hard, _ = make_crawler(small_web, trained_model, taxonomy, max_pages=60, focus_mode="hard", distill_every=0)
        seeds = small_web.keyword_seed_pages(GOOD, count=8)
        soft.add_seeds(seeds)
        hard.add_seeds(seeds)
        soft.crawl()
        hard.crawl()
        assert len(hard.frontier.known_urls()) <= len(soft.frontier.known_urls())

    def test_invalid_focus_mode_rejected(self, small_web, trained_model, taxonomy):
        with pytest.raises(ValueError):
            make_crawler(small_web, trained_model, taxonomy, focus_mode="fuzzy")

    def test_crawl_handles_failures_and_dead_links(self, small_web, trained_model, taxonomy):
        database = create_focus_database(buffer_pool_pages=256)
        fetcher = Fetcher(small_web, failure_seed=1, simulate_failures=True)
        crawler = FocusedCrawler(
            fetcher, trained_model, taxonomy, database, CrawlerConfig(max_pages=80, distill_every=0)
        )
        crawler.add_seeds(small_web.keyword_seed_pages(GOOD, count=10))
        trace = crawler.crawl()
        assert trace.pages_fetched == 80
        # Transient failures and dead links are recorded, not fatal.
        assert database.sql("select count(*) n from CRAWL where numtries > 0 and status <> 'visited'")

    def test_stagnation_when_frontier_exhausted(self, small_web, trained_model, taxonomy):
        crawler, _ = make_crawler(small_web, trained_model, taxonomy, max_pages=10_000, focus_mode="hard", distill_every=0)
        # A single seed from a *small* sibling topic: hard focus refuses to expand
        # off-topic pages, so the frontier dries up long before the budget.
        crawler.add_seeds(small_web.pages_of_topic("arts/music")[:1])
        trace = crawler.crawl()
        assert trace.stagnated
        assert trace.pages_fetched < 10_000


class TestUnfocusedCrawler:
    def test_unfocused_ignores_relevance_for_ordering(self, small_web, trained_model, taxonomy):
        crawler, _ = make_crawler(small_web, trained_model, taxonomy, focused=False, max_pages=40)
        seeds = small_web.keyword_seed_pages(GOOD, count=5)
        crawler.add_seeds(seeds)
        trace = crawler.crawl()
        assert trace.pages_fetched == 40
        assert crawler.frontier.ordering == breadth_first()
        assert trace.distillations == 0
        # Relevance is still *measured* for every page (Figure 5a needs it).
        assert all(0.0 <= v.relevance <= 1.0 for v in trace.visits)


class TestMonitor:
    def test_harvest_rate_buckets(self, focused_run):
        _, database, trace, _ = focused_run
        monitor = CrawlMonitor(database)
        buckets = monitor.harvest_rate_by_bucket(bucket_size=50)
        assert sum(row["pages"] for row in buckets) == trace.pages_fetched
        assert all(0.0 <= row["avg_relevance"] <= 1.0 for row in buckets)

    def test_topic_census_names_and_counts(self, focused_run):
        _, database, trace, _ = focused_run
        census = CrawlMonitor(database).topic_census(limit=3)
        assert census and census[0]["cnt"] >= census[-1]["cnt"]
        assert all(isinstance(row["name"], str) for row in census)

    def test_missed_hub_neighbours_query(self, focused_run):
        _, database, _, _ = focused_run
        monitor = CrawlMonitor(database)
        psi = monitor.hub_score_percentile(0.9)
        missed = monitor.missed_hub_neighbours(psi)
        # Every returned URL must be unvisited (numtries = 0).
        urls = {row["url"] for row in missed}
        if urls:
            counts = database.sql("select count(*) n from CRAWL where numtries = 0 and url in (select url from CRAWL where numtries = 0)")
            assert counts[0]["n"] >= len(urls)

    def test_frontier_and_visited_counts(self, focused_run):
        _, database, trace, _ = focused_run
        monitor = CrawlMonitor(database)
        assert monitor.visited_count() == trace.pages_fetched
        assert monitor.frontier_size() > 0
        assert 0.0 <= monitor.average_relevance() <= 1.0
        assert 0.0 <= monitor.average_relevance(last_n_ticks=50) <= 1.0

    def test_subtree_census_covers_whole_tree(self, focused_run, taxonomy):
        _, database, trace, _ = focused_run
        monitor = CrawlMonitor(database)
        root = database.sql("select kcid from TAXONOMY where pcid is null")[0]["kcid"]
        census = monitor.subtree_census(root)
        # The root subtree holds every visited page; a leaf subtree a slice.
        assert census["pages"] == trace.pages_fetched
        assert 0.0 <= census["avg_relevance"] <= 1.0
        children = database.sql(
            "select kcid from TAXONOMY where pcid = :root", {"root": root}
        )
        child_total = sum(
            monitor.subtree_census(row["kcid"])["pages"] for row in children
        )
        at_root = database.sql(
            "select count(*) n from CRAWL where status = 'visited' and kcid = :root",
            {"root": root},
        )[0]["n"]
        assert child_total == census["pages"] - at_root

    def test_stagnation_report_fields(self, focused_run):
        _, database, _, _ = focused_run
        report = CrawlMonitor(database).diagnose_stagnation(relevance_floor=0.01)
        assert report.frontier_size > 0
        assert report.dominant_kcid is not None
        assert 0.0 <= report.dominant_share <= 1.0
        assert report.stagnating in (True, False)
