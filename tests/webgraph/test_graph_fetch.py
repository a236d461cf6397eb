"""Tests for the synthetic web graph generator and the simulated fetcher.

These verify the structural properties the paper's architecture relies on
(radius-1 and radius-2 topical locality) actually hold in the generated
graph, as well as the mechanics crawlers depend on (seeds, distances,
failures, dead links).
"""

import numpy as np
import pytest

from repro.experiments.workloads import build_crawl_web
from repro.webgraph.fetch import Fetcher, FetchStatus
from repro.webgraph.graph import SyntheticWebBuilder, WebConfig
from repro.webgraph.urls import normalize_url

GOOD = "recreation/cycling"


@pytest.fixture(scope="module")
def web():
    config = WebConfig(
        seed=5,
        pages_per_topic=40,
        topic_page_overrides={GOOD: 100},
        background_pages=250,
        mean_doc_length=50,
        popular_sites=5,
        link_locality_window=12,
        seed_region_fraction=0.3,
    )
    return SyntheticWebBuilder(config).build()


class TestGraphStructure:
    def test_page_counts_match_config(self, web):
        census = web.topic_census()
        assert census[GOOD] == 100
        assert census["recreation/running"] == 40
        # Background and popular pages both carry the empty topic path.
        assert census[""] == 250 + 5
        assert len(web) == sum(census.values())

    def test_pages_have_text_and_links(self, web):
        for url in list(web.urls())[:50]:
            page = web.page(url)
            assert page.tokens
            assert page.url == normalize_url(page.url)

    def test_radius_1_rule_holds(self, web):
        """Relevant pages cite relevant pages far more often than background pages do."""
        def fraction_to_good(urls):
            same = other = 0
            for url in urls:
                for target in web.out_links(url):
                    if not web.has_page(target):
                        continue
                    if web.topic_of(target) == GOOD:
                        same += 1
                    else:
                        other += 1
            return same / max(same + other, 1)

        cycling_fraction = fraction_to_good(web.pages_of_topic(GOOD))
        background_fraction = fraction_to_good(web.pages_of_topic("", include_descendants=False))
        assert cycling_fraction > 0.35
        assert background_fraction < 0.05
        assert cycling_fraction > 10 * background_fraction

    def test_radius_2_rule_holds(self, web):
        """Given one link to the topic, the chance of a second link is strongly inflated."""
        pages_with_one = 0
        pages_with_two = 0
        baseline_with_any = 0
        all_pages = web.urls()
        for url in all_pages:
            targets = [t for t in web.out_links(url) if web.has_page(t)]
            count = sum(1 for t in targets if web.topic_of(t) == GOOD)
            if count >= 1:
                baseline_with_any += 1
                pages_with_one += 1
                if count >= 2:
                    pages_with_two += 1
        conditional = pages_with_two / max(pages_with_one, 1)
        unconditional = baseline_with_any / len(all_pages)
        assert conditional > 2 * unconditional

    def test_hubs_have_larger_out_degree(self, web):
        hubs = web.hub_pages(GOOD)
        ordinary = [u for u in web.pages_of_topic(GOOD) if not web.page(u).is_hub]
        assert hubs
        mean_hub = np.mean([len(web.out_links(u)) for u in hubs])
        mean_ordinary = np.mean([len(web.out_links(u)) for u in ordinary])
        assert mean_hub > 1.5 * mean_ordinary

    def test_in_links_are_consistent_with_out_links(self, web):
        url = web.pages_of_topic(GOOD)[1]
        for source in web.in_links(url):
            assert normalize_url(url) in [normalize_url(t) for t in web.out_links(source)]

    def test_relevant_pages_includes_descendants(self, web):
        relevant = web.relevant_pages(["recreation"])
        assert set(web.pages_of_topic(GOOD)).issubset(relevant)

    def test_deterministic_for_fixed_seed(self):
        config = WebConfig(seed=9, pages_per_topic=20, background_pages=50, mean_doc_length=40)
        first = SyntheticWebBuilder(config).build()
        second = SyntheticWebBuilder(WebConfig(seed=9, pages_per_topic=20, background_pages=50, mean_doc_length=40)).build()
        assert first.urls() == second.urls()
        sample = first.urls()[17]
        assert first.page(sample).out_links == second.page(sample).out_links


class TestSeedsAndDistances:
    def test_keyword_seeds_are_on_topic_and_in_head_region(self, web):
        seeds = web.keyword_seed_pages(GOOD, count=12)
        assert len(seeds) == 12
        assert all(web.topic_of(u) == GOOD for u in seeds)
        cutoff = max(24, int(100 * web.config.seed_region_fraction))
        assert all(web.page(u).topic_index < cutoff for u in seeds)

    def test_disjoint_seed_sets(self, web):
        first, second = web.disjoint_seed_sets(GOOD, size=10)
        assert len(first) == len(second) == 10
        assert not set(first) & set(second)

    def test_shortest_distances_bfs(self, web):
        seeds = web.keyword_seed_pages(GOOD, count=5)
        distances = web.shortest_distances(seeds)
        assert all(distances[u] == 0 for u in seeds)
        assert max(distances.values()) >= 1

    def test_seed_request_larger_than_topic(self, web):
        seeds = web.keyword_seed_pages("arts/music", count=10_000)
        assert len(seeds) == 40


class TestFetcher:
    def test_fetch_ok_returns_tokens_and_links(self, web):
        fetcher = Fetcher(web, simulate_failures=False)
        url = web.pages_of_topic(GOOD)[0]
        result = fetcher.fetch(url)
        assert result.ok and result.status is FetchStatus.OK
        assert result.tokens and result.server
        assert result.oid == web.page(url).oid
        assert fetcher.stats.successes == 1

    def test_fetch_unknown_url_is_not_found(self, web):
        fetcher = Fetcher(web)
        result = fetcher.fetch("http://nowhere.example.org/missing.html")
        assert result.status is FetchStatus.NOT_FOUND
        assert result.tokens == []
        assert fetcher.stats.not_found == 1

    def test_dead_links_exist_and_return_not_found(self, web):
        fetcher = Fetcher(web, simulate_failures=False)
        dead = [
            target
            for url in web.urls()
            for target in web.out_links(url)
            if not web.has_page(target)
        ]
        assert dead, "the generator should produce some dead links"
        assert fetcher.fetch(dead[0]).status is FetchStatus.NOT_FOUND

    def test_transient_failures_occur_with_failure_simulation(self, web):
        fetcher = Fetcher(web, failure_seed=3, simulate_failures=True)
        statuses = [fetcher.fetch(u).status for u in web.urls()[:400]]
        assert FetchStatus.SERVER_ERROR in statuses
        assert fetcher.stats.attempts == 400
        assert fetcher.stats.total_latency_ms > 0

    def test_fetch_normalizes_url(self, web):
        fetcher = Fetcher(web, simulate_failures=False)
        url = web.pages_of_topic(GOOD)[0]
        shouting = url.replace("http://", "HTTP://")
        assert fetcher.fetch(shouting).ok


class TestLinkContract:
    """The fetcher hands out a page's out-links as the web stores them: the
    builder normalises every one, dead links included, so nothing is
    normalised per fetch (the crawl engine resolves each link anyway)."""

    @pytest.mark.parametrize("scale", [0.3, 1.0])
    def test_every_stored_out_link_is_normalised(self, scale):
        web = build_crawl_web(7, scale)
        links = [link for page in web.pages.values() for link in page.out_links]
        assert links and [link for link in links if normalize_url(link) != link] == []
        # The dead-link rewrite ran, and its targets are normalised too.
        dead = [link for link in links if "/dead/" in link]
        assert dead and all(not web.has_page(link) for link in dead)

    def test_a_fetch_hands_out_the_stored_links(self, web):
        fetcher = Fetcher(web, simulate_failures=False)
        page = web.page(web.pages_of_topic(GOOD)[0])
        result = fetcher.fetch(page.url)
        assert result.out_links == page.out_links
        assert result.out_links is not page.out_links  # a copy: the crawl may keep it
