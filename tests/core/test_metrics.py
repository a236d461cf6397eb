"""Tests for the evaluation metrics (harvest rate, coverage, distances, co-topics)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import metrics
from repro.crawler.focused import CrawlTrace, PageVisit


def make_trace(relevances, urls=None):
    trace = CrawlTrace()
    for i, relevance in enumerate(relevances):
        url = urls[i] if urls else f"http://s{i % 3}.example/{i}"
        trace.visits.append(PageVisit(tick=i + 1, url=url, relevance=relevance))
    return trace


class TestMovingAverageAndHarvest:
    def test_moving_average_window_one_is_identity(self):
        assert metrics.moving_average([1, 2, 3], 1) == [1, 2, 3]

    def test_moving_average_trailing_window(self):
        assert metrics.moving_average([1.0, 1.0, 4.0, 4.0], 2) == [1.0, 1.0, 2.5, 4.0]

    def test_moving_average_rejects_bad_window(self):
        with pytest.raises(ValueError):
            metrics.moving_average([1.0], 0)

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=80), st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_moving_average_bounds_property(self, values, window):
        averaged = metrics.moving_average(values, window)
        assert len(averaged) == len(values)
        assert all(min(values) - 1e-9 <= a <= max(values) + 1e-9 for a in averaged)

    def test_harvest_series_and_average(self):
        trace = make_trace([1.0, 0.0, 1.0, 0.0])
        series = metrics.harvest_series(trace, window=2)
        assert series[0] == (1, 1.0)
        assert series[-1][1] == 0.5
        assert metrics.average_harvest_rate(trace) == 0.5
        assert metrics.average_harvest_rate(trace, skip_first=2) == 0.5
        assert metrics.average_harvest_rate(CrawlTrace()) == 0.0


class TestCoverage:
    def test_coverage_series_monotone_and_bounded(self):
        reference = make_trace([0.9] * 6, urls=[f"http://ref{i}.example/x" for i in range(6)])
        test_urls = [f"http://ref{i}.example/x" for i in range(4)] + ["http://other.example/y"]
        test = make_trace([0.5] * 5, urls=test_urls)
        points = metrics.coverage_series(reference, test, relevance_threshold=0.5)
        url_coverages = [p.url_coverage for p in points]
        assert url_coverages == sorted(url_coverages)
        assert points[-1].url_coverage == pytest.approx(4 / 6)
        assert points[-1].server_coverage == pytest.approx(4 / 6)

    def test_relevance_threshold_filters_reference(self):
        reference = make_trace([0.9, 0.1], urls=["http://a.example/1", "http://b.example/2"])
        assert metrics.relevant_reference_set(reference, 0.5) == {"http://a.example/1"}

    def test_empty_reference_yields_no_points(self):
        reference = make_trace([0.0, 0.0])
        test = make_trace([0.5])
        assert metrics.coverage_series(reference, test, relevance_threshold=0.9) == []


class TestDistances:
    def test_distance_histogram_full_graph(self, small_web):
        seeds = small_web.keyword_seed_pages("recreation/cycling", count=5)
        targets = small_web.pages_of_topic("recreation/cycling")[:30]
        histogram = metrics.distance_histogram(small_web, seeds, targets)
        assert sum(histogram.values()) == 30
        assert all(d >= -1 for d in histogram)

    def test_crawl_distances_only_expand_visited_pages(self, small_web):
        seeds = small_web.keyword_seed_pages("recreation/cycling", count=3)
        # A trace that visited only the seeds: distances beyond their direct
        # out-links must be unknown.
        trace = make_trace([1.0] * len(seeds), urls=seeds)
        distances = metrics.crawl_distances(small_web, trace, seeds)
        assert all(d <= 1 for d in distances.values())
        full = small_web.shortest_distances(seeds)
        assert len(distances) <= len(full)

    def test_crawl_distance_histogram_marks_unreached(self, small_web):
        seeds = small_web.keyword_seed_pages("recreation/cycling", count=3)
        trace = make_trace([1.0] * len(seeds), urls=seeds)
        far_targets = small_web.pages_of_topic("arts/music")[:5]
        histogram = metrics.crawl_distance_histogram(small_web, trace, seeds, far_targets)
        assert histogram.get(-1, 0) >= 1


class TestCitationSociology:
    def test_cotopic_detection(self, small_web, taxonomy, trained_model):
        # Build a small artificial trace: cycling pages plus the first-aid
        # pages they link to, plus unrelated music pages as background.
        from repro.classifier.tokenizer import term_frequencies

        cycling = small_web.pages_of_topic("recreation/cycling")[:40]
        linked = [
            t
            for u in cycling
            for t in small_web.out_links(u)
            if small_web.has_page(t) and small_web.topic_of(t) == "health/first_aid"
        ]
        music = small_web.pages_of_topic("arts/music")[:30]
        urls = cycling + linked + music
        trace = CrawlTrace()
        for i, url in enumerate(urls):
            doc = term_frequencies(small_web.page(url).tokens)
            trace.visits.append(
                PageVisit(
                    tick=i,
                    url=url,
                    relevance=trained_model.relevance(doc),
                    best_leaf_cid=trained_model.best_leaf(doc),
                )
            )
        good_urls = set(cycling)
        exclude = {taxonomy.by_path("recreation/cycling").cid}
        names = {n.cid: n.path for n in taxonomy.nodes()}
        cotopics = metrics.citation_sociology(trace, small_web, good_urls, names, exclude)
        if linked:  # the generator links cycling → first aid with nonzero probability
            assert cotopics
            assert cotopics[0].name == "health/first_aid"
            assert cotopics[0].lift > 0.0
            # Music was crawled in bulk but is never cited by cycling pages,
            # so it must not outrank the genuine co-topic.
            music_lifts = [c.lift for c in cotopics if c.name == "arts/music"]
            assert all(cotopics[0].lift >= lift for lift in music_lifts)

    def test_insufficient_neighbourhood_returns_empty(self, small_web, taxonomy):
        trace = make_trace([0.9])
        result = metrics.citation_sociology(trace, small_web, set(), {}, set())
        assert result == []
