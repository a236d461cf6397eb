"""CrawlHandle: the stepped/pausable unit the crawl facade and service share."""

import pytest

from repro.core.config import FocusConfig, JobSpec
from repro.core.system import FocusSystem
from repro.crawler.focused import CrawlerConfig

GOOD = "recreation/cycling"


@pytest.fixture(scope="module")
def system(small_web):
    config = FocusConfig(
        good_topics=(GOOD,),
        examples_per_leaf=12,
        seed_count=10,
        crawler=CrawlerConfig(max_pages=120, distill_every=60),
    )
    focus = FocusSystem.from_web(small_web, [GOOD], config)
    focus.train()
    return focus


@pytest.fixture(scope="module")
def reference(system):
    """The uninterrupted solo crawl every stepped variant must match."""
    return system.crawl(max_pages=120, fetch_failure_seed=3)


def assert_same_crawl(result, reference):
    assert result.trace.fetched_urls == reference.trace.fetched_urls
    assert [v.relevance for v in result.trace.visits] == [
        v.relevance for v in reference.trace.visits
    ]


class TestStepping:
    def test_single_round_steps_are_bit_identical_to_run(self, system, reference):
        handle = system.start(JobSpec(max_pages=120, fetch_failure_seed=3))
        total = 0
        while not handle.done:
            total += handle.step(rounds=1)
        assert total == reference.trace.pages_fetched
        assert_same_crawl(handle.result(), reference)

    def test_step_returns_zero_after_completion(self, system):
        handle = system.start(JobSpec(max_pages=40, fetch_failure_seed=3))
        handle.run()
        assert handle.done
        assert handle.step() == 0

    def test_pause_blocks_stepping_until_resume(self, system, reference):
        handle = system.start(JobSpec(max_pages=120, fetch_failure_seed=3))
        handle.step(rounds=2)
        handle.pause()
        assert handle.status == "paused"
        assert handle.step(rounds=5) == 0
        with pytest.raises(RuntimeError, match="paused"):
            handle.run()
        handle.resume()
        assert_same_crawl(handle.run(), reference)

    def test_progress_reports_live_state(self, system):
        handle = system.start(JobSpec(max_pages=120, fetch_failure_seed=3, name="probe"))
        handle.step(rounds=1)
        progress = handle.progress()
        assert progress["name"] == "probe"
        assert progress["status"] == "running"
        assert 0 < progress["pages_fetched"] <= 120
        assert progress["budget"] == 120
        assert progress["fetch_attempts"] >= progress["pages_fetched"]
        pipeline = progress["pipeline"]
        assert set(pipeline) == {"fetch_overlap_ratio", "frontier"}
        assert "prefetch" not in pipeline
        assert pipeline["frontier"]["frontier_size"] >= 0
        handle.cancel()
        assert handle.status == "cancelled"
        assert handle.result().trace is handle.trace


class TestLifecycle:
    def test_cancel_keeps_the_partial_crawl(self, system):
        handle = system.start(JobSpec(max_pages=120, fetch_failure_seed=3))
        handle.step(rounds=3)
        fetched = handle.pages_fetched
        handle.cancel()
        assert handle.done
        assert handle.result().trace.pages_fetched == fetched
        handle.cancel()  # idempotent
        assert handle.status == "cancelled"

    def test_fetch_budget_exhaustion_is_a_terminal_state(self, system):
        handle = system.start(JobSpec(max_pages=120, fetch_failure_seed=3, fetch_budget=30))
        result = handle.run()
        assert handle.status == "exhausted"
        assert handle.fetch_attempts() >= 30
        assert result.trace.pages_fetched < 120

    def test_pause_after_completion_is_an_error(self, system):
        handle = system.start(JobSpec(max_pages=30, fetch_failure_seed=3))
        handle.run()
        with pytest.raises(RuntimeError, match="cannot pause"):
            handle.pause()
        with pytest.raises(RuntimeError, match="only paused"):
            handle.resume()

    def test_result_before_terminal_state_is_an_error(self, system):
        handle = system.start(JobSpec(max_pages=120, fetch_failure_seed=3))
        with pytest.raises(RuntimeError, match="pending"):
            handle.result()
        handle.cancel()

    def test_start_rejects_foreign_topics(self, system):
        with pytest.raises(ValueError, match="trained for"):
            system.start(JobSpec(good_topics=("health/first_aid",), max_pages=30))


class TestCallerObjects:
    def test_a_callers_crawler_config_is_never_written(self, system):
        """The unfocused preset and a page budget go into the job's own
        copy: the caller's config still equals a fresh one, and a focused
        crawl with it afterwards is the crawl a fresh config runs."""

        def fresh():
            return CrawlerConfig(max_pages=90, distill_every=30)

        config = fresh()
        unfocused = system.crawl(crawler_config=config, focused=False, fetch_failure_seed=3)
        assert unfocused.crawler.config.focus_mode == "none"
        assert unfocused.trace.distillations == 0
        assert config == fresh()
        system.crawl(crawler_config=config, max_pages=40, fetch_failure_seed=3)
        assert config == fresh()
        handle = system.start(JobSpec(crawler=config, max_pages=40, focused=False))
        assert handle.spec.crawler is not config and handle.spec.crawler.max_pages == 40
        assert config == fresh()
        handle.cancel()

        again = system.crawl(crawler_config=config, fetch_failure_seed=3)
        reference = system.crawl(crawler_config=fresh(), fetch_failure_seed=3)
        assert again.trace.distillations == reference.trace.distillations == 3
        assert_same_crawl(again, reference)
        assert again.trace.failed_urls == reference.trace.failed_urls


class TestMonitorReopen:
    def test_monitor_reopens_a_closed_durable_database(self, system, tmp_path):
        path = str(tmp_path / "crawl")
        result = system.crawl(max_pages=60, checkpoint_dir=path)
        visited_before = result.monitor().visited_count()
        assert visited_before > 0
        result.database.close()
        monitor = result.monitor()
        assert result.database.closed is False
        assert monitor.visited_count() == visited_before
        result.database.close()

    def test_monitor_on_a_closed_memory_database_raises(self, system):
        result = system.crawl(max_pages=40)
        result.database.close()
        with pytest.raises(RuntimeError, match="closed"):
            result.monitor()
