"""JobManager: K concurrent crawl jobs, each bit-identical to a solo run."""

import asyncio

import pytest

from repro.core.config import FocusConfig, JobSpec
from repro.core.system import FocusSystem
from repro.crawler.focused import CrawlerConfig
from repro.crawler.policies import FetchPolicy
from repro.service import JobManager

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
def solo_runs(system):
    """Reference solo crawls, one per failure seed used by the fleet test."""
    runs = {}
    for seed in range(8):
        result = system.crawl(max_pages=60, fetch_failure_seed=seed)
        runs[seed] = (
            list(result.trace.fetched_urls),
            [visit.relevance for visit in result.trace.visits],
        )
    return runs


class TestConcurrentDeterminism:
    def test_eight_concurrent_jobs_match_their_solo_runs(self, system, solo_runs):
        manager = JobManager(
            system, policy=FetchPolicy(max_inflight=4), rounds_per_step=1
        )
        ids = {
            seed: manager.submit(
                JobSpec(max_pages=60, fetch_failure_seed=seed, name=f"tenant-{seed}")
            )
            for seed in range(8)
        }
        manager.run_until_idle()
        for seed, job_id in ids.items():
            summary = manager.result_summary(job_id)
            assert summary["status"] == "completed", seed
            urls, relevance = solo_runs[seed]
            assert summary["fetched_urls"] == urls, seed
            assert summary["relevance"] == relevance, seed
        assert manager.pool.total_fetches > 0

    def test_round_robin_interleaves_all_jobs(self, system):
        manager = JobManager(system, rounds_per_step=1)
        ids = [
            manager.submit(JobSpec(max_pages=60, fetch_failure_seed=seed))
            for seed in range(3)
        ]
        manager.step_once()
        progress = [manager.progress(job_id)["pages_fetched"] for job_id in ids]
        # One sweep = one engine round each: every job advanced, none finished.
        assert all(pages > 0 for pages in progress)
        assert all(pages < 60 for pages in progress)
        manager.run_until_idle()
        assert all(job["status"] == "completed" for job in manager.jobs())


class TestLifecycle:
    def test_pause_resume_mid_fleet_is_bit_identical(self, system, solo_runs):
        manager = JobManager(system, rounds_per_step=1)
        paused_id = manager.submit(JobSpec(max_pages=60, fetch_failure_seed=2))
        other_id = manager.submit(JobSpec(max_pages=60, fetch_failure_seed=5))
        manager.step_once()
        manager.pause(paused_id)
        assert manager.progress(paused_id)["status"] == "paused"
        manager.run_until_idle()  # the other job runs to completion alone
        assert manager.progress(other_id)["status"] == "completed"
        manager.resume(paused_id)
        manager.run_until_idle()
        summary = manager.result_summary(paused_id)
        urls, relevance = solo_runs[2]
        assert summary["fetched_urls"] == urls
        assert summary["relevance"] == relevance

    def test_fetch_budget_exhaustion(self, system):
        manager = JobManager(system, rounds_per_step=1)
        job_id = manager.submit(
            JobSpec(max_pages=120, fetch_failure_seed=3, fetch_budget=30)
        )
        manager.run_until_idle()
        summary = manager.result_summary(job_id)
        assert summary["status"] == "exhausted"
        assert summary["fetch_attempts"] >= 30
        assert summary["pages_fetched"] < 120

    def test_cancel(self, system):
        manager = JobManager(system, rounds_per_step=1)
        job_id = manager.submit(JobSpec(max_pages=120, fetch_failure_seed=3))
        manager.step_once()
        manager.cancel(job_id)
        summary = manager.result_summary(job_id)
        assert summary["status"] == "cancelled"
        assert 0 < summary["pages_fetched"] < 120
        assert not manager.step_once()

    def test_unknown_job_raises_keyerror(self, system):
        manager = JobManager(system)
        with pytest.raises(KeyError, match="job-9999"):
            manager.progress("job-9999")

    def test_latencies_cover_finished_jobs(self, system):
        manager = JobManager(system)
        manager.submit(JobSpec(max_pages=30, fetch_failure_seed=1))
        manager.submit(JobSpec(max_pages=30, fetch_failure_seed=2))
        assert manager.latencies() == []
        manager.run_until_idle()
        latencies = manager.latencies()
        assert len(latencies) == 2
        assert all(latency > 0 for latency in latencies)


class TestReadsSeeASyncedTable:
    def test_a_live_job_read_between_steps_agrees_with_its_progress(self, system):
        """The engine buffers CRAWL writes between flush points (here every
        60 pages); a service read flushes them first, so ``/query``, the
        SQL harvest curve and the ``stats`` census count every page the
        job's ``progress()`` reports, after every quantum."""
        manager = JobManager(system, rounds_per_step=1)
        job_id = manager.submit(JobSpec(max_pages=100, fetch_failure_seed=3))
        visited = "select count(*) n from CRAWL where status = 'visited'"
        reads = 0
        while manager.step_once():
            pages = manager.progress(job_id)["pages_fetched"]
            assert manager.query(job_id, visited) == [{"n": pages}]
            assert sum(row["pages"] for row in manager.harvest_sql(job_id, bucket=25)) == pages
            assert manager.stats(job_id)["crawl"]["visited"] == pages
            reads += 1
        assert reads > 50
        assert manager.result_summary(job_id)["pages_fetched"] == 100

    def test_a_handle_monitor_reads_what_the_crawl_fetched(self, system):
        handle = system.start(JobSpec(max_pages=45, fetch_failure_seed=3))
        while not handle.done:
            handle.step(1)
            assert handle.monitor().visited_count() == handle.pages_fetched
        handle.close()


class TestSharedPool:
    def test_a_settled_fetch_takes_no_slot_but_is_counted(self, system):
        """A simulated tenant's fetches owe no wait: its rounds run inline,
        outside the gate, and the pool still counts every one."""
        manager = JobManager(system, policy=FetchPolicy(max_inflight=1), rounds_per_step=1)
        job_id = manager.submit(JobSpec(max_pages=30, fetch_failure_seed=1))
        manager.run_until_idle()
        pool = manager.pool.snapshot()
        assert pool["total_fetches"] == manager.result_summary(job_id)["fetch_attempts"] > 0
        assert pool["peak_inflight"] == pool["waits"] == pool["inflight"] == 0

    def test_a_transport_raising_mid_drain_returns_every_slot(self, system):
        """The first wait of a drained round raises while the rest of the
        round holds pool slots: the job fails, and tearing its event loop
        down runs each cancelled wait to its end — on the loop, before it
        closes, as ``asyncio.run`` does — releasing its slot.  A cancelled
        wait here cleans up across one more loop pass, as closing a real
        connection does, so it is still pending when the failed round
        returns: only the teardown can end it on the loop."""

        class FailsFirstWait:
            def __init__(self, inner):
                self.inner = inner
                self.waits = 0
                self.ended_on_loop = 0

            def __getattr__(self, name):
                return getattr(self.inner, name)

            async def wait(self, pending):
                self.waits += 1
                if self.waits == 1:
                    raise OSError("connection reset")
                try:
                    return await self.inner.wait(pending)
                except asyncio.CancelledError:
                    await asyncio.sleep(0)
                    raise
                finally:
                    try:
                        asyncio.get_running_loop()
                        self.ended_on_loop += 1
                    except RuntimeError:  # finalised by the collector, loop gone
                        pass

        manager = JobManager(system, rounds_per_step=1)
        pooled = manager.pool.wrap
        failing = []

        def wrap(transport):
            failing.append(FailsFirstWait(transport))
            return pooled(failing[-1])

        manager.pool.wrap = wrap
        slow = CrawlerConfig(
            max_pages=40,
            engine="batched",
            batch_size=8,
            transport="latency",
            transport_options={"mean_latency_ms": 50.0, "jitter": 0.0},
        )
        job_id = manager.submit(JobSpec(max_pages=40, crawler=slow))
        manager.run_until_idle()
        progress = manager.progress(job_id)
        assert progress["status"] == "failed"
        assert progress["error"] == "OSError: connection reset"
        pool = manager.pool.snapshot()
        assert pool["peak_inflight"] == 7  # the rest of the round was in flight
        assert failing[0].ended_on_loop == 7
        assert pool["inflight"] == 0


class TestWorkerThread:
    def test_background_worker_drains_jobs(self, system, solo_runs):
        manager = JobManager(system, rounds_per_step=2)
        manager.start()
        try:
            job_id = manager.submit(JobSpec(max_pages=60, fetch_failure_seed=4))
            import time

            deadline = time.monotonic() + 30
            while manager.progress(job_id)["status"] != "completed":
                assert time.monotonic() < deadline, "job did not finish in time"
                time.sleep(0.01)
        finally:
            manager.stop()
        urls, relevance = solo_runs[4]
        summary = manager.result_summary(job_id)
        assert summary["fetched_urls"] == urls
        assert summary["relevance"] == relevance


def sharded_crawler_config() -> CrawlerConfig:
    # The service wraps every job's transport in the shared pool, which
    # cannot cross a process boundary: sharded jobs run in-process.
    return CrawlerConfig(
        engine="sharded",
        shards=2,
        shard_runner="inprocess",
        max_pages=60,
        batch_size=8,
        distill_every=30,
    )


class TestShardedJobs:
    def test_sharded_job_is_bit_identical_to_solo(self, system):
        solo = system.start(
            JobSpec(max_pages=60, crawler=sharded_crawler_config())
        ).run()
        manager = JobManager(system, rounds_per_step=1)
        job_id = manager.submit(
            JobSpec(max_pages=60, crawler=sharded_crawler_config(), name="sharded")
        )
        other = manager.submit(JobSpec(max_pages=60, fetch_failure_seed=5))
        manager.run_until_idle()
        summary = manager.result_summary(job_id)
        assert summary["status"] == "completed"
        assert summary["fetched_urls"] == list(solo.trace.fetched_urls)
        assert summary["relevance"] == [v.relevance for v in solo.trace.visits]
        assert manager.result_summary(other)["status"] == "completed"

    def test_sharded_job_stats_aggregate_across_shards(self, system):
        manager = JobManager(system, rounds_per_step=1)
        job_id = manager.submit(
            JobSpec(max_pages=60, crawler=sharded_crawler_config())
        )
        manager.run_until_idle()
        stats = manager.stats(job_id)
        io = stats["io"]
        assert len(io["shards"]) == 2
        for key, total in io.items():
            if key == "shards":
                continue
            if isinstance(total, (int, float)):
                parts = sum(shard.get(key, 0) for shard in io["shards"])
                assert total == pytest.approx(parts), key
        timings = stats["stage_timings"]
        assert {"fetch", "classify", "write"} <= set(timings)
        assert stats["pool"]["total_fetches"] > 0
