"""A started JobManager steps its tenants side by side — and nothing else changes.

Every wait in this file has a deadline and every assertion is on counts,
orders or digests, never on how long something took: overlap is shown by
one job finishing while another is parked on an ``Event``, fairness by
who holds the lock when a parked round is let go.
"""

import sys
import threading
import time

import pytest

from repro.core.caching import LRUCache
from repro.core.config import FocusConfig, JobSpec
from repro.core.system import TERMINAL_STATUSES, CrawlHandle, FocusSystem
from repro.crawler.focused import CrawlerConfig
from repro.service import JobManager, build_manager
from repro.service.jobs import FairLock

GOOD = "recreation/cycling"
DEADLINE_S = 60.0


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


def tenant_spec(tenant: int, latency_ms: float = 2.0, **spec) -> JobSpec:
    """A batched latency job: every round drains, so its fetch waits can overlap."""
    config = CrawlerConfig(
        max_pages=60,
        distill_every=30,
        engine="batched",
        batch_size=8,
        transport="latency",
        transport_options={"mean_latency_ms": latency_ms, "seed": 0},
    )
    return JobSpec(
        max_pages=60,
        fetch_failure_seed=tenant,
        crawler=config,
        name=f"tenant-{tenant}",
        **spec,
    )


def digest(trace):
    return list(trace.fetched_urls), [repr(visit.relevance) for visit in trace.visits]


def summary_digest(summary):
    return summary["fetched_urls"], [repr(value) for value in summary["relevance"]]


def solo_digest(system, spec):
    handle = system.start(spec)
    try:
        handle.run()
        return digest(handle.trace)
    finally:
        handle.close()


def wait_until(condition, what: str):
    deadline = time.monotonic() + DEADLINE_S
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.002)


def wait_terminal(manager, job_ids):
    wanted = set(job_ids)
    wait_until(
        lambda: all(
            job["status"] in TERMINAL_STATUSES for job in manager.jobs() if job["id"] in wanted
        ),
        f"{sorted(wanted)} to finish",
    )


def in_thread(target) -> threading.Thread:
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def finish(thread: threading.Thread) -> None:
    thread.join(DEADLINE_S)
    assert not thread.is_alive(), "a call that must not block is still blocked"


def crawl_threads():
    return sorted(t.name for t in threading.enumerate() if t.name.startswith("crawl-"))


class ParkingTransport:
    """Delegates to a job's transport stack; every fetch first waits on *gate*.

    ``parked`` is set once a fetch is waiting, i.e. the job's stepper is
    mid-round, holding the job's lock.
    """

    def __init__(self, inner, gate: threading.Event, parked: threading.Event) -> None:
        self.inner = inner
        self.gate = gate
        self.parked = parked

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _park(self) -> None:
        self.parked.set()
        assert self.gate.wait(DEADLINE_S), "the test never opened the gate"

    def fetch(self, url):
        self._park()
        return self.inner.fetch(url)

    async def wait(self, pending):
        self._park()
        return await self.inner.wait(pending)


def park_next_submit(manager: JobManager):
    """Make the next submitted job's fetches wait on the returned gate."""
    gate, parked = threading.Event(), threading.Event()
    pooled = manager.pool.wrap

    def wrap_once(transport):
        manager.pool.wrap = pooled
        return ParkingTransport(pooled(transport), gate, parked)

    manager.pool.wrap = wrap_once
    return gate, parked


@pytest.fixture()
def started(system):
    manager = JobManager(system)
    manager.start()
    yield manager
    manager.close()
    assert crawl_threads() == []


class TestIdentity:
    @pytest.mark.parametrize("max_inflight, start_first", [(0, True), (8, False)])
    def test_six_overlapping_tenants_equal_their_solo_runs(
        self, system, max_inflight, start_first
    ):
        specs = [tenant_spec(tenant, latency_ms=5.0) for tenant in range(6)]
        solo = [solo_digest(system, spec) for spec in specs]
        manager = build_manager(system, max_inflight=max_inflight)
        try:
            if start_first:  # a stepper per submit
                manager.start()
            job_ids = [manager.submit(spec) for spec in specs]
            manager.start()  # or six steppers at once
            wait_terminal(manager, job_ids)
            for tenant, job_id in enumerate(job_ids):
                summary = manager.result_summary(job_id)
                assert summary["status"] == "completed", tenant
                assert summary_digest(summary) == solo[tenant], tenant
            pool = manager.pool.snapshot()
            assert pool["total_fetches"] >= 6 * 60
            if max_inflight:
                # Six first rounds of eight want 48 slots at once: the pool
                # really throttled, and the crawls are the same regardless.
                assert pool["peak_inflight"] <= max_inflight
                assert pool["waits"] > 0
        finally:
            manager.close()

    def test_stop_then_start_continues_every_job(self, system):
        specs = [tenant_spec(tenant) for tenant in range(3)]
        solo = [solo_digest(system, spec) for spec in specs]
        manager = JobManager(system)
        manager.start()
        try:
            job_ids = [manager.submit(spec) for spec in specs]
            wait_until(
                lambda: all(job["pages_fetched"] > 0 for job in manager.jobs()),
                "every job to start",
            )
            manager.stop()
            assert crawl_threads() == []
            manager.start()
            manager.start()  # idempotent: no second stepper per job
            assert len(crawl_threads()) <= len(job_ids)
            wait_terminal(manager, job_ids)
            for tenant, job_id in enumerate(job_ids):
                assert summary_digest(manager.result_summary(job_id)) == solo[tenant]
        finally:
            manager.close()


class TestOverlap:
    def test_a_job_crawls_and_is_read_while_another_is_parked_mid_fetch(self, system, started):
        spec_a, spec_b = tenant_spec(1), tenant_spec(2)
        solo_a = solo_digest(system, spec_a)
        gate, parked = park_next_submit(started)
        job_a = started.submit(spec_a)
        assert parked.wait(DEADLINE_S)
        # A's stepper now sits in a fetch, holding A's lock.  Submitting,
        # stepping and reading B need none of A's state.
        job_b = started.submit(spec_b)
        wait_terminal(started, [job_b])
        assert started.progress(job_b)["pages_fetched"] == 60
        assert started.stats(job_b)["crawl"]["visited"] == 60
        listing = {job["id"]: job for job in started.jobs()}
        assert listing[job_a]["status"] == "running"
        assert listing[job_a]["pages_fetched"] == 0
        gate.set()
        wait_terminal(started, [job_a])
        assert summary_digest(started.result_summary(job_a)) == solo_a

    def test_submit_does_not_stall_reads_while_it_trains(self, system, started, monkeypatch):
        job_id = started.submit(tenant_spec(3))
        wait_terminal(started, [job_id])
        training, trained = threading.Event(), threading.Event()
        real_system_for = started._system_for

        def slow_system_for(good_topics):
            training.set()
            assert trained.wait(DEADLINE_S)
            return real_system_for(good_topics)

        monkeypatch.setattr(started, "_system_for", slow_system_for)
        submitter = in_thread(lambda: started.submit(tenant_spec(4)))
        assert training.wait(DEADLINE_S)
        try:
            for read in (
                lambda: started.progress(job_id),
                lambda: started.stats(job_id),
                started.jobs,
                started.latencies,
            ):
                finish(in_thread(read))
            assert len(started.jobs()) == 1  # the new job is not listed before it is armed
        finally:
            trained.set()
        finish(submitter)
        wait_terminal(started, [job["id"] for job in started.jobs()])
        assert len(started.jobs()) == 2


class TestFairHandOff:
    def test_waiters_are_served_in_arrival_order(self):
        lock = FairLock()
        order = []
        lock.acquire()

        def waiter(name):
            with lock:
                order.append(name)

        threads = []
        for queued, name in enumerate(["first", "second", "third"], start=1):
            threads.append(in_thread(lambda name=name: waiter(name)))
            wait_until(lambda: len(lock._waiters) == queued, f"{name} to queue")
        lock.release()
        # The releasing thread comes back at once, as a stepper does: it
        # queues behind everyone who was already waiting.
        with lock:
            order.append("releaser")
        for thread in threads:
            finish(thread)
        assert order == ["first", "second", "third", "releaser"]

    def test_a_queued_reader_is_served_before_the_jobs_next_round(self, system, started, monkeypatch):
        rounds = [0]
        served_at = []
        real_step, real_progress = CrawlHandle.step, CrawlHandle.progress

        def counting_step(handle, rounds_=1):
            rounds[0] += 1
            return real_step(handle, rounds_)

        def stamping_progress(handle):
            served_at.append(rounds[0])  # under the job's lock
            return real_progress(handle)

        monkeypatch.setattr(CrawlHandle, "step", counting_step)
        monkeypatch.setattr(CrawlHandle, "progress", stamping_progress)
        gate, parked = park_next_submit(started)
        job_id = started.submit(tenant_spec(5))
        assert parked.wait(DEADLINE_S)
        assert rounds[0] == 1  # parked inside the first round
        lock = started._record(job_id).lock
        readers = []
        for queued in (1, 2):
            readers.append(in_thread(lambda: started.progress(job_id)))
            wait_until(lambda: len(lock._waiters) == queued, "the reader to queue")
        gate.set()  # from here on the stepper never waits again
        for reader in readers:
            finish(reader)
        # Both readers were queued during round 1 and are served when it
        # ends; an unfair lock lets the stepper run on to round 2, 3, ...
        assert served_at == [1, 1]
        wait_terminal(started, [job_id])
        assert rounds[0] > 2


class TestTransitionsRaceTheStepper:
    def test_durable_pause_mid_crawl_resumes_identically_in_a_new_handle(self, system, tmp_path):
        path = str(tmp_path / "job")
        solo = solo_digest(system, tenant_spec(6))
        manager = JobManager(system)
        manager.start()
        try:
            job_id = manager.submit(tenant_spec(6, checkpoint_dir=path))
            wait_until(lambda: manager.jobs()[0]["pages_fetched"] > 0, "the first round")
            manager.pause(job_id)  # waits out the round in flight, then checkpoints
            paused = manager.progress(job_id)
            assert paused["status"] == "paused"
            assert 0 < paused["pages_fetched"] < 60
            assert paused["checkpoints_saved"] >= 1
            time.sleep(0.05)
            assert manager.progress(job_id)["pages_fetched"] == paused["pages_fetched"]
        finally:
            manager.close()  # as a process death would leave it
        handle = system.resume(path)
        try:
            assert handle.pages_fetched == paused["pages_fetched"]
            handle.run()
            assert digest(handle.trace) == solo
        finally:
            handle.close()

    def test_pause_and_resume_in_process_while_others_run(self, system, started):
        specs = [tenant_spec(tenant) for tenant in (7, 8)]
        solo = [solo_digest(system, spec) for spec in specs]
        job_ids = [started.submit(spec) for spec in specs]
        started.pause(job_ids[0])
        wait_terminal(started, [job_ids[1]])
        assert started.progress(job_ids[0])["status"] == "paused"
        started.resume(job_ids[0])
        wait_terminal(started, job_ids)
        for tenant, job_id in enumerate(job_ids):
            assert summary_digest(started.result_summary(job_id)) == solo[tenant]

    def test_cancel_mid_crawl_keeps_the_partial_result_and_ends_the_stepper(self, system, started):
        job_id = started.submit(tenant_spec(9, latency_ms=10.0))
        wait_until(lambda: started.jobs()[0]["pages_fetched"] > 0, "the first round")
        started.cancel(job_id)
        summary = started.result_summary(job_id)
        assert summary["status"] == "cancelled"
        assert 0 < summary["pages_fetched"] < 60
        assert len(summary["fetched_urls"]) == summary["pages_fetched"]
        wait_until(lambda: crawl_threads() == [], "the cancelled job's stepper to exit")

    def test_cancel_of_a_paused_job_wakes_and_ends_its_stepper(self, system, started):
        job_id = started.submit(tenant_spec(10))
        started.pause(job_id)
        assert crawl_threads() == [f"crawl-{job_id}"]
        started.cancel(job_id)
        assert started.progress(job_id)["status"] == "cancelled"
        wait_until(lambda: crawl_threads() == [], "the cancelled job's stepper to exit")

    def test_a_failing_round_fails_its_own_job_only(self, system, started):
        class Exploding:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def prepare(self, url):
                raise OSError("the network is down")

        pooled = started.pool.wrap
        started.pool.wrap = lambda transport: Exploding(pooled(transport))
        doomed = started.submit(tenant_spec(11))
        started.pool.wrap = pooled
        healthy = started.submit(tenant_spec(12))
        wait_terminal(started, [doomed, healthy])
        progress = started.progress(doomed)
        assert progress["status"] == "failed"
        assert progress["error"] == "OSError: the network is down"
        assert started.result_summary(doomed)["pages_fetched"] == 0
        assert started.result_summary(healthy)["status"] == "completed"
        wait_until(lambda: crawl_threads() == [], "both steppers to exit")


class TestShutdown:
    def test_stop_joins_running_paused_and_finished_steppers(self, system):
        manager = JobManager(system)
        manager.start()
        try:
            finished = manager.submit(tenant_spec(13))
            wait_terminal(manager, [finished])
            paused = manager.submit(tenant_spec(14))
            manager.pause(paused)
            running = manager.submit(tenant_spec(15, latency_ms=10.0))
            wait_until(
                lambda: manager.jobs()[2]["pages_fetched"] > 0, "the running job's first round"
            )
            manager.stop()
            assert crawl_threads() == []
            assert manager.progress(paused)["status"] == "paused"
            assert manager.progress(running)["status"] in ("running", "completed")
            manager.stop()  # idempotent
        finally:
            manager.close()

    def test_close_joins_steppers_before_closing_databases(self, system):
        manager = JobManager(system)
        manager.start()
        job_ids = [manager.submit(tenant_spec(tenant, latency_ms=10.0)) for tenant in (16, 17)]
        wait_until(
            lambda: all(job["pages_fetched"] > 0 for job in manager.jobs()), "both to start"
        )
        manager.close()
        assert crawl_threads() == []
        for job_id in job_ids:
            # No stepper died on a closed store: the jobs are merely unfinished.
            progress = manager.progress(job_id)
            assert progress["status"] in ("running", "completed")
            assert "error" not in progress


class TestSharedTermVectorCache:
    def test_lru_cache_survives_four_threads_at_capacity(self):
        capacity, threads, operations = 32, 4, 20_000
        cache = LRUCache(capacity)
        errors, oversize = [], []
        start = threading.Barrier(threads)

        def hammer(offset):
            try:
                start.wait(DEADLINE_S)
                for i in range(operations):
                    # 3x the capacity of keys, shared by all threads: hits,
                    # misses, refreshes and evictions all collide.
                    key = (i * 7 + offset) % (3 * capacity)
                    value = cache.get(key)
                    if value is None:
                        cache.put(key, key * 2)
                    elif value != key * 2:
                        errors.append(f"key {key} read {value}")
                    if len(cache) > capacity + threads:
                        oversize.append(len(cache))
            except Exception as exc:  # the assertion below reports it
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [in_thread(lambda offset=offset: hammer(offset)) for offset in range(threads)]
            for worker in workers:
                finish(worker)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        # Mid-flight each thread may hold one entry beyond the bound...
        assert oversize == []
        # ...and at rest the bound holds exactly.
        assert len(cache) <= capacity
        assert cache.hits + cache.misses > 0
