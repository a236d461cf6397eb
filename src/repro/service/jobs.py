"""JobManager: K crawl jobs stepped side by side over one fetch pipeline.

This is the crawl-as-a-service core.  Each submitted
:class:`~repro.core.config.JobSpec` becomes a
:class:`~repro.core.system.CrawlHandle` armed with

* its own minidb database (durable iff the spec names a checkpoint
  directory), checkpoint state, and monitor;
* a private clone of the web's server pool, so concurrent jobs never
  interleave draws on the shared failure/latency stream — every job's
  crawl is bit-identical to the same job run solo;
* a :class:`~repro.service.pool.PooledTransport` spliced around its
  transport stack, so all jobs share one global in-flight/politeness
  budget (:class:`~repro.crawler.policies.FetchPolicy`).

Scheduling.  The unit of work is one *quantum* of one job:
``rounds_per_step`` engine rounds (``CrawlEngine.run(budget,
max_rounds=...)``) under that job's lock.  Round sizing always sees the
job's full page budget, and a job shares no mutable crawl state with any
other (database, frontier, server-pool clone, RNG streams and compiled
scorer are per job; the trained model is shared read-only), so *who*
runs the quanta and *when* can change only the wall clock, never the
crawl.  Two drivers run them:

* :meth:`JobManager.start` gives every runnable job its own daemon
  stepper thread, so one tenant's fetch wait is another tenant's
  classify/commit.  A stepper sleeps on its job's wake event while the
  job is paused and exits when the job is terminal or the manager stops.
* :meth:`JobManager.step_once` / :meth:`JobManager.run_until_idle` sweep
  the job table inline on the caller's thread, one quantum per runnable
  job per sweep — the sequential round-robin tests and benchmarks use.

Locks, from the outside in:

* the *submit lock* serializes arming (training a new topic set in
  :meth:`JobManager._system_for` and :meth:`FocusSystem.start`) against
  other submits only — it is never taken by a read, a transition or a
  stepper, so a submit stalls nobody else;
* the *table lock* guards the job table, the id counter and the stepper
  roster; it is held for dictionary operations only;
* each :class:`JobRecord` has a :class:`FairLock` taken by its stepper
  for one quantum at a time and by every read or transition of *that*
  job.  A read therefore waits for at most the remainder of its own
  job's current quantum and sees round-boundary-consistent state; the
  lock hands off first-come-first-served, so the stepper's next quantum
  queues behind a waiting reader instead of overtaking it.

:meth:`JobManager.jobs` and :meth:`JobManager.latencies` take no job
lock: they read single attributes that are each updated atomically.

Jobs may name different good-topic sets: the manager keeps one trained
:class:`~repro.core.system.FocusSystem` per topic set over the shared
web, built lazily on first use.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.config import JobSpec
from repro.core.system import CrawlHandle, CrawlResult, FocusSystem, TERMINAL_STATUSES
from repro.crawler.monitor import CrawlMonitor
from repro.crawler.policies import FetchPolicy
from repro.minidb import MiniDBError
from repro.minidb.sql import ExplainStatement, SelectStatement, parse_sql

from .pool import SharedFetchPool


class FairLock:
    """A mutex that hands off first-come-first-served.

    ``threading.Lock`` makes no ordering promise: a thread that releases
    and at once re-acquires (a stepper looping over quanta) usually wins
    against one that has been blocked for a while (a reader), which can
    starve the reader for many rounds.  Here ``release`` passes ownership
    straight to the longest waiter, so whoever re-acquires queues behind
    everyone already waiting.  Not reentrant.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._held = False
        self._waiters: Deque[threading.Lock] = deque()

    def acquire(self) -> None:
        with self._mutex:
            if not self._held:
                self._held = True
                return
            turn = threading.Lock()
            turn.acquire()
            self._waiters.append(turn)
        turn.acquire()  # released by the previous owner: the lock is ours

    def release(self) -> None:
        with self._mutex:
            if self._waiters:
                self._waiters.popleft().release()  # ownership passes; stays held
            else:
                self._held = False

    def __enter__(self) -> "FairLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


@dataclass
class JobRecord:
    """One submitted job: its live handle (which holds its spec) and lifecycle timestamps."""

    id: str
    handle: CrawlHandle
    submitted_s: float
    finished_s: Optional[float] = None
    #: JSON-safe result summary, cached at the terminal transition so the
    #: HTTP layer never touches crawl internals after the job ends.
    summary: Optional[dict] = None
    error: Optional[str] = None
    #: Held for one quantum at a time by whoever steps the job, and by
    #: every read or transition of this job.
    lock: FairLock = field(default_factory=FairLock, repr=False, compare=False)
    #: Rouses this job's stepper from a pause (resume, cancel, stop).
    wake: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    @property
    def latency_s(self) -> Optional[float]:
        """Submit-to-terminal wall-clock seconds (the bench's p50/p99 metric)."""
        if self.finished_s is None:
            return None
        return self.finished_s - self.submitted_s


class JobManager:
    """Multi-tenant crawl scheduler over one system/web and one fetch pool.

    All public methods are thread-safe: the HTTP layer calls them from
    request threads while the stepper threads crawl.  Reads and
    transitions of a job take that job's lock, so they see
    round-boundary-consistent state and never wait for another tenant
    (see the module docstring for the full lock order).
    """

    def __init__(
        self,
        system: FocusSystem,
        policy: Optional[FetchPolicy] = None,
        rounds_per_step: int = 1,
    ) -> None:
        if rounds_per_step < 1:
            raise ValueError("rounds_per_step must be >= 1")
        self.system = system
        self.pool = SharedFetchPool(policy)
        self.rounds_per_step = rounds_per_step
        self._jobs: Dict[str, JobRecord] = {}
        self._systems: Dict[Tuple[str, ...], FocusSystem] = {
            tuple(system.config.good_topics): system
        }
        self._submit_lock = threading.Lock()
        self._lock = threading.Lock()
        self._next_id = 1
        self._steppers: List[threading.Thread] = []
        #: Set while no background steppers should run (initially, and
        #: from :meth:`stop` on).
        self._stop = threading.Event()
        self._stop.set()

    # -- submission ---------------------------------------------------------
    def submit(self, spec: JobSpec) -> str:
        """Arm *spec* as a job and return its id (crawling starts on scheduling)."""
        # Arming takes milliseconds and a new topic set seconds; neither
        # holds a lock that a read, a transition or a stepper takes.
        with self._submit_lock:
            system = self._system_for(spec.good_topics)
            handle = system.start(
                spec, private_servers=True, transport_wrap=self.pool.wrap
            )
            with self._lock:
                job_id = f"job-{self._next_id:04d}"
                self._next_id += 1
                record = JobRecord(id=job_id, handle=handle, submitted_s=time.perf_counter())
                self._jobs[job_id] = record
                if not self._stop.is_set():
                    self._spawn_stepper(record)
            return job_id

    def _system_for(self, good_topics: Optional[Tuple[str, ...]]) -> FocusSystem:
        """The trained system for a topic set, built lazily over the shared web.

        Called with the submit lock held, which is all ``_systems`` needs.
        """
        key = tuple(good_topics) if good_topics is not None else tuple(
            self.system.config.good_topics
        )
        system = self._systems.get(key)
        if system is None:
            system = FocusSystem.from_web(
                self.system.web, good_topics=list(key), config=self.system.config
            )
            system.train()
            self._systems[key] = system
        return system

    # -- scheduling ---------------------------------------------------------
    def _quantum(self, record: JobRecord) -> bool:
        """Step one job ``rounds_per_step`` rounds; False if it is not runnable.

        The one per-job step both drivers share.  Call with the job's
        lock held.
        """
        handle = record.handle
        if handle.status not in ("pending", "running"):
            return False
        try:
            handle.step(self.rounds_per_step)
        except Exception as exc:  # handle.status is already "failed"
            record.error = f"{type(exc).__name__}: {exc}"
        if handle.done:
            self._finalize(record)
        return True

    def step_once(self) -> bool:
        """One fair sweep: every runnable job gets one quantum.  True if any ran."""
        ran = False
        for record in self._records():
            with record.lock:
                ran = self._quantum(record) or ran
        return ran

    def run_until_idle(self) -> None:
        """Drive sweeps inline until no job is runnable (tests, benchmarks)."""
        while self.step_once():
            pass

    def start(self) -> None:
        """Give every runnable job (and every later submit) a stepper thread."""
        with self._lock:
            if not self._stop.is_set():
                return
            self._stop.clear()
            for record in self._jobs.values():
                if not record.handle.done:
                    self._spawn_stepper(record)

    def stop(self) -> None:
        """Stop and join every stepper (jobs keep their state; resumable later).

        Each stepper finishes the quantum it is in, so every job is left
        at a round boundary.
        """
        with self._lock:
            self._stop.set()
            steppers, self._steppers = self._steppers, []
            for record in self._jobs.values():
                record.wake.set()
        for stepper in steppers:
            stepper.join()

    def _spawn_stepper(self, record: JobRecord) -> None:
        """Start *record*'s stepper thread.  Call with the table lock held."""
        stepper = threading.Thread(
            target=self._run_stepper,
            args=(record,),
            name=f"crawl-{record.id}",
            daemon=True,
        )
        self._steppers.append(stepper)
        stepper.start()

    def _run_stepper(self, record: JobRecord) -> None:
        """Step one job quantum by quantum until it is terminal or we stop.

        The wake event is cleared *before* the conditions it announces
        are tested, so a resume/cancel/stop that lands at any point of an
        iteration is either seen by this iteration's tests or leaves the
        event set for the wait.
        """
        handle = record.handle
        while True:
            record.wake.clear()
            if self._stop.is_set():
                return
            with record.lock:
                ran = self._quantum(record)
            if handle.done:
                return
            if not ran:
                record.wake.wait()  # paused: sleep until resume/cancel/stop

    # -- job control --------------------------------------------------------
    def pause(self, job_id: str) -> None:
        record = self._record(job_id)
        with record.lock:
            record.handle.pause()

    def resume(self, job_id: str) -> None:
        record = self._record(job_id)
        with record.lock:
            record.handle.resume()
        record.wake.set()

    def cancel(self, job_id: str) -> None:
        record = self._record(job_id)
        with record.lock:
            if not record.handle.done:
                record.handle.cancel()
                self._finalize(record)
        record.wake.set()

    # -- observability ------------------------------------------------------
    def jobs(self) -> List[dict]:
        """One summary row per job, in submission order.

        Takes no job lock (a listing must not wait out every tenant's
        round in turn): each field is one atomic attribute read, so a row
        of a running job may be from mid-round.
        """
        return [
            {
                "id": record.id,
                "name": record.handle.spec.name,
                "status": record.handle.status,
                "pages_fetched": record.handle.pages_fetched,
                "budget": record.handle.budget,
                "latency_s": record.latency_s,
            }
            for record in self._records()
        ]

    def progress(self, job_id: str) -> dict:
        record = self._record(job_id)
        with record.lock:
            info = record.handle.progress()
            info["id"] = record.id
            info["latency_s"] = record.latency_s
            if record.error is not None:
                info["error"] = record.error
            return info

    def harvest(self, job_id: str, window: int = 100) -> List[Tuple[int, float]]:
        """The job's live harvest curve (tick, moving-average relevance)."""
        record = self._record(job_id)
        with record.lock:
            return record.handle.harvest_series(window)

    def stats(self, job_id: str) -> dict:
        """The job's I/O counters plus the shared pool's counters.

        The ``crawl`` section (frontier/visited/relevance census) is read
        from the job's database, its buffered crawl writes flushed first,
        through the SQL query layer — the same planner-driven path
        :meth:`query` exposes — and is omitted for sharded jobs, which
        keep one database per shard.
        ``stage_timings`` are wall seconds on the job's own stepper;
        tenants overlap, so summed over jobs they exceed the service's
        wall time (as a sharded crawl's per-shard timings do).
        """
        record = self._record(job_id)
        with record.lock:
            handle = record.handle
            stats = {
                "io": handle.io_snapshot(),
                "stage_timings": dict(handle.crawler.engine.stage_timings),
                "pipeline": handle.pipeline_stats(),
                "pool": self.pool.snapshot(),
            }
            database = handle.database
            if not getattr(database, "sharded", False) and not database.closed:
                handle.crawler.engine.sync()
                monitor = CrawlMonitor(database)
                stats["crawl"] = {
                    "frontier": monitor.frontier_size(),
                    "visited": monitor.visited_count(),
                    "average_relevance": monitor.average_relevance(),
                }
            return stats

    def harvest_sql(self, job_id: str, bucket: int = 100) -> List[dict]:
        """The harvest curve recomputed in the database (one GROUP BY query)."""
        if bucket < 1:
            raise ValueError("bucket must be >= 1")
        record = self._record(job_id)
        with record.lock:
            return CrawlMonitor(self._synced_database(record)).harvest_rate_by_bucket(bucket)

    def query(self, job_id: str, sql: str, limit: int = 200) -> List[dict]:
        """Run one read-only SELECT (or EXPLAIN SELECT) on the job's database.

        Mutation statements (INSERT/UPDATE/DELETE) and any error of the
        query's own — syntax, an unknown table, column or function — raise
        :class:`ValueError`, which the HTTP layer maps to 400; the result
        is truncated to *limit* rows.
        """
        if limit < 1:
            raise ValueError("limit must be >= 1")
        record = self._record(job_id)
        with record.lock:
            database = self._synced_database(record)
            try:
                if not isinstance(parse_sql(sql), (SelectStatement, ExplainStatement)):
                    raise ValueError(
                        "read-only endpoint: only SELECT (or EXPLAIN SELECT) "
                        "statements are accepted"
                    )
                rows = database.sql(sql)
            except MiniDBError as exc:
                raise ValueError(str(exc)) from None
            return rows[:limit]

    @staticmethod
    def _synced_database(record: JobRecord):
        """The job's database with the crawl's buffered writes flushed.

        Call with the job's lock held.  Refuses a sharded job and a
        closed handle.
        """
        handle = record.handle
        database = handle.database
        if getattr(database, "sharded", False):
            raise ValueError(
                "sharded jobs keep one database per shard, in memory inside "
                "the shard workers; there is none here to query"
            )
        if database.closed:
            raise ValueError("this job's database handle is closed")
        handle.crawler.engine.sync()
        return database

    def result_summary(self, job_id: str) -> dict:
        """The cached JSON-safe result of a terminal job."""
        record = self._record(job_id)
        with record.lock:
            if record.summary is None:
                raise ValueError(
                    f"job {job_id} is {record.handle.status}; result is available "
                    "once it reaches a terminal state"
                )
            return record.summary

    def result(self, job_id: str) -> CrawlResult:
        """The in-process :class:`CrawlResult` of a terminal job."""
        record = self._record(job_id)
        with record.lock:
            return record.handle.result()

    def latencies(self) -> List[float]:
        """Submit-to-terminal latencies of finished jobs (bench metric)."""
        return [
            record.latency_s
            for record in self._records()
            if record.latency_s is not None
        ]

    # -- shutdown -----------------------------------------------------------
    def close(self) -> None:
        """Join every stepper, then release every job's database handle.

        Durable jobs stay fully recoverable (their results reopen by
        checkpoint path; unfinished ones resume via
        :meth:`FocusSystem.resume`).
        """
        self.stop()
        for record in self._records():
            with record.lock:
                record.handle.close()

    # -- internals ----------------------------------------------------------
    def _record(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise KeyError(f"unknown job {job_id!r}")
        return record

    def _records(self) -> List[JobRecord]:
        """The job table in submission order, as of now."""
        with self._lock:
            return list(self._jobs.values())

    def _finalize(self, record: JobRecord) -> None:
        if record.finished_s is not None:
            return
        record.finished_s = time.perf_counter()
        handle = record.handle
        trace = handle.trace
        progress = handle.progress()
        record.summary = {
            "id": record.id,
            "name": handle.spec.name,
            "status": handle.status,
            "pages_fetched": trace.pages_fetched,
            "budget": handle.budget,
            "harvest_rate": progress["harvest_rate"],
            "distillations": trace.distillations,
            "failures": len(trace.failed_urls),
            "fetch_attempts": handle.fetch_attempts(),
            "stagnated": trace.stagnated,
            "latency_s": record.latency_s,
            "checkpoint_dir": handle.spec.checkpoint_dir,
            # The full visit record, so clients can verify determinism
            # (pages visited + relevance floats) over the wire.
            "fetched_urls": trace.fetched_urls,
            "relevance": [visit.relevance for visit in trace.visits],
        }


def build_manager(
    system: FocusSystem,
    max_inflight: int = 8,
    per_server_inflight: int = 0,
    rounds_per_step: int = 1,
) -> JobManager:
    """Convenience constructor mirroring the service's CLI-ish defaults."""
    return JobManager(
        system,
        policy=FetchPolicy(
            max_inflight=max_inflight, per_server_inflight=per_server_inflight
        ),
        rounds_per_step=rounds_per_step,
    )


__all__ = ["FairLock", "JobManager", "JobRecord", "build_manager", "TERMINAL_STATUSES"]
