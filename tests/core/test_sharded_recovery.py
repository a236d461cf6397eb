"""Sharded crash-recovery: kill a shard fleet anywhere, resume bit-identically.

The coordinator checkpoint is a barrier protocol — sync every shard WAL,
atomically publish the coordinator manifest, then snapshot each shard
database — and the claim under test is *total*: a crash at ANY counted
I/O point of any shard database, or inside the manifest write itself,
leaves a state from which ``FocusSystem.resume`` reproduces the
uninterrupted crawl bit for bit (page sequence and relevance floats).

Crash points are driven by the :mod:`repro.minidb.testing` fault
injector (PR 5's harness) through ``StorageConfig.ops_factory`` — one
injector per shard database, so one shard's death never corrupts
another's I/O accounting.
"""

import pytest

from repro.core.checkpoint import read_coordinator_manifest, write_coordinator_manifest
from repro.core.config import FocusConfig, JobSpec
from repro.core.system import FocusSystem
from repro.crawler.focused import CrawlerConfig
from repro.minidb import StorageConfig
from repro.minidb.testing import FaultInjector, SimulatedCrash, hard_close

GOOD = "recreation/cycling"
MAX_PAGES = 80
CHECKPOINT_EVERY = 20
SHARDS = 2


class RecordingFactory:
    """A picklable ``StorageConfig.ops_factory`` that keeps its mints.

    The factory rides inside the crawler config, which the coordinator
    manifest pickles; the mint list stays process-local (a resumed run
    starts a fresh, benign registry).
    """

    def __init__(self):
        self.minted = []

    def __call__(self) -> FaultInjector:
        injector = FaultInjector()
        self.minted.append(injector)
        return injector

    def __getstate__(self):
        return {}

    def __setstate__(self, state):
        self.minted = []


def sharded_config(factory=None) -> CrawlerConfig:
    return CrawlerConfig(
        engine="sharded",
        shards=SHARDS,
        shard_runner="inprocess",
        max_pages=MAX_PAGES,
        batch_size=8,
        distill_every=30,
        checkpoint_every=CHECKPOINT_EVERY,
        storage=StorageConfig(ops_factory=factory) if factory is not None else None,
    )


def start_durable(system, path, factory=None):
    return system.start(
        JobSpec(
            max_pages=MAX_PAGES,
            checkpoint_dir=str(path),
            crawler=sharded_config(factory),
        )
    )


def trace_key(result):
    trace = result.trace
    return (
        [(v.tick, v.url, v.relevance, v.best_leaf_cid) for v in trace.visits],
        trace.failed_urls,
        trace.distillations,
    )


def kill_fleet(handle) -> None:
    """A process kill: release file handles with no orderly shutdown I/O."""
    for worker in handle.crawler.engine.runner.workers:
        if worker.database.backend.persistent:
            hard_close(worker.database)


@pytest.fixture(scope="module")
def sharded_system(small_web):
    config = FocusConfig(good_topics=(GOOD,), examples_per_leaf=12, seed_count=8)
    system = FocusSystem.from_web(small_web, [GOOD], config)
    system.train()
    return system


@pytest.fixture(scope="module")
def reference(sharded_system, tmp_path_factory):
    """The uninterrupted durable sharded crawl every scenario must match."""
    path = tmp_path_factory.mktemp("sharded-ref") / "crawl"
    handle = start_durable(sharded_system, path)
    result = handle.run()
    key = trace_key(result)
    handle.close()
    return key


class TestAbandonAndResume:
    def test_step_abandon_resume_is_bit_identical(
        self, sharded_system, reference, tmp_path
    ):
        """Stop cleanly mid-crawl, throw the coordinator away, resume from
        disk: the combined trace equals the uninterrupted run's."""
        path = tmp_path / "crawl"
        handle = start_durable(sharded_system, path)
        handle.step(rounds=4)
        assert 0 < handle.trace.pages_fetched < MAX_PAGES
        handle.crawler.shutdown()

        resumed = sharded_system.resume(str(path))
        result = resumed.run()
        assert result.pages_fetched() == MAX_PAGES
        assert trace_key(result) == reference
        resumed.close()

    def test_resume_refuses_double_start(self, sharded_system, reference, tmp_path):
        path = tmp_path / "crawl"
        handle = start_durable(sharded_system, path)
        handle.crawler.shutdown()
        with pytest.raises(ValueError, match="resume"):
            start_durable(sharded_system, path)


class TestShardCrashTorture:
    def test_crash_at_any_shard_io_point_recovers(self, sharded_system, reference, tmp_path):
        """Sweep injected crashes across one shard's I/O timeline — WAL
        appends mid-round, the fsync/replace window inside its periodic
        checkpoint — and resume to a bit-identical crawl every time."""
        # Probe: run the workload uncrashed to map the I/O timeline.
        probe_factory = RecordingFactory()
        handle = start_durable(sharded_system, tmp_path / "probe", probe_factory)
        probe = probe_factory.minted[1]  # shard 1's injector
        start_ops = probe.op_count  # I/O spent by start() (initial checkpoint)
        handle.run()
        handle.close()
        total_ops = probe.op_count
        assert total_ops > start_ops

        # Crash points: first checkpoint-window ops after start (fsync and
        # the snapshot's atomic replace) plus evenly spread WAL writes.
        windows = [
            e.index for e in probe.events
            if e.index > start_ops and e.kind in ("fsync", "replace")
        ]
        crash_points = sorted(
            {
                windows[0],
                windows[len(windows) // 2],
                start_ops + (total_ops - start_ops) // 3,
                start_ops + 2 * (total_ops - start_ops) // 3,
            }
        )
        for crash_at in crash_points:
            path = tmp_path / f"crash-{crash_at}"
            factory = RecordingFactory()
            handle = start_durable(sharded_system, path, factory)
            factory.minted[1].crash_at = crash_at
            with pytest.raises(SimulatedCrash):
                handle.run()
            kill_fleet(handle)

            resumed = sharded_system.resume(str(path))
            result = resumed.run()
            assert result.pages_fetched() == MAX_PAGES, f"crash_at={crash_at}"
            assert trace_key(result) == reference, f"crash_at={crash_at}"
            resumed.close()


class TestManifestCrashTorture:
    @pytest.mark.parametrize("crash_at", [0, 1, 2])
    def test_crash_inside_manifest_write_recovers(
        self, sharded_system, reference, tmp_path, crash_at
    ):
        """Kill the coordinator inside write_coordinator_manifest — a torn
        tmp-file write, after the fsync, before the atomic rename — and the
        previous manifest stays authoritative: resume is bit-identical."""
        path = tmp_path / "crawl"
        handle = start_durable(sharded_system, path)
        # Arm the manager's manifest FileOps; shard databases keep real I/O.
        handle.manager.ops = FaultInjector(crash_at=crash_at)
        with pytest.raises(SimulatedCrash):
            handle.run()
        kill_fleet(handle)

        resumed = sharded_system.resume(str(path))
        result = resumed.run()
        assert result.pages_fetched() == MAX_PAGES
        assert trace_key(result) == reference
        resumed.close()


class TestKillBetweenLinksAndScores:
    def test_kill_between_a_distilling_rounds_two_halves_recovers(
        self, sharded_system, reference, tmp_path
    ):
        """A distilling round reaches a shard in two messages: its links at
        once, its scores and boosts with the next checkout — the cut marker
        only after both.  Kill the fleet in between: the half-applied round
        carries no marker, every shard rewinds to the manifest's round, and
        the resumed crawl is the uninterrupted one."""
        path = tmp_path / "crawl"
        handle = start_durable(sharded_system, path)
        worker = handle.crawler.engine.runner.workers[1]
        finish_round = worker.finish_round
        open_rounds = []

        def die_before_the_scores(message):
            if message.scores:
                open_rounds.append((message.round, worker.frontier._buffering))
                raise SimulatedCrash("between a round's links and its scores")
            finish_round(message)

        worker.finish_round = die_before_the_scores
        with pytest.raises(SimulatedCrash):
            handle.run()
        # The links half was applied (the frontier's round buffer is still
        # open) in a round past the last manifest.
        assert open_rounds == [(open_rounds[0][0], True)]
        assert open_rounds[0][0] > read_coordinator_manifest(str(path)).round
        kill_fleet(handle)

        resumed = sharded_system.resume(str(path))
        result = resumed.run()
        assert result.pages_fetched() == MAX_PAGES
        assert trace_key(result) == reference
        resumed.close()


class TestRecordProtocolManifest:
    def test_a_manifest_of_the_record_protocol_still_resumes(
        self, sharded_system, reference, tmp_path
    ):
        """Before the round's messages were column batches the coordinator
        kept — and the manifest stored — every LINK row as a tuple
        (nepotistic ones included) plus per-pair handoff watermarks, and a
        shard's timings had three keys.  Such a manifest must still resume."""
        path = tmp_path / "crawl"
        handle = start_durable(sharded_system, path)
        handle.step(rounds=5)
        assert handle.trace.distillations >= 1
        nepotistic = [
            tuple(row)
            for worker in handle.crawler.engine.runner.workers
            for row in worker.database.table("LINK").rows()
            if row[1] == row[3]
        ]
        assert nepotistic
        handle.crawler.shutdown()

        manifest = read_coordinator_manifest(str(path))
        state = manifest.engine_state
        state["rows"] = nepotistic + list(zip(*state.pop("edges")))
        state["watermarks"] = {"0->1": 7, "1->0": 5}
        for shard_state in manifest.shard_states:
            shard_state["timings"] = {
                stage: shard_state["timings"][stage] for stage in ("fetch", "classify", "write")
            }
        write_coordinator_manifest(str(path), manifest)

        resumed = sharded_system.resume(str(path))
        result = resumed.run()
        assert result.pages_fetched() == MAX_PAGES
        assert trace_key(result) == reference
        timings = resumed.crawler.engine.protocol_timings()["shards"][0]
        assert timings["handle_apply"] > 0.0
        resumed.close()
