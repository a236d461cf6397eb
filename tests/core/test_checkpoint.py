"""Crash-recovery: a killed crawl, resumed from its checkpoint, must be
indistinguishable from one that never died.

The contract under test (the PR's acceptance criterion): kill the crawl
process at an arbitrary point, reopen the durable database, resume — and
the combined run visits the identical page sequence with identical
relevance floats as an uninterrupted run, to 1e-9 (in fact bit for bit).
"""

import dataclasses
import os
import sys
import time
import zlib
from types import SimpleNamespace

import pytest

import repro.core.checkpoint as checkpoint_module
from repro.core.checkpoint import (
    FORMAT_VERSION,
    CheckpointHeader,
    CheckpointManager,
    CrawlCheckpoint,
    read_checkpoint,
)
from repro.core.config import FocusConfig, JobSpec
from repro.core.system import FocusSystem
from repro.crawler.engine import CrawlEngine, CrawlTrace
from repro.crawler.focused import CrawlerConfig
from repro.crawler.frontier import Frontier, FrontierEntry
from repro.crawler.policies import recovery_ordering
from repro.experiments.workloads import build_crawl_workload
from repro.minidb import INTEGER, Database, StorageConfig, make_schema
from repro.minidb.backend import SNAPSHOT_FILE, SNAPSHOT_FORMAT
from repro.minidb.errors import StorageError
from repro.minidb.wal import dump_record, load_record, read_frame_at, write_frame
from repro.webgraph.fetch import Fetcher
from repro.webgraph.transport import LatencyTransport

GOOD = "recreation/cycling"

#: Shared crawl shape: small enough to run four scenarios, big enough to
#: cross several distillation and checkpoint boundaries.
MAX_PAGES = 140
CHECKPOINT_EVERY = 30
FETCH_FAILURE_SEED = 3


class KillSwitch(Exception):
    """Stands in for SIGKILL: aborts the crawl at an arbitrary fetch."""


def build_system(web) -> FocusSystem:
    config = FocusConfig(good_topics=(GOOD,), examples_per_leaf=12, seed_count=8)
    system = FocusSystem.from_web(web, [GOOD], config)
    system.train()
    return system


def crawl_config(shape: str) -> CrawlerConfig:
    """A "batched" crawl checks out 4 URLs a round, a "serial" one (the paper's loop) 1."""
    return CrawlerConfig(
        max_pages=MAX_PAGES,
        distill_every=40,
        checkpoint_every=CHECKPOINT_EVERY,
        batch_size=4 if shape == "batched" else 1,
    )


def kill_fetcher_after(monkeypatch, attempts: int) -> None:
    """Raise :class:`KillSwitch` out of the Nth fetch attempt."""
    real_fetch = Fetcher.fetch
    state = {"calls": 0}

    def killing(self, url):
        state["calls"] += 1
        if state["calls"] > attempts:
            raise KillSwitch(f"killed at fetch attempt {attempts}")
        return real_fetch(self, url)

    monkeypatch.setattr(Fetcher, "fetch", killing)


@pytest.fixture(scope="module")
def checkpoint_system(small_web):
    return build_system(small_web)


@pytest.fixture(scope="module")
def reference_batched(checkpoint_system):
    """The uninterrupted batched crawl every resume scenario must reproduce."""
    return checkpoint_system.crawl(
        crawler_config=crawl_config("batched"), fetch_failure_seed=FETCH_FAILURE_SEED
    )


@pytest.fixture(scope="module")
def reference_serial(checkpoint_system):
    return checkpoint_system.crawl(
        crawler_config=crawl_config("serial"), fetch_failure_seed=FETCH_FAILURE_SEED
    )


def directory_bytes(path):
    """Every entry under *path*, by relative name: file bytes, or None for a directory."""
    return {
        str(entry.relative_to(path)): entry.read_bytes() if entry.is_file() else None
        for entry in sorted(path.rglob("*"))
    }


def assert_traces_match(resumed, reference):
    assert resumed.trace.fetched_urls == reference.trace.fetched_urls
    resumed_relevance = resumed.trace.relevance_series()
    reference_relevance = reference.trace.relevance_series()
    assert max(
        abs(a - b) for a, b in zip(resumed_relevance, reference_relevance)
    ) <= 1e-9
    assert resumed_relevance == reference_relevance  # in fact bit for bit
    assert resumed.trace.failed_urls == reference.trace.failed_urls
    assert resumed.trace.distillations == reference.trace.distillations
    assert len(resumed.database.table("CRAWL")) == len(reference.database.table("CRAWL"))
    assert len(resumed.database.table("LINK")) == len(reference.database.table("LINK"))


class TestCrashResume:
    # Kill points straddle the checkpoint cadence: before the first
    # periodic save (only the initial checkpoint exists), mid-interval
    # (a WAL tail must be discarded), and deep into the crawl.
    @pytest.mark.parametrize("kill_after", [12, 47, 101])
    def test_batched_killed_and_resumed_matches_uninterrupted(
        self, checkpoint_system, reference_batched, tmp_path, monkeypatch, kill_after
    ):
        kill_fetcher_after(monkeypatch, kill_after)
        with pytest.raises(KillSwitch):
            checkpoint_system.crawl(
                crawler_config=crawl_config("batched"),
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(tmp_path / "crawl"),
            )
        monkeypatch.undo()

        resumed = checkpoint_system.crawl(resume_from=str(tmp_path / "crawl"))
        assert resumed.pages_fetched() == MAX_PAGES
        assert_traces_match(resumed, reference_batched)
        resumed.database.close()

    def test_serial_killed_and_resumed_matches_uninterrupted(
        self, checkpoint_system, reference_serial, tmp_path, monkeypatch
    ):
        kill_fetcher_after(monkeypatch, 58)
        with pytest.raises(KillSwitch):
            checkpoint_system.crawl(
                crawler_config=crawl_config("serial"),
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(tmp_path / "crawl"),
            )
        monkeypatch.undo()

        resumed = checkpoint_system.crawl(resume_from=str(tmp_path / "crawl"))
        assert resumed.pages_fetched() == MAX_PAGES
        assert_traces_match(resumed, reference_serial)
        resumed.database.close()

    def test_resume_on_a_freshly_built_system(
        self, small_web, reference_batched, tmp_path, monkeypatch
    ):
        """The real crash story: the process died, everything in memory is
        gone, and a *new* process (same web/config seeds) picks the crawl
        up from disk alone."""
        doomed = build_system(small_web)
        kill_fetcher_after(monkeypatch, 70)
        with pytest.raises(KillSwitch):
            doomed.crawl(
                crawler_config=crawl_config("batched"),
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(tmp_path / "crawl"),
            )
        monkeypatch.undo()
        del doomed

        fresh = build_system(small_web)
        resumed = fresh.crawl(resume_from=str(tmp_path / "crawl"))
        assert_traces_match(resumed, reference_batched)
        resumed.database.close()

    def test_drained_fetch_killed_and_resumed_matches_uninterrupted(
        self, checkpoint_system, reference_batched, tmp_path, drained_rounds
    ):
        """Kill/resume through the drain: a latency transport that owes a
        real (scaled) wait on every fetch and never times out.  Transport
        draws happen at prepare time in checkout order and commits in
        checkout order, so the drained crawl resumes bit-identically — and
        equals the inline simulated reference exactly.  The kill comes out
        of a wait, mid-drain, with the rest of the round in flight."""
        config = crawl_config("batched")
        config.transport = "latency"
        config.transport_options = {"mean_latency_ms": 2.0, "seed": 9, "time_scale": 0.25}
        waits = {"calls": 0}
        wait = LatencyTransport.wait

        async def killing_wait(transport, pending):
            waits["calls"] += 1
            if waits["calls"] > 47:
                raise KillSwitch("killed at wait 47")
            return await wait(transport, pending)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LatencyTransport, "wait", killing_wait)
            with pytest.raises(KillSwitch):
                checkpoint_system.crawl(
                    crawler_config=config,
                    fetch_failure_seed=FETCH_FAILURE_SEED,
                    checkpoint_dir=str(tmp_path / "crawl"),
                )
        killed_rounds = len(drained_rounds)
        assert killed_rounds > 0

        resumed = checkpoint_system.crawl(resume_from=str(tmp_path / "crawl"))
        assert resumed.crawler.config.transport == "latency"
        assert len(drained_rounds) > killed_rounds
        assert resumed.pages_fetched() == MAX_PAGES
        assert_traces_match(resumed, reference_batched)
        resumed.database.close()

    def test_latency_transport_killed_and_resumed_matches_uninterrupted(
        self, checkpoint_system, tmp_path, monkeypatch
    ):
        """The latency transport's own RNG stream is part of the checkpoint:
        a resumed latency crawl continues the exact delay/timeout draws.
        At ``time_scale=0`` no fetch owes a wait, so every round runs inline."""
        def latency_config():
            config = crawl_config("batched")
            config.transport = "latency"
            # time_scale=0: draws are made and checkpointed, sleeps skipped.
            config.transport_options = {
                "mean_latency_ms": 2.0,
                "timeout_rate": 0.05,
                "seed": 9,
                "time_scale": 0.0,
            }
            return config

        reference = checkpoint_system.crawl(
            crawler_config=latency_config(), fetch_failure_seed=FETCH_FAILURE_SEED
        )
        kill_fetcher_after(monkeypatch, 52)
        with pytest.raises(KillSwitch):
            checkpoint_system.crawl(
                crawler_config=latency_config(),
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(tmp_path / "crawl"),
            )
        monkeypatch.undo()

        resumed = checkpoint_system.crawl(resume_from=str(tmp_path / "crawl"))
        assert resumed.crawler.config.transport == "latency"
        assert resumed.pages_fetched() == MAX_PAGES
        assert_traces_match(resumed, reference)
        resumed.database.close()

    def test_time_based_checkpoints_trigger_and_resume(
        self, checkpoint_system, reference_batched, tmp_path, monkeypatch
    ):
        """checkpoint_interval_s alone (checkpoint_every=0) saves resume
        points at round boundaries and does not perturb the crawl."""
        def timed_config():
            config = crawl_config("batched")
            config.checkpoint_every = 0
            config.checkpoint_interval_s = 1e-6  # every round is "due"
            return config

        result = checkpoint_system.crawl(
            crawler_config=timed_config(),
            fetch_failure_seed=FETCH_FAILURE_SEED,
            checkpoint_dir=str(tmp_path / "undisturbed"),
        )
        assert_traces_match(result, reference_batched)
        result.database.close()
        reopened, saved = CheckpointManager.load(str(tmp_path / "undisturbed"))
        reopened.close()
        # The initial save plus at least one time-triggered round save.
        assert saved.checkpoints_saved > 1
        assert saved.spec.crawler.checkpoint_interval_s == 1e-6

        kill_fetcher_after(monkeypatch, 61)
        with pytest.raises(KillSwitch):
            checkpoint_system.crawl(
                crawler_config=timed_config(),
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(tmp_path / "killed"),
            )
        monkeypatch.undo()
        resumed = checkpoint_system.crawl(resume_from=str(tmp_path / "killed"))
        assert resumed.pages_fetched() == MAX_PAGES
        assert_traces_match(resumed, reference_batched)
        resumed.database.close()

    def test_checkpointing_does_not_perturb_the_crawl(
        self, checkpoint_system, reference_batched, tmp_path
    ):
        """Durable storage + periodic checkpoints are pure overhead: an
        undisturbed checkpointed crawl equals the in-memory reference."""
        result = checkpoint_system.crawl(
            crawler_config=crawl_config("batched"),
            fetch_failure_seed=FETCH_FAILURE_SEED,
            checkpoint_dir=str(tmp_path / "crawl"),
        )
        assert_traces_match(result, reference_batched)
        snapshot = result.database.io_snapshot()
        assert snapshot["wal_bytes_written"] > 0
        result.database.close()


class TestPrefetchCrashResume:
    """Kill/resume of a crawl whose config says ``prefetch=True``.

    The field is accepted and inert: it rides along in the pickled config
    of every save and changes nothing the engine draws or writes.  The
    combined run must equal the uninterrupted *non-prefetch* reference
    bit for bit.
    """

    @staticmethod
    def prefetch_config(shape: str = "batched") -> CrawlerConfig:
        config = crawl_config(shape)
        config.prefetch = True
        return config

    # Arbitrary kill points: mid-round and straddling the checkpoint cadence.
    @pytest.mark.parametrize("kill_after", [12, 47, 83, 101])
    def test_prefetch_killed_and_resumed_matches_uninterrupted(
        self, checkpoint_system, reference_batched, tmp_path, monkeypatch, kill_after
    ):
        kill_fetcher_after(monkeypatch, kill_after)
        with pytest.raises(KillSwitch):
            checkpoint_system.crawl(
                crawler_config=self.prefetch_config(),
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(tmp_path / "crawl"),
            )
        monkeypatch.undo()

        resumed = checkpoint_system.crawl(resume_from=str(tmp_path / "crawl"))
        assert resumed.crawler.config.prefetch
        assert resumed.pages_fetched() == MAX_PAGES
        assert_traces_match(resumed, reference_batched)
        resumed.database.close()

    def test_k1_prefetch_killed_and_resumed_matches_uninterrupted(
        self, checkpoint_system, reference_serial, tmp_path, monkeypatch
    ):
        """Rounds of one URL: the flag is as inert at K=1."""
        kill_fetcher_after(monkeypatch, 58)
        with pytest.raises(KillSwitch):
            checkpoint_system.crawl(
                crawler_config=self.prefetch_config("serial"),
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(tmp_path / "crawl"),
            )
        monkeypatch.undo()

        resumed = checkpoint_system.crawl(resume_from=str(tmp_path / "crawl"))
        assert resumed.crawler.config.prefetch
        assert resumed.pages_fetched() == MAX_PAGES
        assert_traces_match(resumed, reference_serial)
        resumed.database.close()

    def test_prefetch_latency_killed_and_resumed(
        self, checkpoint_system, tmp_path, monkeypatch
    ):
        """Same contract through the latency transport and its own RNG
        stream.  The reference is the *non-prefetch* latency crawl.  At
        ``time_scale=0`` no fetch owes a wait, so every round runs inline."""
        def latency_config(prefetch: bool) -> CrawlerConfig:
            config = crawl_config("batched")
            config.prefetch = prefetch
            config.transport = "latency"
            # time_scale=0: draws are made and checkpointed, sleeps skipped.
            config.transport_options = {
                "mean_latency_ms": 2.0,
                "timeout_rate": 0.05,
                "seed": 9,
                "time_scale": 0.0,
            }
            return config

        reference = checkpoint_system.crawl(
            crawler_config=latency_config(False), fetch_failure_seed=FETCH_FAILURE_SEED
        )
        kill_fetcher_after(monkeypatch, 52)
        with pytest.raises(KillSwitch):
            checkpoint_system.crawl(
                crawler_config=latency_config(True),
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(tmp_path / "crawl"),
            )
        monkeypatch.undo()

        resumed = checkpoint_system.crawl(resume_from=str(tmp_path / "crawl"))
        assert resumed.crawler.config.prefetch
        assert resumed.pages_fetched() == MAX_PAGES
        assert_traces_match(resumed, reference)
        resumed.database.close()


class TestInertFieldsCrashResume:
    """Kill/resume of crawls whose config sets a field the engine ignores.

    ``fetch_mode`` (the transport picks each round's fetch path) and
    ``score_backend`` (every crawl scores with the columnar kernels) ride
    in the pickled config of every save.  The resumed crawl keeps them and
    equals the uninterrupted default crawl, bit for bit.
    """

    def killed_then_resumed(self, checkpoint_system, config, path, monkeypatch, kill_after):
        kill_fetcher_after(monkeypatch, kill_after)
        with pytest.raises(KillSwitch):
            checkpoint_system.crawl(
                crawler_config=config,
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(path),
            )
        monkeypatch.undo()
        return checkpoint_system.crawl(resume_from=str(path))

    @pytest.mark.parametrize("fetch_mode", ["threaded", "async"])
    def test_fetch_mode_rides_the_checkpoint(
        self, checkpoint_system, reference_batched, tmp_path, monkeypatch, fetch_mode
    ):
        config = crawl_config("batched")
        config.fetch_mode = fetch_mode
        resumed = self.killed_then_resumed(
            checkpoint_system, config, tmp_path / "crawl", monkeypatch, 83
        )
        assert resumed.crawler.config.fetch_mode == fetch_mode
        assert resumed.pages_fetched() == MAX_PAGES
        assert_traces_match(resumed, reference_batched)
        resumed.database.close()

    def test_a_python_score_backend_resumes_on_the_columnar_kernel(
        self, checkpoint_system, reference_batched, tmp_path, monkeypatch
    ):
        config = crawl_config("batched")
        config.score_backend = "python"
        # After the save at 90 pages, so the resume starts mid-crawl.
        resumed = self.killed_then_resumed(
            checkpoint_system, config, tmp_path / "crawl", monkeypatch, 115
        )
        assert resumed.crawler.config.score_backend == "python"
        assert resumed.pages_fetched() == MAX_PAGES
        assert_traces_match(resumed, reference_batched)
        resumed.database.close()


class TestRetiredFormats:
    """A store written in an earlier format is refused by name, untouched."""

    def checkpointed(self, checkpoint_system, path):
        config = crawl_config("batched")
        config.max_pages = 20
        checkpoint_system.crawl(
            crawler_config=config,
            fetch_failure_seed=FETCH_FAILURE_SEED,
            checkpoint_dir=str(path),
        ).database.close()

    def test_an_unversioned_snapshot_is_refused(self, checkpoint_system, tmp_path):
        """Snapshots written before the minidb format was numbered (crawl
        checkpoint formats 1 and 2 among them) carry no ``"format"``."""
        path = tmp_path / "crawl"
        self.checkpointed(checkpoint_system, path)
        snapshot = path / SNAPSHOT_FILE
        with open(snapshot, "rb") as fh:
            meta = load_record(read_frame_at(fh, 0))
        del meta["format"]
        with open(snapshot, "wb") as fh:
            write_frame(fh, dump_record(meta))
        before = directory_bytes(path)
        for load in (CheckpointManager.load, checkpoint_system.resume):
            with pytest.raises(
                StorageError,
                match=f"an unversioned minidb snapshot; this build reads format {SNAPSHOT_FORMAT}",
            ):
                load(str(path))
        assert directory_bytes(path) == before

    def test_a_version_2_header_is_refused(self, checkpoint_system, tmp_path, monkeypatch):
        """Format 2 frames could also hold the visits, the frontier, the
        relevance map or the last distillation; under a current snapshot
        its header is refused, not half-read."""
        path = tmp_path / "crawl"
        monkeypatch.setattr(checkpoint_module, "FORMAT_VERSION", 2)
        self.checkpointed(checkpoint_system, path)
        monkeypatch.undo()
        before = directory_bytes(path)
        with pytest.raises(
            StorageError, match=f"format 2; this build reads format {FORMAT_VERSION}"
        ):
            CheckpointManager.load(str(path))
        assert directory_bytes(path) == before

    def test_a_state_naming_a_class_this_build_lacks_is_refused_by_name(
        self, checkpoint_system, tmp_path, monkeypatch
    ):
        """The store opens without unpickling its ``app_state``: a state
        whose module is gone is refused with a StorageError naming the
        store by every entry point, not a bare ModuleNotFoundError."""
        path = tmp_path / "crawl"
        self.checkpointed(checkpoint_system, path)
        module_dir = tmp_path / "modules"
        module_dir.mkdir()
        (module_dir / "gone_state.py").write_text("class Gone:\n    pass\n")
        monkeypatch.syspath_prepend(str(module_dir))
        import gone_state

        snapshot = path / SNAPSHOT_FILE
        with open(snapshot, "rb") as fh:
            meta = load_record(read_frame_at(fh, 0))
        meta["app_state"] = dump_record(gone_state.Gone())
        with open(snapshot, "wb") as fh:
            write_frame(fh, dump_record(meta))
        monkeypatch.delitem(sys.modules, "gone_state")
        (module_dir / "gone_state.py").unlink()
        for load in (CheckpointManager.load, checkpoint_system.resume):
            with pytest.raises(StorageError, match="cannot load") as refused:
                load(str(path))
            assert str(path) in str(refused.value)
        with pytest.raises(StorageError, match="cannot load"):
            checkpoint_system.crawl(
                crawler_config=crawl_config("batched"),
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(path),
            )

    def test_a_snapshot_of_a_newer_format_is_refused(self, checkpoint_system, tmp_path):
        path = tmp_path / "crawl"
        self.checkpointed(checkpoint_system, path)
        snapshot = path / SNAPSHOT_FILE
        with open(snapshot, "rb") as fh:
            meta = load_record(read_frame_at(fh, 0))
        meta["format"] = SNAPSHOT_FORMAT + 1
        with open(snapshot, "wb") as fh:
            write_frame(fh, dump_record(meta))
        before = directory_bytes(path)
        for load in (CheckpointManager.load, checkpoint_system.resume):
            with pytest.raises(
                StorageError,
                match=(
                    f"a format {SNAPSHOT_FORMAT + 1} minidb snapshot; "
                    f"this build reads format {SNAPSHOT_FORMAT}"
                ),
            ):
                load(str(path))
        assert directory_bytes(path) == before

    def test_a_whole_checkpoint_record_is_refused(self, tmp_path):
        """Format 1 pickled a whole :class:`CrawlCheckpoint` as the
        snapshot's app state; under a current snapshot that record is
        not a header, and nothing is read from it."""
        record = CrawlCheckpoint(
            spec=JobSpec(crawler=crawl_config("batched")),
            engine_state={}, fetcher_state={}, server_rng_state={},
        )
        with Database.open(tmp_path / "db") as db:
            db.checkpoint(app_state=record)
        with pytest.raises(StorageError, match="holds no crawl checkpoint to resume from"):
            CheckpointManager.load(str(tmp_path / "db"))

    def test_a_version_3_header_is_refused(self, tmp_path):
        """Format 3 named a base-plus-delta frame chain from its header;
        such a header is refused by its version before anything reads it."""
        header = CheckpointHeader.__new__(CheckpointHeader)
        vars(header).update(
            version=3, config=crawl_config("batched"), focused=True, seeds=[],
            good_topics=[], fetch_failure_seed=0, chain=[1, 2],
        )
        with Database.open(tmp_path / "db") as db:
            db.checkpoint(app_state=header)
        before = directory_bytes(tmp_path / "db")
        with pytest.raises(StorageError, match=f"format 3; this build reads format {FORMAT_VERSION}"):
            CheckpointManager.load(str(tmp_path / "db"))
        assert directory_bytes(tmp_path / "db") == before

    def test_a_version_4_header_is_refused(self, tmp_path):
        """Format 4 copied five of the job's fields into the checkpoint
        (config, focused, seeds, good_topics, fetch_failure_seed) where
        format 5 holds the settled JobSpec; refused by its version."""
        checkpoint = CrawlCheckpoint.__new__(CrawlCheckpoint)
        vars(checkpoint).update(
            config=crawl_config("batched"), focused=True, seeds=[], good_topics=[GOOD],
            fetch_failure_seed=0, engine_state={}, fetcher_state={}, server_rng_state={},
            checkpoints_saved=1,
        )
        with Database.open(tmp_path / "db") as db:
            db.checkpoint(app_state=CheckpointHeader(version=4, checkpoint=checkpoint))
        before = directory_bytes(tmp_path / "db")
        with pytest.raises(StorageError, match=f"format 4; this build reads format {FORMAT_VERSION}"):
            CheckpointManager.load(str(tmp_path / "db"))
        assert directory_bytes(tmp_path / "db") == before

    def test_a_format_1_snapshot_is_refused(self, checkpoint_system, tmp_path):
        """A format 1 directory could address frames under file id -1;
        such a store is refused at open, not read as pages."""
        path = tmp_path / "crawl"
        self.checkpointed(checkpoint_system, path)
        snapshot = path / SNAPSHOT_FILE
        with open(snapshot, "rb") as fh:
            meta = load_record(read_frame_at(fh, 0))
        directory = load_record(zlib.decompress(meta["directory"]))
        directory[(-1, 1)] = next(iter(directory.values()))
        meta["directory"] = zlib.compress(dump_record(directory))
        meta["format"] = 1
        with open(snapshot, "wb") as fh:
            write_frame(fh, dump_record(meta))
        before = directory_bytes(path)
        for load in (CheckpointManager.load, checkpoint_system.resume):
            with pytest.raises(
                StorageError,
                match=f"a format 1 minidb snapshot; this build reads format {SNAPSHOT_FORMAT}",
            ):
                load(str(path))
        assert directory_bytes(path) == before


class TestAttachedScores:
    def test_scores_attached_with_update_scores_survive_a_kill_and_resume(
        self, checkpoint_system, tmp_path
    ):
        """CRAWL has no hub or authority column: the scores ``update_scores``
        attaches ride in the checkpoint.  Under an ordering that reads the
        authority score, a crawl saved with scores attached and then
        abandoned resumes with every score in place, and visits what the
        same crawl run without a stop visits."""

        def start(checkpoint_dir=None):
            config = crawl_config("batched")
            config.ordering = recovery_ordering()
            handle = checkpoint_system.start(
                JobSpec(
                    crawler=config,
                    fetch_failure_seed=FETCH_FAILURE_SEED,
                    checkpoint_dir=checkpoint_dir,
                )
            )
            handle.step(8)
            frontier = handle.crawler.frontier
            waiting = [
                url for url in frontier.known_urls() if frontier.entry(url).status == "frontier"
            ]
            attached = {
                url: (0.5 + n / 100, 1.0 - n / 100) for n, url in enumerate(waiting[-12:])
            }
            for url, (hub, authority) in attached.items():
                frontier.update_scores(url, hub_score=hub, authority_score=authority)
            return handle, attached

        reference, attached = start()
        reference_result = reference.run()
        abandoned, again = start(str(tmp_path / "crawl"))
        assert again == attached
        abandoned.pause()  # the save; the handle is then abandoned, never closed

        resumed = checkpoint_system.resume(str(tmp_path / "crawl"))
        frontier = resumed.crawler.frontier
        for url, scores in attached.items():
            entry = frontier.entry(url)
            assert (entry.hub_score, entry.authority_score) == scores, url
        result = resumed.run()
        assert result.pages_fetched() == MAX_PAGES
        assert_traces_match(result, reference_result)
        result.database.close()


def failed_rows(database) -> list:
    return [row["url"] for row in database.sql("select url from FAILED")]


class TestFailedRows:
    """The trace's failed URLs are FAILED's rows, one per attempt, in attempt order."""

    @pytest.mark.parametrize("store", ["memory", "durable"])
    def test_failed_holds_the_trace_failures_in_order(self, checkpoint_system, tmp_path, store):
        handle = checkpoint_system.start(
            JobSpec(
                crawler=crawl_config("batched"),
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(tmp_path / "crawl") if store == "durable" else None,
            )
        )
        engine = handle.crawler.engine
        handle.step(15)
        engine.sync()
        early = list(handle.trace.failed_urls)
        assert early and failed_rows(handle.database) == early
        handle.run()
        engine.sync()
        failed = handle.trace.failed_urls
        assert len(failed) > len(early) and failed[: len(early)] == early
        assert failed_rows(handle.database) == failed
        handle.close()

    def test_failed_rows_are_written_at_syncs_only(self, checkpoint_system, monkeypatch):
        """Between syncs a failure waits in the trace, distillations
        included; each sync writes the ones since the last, so where the
        rows land depends only on crawl progress."""
        flushed = []
        sync = CrawlEngine.sync

        def recording_sync(engine):
            sync(engine)
            flushed.append(len(engine.trace.failed_urls))

        monkeypatch.setattr(CrawlEngine, "sync", recording_sync)
        handle = checkpoint_system.start(
            JobSpec(crawler=crawl_config("batched"), fetch_failure_seed=FETCH_FAILURE_SEED)
        )
        waited = False
        while not handle.done:
            handle.step(1)
            failed = handle.trace.failed_urls
            assert failed_rows(handle.database) == failed[: flushed[-1]]
            waited |= len(failed) > flushed[-1]
        assert waited and flushed[-1] == len(handle.trace.failed_urls)
        handle.close()

    def test_a_crawl_killed_between_saves_resumes_with_the_uninterrupted_failures(
        self, checkpoint_system, reference_batched, tmp_path, monkeypatch
    ):
        """The failures after the last save are dropped with the WAL tail
        and fetched again: FAILED ends as the uninterrupted crawl's."""
        kill_fetcher_after(monkeypatch, 47)
        with pytest.raises(KillSwitch):
            checkpoint_system.crawl(
                crawler_config=crawl_config("batched"),
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(tmp_path / "crawl"),
            )
        monkeypatch.undo()
        database, _saved = CheckpointManager.load(str(tmp_path / "crawl"))
        at_save = failed_rows(database)
        database.close()

        resumed = checkpoint_system.crawl(resume_from=str(tmp_path / "crawl"))
        reference = reference_batched.trace.failed_urls
        assert len(at_save) < len(reference) and reference[: len(at_save)] == at_save
        assert resumed.trace.failed_urls == reference
        assert failed_rows(resumed.database) == failed_rows(reference_batched.database) == reference
        resumed.database.close()


class TestCrawlArgumentGuards:
    def test_checkpoint_dir_refuses_a_directory_already_holding_a_crawl(
        self, checkpoint_system, tmp_path
    ):
        config = crawl_config("batched")
        config.max_pages = 20
        checkpoint_system.crawl(
            crawler_config=config,
            fetch_failure_seed=FETCH_FAILURE_SEED,
            checkpoint_dir=str(tmp_path / "crawl"),
        )
        with pytest.raises(ValueError, match="already holds a crawl checkpoint"):
            checkpoint_system.crawl(
                crawler_config=crawl_config("batched"),
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(tmp_path / "crawl"),
            )

    @pytest.mark.parametrize("entry", ["start", "crawl"])
    def test_sharded_crawl_refuses_a_checkpoint_dir(self, checkpoint_system, tmp_path, entry):
        """Sharded checkpoints were removed: the refusal comes before any file."""
        config = CrawlerConfig(
            engine="sharded", shards=2, shard_runner="inprocess", max_pages=20, batch_size=4
        )
        path = tmp_path / "crawl"
        with pytest.raises(ValueError, match="sharded checkpoints were removed"):
            if entry == "start":
                checkpoint_system.start(JobSpec(crawler=config, checkpoint_dir=str(path)))
            else:
                checkpoint_system.crawl(crawler_config=config, checkpoint_dir=str(path))
        assert not path.exists()

    @pytest.mark.parametrize("entry", ["resume", "crawl"])
    def test_a_parent_sharded_checkpoint_is_refused_untouched(
        self, checkpoint_system, tmp_path, entry
    ):
        """A directory shaped like a sharded checkpoint from before their
        removal — a coordinator manifest beside per-shard databases — is
        refused, and not one byte of it changes."""
        path = tmp_path / "sharded"
        with Database.open(str(path / "shard-00")) as shard:
            shard.create_table("T", make_schema(("id", INTEGER, False), primary_key=["id"]))
            shard.table("T").insert((1,))
            shard.checkpoint(app_state={"shard": 0, "round": 3})
        (path / "coordinator.manifest").write_bytes(b"\x00" * 64)
        before = directory_bytes(path)
        with pytest.raises(ValueError, match="sharded crawl checkpoint"):
            if entry == "resume":
                checkpoint_system.resume(str(path))
            else:
                checkpoint_system.crawl(resume_from=str(path))
        assert directory_bytes(path) == before

    def test_resume_refuses_a_crawl_of_other_topics_untouched(
        self, checkpoint_system, small_web, tmp_path, monkeypatch
    ):
        """The checkpoint holds the job's topics: a system trained for
        others refuses it, naming both, before one byte of it changes."""
        path = tmp_path / "crawl"
        kill_fetcher_after(monkeypatch, 47)
        with pytest.raises(KillSwitch):
            checkpoint_system.crawl(
                crawler_config=crawl_config("batched"),
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(path),
            )
        monkeypatch.undo()
        music = FocusSystem.from_web(
            small_web, ["arts/music"], FocusConfig(examples_per_leaf=12, seed_count=8)
        )
        music.train()
        before = directory_bytes(path)
        for resume in (music.resume, lambda where: music.crawl(resume_from=where)):
            with pytest.raises(ValueError) as refused:
                resume(str(path))
            assert "('arts/music',)" in str(refused.value)
            assert f"('{GOOD}',)" in str(refused.value)
        assert directory_bytes(path) == before

    def test_resume_reopens_under_the_jobs_storage_policy(self, checkpoint_system, tmp_path):
        """The buffer pool, WAL batch and compaction the crawl started with
        are the ones it resumes with."""
        config = crawl_config("batched")
        config.storage = StorageConfig(
            buffer_pool_pages=64, wal_fsync_batch=5, compact_every=3, compact_min_garbage_ratio=0.3
        )
        path = str(tmp_path / "crawl")

        def policy(handle):
            database = handle.database
            compactor = database.backend.compactor
            return (
                database.buffer_pool.capacity_pages,
                database.backend.wal.fsync_batch,
                compactor.compact_every,
                compactor.min_garbage_ratio,
            )

        started = checkpoint_system.start(
            JobSpec(crawler=config, fetch_failure_seed=FETCH_FAILURE_SEED, checkpoint_dir=path)
        )
        assert policy(started) == (64, 5, 3, 0.3)
        started.step(10)
        started.pause()  # the save; the handle is then abandoned, never closed
        resumed = checkpoint_system.resume(path)
        assert policy(resumed) == (64, 5, 3, 0.3)
        resumed.close()

    def test_resume_from_rejects_conflicting_arguments(self, checkpoint_system, tmp_path):
        with pytest.raises(ValueError, match="crawler_config"):
            checkpoint_system.crawl(
                resume_from=str(tmp_path / "crawl"),
                crawler_config=crawl_config("batched"),
            )
        with pytest.raises(ValueError, match="seeds"):
            checkpoint_system.crawl(resume_from=str(tmp_path / "crawl"), seeds=["http://x"])


class TestCheckpointManager:
    def test_requires_a_durable_database(self, checkpoint_system):
        with pytest.raises(StorageError, match="durable"):
            CheckpointManager(Database(), crawler=None, spec=JobSpec())

    def test_load_refuses_a_database_without_a_checkpoint(self, tmp_path):
        with Database.open(tmp_path / "db") as db:
            db.checkpoint()
        with pytest.raises(StorageError, match="no crawl checkpoint"):
            CheckpointManager.load(str(tmp_path / "db"))

    def test_resume_continues_checkpointing(
        self, checkpoint_system, tmp_path, monkeypatch
    ):
        """A resumed crawl can itself be killed and resumed again."""
        kill_fetcher_after(monkeypatch, 40)
        with pytest.raises(KillSwitch):
            checkpoint_system.crawl(
                crawler_config=crawl_config("batched"),
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(tmp_path / "crawl"),
            )
        monkeypatch.undo()

        kill_fetcher_after(monkeypatch, 45)
        with pytest.raises(KillSwitch):
            checkpoint_system.crawl(resume_from=str(tmp_path / "crawl"))
        monkeypatch.undo()

        handle = checkpoint_system.resume(str(tmp_path / "crawl"))
        # The resumed spec describes the crawl that is running: its
        # crawler is the checkpointed config, not "the system default".
        assert handle.spec.crawler is handle.crawler.config
        assert handle.spec.crawler.batch_size == 4
        assert handle.spec.crawler.checkpoint_every == CHECKPOINT_EVERY
        assert handle.run().pages_fetched() == MAX_PAGES
        handle.close()

    def test_a_stepped_crawl_takes_the_interval_saves_a_single_run_takes(
        self, checkpoint_system, tmp_path, monkeypatch
    ):
        """The interval timer starts once per build or resume, not once per ``run()``.

        Under a clock that advances one second per reading, a crawl run
        to its end in one call and the same crawl stepped a round at a
        time read the clock equally often, so they must save equally
        often.
        """
        import repro.crawler.engine as engine_module

        def saves(tag, rounds):
            ticks = iter(range(10**6))
            clock = SimpleNamespace(
                monotonic=lambda: float(next(ticks)), perf_counter=time.perf_counter
            )
            monkeypatch.setattr(engine_module, "time", clock)
            config = crawl_config("batched")
            config.max_pages, config.checkpoint_every, config.checkpoint_interval_s = 64, 0, 2.5
            handle = checkpoint_system.start(
                JobSpec(
                    crawler=config,
                    fetch_failure_seed=FETCH_FAILURE_SEED,
                    checkpoint_dir=str(tmp_path / tag),
                )
            )
            while not handle.done:
                handle.step(rounds)
            saved = handle.manager.checkpoints_saved
            handle.close()
            return saved

        single = saves("single", None)
        # The initial and the final save, and interval saves between them.
        assert single > 4
        assert saves("stepped", 1) == single

    def test_load_refuses_another_format_version(self, tmp_path):
        """A checkpoint in another format is refused whole, naming both versions."""
        newer = CheckpointHeader(
            version=FORMAT_VERSION + 1,
            checkpoint=CrawlCheckpoint(
                spec=JobSpec(crawler=crawl_config("batched")),
                engine_state={}, fetcher_state={}, server_rng_state={},
            ),
        )
        with Database.open(tmp_path / "db") as db:
            db.checkpoint(app_state=newer)
        with pytest.raises(
            StorageError,
            match=f"format {FORMAT_VERSION + 1}; this build reads format {FORMAT_VERSION}",
        ):
            CheckpointManager.load(str(tmp_path / "db"))


def assert_restored_equals_live(manager: CheckpointManager) -> None:
    """What a resume rebuilds from the last save equals the live crawl.

    The saved engine state equals ``state_snapshot()`` field for field,
    and a twin engine restored from it over the saved tables holds the
    live frontier (every entry's fields, ``rid`` and ``discovered``
    included; the server loads; the discovery watermark; the checkout
    order), the live relevance map, failed URLs and last distillation,
    items in order.  The restored visits are the live trace's, and so
    are CRAWL's visited rows ordered by ``lastvisited``.  A mutation path that
    changes an entry without writing CRAWL fails here, at the first
    checkpoint after it ran and with the field's name, not as a divergent
    crawl hundreds of pages later.
    """
    saved = read_checkpoint(manager.database.backend.path)
    engine = manager.crawler.engine
    live = engine.state_snapshot()
    assert saved.engine_state.keys() == live.keys()
    for key, value in live.items():
        assert saved.engine_state[key] == value, f"engine.{key}"

    frontier = engine.frontier
    twin = CrawlEngine(
        engine.fetcher, engine._scorer.classifier, engine._scorer.taxonomy, manager.database,
        engine.config, Frontier(manager.database, frontier.ordering), CrawlTrace(),
        transport=engine.transport,
    )
    twin.restore_state(saved.engine_state)
    rebuilt = twin.frontier
    assert rebuilt.known_urls() == frontier.known_urls()
    for url in frontier.known_urls():
        for field in dataclasses.fields(FrontierEntry):
            got = getattr(rebuilt.entry(url), field.name)
            want = getattr(frontier.entry(url), field.name)
            assert got == want, (
                f"frontier entry {url}: {field.name} is {got!r} rebuilt, {want!r} live"
            )
    assert rebuilt._server_load == frontier._server_load, "server loads"
    assert rebuilt._next_discovered == frontier._next_discovered, "next_discovered"
    waiting = [frontier.entry(url) for url in frontier.known_urls()]
    waiting = [entry for entry in waiting if entry.status == "frontier"]
    waiting.sort(key=lambda entry: (frontier.current_key(entry), entry.oid))
    assert rebuilt.pop_batch(len(waiting) + 1) == [entry.url for entry in waiting], "checkout order"
    assert list(twin.relevance_map().items()) == list(engine.relevance_map().items()), "relevance"
    assert twin.trace.visits == engine.trace.visits, "visits"
    assert twin.trace.failed_urls == engine.trace.failed_urls, "failed URLs"
    assert (twin.trace.distillations, twin.trace.stagnated) == (
        engine.trace.distillations, engine.trace.stagnated,
    ), "distillations, stagnated"
    visited = manager.database.sql(
        "select lastvisited, url, relevance, kcid from CRAWL where status = 'visited'"
    )
    visited.sort(key=lambda row: row["lastvisited"])
    assert [tuple(row.values()) for row in visited] == [
        (visit.tick, visit.url, visit.relevance, visit.best_leaf_cid)
        for visit in engine.trace.visits
    ], "CRAWL's visited rows"
    last, restored = engine.trace.last_distillation, twin.trace.last_distillation
    assert (restored is None) == (last is None), "last distillation"
    if last is not None:
        assert list(restored.hub_scores.items()) == list(last.hub_scores.items()), "hubs"
        assert list(restored.authority_scores.items()) == list(last.authority_scores.items()), (
            "authorities"
        )
        assert restored.iterations == last.iterations, "iterations"
    assert twin.state_snapshot() == live, "engine state"
    assert saved.fetcher_state == manager.fetcher.state_snapshot(), "fetcher_state"
    assert saved.server_rng_state == manager.servers.rng_state(), "server_rng_state"
    assert saved.checkpoints_saved == manager.checkpoints_saved


#: A boost priority above any relevance, so every boost raises and marks its entry.
BOOSTED = 1.5


def matrix_config(case: str) -> CrawlerConfig:
    """The kill/resume matrix of this file, one crawl shape per case."""
    config = crawl_config("serial" if case == "serial" else "batched")
    if case in ("async", "latency"):
        # "latency" owes no wait (time_scale=0) and runs inline; "async"
        # owes a scaled one on every fetch, so every round drains.
        config.transport = "latency"
        config.transport_options = {
            "mean_latency_ms": 2.0, "timeout_rate": 0.05, "timeout_ms": 4.0, "seed": 9,
            "time_scale": 0.25 if case == "async" else 0.0,
        }
    if case == "hard-focus":
        # Rejected pages expand nothing, distillation boosts the hubs'
        # unvisited neighbours, and the failure seed makes fetches fail
        # transiently and get retried: every kind of entry mutation.
        config.focus_mode = "hard"
        config.hub_boost_top_k = 10
        config.hub_boost_priority = BOOSTED
        config.distill_every = 20
        config.checkpoint_every = 15
    return config


class TestRestoredEqualsLive:
    @pytest.mark.parametrize(
        "case", ["batched", "serial", "async", "latency", "hard-focus"]
    )
    def test_restored_state_equals_the_live_state_at_every_save(
        self, checkpoint_system, tmp_path, monkeypatch, case
    ):
        save = CheckpointManager.save
        saves = []

        def checked_save(manager):
            save(manager)
            assert_restored_equals_live(manager)
            saves.append(manager.checkpoints_saved)

        monkeypatch.setattr(CheckpointManager, "save", checked_save)
        real_fetch = Fetcher.fetch
        kill_fetcher_after(monkeypatch, 75)
        with pytest.raises(KillSwitch):
            checkpoint_system.crawl(
                crawler_config=matrix_config(case),
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(tmp_path / "crawl"),
            )
        monkeypatch.setattr(Fetcher, "fetch", real_fetch)
        before_kill = len(saves)
        resumed = checkpoint_system.crawl(resume_from=str(tmp_path / "crawl"))
        assert resumed.pages_fetched() == MAX_PAGES
        # Saves on both sides of the kill; the resumed crawl numbers its
        # saves on from the last one it found.
        assert len(saves) - 2 >= before_kill >= 1
        assert saves == list(range(1, len(saves) + 1))
        if case == "hard-focus":
            assert resumed.trace.distillations >= 3 and resumed.trace.failed_urls
            frontier = resumed.crawler.frontier
            assert any(
                frontier.entry(url).relevance == BOOSTED for url in frontier.known_urls()
            )
        resumed.database.close()


class TestCheckpointBytes:
    """What a checkpoint writes is a function of what changed, counted in bytes."""

    PAGES = 1600

    @pytest.fixture(scope="class")
    def measured(self, tmp_path_factory):
        """One durable 1600-page crawl, every save's bytes logged.

        Segment compaction is off so the segment file only grows, and
        every dirty page is flushed just before a save starts: what the
        save itself appends to the segment file is then the pages its
        sync dirtied, and ``snapshot.dat`` is the record it publishes,
        ``app_state`` included.
        """
        system = build_crawl_workload(seed=7, scale=1.0).system
        path = tmp_path_factory.mktemp("bytes") / "crawl"
        config = CrawlerConfig(
            max_pages=self.PAGES, distill_every=40, checkpoint_every=100, engine="batched",
            batch_size=32, score_backend="numpy",
            storage=StorageConfig(compact_every=0),
        )
        save = CheckpointManager.save
        log = []

        def measuring_save(manager):
            database = manager.database
            database.buffer_pool.flush_all()
            before = database.io_snapshot()["segment_bytes_total"]
            save(manager)
            appended = database.io_snapshot()["segment_bytes_total"] - before
            record = os.path.getsize(os.path.join(database.backend.path, "snapshot.dat"))
            saved = database.app_state().checkpoint
            state = len(
                dump_record((saved.engine_state, saved.fetcher_state, saved.server_rng_state))
            )
            app_state = len(dump_record(database.app_state()))
            log.append(
                (manager.crawler.engine.trace.pages_fetched, (state, app_state), appended, record)
            )

        CheckpointManager.save = measuring_save
        try:
            handle = system.start(
                JobSpec(
                    seeds=tuple(system.default_seeds()),
                    max_pages=self.PAGES,
                    crawler=config,
                    checkpoint_dir=str(path),
                )
            )
            handle.run()
        finally:
            CheckpointManager.save = save
        final_state = len(dump_record(handle.database.app_state()))
        segment_total = handle.database.io_snapshot()["segment_bytes_total"]
        failures = len(handle.trace.failed_urls)
        handle.close()
        return log, final_state, segment_total, failures

    def test_a_late_checkpoint_writes_what_an_early_one_does(self, measured):
        """A save writes the pages its sync dirtied and the snapshot record.
        The record re-writes the page directory whole, an entry per table
        page, so it grows with the database: this bounds how fast."""
        log, _final_state, _segment_total, _failures = measured
        sizes = [(pages, appended + record) for pages, _app, appended, record in log]
        early = next(size for pages, size in sizes if pages >= 300)
        late = [size for pages, size in sizes if pages <= 1500][-1]
        assert late <= 1.5 * early, (early, late, log)

    def test_the_app_state_stays_under_1_kB(self, measured):
        """The failed URLs are FAILED rows: the crawl state every save
        writes whole does not grow with the crawl.  At page 0 and at page
        1 600 (after a couple of hundred failures) the engine, fetcher and
        RNG states are under 1 kB together; the whole ``app_state``, the
        crawl's constants (config, seeds) included, grows by a few bytes
        of larger counters."""
        log, _final_state, _segment_total, failures = measured
        assert failures >= 100, failures
        (first_pages, (first_state, first_app), _, _) = log[0]
        (last_pages, (last_state, last_app), _, _) = log[-1]
        assert (first_pages, last_pages) == (0, self.PAGES), log
        assert first_state < 1000 and last_state < 1000, (first_state, last_state)
        assert last_app - first_app < 64, (first_app, last_app)

    def test_total_checkpoint_bytes_are_bounded_by_state_plus_pages(self, measured):
        log, final_state, segment_total, _failures = measured
        state_bytes = sum(appended + record for _pages, _app, appended, record in log)
        page_images = segment_total - sum(appended for _pages, _app, appended, _record in log)
        assert state_bytes + page_images <= 2 * (final_state + page_images), (
            state_bytes, page_images, final_state,
        )
