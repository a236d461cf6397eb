"""Crash-recovery: a killed crawl, resumed from its checkpoint, must be
indistinguishable from one that never died.

The contract under test (the PR's acceptance criterion): kill the crawl
process at an arbitrary point, reopen the durable database, resume — and
the combined run visits the identical page sequence with identical
relevance floats as an uninterrupted run, to 1e-9 (in fact bit for bit).
"""

import dataclasses
import os

import pytest

from repro.core.checkpoint import (
    FORMAT_VERSION,
    CheckpointHeader,
    CheckpointManager,
    CrawlCheckpoint,
    read_checkpoint,
)
from repro.core.config import FocusConfig, JobSpec
from repro.core.system import FocusSystem
from repro.classifier.tokenizer import term_frequencies
from repro.crawler.engine import CrawlEngine, CrawlTrace, PageScorer
from repro.crawler.focused import CrawlerConfig
from repro.crawler.frontier import ENTRY_FIELDS
from repro.experiments.workloads import build_crawl_workload
from repro.minidb import INTEGER, Database, StorageConfig, make_schema
from repro.minidb.errors import StorageError
from repro.minidb.wal import dump_record
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


def crawl_config(engine: str) -> CrawlerConfig:
    return CrawlerConfig(
        max_pages=MAX_PAGES,
        distill_every=40,
        checkpoint_every=CHECKPOINT_EVERY,
        engine=engine,
        batch_size=4 if engine == "batched" else 1,
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
        assert saved.config.checkpoint_interval_s == 1e-6

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
    def prefetch_config(engine: str = "batched") -> CrawlerConfig:
        config = crawl_config(engine)
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
        assert resumed.crawler.engine.prefetch_stale_ratio() == 0.0
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


class TestParentCheckpointResume:
    def test_prefetch_section_and_flag_are_ignored(
        self, checkpoint_system, reference_batched, tmp_path, monkeypatch
    ):
        """A checkpoint from before cross-round prefetch was removed: its
        engine state carries a ``"prefetch"`` counter section and its
        config says ``prefetch=True`` and ``fetch_mode="async"``.  It
        resumes to the uninterrupted crawl, bit for bit."""
        small_state = CrawlEngine._small_state

        def parent_shaped(engine):
            counters = {"launched": 40, "hits": 21, "stale": 12, "drained": 7}
            return {**small_state(engine), "prefetch": counters}

        monkeypatch.setattr(CrawlEngine, "_small_state", parent_shaped)
        config = crawl_config("batched")
        config.fetch_mode = "async"
        config.prefetch = True
        kill_fetcher_after(monkeypatch, 83)
        with pytest.raises(KillSwitch):
            checkpoint_system.crawl(
                crawler_config=config,
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(tmp_path / "crawl"),
            )
        monkeypatch.undo()
        reopened, saved = CheckpointManager.load(str(tmp_path / "crawl"))
        reopened.close()
        assert saved.engine_state["prefetch"]["launched"] == 40
        assert saved.config.prefetch

        resumed = checkpoint_system.crawl(resume_from=str(tmp_path / "crawl"))
        assert resumed.pages_fetched() == MAX_PAGES
        assert_traces_match(resumed, reference_batched)
        resumed.database.close()

    def test_a_python_scoring_checkpoint_resumes_on_the_columnar_kernel(
        self, checkpoint_system, reference_batched, tmp_path, monkeypatch
    ):
        """A checkpoint from before the python scoring path was removed: its
        pickled config says ``score_backend="python"``, and every relevance
        it holds — the trace, the engine's relevance map, CRAWL rows, the
        frontier priorities and LINK weights derived from them — came from
        the single-document Eq. 2 path, which that path equalled bit for
        bit.  It resumes on the columnar kernel: the URLs of the
        uninterrupted crawl exactly, every relevance float within 1e-9."""

        def python_path(scorer, pages):
            documents = [term_frequencies(result.tokens) for _oid, result in pages]
            return scorer.classifier.classify_batch(documents)

        monkeypatch.setattr(PageScorer, "classify", python_path)
        config = crawl_config("batched")
        config.score_backend = "python"
        kill_fetcher_after(monkeypatch, 115)  # after the save at 90 pages
        with pytest.raises(KillSwitch):
            checkpoint_system.crawl(
                crawler_config=config,
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(tmp_path / "crawl"),
            )
        monkeypatch.undo()
        reopened, saved = CheckpointManager.load(str(tmp_path / "crawl"))
        reopened.close()
        assert saved.config.score_backend == "python"
        visits = saved.engine_state["trace"].visits
        assert len(visits) >= 90
        model, web = checkpoint_system.model, checkpoint_system.web
        for visit in visits:  # the python path's floats, bit for bit
            assert visit.relevance == model.relevance(term_frequencies(web.page(visit.url).tokens))

        resumed = checkpoint_system.crawl(resume_from=str(tmp_path / "crawl"))
        assert resumed.crawler.config.score_backend == "python"
        assert resumed.pages_fetched() == MAX_PAGES
        assert resumed.trace.fetched_urls == reference_batched.trace.fetched_urls
        assert resumed.trace.failed_urls == reference_batched.trace.failed_urls
        assert resumed.trace.distillations == reference_batched.trace.distillations
        for got, want in zip(
            resumed.trace.relevance_series(), reference_batched.trace.relevance_series()
        ):
            assert got == pytest.approx(want, abs=1e-9)
        resumed.database.close()

    @pytest.mark.parametrize("fetch_mode", ["threaded", "async"])
    def test_pickled_configs_with_deleted_fields_resume(
        self, checkpoint_system, reference_batched, tmp_path, monkeypatch, fetch_mode
    ):
        """A checkpoint from before the fetch pool, background compaction, the
        crawler's own compaction knobs and sharded checkpoints were deleted:
        its pickled ``CrawlerConfig`` and ``StorageConfig`` carry those
        fields in their ``__dict__``, as that tree pickled them (``shards=0``
        was the unset default of the removed ``REPRO_ENGINE_SHARDS``).  It
        resumes to the uninterrupted crawl, bit for bit, whichever
        ``fetch_mode`` it carries (the field is accepted and ignored)."""
        storage = StorageConfig()
        storage.__dict__.update(
            background_compaction=True, compact_wal_bytes=32768, ops_factory=None
        )
        config = crawl_config("batched")
        config.fetch_mode = fetch_mode
        config.storage = storage
        config.__dict__.update(
            fetch_workers=8, compact_every=3, compact_min_garbage_ratio=0.2, shards=0
        )
        kill_fetcher_after(monkeypatch, 83)
        with pytest.raises(KillSwitch):
            checkpoint_system.crawl(
                crawler_config=config,
                fetch_failure_seed=FETCH_FAILURE_SEED,
                checkpoint_dir=str(tmp_path / "crawl"),
            )
        monkeypatch.undo()
        reopened, saved = CheckpointManager.load(str(tmp_path / "crawl"))
        reopened.close()
        assert saved.config.__dict__["fetch_workers"] == 8
        assert saved.config.storage.__dict__["compact_wal_bytes"] == 32768
        assert "ops_factory" in saved.config.storage.__dict__
        assert saved.config.shards == 0

        resumed = checkpoint_system.crawl(resume_from=str(tmp_path / "crawl"))
        assert resumed.crawler.config.fetch_mode == fetch_mode
        assert resumed.pages_fetched() == MAX_PAGES
        assert_traces_match(resumed, reference_batched)
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
            CheckpointManager(
                Database(), crawler=None, fetcher=None, servers=None,
                seeds=[], good_topics=[],
            )

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

    def test_load_refuses_another_format_version(self, tmp_path):
        """A checkpoint in another format is refused whole, naming both versions."""
        legacy = CrawlCheckpoint(
            config=crawl_config("batched"), focused=True, seeds=[], good_topics=[],
            fetch_failure_seed=0, engine_state={}, frontier_state={}, fetcher_state={},
            server_rng_state={},
        )
        newer = CheckpointHeader(
            version=FORMAT_VERSION + 1, config=crawl_config("batched"), focused=True,
            seeds=[], good_topics=[], fetch_failure_seed=0, chain=[1],
        )
        for found, app_state in ((1, legacy), (FORMAT_VERSION + 1, newer)):
            path = tmp_path / f"format-{found}"
            with Database.open(path) as db:
                db.checkpoint(app_state=app_state)
            with pytest.raises(
                StorageError, match=f"format {found}; this build reads format {FORMAT_VERSION}"
            ):
                CheckpointManager.load(str(path))


def assert_chain_equals_snapshot(manager: CheckpointManager) -> str:
    """``base ⊕ deltas == state_snapshot()``, field for field; returns the frame kind.

    A mutation path that forgets to mark what it touched fails here, at
    the first checkpoint after it ran and with the field's name, not as
    a divergent crawl hundreds of pages later.
    """
    saved = read_checkpoint(manager.database)
    frontier = manager.crawler.frontier.state_snapshot()
    engine = manager.crawler.engine.state_snapshot()
    assert saved.frontier_state.keys() == frontier.keys()
    for got, live in zip(saved.frontier_state["entries"], frontier["entries"]):
        for name, folded, current in zip(ENTRY_FIELDS, got, live):
            assert folded == current, (
                f"frontier entry {live[0]}: {name} is {folded!r} in base+deltas, {current!r} live"
            )
    for key, live in frontier.items():
        assert saved.frontier_state[key] == live, f"frontier.{key}"
    assert saved.engine_state.keys() == engine.keys()
    for key, live in engine.items():
        folded = saved.engine_state[key]
        if key == "trace":
            for field in dataclasses.fields(CrawlTrace):
                assert getattr(folded, field.name) == getattr(live, field.name), (
                    f"engine.trace.{field.name}"
                )
        elif key == "relevance":
            assert list(folded.items()) == list(live.items()), "engine.relevance"
        else:
            assert folded == live, f"engine.{key}"
    assert saved.fetcher_state == manager.fetcher.state_snapshot(), "fetcher_state"
    assert saved.server_rng_state == manager.servers.rng_state(), "server_rng_state"
    assert saved.checkpoints_saved == manager.checkpoints_saved
    assert saved.chain == manager.chain
    return "base" if len(manager.chain) == 1 else "delta"


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


class TestDeltaEqualsFull:
    @pytest.mark.parametrize(
        "case", ["batched", "serial", "async", "latency", "hard-focus"]
    )
    def test_chain_folds_to_the_live_state_at_every_checkpoint(
        self, checkpoint_system, tmp_path, monkeypatch, case
    ):
        save = CheckpointManager.save
        kinds = []

        def checked_save(manager):
            save(manager)
            kinds.append(assert_chain_equals_snapshot(manager))

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
        before_kill = len(kinds)
        resumed = checkpoint_system.crawl(resume_from=str(tmp_path / "crawl"))
        assert resumed.pages_fetched() == MAX_PAGES
        # The walk saw both frame kinds, on both sides of the kill.
        assert "delta" in kinds and "base" in kinds[1:]
        assert len(kinds) - 2 >= before_kill >= 1
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
        """One durable 1600-page crawl, every save's crawl-state bytes logged.

        Segment compaction is off so the segment file only grows, and
        every dirty page is flushed just before a save starts: what the
        save itself appends to the segment file is then its frame, and
        ``snapshot.dat`` is the record it publishes.
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
            consolidating = len(manager.chain) == 1
            log.append((manager.crawler.engine.trace.pages_fetched, consolidating, appended, record))

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
        crawler = handle.crawler
        final_state = len(
            dump_record((crawler.frontier.state_snapshot(), crawler.engine.state_snapshot()))
        )
        segment_total = handle.database.io_snapshot()["segment_bytes_total"]
        handle.close()
        return log, final_state, segment_total

    def test_a_late_checkpoint_writes_what_an_early_one_does(self, measured):
        log, _final_state, _segment_total = measured
        deltas = [
            (pages, appended + record)
            for pages, consolidating, appended, record in log
            if not consolidating
        ]
        early = next(size for pages, size in deltas if pages >= 300)
        late = [size for pages, size in deltas if pages <= 1500][-1]
        assert late <= 1.5 * early, (early, late, log)

    def test_total_checkpoint_bytes_are_bounded_by_state_plus_pages(self, measured):
        log, final_state, segment_total = measured
        state_bytes = sum(appended + record for _pages, _kind, appended, record in log)
        page_images = segment_total - sum(appended for _pages, _kind, appended, _record in log)
        assert state_bytes + page_images <= 2 * (final_state + page_images), (
            state_bytes, page_images, final_state,
        )
        # How the bound comes about: a base is written only once the
        # deltas since the last one weigh as much as it did, and it can
        # have grown by no more than they carried — so every base after
        # the first is paid for twice over by the deltas it retires.
        retired = 0
        for _pages, consolidating, appended, _record in log[1:]:
            if consolidating:
                assert appended <= 2 * retired, log
                retired = 0
            else:
                retired += appended
        assert sum(kind for _pages, kind, _appended, _record in log) >= 3  # bases, first included
