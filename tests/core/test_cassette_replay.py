"""Record once, replay bit-identically forever — the cassette contract
at the engine level.

One crawl of the local fixture site is recorded into a cassette; every
replay of that cassette must reproduce the recording exactly — the same
pages in the same order, the same relevance floats bit for bit, the same
CRAWL/LINK table contents — across the serial and batched engines,
whichever fetch path recorded it (a replayed fetch is settled at once,
so replay always runs inline), through a kill/resume mid-replay, and
with no network stack at
all (the fixture server is long gone when the replays run, and no HTTP
session is ever built).  A committed cassette in ``tests/data/cassettes/``
pins the whole loop in CI without a single live fetch.
"""

import pytest

from repro import CrawlerConfig, JobSpec
from repro.webgraph.cassette import CassetteMismatch, ReplayTransport, lint_cassette
from tests.webgraph.fixture_site import (
    COMMITTED_CASSETTE,
    FIXTURE_MAX_PAGES,
    build_fixture_system,
    fixture_crawler_config,
    record_fixture_cassette,
)


class KillSwitch(Exception):
    """Stands in for SIGKILL: aborts the replay at an arbitrary fetch."""


@pytest.fixture(scope="module")
def cassette_system(small_web):
    # The same construction the recording CLI uses (same web seed, same
    # trained classifier), so committed cassettes replay under it too.
    return build_fixture_system(small_web)


@pytest.fixture(scope="module")
def recording(cassette_system, tmp_path_factory):
    """The recorded fixture crawl: (cassette path, reference result, meta).

    The fixture server is stopped as soon as recording finishes — every
    replay below runs against the file alone.
    """
    path = str(tmp_path_factory.mktemp("cassette") / "fixture.jsonl")
    result, meta = record_fixture_cassette(path, system=cassette_system)
    return path, result, meta


def replay_job(system, path, seeds, **config_overrides):
    """Start a replay of *path* and run it to completion; returns the handle."""
    spec = JobSpec(
        seeds=tuple(seeds),
        crawler=fixture_crawler_config(path, cassette_mode="replay", **config_overrides),
    )
    handle = system.start(spec)
    handle.run()
    return handle


@pytest.fixture(scope="module")
def batched_recording(cassette_system, tmp_path_factory):
    """The batched engine's own recording: batch checkout orders pages
    differently from the serial engine, so each shape replays against
    its own cassette."""
    path = str(tmp_path_factory.mktemp("cassette") / "batched.jsonl")
    result, meta = record_fixture_cassette(
        path, system=cassette_system, engine="batched", batch_size=4
    )
    return path, result, meta


@pytest.fixture(scope="module")
def serial_replay(cassette_system, recording):
    path, _, meta = recording
    handle = replay_job(cassette_system, path, meta["seeds"])
    yield handle
    handle.close()


@pytest.fixture(scope="module")
def batched_replay(cassette_system, batched_recording):
    path, _, meta = batched_recording
    handle = replay_job(cassette_system, path, meta["seeds"], engine="batched", batch_size=4)
    yield handle
    handle.close()


def assert_matches_recording(trace, reference_trace):
    assert trace.fetched_urls == reference_trace.fetched_urls
    assert trace.relevance_series() == reference_trace.relevance_series()  # bitwise
    assert trace.failed_urls == reference_trace.failed_urls
    assert trace.distillations == reference_trace.distillations


def table_rows(database, name):
    return sorted(database.table(name).rows())


class TestReplayMatchesRecording:
    def test_recording_fetched_the_full_budget(self, recording):
        _, result, _ = recording
        assert result.pages_fetched() == FIXTURE_MAX_PAGES
        assert result.harvest_rate() > 0.0

    def test_serial_replay_is_bit_identical(self, serial_replay, recording):
        _, reference, _ = recording
        assert serial_replay.status == "completed"
        assert_matches_recording(serial_replay.trace, reference.trace)

    def test_serial_replay_consumes_the_whole_cassette(self, serial_replay):
        transport = serial_replay.crawler.engine.transport
        assert isinstance(transport, ReplayTransport)
        transport.assert_exhausted()

    def test_auto_mode_resolves_to_replay_on_an_existing_cassette(
        self, cassette_system, recording
    ):
        path, reference, meta = recording
        spec = JobSpec(
            seeds=tuple(meta["seeds"]),
            crawler=fixture_crawler_config(path, cassette_mode="auto"),
        )
        handle = cassette_system.start(spec)
        try:
            assert isinstance(handle.crawler.engine.transport, ReplayTransport)
            handle.run()
            assert_matches_recording(handle.trace, reference.trace)
        finally:
            handle.close()

    def test_batched_replay_is_bit_identical(self, batched_replay, batched_recording):
        _, reference, _ = batched_recording
        assert batched_replay.status == "completed"
        assert_matches_recording(batched_replay.trace, reference.trace)
        batched_replay.crawler.engine.transport.assert_exhausted()

    @pytest.mark.parametrize("engine, batch_size", [("auto", 1), ("batched", 4)])
    def test_drained_recording_replays_inline_to_the_same_crawl(
        self, cassette_system, tmp_path, drained_rounds, engine, batch_size
    ):
        """Recorded over a delayed latency transport, every round drains;
        replayed, every fetch is settled at prepare and every round runs
        inline.  The fetch path changes only I/O interleaving: the replay
        commits in checkout order and equals the recording bit for bit,
        timeouts and all four tables included."""
        path = str(tmp_path / "latency.jsonl")

        def latency_job(mode):
            config = CrawlerConfig(
                max_pages=40,
                distill_every=15,
                engine=engine,
                batch_size=batch_size,
                transport="latency",
                transport_options={
                    "mean_latency_ms": 0.5, "timeout_rate": 0.1, "timeout_ms": 1.0, "seed": 3,
                },
                cassette_path=path,
                cassette_mode=mode,
            )
            handle = cassette_system.start(
                JobSpec(seeds=tuple(cassette_system.default_seeds()), crawler=config)
            )
            handle.run()
            return handle

        recorded = latency_job("record")
        replayed = None
        try:
            assert recorded.trace.failed_urls  # the timeout stream was recorded
            drained = len(drained_rounds)
            assert drained > 0
            replayed = latency_job("replay")
            assert isinstance(replayed.crawler.engine.transport, ReplayTransport)
            assert len(drained_rounds) == drained
            assert_matches_recording(replayed.trace, recorded.trace)
            for table in ("CRAWL", "LINK", "HUBS", "AUTH"):
                assert table_rows(replayed.database, table) == table_rows(
                    recorded.database, table
                )
            replayed.crawler.engine.transport.assert_exhausted()
        finally:
            recorded.close()
            if replayed is not None:
                replayed.close()


class TestReplayNeedsNoNetwork:
    def test_replay_never_builds_a_network_transport(
        self, cassette_system, recording, monkeypatch
    ):
        """Replay runs from the file alone: the fixture server is gone,
        and the transport registry (the only road to an HTTP session or
        a socket) is never consulted."""
        import repro.webgraph.transport as transport_module

        def refuse(*args, **kwargs):
            raise AssertionError("replay touched the network transport registry")

        monkeypatch.setattr(transport_module, "build_transport", refuse)
        path, reference, meta = recording
        handle = replay_job(cassette_system, path, meta["seeds"])
        try:
            assert_matches_recording(handle.trace, reference.trace)
        finally:
            handle.close()


class TestKillResumeMidReplay:
    @pytest.mark.parametrize("kill_after", [5, 11])
    def test_killed_replay_resumes_bit_identically(
        self, cassette_system, recording, serial_replay, tmp_path, monkeypatch, kill_after
    ):
        """SIGKILL mid-replay, resume from the checkpoint: the replayer's
        served counters are part of the snapshot, so the combined run
        equals an uninterrupted replay bit for bit."""
        path, _, meta = recording
        real_fetch = ReplayTransport.fetch
        state = {"calls": 0}

        def killing(self, url):
            state["calls"] += 1
            if state["calls"] > kill_after:
                raise KillSwitch(f"killed at replay fetch {kill_after}")
            return real_fetch(self, url)

        monkeypatch.setattr(ReplayTransport, "fetch", killing)
        spec = JobSpec(
            seeds=tuple(meta["seeds"]),
            crawler=fixture_crawler_config(
                path, cassette_mode="replay", checkpoint_every=4
            ),
            checkpoint_dir=str(tmp_path / "crawl"),
        )
        doomed = cassette_system.start(spec)
        with pytest.raises(KillSwitch):
            doomed.run()
        assert doomed.status == "failed"
        doomed.close()
        monkeypatch.undo()

        resumed = cassette_system.resume(str(tmp_path / "crawl"))
        try:
            assert isinstance(resumed.crawler.engine.transport, ReplayTransport)
            resumed.run()
            assert_matches_recording(resumed.trace, serial_replay.trace)
            for table in ("CRAWL", "LINK"):
                assert table_rows(resumed.database, table) == table_rows(
                    serial_replay.database, table
                )
            resumed.crawler.engine.transport.assert_exhausted()
        finally:
            resumed.close()


class TestStrictness:
    def test_strict_replay_fails_loudly_on_divergence(self, cassette_system, recording):
        """A replayed crawl that requests anything the cassette does not
        hold (here: a different seed URL) dies with CassetteMismatch."""
        path, _, _ = recording
        spec = JobSpec(
            seeds=("http://127.0.0.1:1/not-recorded.html",),
            crawler=fixture_crawler_config(path, cassette_mode="replay"),
        )
        handle = cassette_system.start(spec)
        try:
            with pytest.raises(CassetteMismatch, match="diverged"):
                handle.run()
            assert handle.status == "failed"
        finally:
            handle.close()

    def test_non_strict_replay_degrades_misses_to_not_found(
        self, cassette_system, recording
    ):
        path, _, _ = recording
        spec = JobSpec(
            seeds=("http://127.0.0.1:1/not-recorded.html",),
            crawler=fixture_crawler_config(
                path, cassette_mode="replay", cassette_strict=False
            ),
        )
        handle = cassette_system.start(spec)
        try:
            handle.run()
            assert handle.status == "completed"
            assert handle.trace.fetched_urls == []
            assert handle.trace.failed_urls == ["http://127.0.0.1:1/not-recorded.html"]
        finally:
            handle.close()


class TestCommittedCassette:
    """The corpus in tests/data/cassettes/ replays under a freshly built
    system — the regression net that keeps the cassette format, the
    fixture system construction, and the replayer honest in CI."""

    def test_corpus_exists_and_lints(self):
        assert COMMITTED_CASSETTE.is_file(), (
            "missing committed cassette; regenerate with "
            "PYTHONPATH=src python tests/webgraph/fixture_site.py "
            f"--record {COMMITTED_CASSETTE} --port 8999"
        )
        summary = lint_cassette(str(COMMITTED_CASSETTE))
        assert summary["version"] == 1
        assert summary["events"]["fetch"] > 0
        assert summary["meta"]["site"] == "fixture_site"

    def test_corpus_replays_to_the_full_budget(self, cassette_system):
        meta = lint_cassette(str(COMMITTED_CASSETTE))["meta"]
        handle = replay_job(
            cassette_system,
            str(COMMITTED_CASSETTE),
            meta["seeds"],
            max_pages=meta["max_pages"],
        )
        try:
            assert handle.status == "completed"
            assert handle.trace.pages_fetched == meta["max_pages"]
            relevances = handle.trace.relevance_series()
            assert all(0.0 <= r <= 1.0 for r in relevances)
            assert max(relevances) > 0.0
            handle.crawler.engine.transport.assert_exhausted()
        finally:
            handle.close()
