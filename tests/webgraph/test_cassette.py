"""Cassette layer unit tests: format, strictness, snapshot/rewind.

Engine-level record→replay bit-identity lives in
``tests/core/test_cassette_replay.py``; this file pins the cassette
mechanics themselves.
"""

import json

import pytest

from repro.webgraph.cassette import (
    CASSETTE_FORMAT,
    CASSETTE_VERSION,
    CassetteError,
    CassetteMismatch,
    RecordingTransport,
    ReplayTransport,
    lint_cassette,
    read_header,
    result_from_dict,
    result_to_dict,
    transport_for_config,
)
from repro.webgraph.fetch import Fetcher, FetchResult, FetchStatus
from repro.webgraph.transport import SimulatedTransport

SEED = 5


def make_inner(web):
    web.servers.reseed(SEED)
    return SimulatedTransport(Fetcher(web, failure_seed=SEED))


def sample_urls(web, count=12):
    return sorted(web.pages)[:count]


class TestResultSerialization:
    @pytest.mark.parametrize("status", list(FetchStatus))
    def test_round_trip_every_status(self, status):
        result = FetchResult(
            url="http://h.example/p",
            status=status,
            tokens=["alpha", "beta"],
            out_links=["http://h.example/q"],
            server="h.example",
            latency_ms=123.456789012345678,
            detail="robots" if status is FetchStatus.SKIPPED else "",
        )
        assert result_from_dict(result_to_dict(result)) == result

    def test_floats_survive_json_bit_for_bit(self):
        result = FetchResult(
            url="u", status=FetchStatus.OK, latency_ms=0.1 + 0.2  # 0.30000000000000004
        )
        wire = json.loads(json.dumps(result_to_dict(result)))
        assert result_from_dict(wire).latency_ms == result.latency_ms


class TestFormatValidation:
    def test_fresh_recording_writes_header(self, small_web, tmp_path):
        path = str(tmp_path / "c.jsonl")
        recorder = RecordingTransport(make_inner(small_web), path, meta={"note": "hi"})
        recorder.close()
        header = read_header(path)
        assert header["format"] == CASSETTE_FORMAT
        assert header["version"] == CASSETTE_VERSION
        assert header["meta"] == {"note": "hi"}

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(CassetteError, match="empty"):
            ReplayTransport(str(path))

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(CassetteError, match="not a repro-fetch-cassette"):
            read_header(str(path))

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps({"format": CASSETTE_FORMAT, "version": 999}) + "\n")
        with pytest.raises(CassetteError, match="version"):
            ReplayTransport(str(path))

    def test_recorder_refuses_foreign_existing_file(self, small_web, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(CassetteError):
            RecordingTransport(make_inner(small_web), str(path))

    def test_duplicate_fetch_key_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        event = {
            "kind": "fetch",
            "url": "http://h/p",
            "attempt": 1,
            "result": result_to_dict(FetchResult(url="http://h/p", status=FetchStatus.OK)),
        }
        path.write_text(
            json.dumps({"format": CASSETTE_FORMAT, "version": CASSETTE_VERSION}) + "\n"
            + json.dumps(event) + "\n"
            + json.dumps(event) + "\n"
        )
        with pytest.raises(CassetteError, match="duplicate"):
            ReplayTransport(str(path))
        with pytest.raises(CassetteError, match="duplicate"):
            lint_cassette(str(path))


class TestRecordThenReplay:
    def test_round_trip_results_identical(self, small_web, tmp_path):
        path = str(tmp_path / "c.jsonl")
        urls = sample_urls(small_web)
        recorder = RecordingTransport(make_inner(small_web), path)
        originals = [recorder.fetch(url) for url in urls]
        # A second attempt of the first URL advances its attempt counter.
        second = recorder.fetch(urls[0])
        recorder.close()

        replay = ReplayTransport(path)
        replayed = [replay.fetch(url) for url in urls]
        assert replayed == originals  # dataclass equality: floats bit-identical
        assert replay.fetch(urls[0]) == second
        replay.assert_exhausted()

    def test_prepare_wait_path_records_and_replays(self, small_web, tmp_path):
        import asyncio

        path = str(tmp_path / "c.jsonl")
        urls = sample_urls(small_web)
        recorder = RecordingTransport(make_inner(small_web), path)

        async def run(transport):
            pendings = [transport.prepare(url) for url in urls]
            return [await transport.wait(p) for p in pendings]

        originals = asyncio.run(run(recorder))
        recorder.close()
        replay = ReplayTransport(path)
        assert asyncio.run(run(replay)) == originals
        replay.assert_exhausted()


class TestStrictness:
    def test_strict_miss_raises(self, small_web, tmp_path):
        path = str(tmp_path / "c.jsonl")
        recorder = RecordingTransport(make_inner(small_web), path)
        recorder.fetch(sample_urls(small_web)[0])
        recorder.close()
        replay = ReplayTransport(path, strict=True)
        with pytest.raises(CassetteMismatch, match="diverged"):
            replay.fetch("http://never-recorded.example/")

    def test_strict_second_attempt_miss_raises(self, small_web, tmp_path):
        path = str(tmp_path / "c.jsonl")
        url = sample_urls(small_web)[0]
        recorder = RecordingTransport(make_inner(small_web), path)
        recorder.fetch(url)
        recorder.close()
        replay = ReplayTransport(path)
        replay.fetch(url)
        with pytest.raises(CassetteMismatch, match="attempt 2"):
            replay.fetch(url)

    def test_non_strict_miss_degrades_to_not_found(self, small_web, tmp_path):
        path = str(tmp_path / "c.jsonl")
        recorder = RecordingTransport(make_inner(small_web), path)
        recorder.fetch(sample_urls(small_web)[0])
        recorder.close()
        replay = ReplayTransport(path, strict=False)
        result = replay.fetch("http://never-recorded.example/")
        assert result.status is FetchStatus.NOT_FOUND
        assert result.detail == "cassette-miss"

    def test_leftover_reported_and_loud(self, small_web, tmp_path):
        path = str(tmp_path / "c.jsonl")
        urls = sample_urls(small_web)[:3]
        recorder = RecordingTransport(make_inner(small_web), path)
        for url in urls:
            recorder.fetch(url)
        recorder.close()
        replay = ReplayTransport(path)
        replay.fetch(urls[0])
        assert replay.leftover() == [(urls[1], 1), (urls[2], 1)]
        with pytest.raises(CassetteMismatch, match="2 unconsumed"):
            replay.assert_exhausted()


class TestSnapshotRewind:
    def test_recorder_restore_truncates_speculative_events(self, small_web, tmp_path):
        import os

        path = str(tmp_path / "c.jsonl")
        urls = sample_urls(small_web)
        recorder = RecordingTransport(make_inner(small_web), path)
        committed = [recorder.fetch(url) for url in urls[:4]]
        snapshot = recorder.state_snapshot()
        # A checkpoint restore also rewinds the server pool's
        # failure/latency RNG alongside the transport snapshot.
        server_rng = small_web.servers.rng_state()
        size_at_snapshot = os.path.getsize(path)
        assert snapshot["offset"] == size_at_snapshot
        # Work past the snapshot...
        rewound = [recorder.fetch(url) for url in urls[4:8]]
        assert os.path.getsize(path) > size_at_snapshot
        # ...rewound: the file truncates back and the draws replay.
        recorder.restore_state(snapshot)
        small_web.servers.restore_rng(server_rng)
        assert os.path.getsize(path) == size_at_snapshot
        replayed = [recorder.fetch(url) for url in urls[4:8]]
        assert replayed == rewound
        recorder.close()

        replay = ReplayTransport(path)
        for url, original in zip(urls[:8], committed + rewound):
            assert replay.fetch(url) == original
        replay.assert_exhausted()

    def test_replay_snapshot_restores_served_counters(self, small_web, tmp_path):
        path = str(tmp_path / "c.jsonl")
        urls = sample_urls(small_web)[:6]
        recorder = RecordingTransport(make_inner(small_web), path)
        originals = [recorder.fetch(url) for url in urls]
        recorder.close()
        replay = ReplayTransport(path)
        for url in urls[:3]:
            replay.fetch(url)
        snapshot = replay.state_snapshot()
        tail_first = [replay.fetch(url) for url in urls[3:]]
        replay.restore_state(snapshot)
        assert replay.stats.attempts == 3
        tail_second = [replay.fetch(url) for url in urls[3:]]
        assert tail_second == tail_first == originals[3:]

    def test_resume_append_after_reopen(self, small_web, tmp_path):
        # Simulates kill/resume while recording: a new process reopens
        # the half-written cassette, restores to the checkpoint offset,
        # and continues appending.
        path = str(tmp_path / "c.jsonl")
        urls = sample_urls(small_web)
        recorder = RecordingTransport(make_inner(small_web), path)
        first_half = [recorder.fetch(url) for url in urls[:4]]
        snapshot = recorder.state_snapshot()
        server_rng = small_web.servers.rng_state()  # checkpointed alongside
        recorder.fetch(urls[4])  # lost to the "crash"
        recorder.close()

        resumed = RecordingTransport(SimulatedTransport(Fetcher(small_web)), path)
        resumed.restore_state(snapshot)
        small_web.servers.restore_rng(server_rng)
        second_half = [resumed.fetch(url) for url in urls[4:8]]
        resumed.close()

        replay = ReplayTransport(path)
        for url, original in zip(urls[:8], first_half + second_half):
            assert replay.fetch(url) == original
        replay.assert_exhausted()

    def test_rerecord_continues_attempt_numbering(self, small_web, tmp_path):
        # An explicit record re-run over an existing cassette continues
        # each URL's attempt counters where the file left off — a fresh
        # counter would append duplicate (url, attempt) keys that replay
        # and lint_cassette reject.
        path = str(tmp_path / "c.jsonl")
        url = sample_urls(small_web)[0]
        first = RecordingTransport(make_inner(small_web), path)
        original = first.fetch(url)
        first.close()
        second = RecordingTransport(make_inner(small_web), path)
        rerecorded = second.fetch(url)
        second.close()
        assert lint_cassette(path)["events"]["fetch"] == 2  # distinct keys
        replay = ReplayTransport(path)
        assert replay.fetch(url) == original       # attempt 1
        assert replay.fetch(url) == rerecorded     # attempt 2
        replay.assert_exhausted()


class TestTransportForConfig:
    def _config(self, **overrides):
        from repro import CrawlerConfig

        return CrawlerConfig(**overrides)

    def test_no_cassette_is_plain_build(self, small_web):
        config = self._config()
        transport = transport_for_config(config, Fetcher(small_web))
        assert isinstance(transport, SimulatedTransport)

    def test_auto_resolves_record_then_replay(self, small_web, tmp_path):
        path = str(tmp_path / "c.jsonl")
        config = self._config(cassette_path=path, cassette_mode="auto")
        transport = transport_for_config(config, Fetcher(small_web))
        assert isinstance(transport, RecordingTransport)
        assert config.cassette_mode == "record"  # persisted for checkpoints
        transport.fetch(sorted(small_web.pages)[0])
        transport.close()

        config2 = self._config(cassette_path=path, cassette_mode="auto")
        transport2 = transport_for_config(config2, Fetcher(small_web))
        assert isinstance(transport2, ReplayTransport)
        assert config2.cassette_mode == "replay"

    def test_explicit_record_appends_despite_existing_file(self, small_web, tmp_path):
        # A checkpointed recording crawl resumes in record mode even
        # though the half-written file exists ("auto" must not flip it).
        path = str(tmp_path / "c.jsonl")
        config = self._config(cassette_path=path, cassette_mode="record")
        transport = transport_for_config(config, Fetcher(small_web))
        transport.fetch(sorted(small_web.pages)[0])
        transport.close()
        config2 = self._config(cassette_path=path, cassette_mode="record")
        transport2 = transport_for_config(config2, Fetcher(small_web))
        assert isinstance(transport2, RecordingTransport)
        transport2.close()

    def test_replay_never_builds_inner_transport(self, small_web, tmp_path, monkeypatch):
        path = str(tmp_path / "c.jsonl")
        config = self._config(cassette_path=path)
        transport = transport_for_config(config, Fetcher(small_web))
        transport.fetch(sorted(small_web.pages)[0])
        transport.close()

        import repro.webgraph.transport as transport_module

        def boom(*args, **kwargs):
            raise AssertionError("replay must not build a transport")

        monkeypatch.setattr(transport_module, "build_transport", boom)
        config2 = self._config(cassette_path=path, transport="http")
        replay = transport_for_config(config2, Fetcher(small_web))
        assert isinstance(replay, ReplayTransport)

    def test_record_http_with_prefetch_accepted(self, small_web, tmp_path):
        # The prefetch flag is inert, so recording an http crawl that
        # carries it builds the plain recorder (nothing is fetched here).
        from repro.webgraph.transport import HttpTransport

        config = self._config(
            cassette_path=str(tmp_path / "c.jsonl"),
            cassette_mode="record",
            transport="http",
            prefetch=True,
        )
        transport = transport_for_config(config, Fetcher(small_web))
        assert isinstance(transport, RecordingTransport)
        assert isinstance(transport.inner, HttpTransport)
        transport.close()

    def test_unknown_mode_rejected(self, small_web, tmp_path):
        config = self._config(cassette_path=str(tmp_path / "c.jsonl"))
        config.cassette_mode = "rewind"
        with pytest.raises(ValueError, match="cassette_mode"):
            transport_for_config(config, Fetcher(small_web))


class TestEventPassthrough:
    def test_http_observability_events_land_in_cassette(self, tmp_path):
        from repro.webgraph.transport import HttpTransport
        from tests.webgraph.fixture_site import FixtureSite

        path = str(tmp_path / "c.jsonl")
        with FixtureSite() as site:
            recorder = RecordingTransport(
                HttpTransport(max_retries=0, timeout_s=10.0, max_redirects=3), path
            )
            page_url = site.url("/c0.html")
            recorder.fetch(page_url)                      # robots fetch event
            recorder.fetch(site.url("/redirect/hop1"))    # redirect events
            recorder.close()
        summary = lint_cassette(path)
        assert summary["events"]["fetch"] == 2
        assert summary["events"]["robots"] == 1
        assert summary["events"]["redirect"] == 2
        # Replay (server long gone) skips observability events and
        # serves the recorded fetches.
        replay = ReplayTransport(path)
        result = replay.fetch(page_url)
        assert result.status is FetchStatus.OK
