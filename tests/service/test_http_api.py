"""The crawl service's HTTP API, driven entirely over the wire."""

import http.client
import io
import json
import re
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.core.config import FocusConfig, JobSpec
from repro.core.system import FocusSystem
from repro.crawler.focused import CrawlerConfig
from repro.service import CrawlService, JobManager
from repro.service.http import _CrawlRequestHandler

GOOD = "recreation/cycling"
TERMINAL = ("completed", "exhausted", "cancelled", "failed")


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
def solo(system):
    result = system.crawl(max_pages=60, fetch_failure_seed=3)
    return (
        list(result.trace.fetched_urls),
        [visit.relevance for visit in result.trace.visits],
    )


@pytest.fixture()
def service(system):
    with CrawlService(JobManager(system, rounds_per_step=1)) as running:
        yield running


def call(url, payload=None, method=None):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode() if payload is not None else None,
        method=method or ("POST" if payload is not None else "GET"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


def wait_for_status(base, job_id, statuses, timeout=30.0):
    deadline = time.monotonic() + timeout
    while True:
        progress = call(f"{base}/jobs/{job_id}")
        if progress["status"] in statuses:
            return progress
        assert time.monotonic() < deadline, f"timed out waiting for {statuses}"
        time.sleep(0.01)


class TestEndpoints:
    def test_submit_poll_result_round_trip(self, service, solo):
        base = service.url
        spec = JobSpec(max_pages=60, fetch_failure_seed=3, name="wire-job")
        job_id = call(f"{base}/jobs", spec.to_dict())["id"]

        progress = wait_for_status(base, job_id, TERMINAL)
        assert progress["status"] == "completed"
        assert progress["pages_fetched"] == 60

        result = call(f"{base}/jobs/{job_id}/result")
        urls, relevance = solo
        assert result["fetched_urls"] == urls
        assert result["relevance"] == relevance
        assert result["latency_s"] > 0

        harvest = call(f"{base}/jobs/{job_id}/harvest?window=20")
        assert len(harvest) == 60
        assert all(len(point) == 2 for point in harvest)

        stats = call(f"{base}/jobs/{job_id}/stats")
        assert set(stats) == {"io", "stage_timings", "pipeline", "pool", "crawl"}
        assert stats["pipeline"]["frontier"]["heap_size"] >= 0
        assert "prefetch" not in stats["pipeline"]
        assert stats["crawl"]["visited"] == 60
        assert stats["crawl"]["average_relevance"] > 0

        buckets = call(f"{base}/jobs/{job_id}/harvest?bucket=20")
        assert sum(row["pages"] for row in buckets) == 60
        assert all(set(row) == {"bucket", "avg_relevance", "pages"} for row in buckets)

        listing = call(f"{base}/jobs")
        assert [job["id"] for job in listing] == [job_id]
        health = call(f"{base}/health")
        assert health["status"] == "ok"
        assert health["jobs"] == 1

    def test_pause_resume_over_http_is_bit_identical(self, service, solo):
        base = service.url
        # 60 serial fetches of 5 ms each: the job cannot finish between the
        # poll that sees its first page and the pause (on the instant
        # simulated transport it could, and in a warm process often did).
        # Latency changes when pages arrive, never which: `solo` still holds.
        slow = CrawlerConfig(
            max_pages=60,
            distill_every=60,
            transport="latency",
            transport_options={"mean_latency_ms": 5.0, "jitter": 0.0},
        )
        job_id = call(
            f"{base}/jobs",
            JobSpec(max_pages=60, fetch_failure_seed=3, crawler=slow).to_dict(),
        )["id"]
        # Pause as soon as the job has made some progress.
        deadline = time.monotonic() + 30
        while call(f"{base}/jobs/{job_id}")["pages_fetched"] == 0:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        paused = call(f"{base}/jobs/{job_id}/pause", {})
        assert paused["status"] == "paused"
        snapshot = call(f"{base}/jobs/{job_id}")["pages_fetched"]
        assert 0 < snapshot < 60
        time.sleep(0.05)  # the stepper must not advance a paused job
        assert call(f"{base}/jobs/{job_id}")["pages_fetched"] == snapshot
        resumed = call(f"{base}/jobs/{job_id}/resume", {})
        assert resumed["status"] in ("pending", "running", "completed")
        wait_for_status(base, job_id, ("completed",))
        result = call(f"{base}/jobs/{job_id}/result")
        urls, relevance = solo
        assert result["fetched_urls"] == urls
        assert result["relevance"] == relevance

    def test_cancel_over_http(self, service):
        base = service.url
        # 120 serial fetches of 50 ms each: the sweep thread cannot finish
        # the job in the milliseconds before the cancel arrives (it could,
        # and sometimes did, on the instant simulated transport).
        slow = CrawlerConfig(
            max_pages=120,
            distill_every=60,
            transport="latency",
            transport_options={"mean_latency_ms": 50.0, "jitter": 0.0},
        )
        job_id = call(
            f"{base}/jobs",
            JobSpec(max_pages=120, fetch_failure_seed=7, crawler=slow).to_dict(),
        )["id"]
        cancelled = call(f"{base}/jobs/{job_id}/cancel", {})
        assert cancelled["status"] == "cancelled"
        result = call(f"{base}/jobs/{job_id}/result")
        assert result["status"] == "cancelled"


class TestQueryEndpoint:
    """Read-only SQL over the wire: ``GET /jobs/{id}/query?sql=...``."""

    @pytest.fixture()
    def finished_job(self, service):
        base = service.url
        job_id = call(
            f"{base}/jobs", JobSpec(max_pages=60, fetch_failure_seed=3).to_dict()
        )["id"]
        wait_for_status(base, job_id, ("completed",))
        return base, job_id

    def query_url(self, base, job_id, sql, **extra):
        params = {"sql": sql, **extra}
        return f"{base}/jobs/{job_id}/query?{urllib.parse.urlencode(params)}"

    def test_select_over_the_wire(self, finished_job):
        base, job_id = finished_job
        rows = call(
            self.query_url(
                base,
                job_id,
                "select count(*) n from CRAWL where status = 'visited'",
            )
        )
        assert rows == [{"n": 60}]

    def test_graph_predicate_and_explain(self, finished_job):
        base, job_id = finished_job
        root = call(
            self.query_url(
                base, job_id, "select kcid from TAXONOMY where pcid is null"
            )
        )[0]["kcid"]
        sql = f"select count(*) n from TAXONOMY where in_subtree(kcid, {root})"
        rows = call(self.query_url(base, job_id, sql))
        assert rows[0]["n"] >= 1
        plan = call(self.query_url(base, job_id, f"explain {sql}"))
        assert any("IndexKeysLookup(TAXONOMY.TAXONOMY_pk" in row["plan"] for row in plan)
        assert not any("TableScan" in row["plan"] for row in plan)

    def test_row_limit_applies(self, finished_job):
        base, job_id = finished_job
        rows = call(self.query_url(base, job_id, "select oid from CRAWL", limit=7))
        assert len(rows) == 7

    def test_mutation_statements_are_400(self, finished_job):
        base, job_id = finished_job
        for sql in (
            "delete from CRAWL",
            "update CRAWL set status = 'visited'",
            "insert into CRAWL (oid) values (1)",
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                call(self.query_url(base, job_id, sql))
            assert excinfo.value.code == 400, sql

    def test_missing_and_malformed_sql_are_400(self, finished_job):
        base, job_id = finished_job
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(f"{base}/jobs/{job_id}/query")
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(self.query_url(base, job_id, "select from from"))
        assert excinfo.value.code == 400

    @pytest.mark.parametrize(
        "endpoint",
        ["harvest?bucket=abc", "harvest?window=abc", "query?sql=select+oid+from+CRAWL&limit=abc"],
        ids=["bucket", "window", "limit"],
    )
    def test_a_malformed_integer_parameter_is_400(self, finished_job, endpoint):
        base, job_id = finished_job
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(f"{base}/jobs/{job_id}/{endpoint}")
        with excinfo.value as reply:
            assert reply.code == 400
            assert "invalid literal for int()" in json.load(reply)["error"]

    @pytest.mark.parametrize(
        "sql, error",
        [
            ("select * from NOPE", "no table named 'NOPE'"),
            ("explain select * from NOPE", "no table named 'NOPE'"),
            ("select nope from CRAWL", "unknown column 'nope'"),
            ("select frob(oid) from CRAWL", "unknown function 'frob'"),
        ],
        ids=["unknown-table", "explain-unknown-table", "unknown-column", "unknown-function"],
    )
    def test_a_query_the_database_refuses_is_400(self, finished_job, sql, error):
        base, job_id = finished_job
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(self.query_url(base, job_id, sql))
        with excinfo.value as reply:
            assert reply.code == 400
            assert error in json.load(reply)["error"]
        assert call(self.query_url(base, job_id, "select count(*) n from CRAWL"))[0]["n"] > 0

    @pytest.mark.parametrize(
        "sql, error",
        [
            ("select exp(1000.0) x from CRAWL limit 1", "OverflowError"),
            ("select url + 1 x from CRAWL limit 1", "TypeError"),
            ("select oid from CRAWL where url > 3", "TypeError"),
            ("select length(oid) n from CRAWL limit 1", "TypeError"),
        ],
        ids=["overflow", "text-plus-int", "text-vs-int", "length-of-int"],
    )
    def test_an_expression_failing_on_row_values_is_400(self, finished_job, sql, error):
        base, job_id = finished_job
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(self.query_url(base, job_id, sql))
        with excinfo.value as reply:
            assert reply.code == 400
            assert error in json.load(reply)["error"]
        # The connection was answered, not dropped: the service keeps serving.
        assert call(self.query_url(base, job_id, "select count(*) n from CRAWL"))[0]["n"] > 0


class TestErrors:
    def test_an_unexpected_failure_is_a_500_reply(self, service, monkeypatch, capsys):
        def failing(manager, job_id):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(JobManager, "stats", failing)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(f"{service.url}/jobs/job-1/stats")
        with excinfo.value as reply:
            assert reply.code == 500
            assert json.load(reply) == {"error": "internal error: ZeroDivisionError: boom"}
        assert "ZeroDivisionError: boom" in capsys.readouterr().err  # the traceback is kept
        assert call(f"{service.url}/health")["status"] == "ok"

    def test_unknown_job_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(f"{service.url}/jobs/job-9999")
        assert excinfo.value.code == 404

    def test_unknown_endpoint_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(f"{service.url}/nope")
        assert excinfo.value.code == 404

    def test_bad_spec_is_400(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(f"{service.url}/jobs", {"max_pages": 0})
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(f"{service.url}/jobs", {"no_such_field": 1})
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("engine", ["auto", "sharded"])
    def test_negative_distill_every_is_400(self, service, engine):
        spec = JobSpec(max_pages=30).to_dict()
        spec["crawler"] = {
            "distill_every": -1, "engine": engine, "shards": 2, "shard_runner": "inprocess"
        }
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(f"{service.url}/jobs", spec)
        with excinfo.value as reply:
            assert reply.code == 400
            assert "distill_every must be >= 0" in json.load(reply)["error"]
        assert call(f"{service.url}/jobs") == []

    @pytest.mark.parametrize("engine", ["auto", "sharded"])
    def test_negative_rho_is_400(self, service, engine):
        spec = JobSpec(max_pages=30).to_dict()
        spec["crawler"] = {"rho": -0.1, "engine": engine, "shards": 2, "shard_runner": "inprocess"}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(f"{service.url}/jobs", spec)
        with excinfo.value as reply:
            assert reply.code == 400
            assert "rho must be >= 0" in json.load(reply)["error"]
        assert call(f"{service.url}/jobs") == []

    def test_sharded_job_with_a_checkpoint_dir_is_400(self, service, tmp_path):
        """Sharded checkpoints were removed: the spec is refused, no job is
        created and no file is written."""
        crawler = CrawlerConfig(
            engine="sharded", shards=2, shard_runner="inprocess", max_pages=30, batch_size=4
        )
        path = tmp_path / "crawl"
        spec = JobSpec(max_pages=30, crawler=crawler, checkpoint_dir=str(path))
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(f"{service.url}/jobs", spec.to_dict())
        with excinfo.value as reply:
            assert reply.code == 400
            assert "sharded checkpoints were removed" in json.load(reply)["error"]
        assert call(f"{service.url}/jobs") == []
        assert not path.exists()

    def test_result_of_a_running_job_is_400(self, service):
        job_id = call(
            f"{service.url}/jobs", JobSpec(max_pages=120, fetch_failure_seed=9).to_dict()
        )["id"]
        call(f"{service.url}/jobs/{job_id}/pause", {})  # freeze it mid-crawl
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(f"{service.url}/jobs/{job_id}/result")
        assert excinfo.value.code == 400

    def test_illegal_transition_is_400(self, service):
        base = service.url
        job_id = call(
            f"{base}/jobs", JobSpec(max_pages=30, fetch_failure_seed=1).to_dict()
        )["id"]
        wait_for_status(base, job_id, TERMINAL)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(f"{base}/jobs/{job_id}/pause", {})
        assert excinfo.value.code == 400


#: Config fields that were deleted, each under the job-spec section that held it
#: (a dotted path; empty for the spec itself).
DELETED_FIELDS = [
    ("crawler", "fetch_workers", 8),
    ("crawler", "compact_every", 3),
    ("crawler", "compact_min_garbage_ratio", 0.2),
    ("crawler", "posterior_cache_size", 4096),
    ("crawler", "record_best_leaf", True),
    ("crawler.storage", "background_compaction", True),
    ("crawler.storage", "compact_wal_bytes", 32768),
    # Storage and the cassette moved into the crawler section.
    ("", "storage", {}),
    ("", "cassette_path", "crawl.jsonl"),
    ("", "cassette_mode", "record"),
]


class TestDeletedFields:
    """A spec naming a deleted field is refused, naming it, never run without it."""

    @pytest.mark.parametrize("entry", ["JobSpec.from_dict", "POST /jobs"])
    @pytest.mark.parametrize("section,name,value", DELETED_FIELDS)
    def test_deleted_field_is_refused_by_name(self, request, entry, section, name, value):
        spec = JobSpec(max_pages=30).to_dict()
        holder = spec
        for key in filter(None, section.split(".")):
            holder[key] = {}
            holder = holder[key]
        holder[name] = value
        if entry == "JobSpec.from_dict":
            with pytest.raises(ValueError, match=name):
                JobSpec.from_dict(spec)
            return
        base = request.getfixturevalue("service").url
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(f"{base}/jobs", spec)
        with excinfo.value as reply:
            assert reply.code == 400
            assert name in json.load(reply)["error"]
        assert call(f"{base}/jobs") == []


#: Crawler sections that fail with a TypeError while the job is armed,
#: each with the name the refusal must carry.
MISTYPED_CRAWLERS = [
    ({"transport": "latency", "transport_options": {"bogus": 1}}, "bogus"),
    (
        {"transport": "latency", "transport_options": {"mean_latency_ms": "fast"}},
        "crawler.transport_options.mean_latency_ms",
    ),
    ({"batch_size": "x"}, "crawler.batch_size"),
    # The session backend option was removed with the aiohttp backend.
    (
        {"transport": "http", "transport_options": {"backend": "aiohttp"}},
        "unexpected keyword argument 'backend'",
    ),
    # Ordering keys that are not a list of pairs.
    ({"ordering": {"name": "x", "keys": 5}}, "'int' object is not iterable"),
    ({"ordering": {"keys": [["relevance", False]]}}, "missing 'name'"),
    ({"ordering": 5}, "bad crawler.ordering 5"),
    (
        {"ordering": {"name": "x", "keys": [["relevance", False, 1]]}},
        "too many values to unpack",
    ),
]


class TestInertFields:
    """``score_backend`` selects nothing any more, but a spec carrying it still runs."""

    @pytest.mark.parametrize("value", ["python", "numpy"])
    def test_score_backend_is_accepted_and_the_job_completes(self, service, value):
        spec = JobSpec(max_pages=30, fetch_failure_seed=1).to_dict()
        spec["crawler"] = {"score_backend": value}
        job_id = call(f"{service.url}/jobs", spec)["id"]
        progress = wait_for_status(service.url, job_id, TERMINAL)
        assert progress["status"] == "completed"
        assert progress["pages_fetched"] == 30


class TestMistypedSpecs:
    """A spec that is well-formed JSON but mistyped is a 400 naming the culprit."""

    @pytest.mark.parametrize(
        "crawler,named",
        MISTYPED_CRAWLERS,
        ids=[
            "unknown-option",
            "mistyped-option",
            "mistyped-field",
            "removed-backend-option",
            "ordering-keys-not-a-list",
            "ordering-without-a-name",
            "ordering-not-a-mapping",
            "ordering-key-of-three",
        ],
    )
    def test_mistyped_spec_is_400_and_the_service_keeps_serving(self, service, crawler, named):
        spec = JobSpec(max_pages=30).to_dict()
        spec["crawler"] = crawler
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(f"{service.url}/jobs", spec)
        with excinfo.value as reply:
            assert reply.code == 400
            assert named in json.load(reply)["error"]
        assert call(f"{service.url}/jobs") == []
        assert call(f"{service.url}/health")["status"] == "ok"


class TestHostileOrderings:
    """An ordering column is a name, never code: any but a frontier column is refused unrun."""

    @pytest.mark.parametrize("entry", ["JobSpec.from_dict", "POST /jobs"])
    @pytest.mark.parametrize("section", ["keys", "buckets"])
    def test_a_column_that_is_code_is_refused_and_never_runs(
        self, request, tmp_path, entry, section
    ):
        marker = tmp_path / "ran"
        column = f"relevance if open({str(marker)!r}, 'w') else 0"
        ordering = {"name": "hostile", "keys": [["numtries", True]], "buckets": []}
        ordering[section].append([column, 1 if section == "buckets" else False])
        spec = JobSpec(max_pages=30, fetch_failure_seed=1).to_dict()
        spec["crawler"] = {"ordering": ordering}
        if entry == "JobSpec.from_dict":
            with pytest.raises(ValueError, match="unknown ordering column"):
                JobSpec.from_dict(spec)
        else:
            base = request.getfixturevalue("service").url
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                call(f"{base}/jobs", spec)
            with excinfo.value as reply:
                assert reply.code == 400
                assert "unknown ordering column" in json.load(reply)["error"]
            assert call(f"{base}/jobs") == []
        assert not marker.exists()


class RecordingConnection:
    """A socket stand-in for one canned request: records every write that reaches it."""

    def __init__(self, request: bytes) -> None:
        self.request = request
        self.writes = []

    def makefile(self, mode, buffering):
        if "r" in mode:
            return io.BytesIO(self.request)
        connection = self

        class Raw(io.RawIOBase):
            def writable(self):
                return True

            def write(self, data):
                connection.writes.append(bytes(data))
                return len(data)

        return io.BufferedWriter(Raw(), buffering)

    def sendall(self, data):  # what an unbuffered wfile calls, once per write
        self.writes.append(bytes(data))


class TestOneSegmentReplies:
    """Headers and body leave together; split, a kept-alive client waits out a delayed ACK."""

    @pytest.fixture(scope="class")
    def finished(self, system):
        manager = JobManager(system)
        job_id = manager.submit(JobSpec(max_pages=60, fetch_failure_seed=3))
        manager.run_until_idle()
        yield manager, job_id
        manager.close()

    @staticmethod
    def reply_writes(manager, path, wbufsize=None):
        attrs = {"manager": manager}
        if wbufsize is not None:
            attrs["wbufsize"] = wbufsize
        handler = type("Handler", (_CrawlRequestHandler,), attrs)
        connection = RecordingConnection(
            f"GET {path} HTTP/1.1\r\nHost: test\r\n\r\n".encode("ascii")
        )
        handler(connection, ("127.0.0.1", 0), None)  # handles the request, then EOF
        return connection.writes

    @staticmethod
    def parse(reply: bytes):
        head, _, body = reply.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        assert len(body) == length
        return status, json.loads(body)

    @pytest.mark.parametrize(
        "path, status",
        [
            ("/jobs/{id}", 200),
            ("/jobs/{id}/result", 200),
            ("/jobs", 200),
            ("/jobs/job-9999", 404),
            ("/nowhere", 404),
            ("/jobs/{id}/query", 400),
        ],
    )
    def test_a_reply_reaches_the_socket_in_one_write(self, finished, path, status):
        manager, job_id = finished
        writes = self.reply_writes(manager, path.format(id=job_id))
        assert len(writes) == 1
        got, payload = self.parse(writes[0])
        assert got == status
        assert ("error" in payload) == (status != 200)

    def test_a_body_larger_than_the_buffer_arrives_complete(self, finished):
        manager, job_id = finished
        writes = self.reply_writes(manager, f"/jobs/{job_id}/result", wbufsize=512)
        assert len(writes) > 1
        status, payload = self.parse(b"".join(writes))
        assert status == 200
        assert payload == manager.result_summary(job_id)

    def test_keep_alive_replies_equal_fresh_connection_replies(self, system):
        def get(connection, path):
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.getheader("Content-Length"), response.read()

        with CrawlService(JobManager(system)) as service:
            job_id = call(
                f"{service.url}/jobs", JobSpec(max_pages=60, fetch_failure_seed=3).to_dict()
            )["id"]
            wait_for_status(service.url, job_id, TERMINAL)
            paths = [f"/jobs/{job_id}/result", f"/jobs/{job_id}", "/jobs", "/jobs/job-9999"] * 5
            kept = http.client.HTTPConnection(service.host, service.port, timeout=30)
            try:
                on_one_connection = [get(kept, path) for path in paths]
            finally:
                kept.close()
            on_fresh_connections = []
            for path in paths:
                fresh = http.client.HTTPConnection(service.host, service.port, timeout=30)
                try:
                    on_fresh_connections.append(get(fresh, path))
                finally:
                    fresh.close()
        assert len(paths) == 20
        assert on_one_connection == on_fresh_connections
        assert {status for status, _length, _body in on_one_connection} == {200, 404}
