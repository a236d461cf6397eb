"""HttpTransport hardening tests against the local fixture site.

Every test talks to a real ``ThreadingHTTPServer`` on 127.0.0.1 through
the production fetcher and its stdlib urllib session — no mocks of our
own code, zero external network.
"""

import asyncio

import pytest

from repro.webgraph.fetch import FetchStatus
from repro.webgraph.transport import HttpTransport
from tests.webgraph.fixture_site import CHUNKED_TOKENS, FixtureSite


@pytest.fixture(scope="module")
def site():
    with FixtureSite() as fixture:
        yield fixture


def make_transport(**kwargs):
    kwargs.setdefault("timeout_s", 10.0)
    kwargs.setdefault("max_retries", 1)
    kwargs.setdefault("retry_backoff_s", 0.01)
    kwargs.setdefault("max_redirects", 3)
    kwargs.setdefault("max_content_bytes", 4096)
    return HttpTransport(**kwargs)


@pytest.fixture()
def transport():
    fetcher = make_transport()
    yield fetcher
    fetcher.close()


class TestRobots:
    def test_disallow_and_allow_precedence(self, site):
        transport = make_transport()
        try:
            secret = transport.fetch(site.url("/private/secret.html"))
            assert secret.status is FetchStatus.SKIPPED
            assert secret.detail == "robots"
            assert site.request_count("/private/secret.html") == 0  # never touched
            allowed = transport.fetch(site.url("/private/allowed.html"))
            assert allowed.status is FetchStatus.OK
            assert "permitted" in allowed.tokens
        finally:
            transport.close()

    def test_robots_fetched_once_within_ttl(self, site, transport):
        transport.fetch(site.url("/c0.html"))
        transport.fetch(site.url("/c1.html"))
        transport.fetch(site.url("/c2.html"))
        assert transport.robots_fetches == 1

    def test_robots_cache_ttl_expiry(self, site):
        clock = [1000.0]
        transport = make_transport(robots_ttl_s=60.0, clock=lambda: clock[0])
        try:
            before = site.request_count("/robots.txt")
            transport.fetch(site.url("/c0.html"))
            clock[0] += 30.0  # inside the TTL: cached verdict reused
            transport.fetch(site.url("/c1.html"))
            assert site.request_count("/robots.txt") == before + 1
            clock[0] += 61.0  # past the TTL: re-fetched
            transport.fetch(site.url("/c2.html"))
            assert site.request_count("/robots.txt") == before + 2
            assert transport.robots_fetches == 2
        finally:
            transport.close()

    def test_robots_ttl_expiry_across_event_loops(self, site):
        # The async engine stepped a round at a time runs one event loop
        # per round; a TTL re-fetch on a later round must not re-acquire a
        # per-host robots lock bound to an earlier round's loop.  The
        # lock binds on its *contended* path, so each round issues two
        # concurrent same-host fetches (the engine's normal shape).
        clock = [1000.0]
        transport = make_transport(robots_ttl_s=60.0, clock=lambda: clock[0])

        async def fetch_round(*urls):
            return await asyncio.gather(
                *(transport.wait(transport.prepare(url)) for url in urls)
            )

        try:
            first = asyncio.run(fetch_round(site.url("/c0.html"), site.url("/c1.html")))
            assert all(r.status is FetchStatus.OK for r in first)
            clock[0] += 61.0  # past the TTL: round B's loop re-fetches robots
            second = asyncio.run(fetch_round(site.url("/c2.html"), site.url("/c3.html")))
            assert all(r.status is FetchStatus.OK for r in second)
            assert transport.robots_fetches == 2
        finally:
            transport.close()

    def test_honor_robots_off_skips_the_fetch(self, site):
        transport = make_transport(honor_robots=False)
        try:
            before = site.request_count("/robots.txt")
            result = transport.fetch(site.url("/private/secret.html"))
            assert result.status is FetchStatus.OK
            assert site.request_count("/robots.txt") == before
        finally:
            transport.close()

    def test_missing_robots_allows_everything(self):
        # A site without /robots.txt (404) imposes no restrictions.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
        import threading

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_GET(self):
                if self.path == "/page.html":
                    body = b"<html>open access</html>"
                    self.send_response(200)
                    self.send_header("Content-Type", "text/html")
                else:
                    body = b""
                    self.send_response(404)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        transport = make_transport()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}/page.html"
            result = transport.fetch(url)
            assert result.status is FetchStatus.OK
            assert "access" in result.tokens
        finally:
            transport.close()
            server.shutdown()
            server.server_close()


class TestRedirects:
    def test_chain_followed_to_target(self, site):
        transport = make_transport()
        try:
            result = transport.fetch(site.url("/redirect/hop1"))
            assert result.status is FetchStatus.OK
            assert "destination" in result.tokens
            # The result keeps the *requested* URL: frontier identity is
            # stable even when the content came from the chain's end.
            assert result.url == site.url("/redirect/hop1")
            assert transport.redirects_followed == 2
        finally:
            transport.close()

    def test_hop_cap_refused(self, site, transport):
        result = transport.fetch(site.url("/redirect/deep0"))
        assert result.status is FetchStatus.SKIPPED
        assert result.detail == "redirect-cap"
        # deep3 was the last hop allowed (cap 3); deep4 is never requested.
        assert site.request_count("/redirect/deep3") >= 1
        assert site.request_count("/redirect/deep4") == 0

    def test_loop_refused(self, site, transport):
        result = transport.fetch(site.url("/loop/a"))
        assert result.status is FetchStatus.SKIPPED
        assert result.detail == "redirect-loop"

    def test_redirect_into_robots_disallowed_refused(self, site, transport):
        # robots rules apply to every hop's target, not just the
        # originally requested URL: the disallowed page is never touched.
        before = site.request_count("/private/secret.html")
        result = transport.fetch(site.url("/redirect/private"))
        assert result.status is FetchStatus.SKIPPED
        assert result.detail == "robots"
        assert site.request_count("/private/secret.html") == before


class TestContentGates:
    def test_content_type_gate(self, site):
        transport = make_transport()
        try:
            result = transport.fetch(site.url("/binary.png"))
            assert result.status is FetchStatus.SKIPPED
            assert result.detail == "content-type"
        finally:
            transport.close()

    def test_size_gate(self, site, transport):
        result = transport.fetch(site.url("/big.html"))
        assert result.status is FetchStatus.SKIPPED
        assert result.detail == "too-large"

    def test_allowed_types_configurable(self, site):
        transport = make_transport(allowed_content_types=("image/png",))
        try:
            result = transport.fetch(site.url("/binary.png"))
            # PNG bytes hold no [a-z]+ words worth tokenising, but the
            # gate passed: the fetch is OK, not SKIPPED.
            assert result.status is FetchStatus.OK
        finally:
            transport.close()


class TestStatusesAndRetries:
    def test_404_and_410_are_not_found(self, site, transport):
        missing = transport.fetch(site.url("/missing.html"))
        assert missing.status is FetchStatus.NOT_FOUND
        assert missing.detail == "http-404"
        gone = transport.fetch(site.url("/gone.html"))
        assert gone.status is FetchStatus.NOT_FOUND
        assert gone.detail == "http-410"

    def test_other_4xx_is_permanent_skip(self, site, transport):
        result = transport.fetch(site.url("/teapot.html"))
        assert result.status is FetchStatus.SKIPPED
        assert result.detail == "http-418"

    def test_5xx_retried_then_succeeds(self, site, transport):
        result = transport.fetch(site.url("/flaky.html"))
        assert result.status is FetchStatus.OK
        assert "recovered" in result.tokens
        assert site.request_count("/flaky.html") == 2  # 500 then 200

    def test_5xx_exhausts_retries(self, site, transport):
        before = site.request_count("/error.html")
        result = transport.fetch(site.url("/error.html"))
        assert result.status is FetchStatus.SERVER_ERROR
        assert result.detail == "http-500"
        assert site.request_count("/error.html") == before + 2  # 1 + max_retries

    def test_connection_refused_is_server_error(self):
        transport = make_transport(timeout_s=2.0, max_retries=0, honor_robots=False)
        try:
            # Port 9 (discard) on localhost: nothing listens there.
            result = transport.fetch("http://127.0.0.1:9/nope.html")
            assert result.status is FetchStatus.SERVER_ERROR
            assert result.detail == "network"
        finally:
            transport.close()

    def test_non_http_scheme_skipped_without_io(self, transport):
        result = transport.fetch("ftp://example.org/file")
        assert result.status is FetchStatus.SKIPPED
        assert result.detail == "scheme"


class TestDeterminism:
    def test_backoff_draws_happen_in_prepare_in_checkout_order(self):
        a = make_transport(seed=42, max_retries=3)
        b = make_transport(seed=42, max_retries=3)
        try:
            urls = [f"http://example.org/p{i}" for i in range(6)]
            draws_a = [a.prepare(url).backoffs for url in urls]
            draws_b = [b.prepare(url).backoffs for url in urls]
            assert draws_a == draws_b  # same seed, same checkout order
            assert all(len(draws) == 3 for draws in draws_a)
            # Exponential base doubling shapes each pending's sequence.
            for draws in draws_a:
                assert draws[0] < draws[1] < draws[2]
        finally:
            a.close()
            b.close()

    def test_rng_position_survives_snapshot_restore(self):
        a = make_transport(seed=9, max_retries=2)
        try:
            a.prepare("http://example.org/one")
            snapshot = a.state_snapshot()
            first = a.prepare("http://example.org/two").backoffs
            a.restore_state(snapshot)
            second = a.prepare("http://example.org/two").backoffs
            assert first == second
        finally:
            a.close()

    def test_stats_round_trip(self, site, transport):
        transport.fetch(site.url("/c0.html"))
        transport.fetch(site.url("/missing.html"))
        transport.fetch(site.url("/binary.png"))
        snapshot = transport.state_snapshot()
        assert snapshot["stats"]["attempts"] == 3
        assert snapshot["stats"]["successes"] == 1
        assert snapshot["stats"]["not_found"] == 1
        assert snapshot["stats"]["skipped"] == 1
        fresh = make_transport()
        try:
            fresh.restore_state(snapshot)
            assert fresh.stats.attempts == 3
        finally:
            fresh.close()


class TestPoliteness:
    def test_per_host_delay_spaces_requests(self, monkeypatch):
        clock = [100.0]
        transport = make_transport(per_host_delay_s=0.5, clock=lambda: clock[0])
        sleeps = []

        async def fake_sleep(seconds):
            sleeps.append(seconds)

        async def run():
            monkeypatch.setattr(asyncio, "sleep", fake_sleep)
            await transport._politeness_delay("h.example")
            await transport._politeness_delay("h.example")
            await transport._politeness_delay("h.example")
            await transport._politeness_delay("other.example")

        try:
            asyncio.run(run())
            # First request to each host goes straight through; the next
            # two to the same host wait 0.5s and 1.0s behind it.
            assert sleeps == [pytest.approx(0.5), pytest.approx(1.0)]
        finally:
            transport.close()

    def test_zero_delay_is_noop(self, transport):
        async def run():
            await transport._politeness_delay("h.example")

        asyncio.run(run())
        assert transport._next_request_at == {}


class TestAsyncPipelineShape:
    def test_prepare_wait_roundtrip(self, site):
        transport = make_transport()
        try:
            async def run():
                pendings = [
                    transport.prepare(site.url("/c0.html")),
                    transport.prepare(site.url("/c1.html")),
                    transport.prepare(site.url("/missing.html")),
                ]
                return await asyncio.gather(*[transport.wait(p) for p in pendings])

            results = asyncio.run(run())
            assert [r.status for r in results] == [
                FetchStatus.OK,
                FetchStatus.OK,
                FetchStatus.NOT_FOUND,
            ]
            assert results[0].server.startswith("127.0.0.1")
        finally:
            transport.close()


class TestSharedSession:
    """One opener for the transport's lifetime, not one per fetch."""

    def test_session_reused_across_fetches(self, site, monkeypatch):
        import urllib.request

        built = []
        real_build = urllib.request.build_opener
        monkeypatch.setattr(
            urllib.request,
            "build_opener",
            lambda *handlers: built.append(handlers) or real_build(*handlers),
        )
        transport = make_transport(honor_robots=False)
        try:
            for i in range(5):
                result = transport.fetch(site.url(f"/c{i}.html"))
                assert result.status is FetchStatus.OK
                assert f"page{i}" in result.tokens
            assert len(built) == 1
            assert transport._backend.requests == 5
        finally:
            transport.close()

    def test_close_closes_the_session(self, site):
        transport = make_transport(honor_robots=False)
        assert transport.fetch(site.url("/c0.html")).status is FetchStatus.OK
        transport.close()
        transport.close()  # idempotent
        with pytest.raises(RuntimeError):
            transport.fetch(site.url("/c1.html"))


class TestChunkedBodyRead:
    """A body delivered over several chunks is read whole, up to the cap."""

    def test_multi_chunk_body_fully_read(self, site, transport):
        result = transport.fetch(site.url("/chunked.html"))
        assert result.status is FetchStatus.OK
        assert [token for token in result.tokens if token.startswith("tok")] == CHUNKED_TOKENS

    def test_too_large_gate_fires_on_chunked_body(self, site):
        transport = make_transport(max_content_bytes=64)
        try:
            result = transport.fetch(site.url("/chunked.html"))
            assert result.status is FetchStatus.SKIPPED
            assert result.detail == "too-large"
        finally:
            transport.close()
