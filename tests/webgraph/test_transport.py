"""Fetch-transport contract tests.

The transports' determinism contract is what the engine's fetch paths —
inline and drained — and their checkpoint/resume bit-identity rest on: every
random draw happens inside ``prepare``, in submission order, so the
order in which concurrent fetches *complete* can never change the
failure/latency stream.
"""

import asyncio

import pytest

from repro.webgraph.fetch import Fetcher, FetchStatus
from repro.webgraph.servers import DEFAULT_MEAN_LATENCY_MS
from repro.webgraph.transport import (
    TRANSPORTS,
    HttpTransport,
    LatencyTransport,
    SimulatedTransport,
    build_transport,
)

SEED = 5


def sample_urls(web, count=40):
    """A deterministic spread of URLs across many servers."""
    return sorted(web.pages)[:count]


def fresh_transport(web, **latency_kwargs):
    web.servers.reseed(SEED)
    fetcher = Fetcher(web, failure_seed=SEED)
    inner = SimulatedTransport(fetcher)
    if latency_kwargs:
        return LatencyTransport(inner, **latency_kwargs)
    return inner


def drain(transport, urls, order):
    """Prepare *urls* in order, then await completions in *order*."""
    async def run():
        pendings = [transport.prepare(url) for url in urls]
        results = [None] * len(urls)

        async def one(index):
            results[index] = await transport.wait(pendings[index])

        await asyncio.gather(*[one(index) for index in order])
        return results

    return asyncio.run(run())


class TestSimulatedTransport:
    def test_fetch_delegates_bit_for_bit(self, small_web):
        urls = sample_urls(small_web)
        small_web.servers.reseed(SEED)
        reference = [Fetcher(small_web, failure_seed=SEED).fetch(u) for u in urls]
        small_web.servers.reseed(SEED)
        transport = SimulatedTransport(Fetcher(small_web, failure_seed=SEED))
        via_transport = [transport.fetch(u) for u in urls]
        assert [(r.url, r.status, r.latency_ms) for r in reference] == [
            (r.url, r.status, r.latency_ms) for r in via_transport
        ]
        assert [r.tokens for r in reference] == [r.tokens for r in via_transport]

    def test_prepare_wait_equals_fetch(self, small_web):
        urls = sample_urls(small_web)
        sync_transport = fresh_transport(small_web)
        sync = [sync_transport.fetch(u) for u in urls]
        transport = fresh_transport(small_web)
        in_order = drain(transport, urls, order=range(len(urls)))
        assert [(r.status, r.latency_ms) for r in sync] == [
            (r.status, r.latency_ms) for r in in_order
        ]

    def test_failure_stream_immune_to_completion_interleaving(self, small_web):
        """Same seed => same failure/latency stream, any completion order.

        The ServerPool RNG is one shared sequential generator; because
        draws happen at prepare() time, awaiting the fetches back to
        front (or any shuffle) must yield identical per-URL outcomes and
        leave the generator in the identical end state.
        """
        urls = sample_urls(small_web)
        forward = fresh_transport(small_web)
        results_forward = drain(forward, urls, order=range(len(urls)))
        state_forward = small_web.servers.rng_state()

        backward = fresh_transport(small_web)
        results_backward = drain(backward, urls, order=reversed(range(len(urls))))
        state_backward = small_web.servers.rng_state()

        assert [(r.url, r.status, r.latency_ms) for r in results_forward] == [
            (r.url, r.status, r.latency_ms) for r in results_backward
        ]
        assert state_forward == state_backward
        assert forward.state_snapshot() == backward.state_snapshot()

    def test_snapshot_restore_resumes_stream(self, small_web):
        # The server pool's stream is shared web state checkpointed
        # separately (CheckpointManager.server_rng_state); rewind both,
        # as a crawl resume does.
        urls = sample_urls(small_web, count=30)
        transport = fresh_transport(small_web)
        for url in urls[:10]:
            transport.fetch(url)
        snapshot = transport.state_snapshot()
        pool_state = small_web.servers.rng_state()
        tail_a = [(transport.fetch(u).status, transport.fetch(u).latency_ms) for u in urls[10:20]]
        transport.restore_state(snapshot)
        small_web.servers.restore_rng(pool_state)
        tail_b = [(transport.fetch(u).status, transport.fetch(u).latency_ms) for u in urls[10:20]]
        assert tail_a == tail_b


class TestLatencyTransport:
    # time_scale=0 keeps the tests instant: delays are drawn and recorded
    # but never slept.
    def test_same_seed_same_delays_and_results(self, small_web):
        urls = sample_urls(small_web)
        # fresh_transport reseeds the shared server pool, so each
        # transport must be created *and drained* before the next.
        first = fresh_transport(small_web, mean_latency_ms=5.0, seed=9, time_scale=0.0)
        pending_first = [first.prepare(u) for u in urls]
        second = fresh_transport(small_web, mean_latency_ms=5.0, seed=9, time_scale=0.0)
        pending_second = [second.prepare(u) for u in urls]
        assert [(p.result.status, p.attempts) for p in pending_first] == [
            (p.result.status, p.attempts) for p in pending_second
        ]
        assert first.injected_s == second.injected_s

    def test_jitter_bounds_delay(self, small_web):
        mean_ms, jitter = 8.0, 0.25
        transport = fresh_transport(
            small_web, mean_latency_ms=mean_ms, jitter=jitter, per_server={}
        )
        # Every per-host override is absent, so the global mean applies.
        for url in sample_urls(small_web, count=20):
            pending = transport.prepare(url)
            injected_ms = pending.delay_s * 1000.0
            assert mean_ms * (1 - jitter) <= injected_ms <= mean_ms * (1 + jitter)

    def test_timeouts_exhaust_retries_into_server_error(self, small_web):
        transport = fresh_transport(
            small_web,
            timeout_rate=0.999,
            timeout_ms=10.0,
            max_retries=2,
            time_scale=0.0,
        )
        pending = transport.prepare(sample_urls(small_web)[0])
        assert pending.result.status is FetchStatus.SERVER_ERROR
        assert pending.attempts == 3  # initial try + 2 retries, all timed out
        assert transport.timeouts == 3
        # Each timed-out attempt costs the full timeout budget.
        assert pending.result.latency_ms == pytest.approx(30.0)

    def test_per_server_override_and_pool_profiles(self, small_web):
        urls = sample_urls(small_web)
        host = Fetcher(small_web).fetch(urls[0]).server
        transport = fresh_transport(
            small_web, mean_latency_ms=4.0, jitter=0.0, per_server={host: 40.0}
        )
        assert transport.prepare(urls[0]).delay_s == pytest.approx(0.040)

        small_web.servers.reseed(SEED)
        pooled = LatencyTransport.from_server_pool(
            SimulatedTransport(Fetcher(small_web, failure_seed=SEED)),
            small_web.servers,
            scale=0.5,
            jitter=0.0,
        )
        mean_ms, _ = small_web.servers.latency_profile(host)
        assert pooled.per_server[host] == pytest.approx(mean_ms * 0.5)

    def test_snapshot_restore_resumes_both_streams(self, small_web):
        urls = sample_urls(small_web, count=30)
        transport = fresh_transport(small_web, mean_latency_ms=5.0, time_scale=0.0)
        for url in urls[:10]:
            transport.prepare(url)
        snapshot = transport.state_snapshot()
        pool_state = small_web.servers.rng_state()
        tail_a = [
            (transport.prepare(u).result.status, transport.prepare(u).delay_s)
            for u in urls[10:20]
        ]
        transport.restore_state(snapshot)
        small_web.servers.restore_rng(pool_state)
        tail_b = [
            (transport.prepare(u).result.status, transport.prepare(u).delay_s)
            for u in urls[10:20]
        ]
        assert tail_a == tail_b

    def test_only_a_delay_unsettles_a_resolved_fetch(self, small_web):
        """``settled`` is what the engine picks a round's fetch path from:
        simulated and ``time_scale=0`` outcomes run inline, a delay or an
        unresolved (HTTP) outcome drains."""
        url = sample_urls(small_web)[0]
        assert fresh_transport(small_web).prepare(url).settled
        assert fresh_transport(small_web, time_scale=0.0).prepare(url).settled
        assert not fresh_transport(small_web, mean_latency_ms=1.0).prepare(url).settled
        assert not HttpTransport().prepare("http://example.org/").settled

    def test_rejects_bad_parameters(self, small_web):
        with pytest.raises(ValueError):
            fresh_transport(small_web, jitter=1.5)
        with pytest.raises(ValueError):
            fresh_transport(small_web, timeout_rate=1.0)
        with pytest.raises(ValueError):
            fresh_transport(small_web, mean_latency_ms=-1.0)


class TestServerPoolProfiles:
    def test_latency_profile_defaults_for_unknown_hosts(self, small_web):
        mean_ms, failure_rate = small_web.servers.latency_profile("nowhere.example")
        assert mean_ms == DEFAULT_MEAN_LATENCY_MS
        assert 0.0 <= failure_rate < 1.0

    def test_latency_profile_reads_registered_profiles(self, small_web):
        name = small_web.servers.names()[0]
        profile = small_web.servers.get(name)
        assert small_web.servers.latency_profile(name) == (
            profile.mean_latency_ms,
            profile.failure_rate,
        )


class TestBuildTransport:
    def test_registry_names(self):
        assert set(TRANSPORTS) == {"simulated", "latency", "http"}

    def test_simulated_default(self, small_web):
        transport = build_transport("simulated", Fetcher(small_web))
        assert isinstance(transport, SimulatedTransport)

    def test_simulated_rejects_options(self, small_web):
        with pytest.raises(ValueError):
            build_transport("simulated", Fetcher(small_web), {"mean_latency_ms": 1.0})

    def test_latency_options_and_pool_derivation(self, small_web):
        transport = build_transport(
            "latency", Fetcher(small_web), {"mean_latency_ms": 3.0, "seed": 2}
        )
        assert isinstance(transport, LatencyTransport)
        assert transport.mean_latency_ms == 3.0
        pooled = build_transport(
            "latency",
            Fetcher(small_web),
            {"per_server_from_pool": True, "per_server_scale": 0.1},
        )
        assert pooled.per_server  # one entry per registered server
        assert len(pooled.per_server) == len(small_web.servers)

    def test_unknown_transport_rejected(self, small_web):
        with pytest.raises(ValueError):
            build_transport("carrier-pigeon", Fetcher(small_web))

    def test_http_transport_default_backend_always_constructs(self):
        # The stdlib urllib session needs no optional dependency, so
        # real-web fetching (and cassette recording) works everywhere.
        transport = HttpTransport()
        try:
            pending = transport.prepare("http://example.org/")
            assert pending.result is None
            assert len(pending.backoffs) == transport.max_retries
        finally:
            transport.close()

    def test_http_transport_rejects_unknown_backend(self):
        # The session backend option went with the aiohttp backend.
        for backend in ("aiohttp", "stdlib", "auto"):
            with pytest.raises(TypeError, match="backend"):
                HttpTransport(backend=backend)


class TestHtmlParsing:
    def test_parse_html_tokens_and_links(self):
        from repro.webgraph.transport import parse_html

        html = """
        <html><head><style>body { color: red }</style>
        <script>var x = 1;</script></head>
        <body><h1>Cycling Hubs</h1>
        <a href="/local/page">rel</a>
        <a href="https://other.example/abs">abs</a>
        <a href="#fragment-only">skip</a>
        </body></html>
        """
        tokens, links = parse_html(html, base_url="http://example.org/dir/index.html")
        assert "cycling" in tokens and "hubs" in tokens
        assert "var" not in tokens and "color" not in tokens  # script/style stripped
        assert links == [
            "http://example.org/local/page",
            "https://other.example/abs",
        ]

    def test_relative_urls_resolve_against_base(self):
        from repro.webgraph.transport import parse_html

        html = '<a href="sibling.html">s</a><a href="../up.html">u</a><a href="./same.html">d</a>'
        _, links = parse_html(html, base_url="http://example.org/a/b/index.html")
        assert links == [
            "http://example.org/a/b/sibling.html",
            "http://example.org/a/up.html",
            "http://example.org/a/b/same.html",
        ]

    def test_query_and_fragment_stripped(self):
        from repro.webgraph.transport import parse_html

        html = '<a href="/page.html?session=42&x=y">q</a><a href="/other.html?a=1">r</a>'
        _, links = parse_html(html, base_url="http://example.org/")
        assert links == ["http://example.org/page.html", "http://example.org/other.html"]

    def test_non_http_schemes_filtered(self):
        from repro.webgraph.transport import parse_html

        html = (
            '<a href="mailto:a@example.org">m</a>'
            '<a href="javascript:alert(1)">j</a>'
            '<a href="ftp://example.org/file">f</a>'
            '<a href="data:text/html,hi">d</a>'
            '<a href="https://ok.example/page">ok</a>'
        )
        _, links = parse_html(html, base_url="http://example.org/")
        assert links == ["https://ok.example/page"]

    def test_bare_host_link_gets_root_path(self):
        from repro.webgraph.transport import parse_html

        _, links = parse_html('<a href="http://example.org">x</a>', base_url="http://base.org/")
        assert links == ["http://example.org/"]

    def test_max_links_respected(self):
        from repro.webgraph.transport import parse_html

        html = "".join(f'<a href="/p{i}.html">x</a>' for i in range(50))
        _, links = parse_html(html, base_url="http://example.org/", max_links=7)
        assert len(links) == 7

    def test_malformed_href_never_raises(self):
        from repro.webgraph.transport import parse_html

        # urljoin raises ValueError on this pseudo-IPv6 authority; the
        # parser must drop the link, not crash.
        html = '<a href="http://[::1">bad</a><a href="/fine.html">good</a>'
        _, links = parse_html(html, base_url="http://example.org/")
        assert links == ["http://example.org/fine.html"]


class TestParseHtmlFuzz:
    """Seeded random-document fuzz: parse_html never crashes and its
    link invariants hold on arbitrary (including truncated) input."""

    FRAGMENTS = [
        "<html>", "</html>", "<body>", "<a href=", '<a href="', "'>", '">',
        "http://h{}.example/p{}", "https://h{}.example", "//h{}.example/q{}",
        "/rel/{}", "../up{}", "page{}.html?q={}#f{}", "mailto:x{}@y", "javascript:void(0)",
        "ftp://h{}/f", "data:text/plain,{}", "<script>var x{} = '<a href=\"/no{}\">';</script>",
        "<style>.c{} {{ color: red }}</style>", "word{} token{}", "<<<>>>", "&amp;", "\x00\x01",
        "<a href='http://[::{}'>", "<a href=''>", '<a href="   ">', "é中文",
    ]

    def _random_doc(self, rng):
        parts = []
        for _ in range(rng.randrange(0, 60)):
            fragment = self.FRAGMENTS[rng.randrange(len(self.FRAGMENTS))]
            parts.append(fragment.format(*[rng.randrange(100) for _ in range(4)][: fragment.count("{}")]))
        doc = "".join(parts)
        if rng.random() < 0.3:  # truncate mid-anything
            doc = doc[: rng.randrange(len(doc) + 1)]
        return doc

    def test_fuzz_no_crashes_and_absolute_url_invariants(self):
        import random

        from repro.webgraph.transport import parse_html

        rng = random.Random(1999)
        bases = [
            "http://base.example/dir/index.html",
            "https://base.example:8080/a/b.html",
            "http://127.0.0.1:8000/",
        ]
        for trial in range(300):
            doc = self._random_doc(rng)
            base = bases[trial % len(bases)]
            tokens, links = parse_html(doc, base_url=base, max_links=25)
            assert len(links) <= 25
            for link in links:
                # Absolute http(s), with authority, no fragment, no query.
                assert link.startswith(("http://", "https://")), link
                assert "#" not in link and "?" not in link, link
                from urllib.parse import urlsplit

                parts = urlsplit(link)
                assert parts.netloc, link
                assert parts.path.startswith("/"), link
            for token in tokens:
                assert token == token.lower()

    def test_fuzz_is_deterministic(self):
        import random

        from repro.webgraph.transport import parse_html

        docs = []
        rng = random.Random(77)
        for _ in range(30):
            docs.append(self._random_doc(rng))
        first = [parse_html(d, base_url="http://b.example/x/") for d in docs]
        second = [parse_html(d, base_url="http://b.example/x/") for d in docs]
        assert first == second


