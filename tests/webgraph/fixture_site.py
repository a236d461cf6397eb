"""A deterministic local HTTP fixture site + cassette tooling.

A stdlib ``ThreadingHTTPServer`` serving a small, fully deterministic
web site on 127.0.0.1 — no external network, ever.  The site exercises
every hardening path of :class:`repro.webgraph.transport.HttpTransport`:

* ``/robots.txt`` with an Allow-before-Disallow precedence pair over
  ``/private/``;
* a redirect hop chain (``/redirect/hop1 → hop2 → /target.html``), a
  too-deep chain (``/redirect/deep0 → … → deep4``), a 2-cycle
  (``/loop/a ↔ /loop/b``), and a redirect into the robots-disallowed
  subtree (``/redirect/private → /private/secret.html``);
* content gates: ``/binary.png`` (image/png) and ``/big.html``
  (oversized body);
* ``/chunked.html``: a ``Transfer-Encoding: chunked`` body of 200
  tokens written in several small chunks (not linked from the index);
* failure shapes: ``/missing.html`` (404), ``/gone.html`` (410),
  ``/teapot.html`` (418), ``/error.html`` (always 500), and
  ``/flaky.html`` (500 on its first request, 200 after — the
  retry-success path);
* 14 ordinary token-bearing content pages linked into a small graph.

Run as a script it is the cassette workbench::

    # regenerate the committed corpus (fixed port so URLs are stable)
    PYTHONPATH=src python tests/webgraph/fixture_site.py \
        --record tests/data/cassettes/fixture_site.jsonl --port 8999

    # CI schema lint
    PYTHONPATH=src python tests/webgraph/fixture_site.py \
        --lint tests/data/cassettes/fixture_site.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

if __package__ in (None, ""):  # running as a script
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

#: Deterministic vocabulary of the content pages (cycling-flavoured so
#: the focused crawler's classifier has real signal to rank with).
WORDS = (
    "cycling", "bicycle", "race", "tour", "wheel", "pedal",
    "road", "mountain", "gear", "sprint", "climb", "rider",
)

CONTENT_PAGES = 12
#: OK-fetchable pages: index + c0..c11 + target + allowed + flaky.
FETCHABLE_PAGES = CONTENT_PAGES + 4

ROBOTS_TXT = """User-agent: *
Allow: /private/allowed.html
Disallow: /private/
"""


#: The token body of ``/chunked.html``.
CHUNKED_TOKENS = [f"tok{i}" for i in range(200)]


def page_tokens(index: int) -> list:
    """The deterministic token body of content page *index*."""
    return [WORDS[(index * 7 + j) % len(WORDS)] for j in range(30)] + [f"page{index}"]


def _html(title: str, tokens, links) -> bytes:
    anchors = "".join(f'<a href="{href}">{href}</a> ' for href in links)
    body = " ".join(tokens)
    return f"<html><head><title>{title}</title></head><body><h1>{title}</h1><p>{body}</p>{anchors}</body></html>".encode()


def _content_page(index: int) -> bytes:
    links = [
        f"/c{(index + 1) % CONTENT_PAGES}.html",
        f"/c{(index + 5) % CONTENT_PAGES}.html",
        "/index.html",
    ]
    return _html(f"content {index}", page_tokens(index), links)


INDEX_LINKS = (
    ["/c0.html", "/c1.html", "/c2.html", "/c3.html", "/c4.html", "/c5.html"]
    + [
        "/redirect/hop1",
        "/redirect/deep0",
        "/loop/a",
        "/binary.png",
        "/big.html",
        "/private/secret.html",
        "/private/allowed.html",
        "/missing.html",
        "/gone.html",
        "/teapot.html",
        "/error.html",
        "/flaky.html",
    ]
)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):  # quiet
        pass

    def _send(self, status: int, body: bytes = b"", content_type: str = "text/html", location: str = "") -> None:
        self.send_response(status)
        if location:
            self.send_header("Location", location)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_chunked(self, body: bytes, chunk: int) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/html")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        for start in range(0, len(body), chunk):
            piece = body[start : start + chunk]
            self.wfile.write(b"%x\r\n%s\r\n" % (len(piece), piece))
            self.wfile.flush()
        self.wfile.write(b"0\r\n\r\n")

    def do_GET(self) -> None:  # noqa: C901 - a route table
        path = self.path.split("?", 1)[0]
        self.server.count(path)
        if path == "/robots.txt":
            return self._send(200, ROBOTS_TXT.encode(), "text/plain")
        if path == "/index.html" or path == "/":
            return self._send(200, _html("fixture index", ["cycling", "directory", "fixture"], INDEX_LINKS))
        if path == "/chunked.html":
            return self._send_chunked(_html("chunked", CHUNKED_TOKENS, []), chunk=97)
        if path.startswith("/c") and path.endswith(".html"):
            try:
                index = int(path[2:-5])
            except ValueError:
                return self._send(404)
            if 0 <= index < CONTENT_PAGES:
                return self._send(200, _content_page(index))
            return self._send(404)
        if path == "/redirect/hop1":
            return self._send(302, location="/redirect/hop2")
        if path == "/redirect/hop2":
            return self._send(302, location="/target.html")
        if path.startswith("/redirect/deep"):
            try:
                depth = int(path[len("/redirect/deep"):])
            except ValueError:
                return self._send(404)
            if depth >= 6:
                return self._send(200, _html("deep end", ["unreachable"], []))
            return self._send(302, location=f"/redirect/deep{depth + 1}")
        if path == "/loop/a":
            return self._send(302, location="/loop/b")
        if path == "/loop/b":
            return self._send(302, location="/loop/a")
        if path == "/redirect/private":
            return self._send(302, location="/private/secret.html")
        if path == "/target.html":
            return self._send(200, _html("target", ["cycling", "target", "destination"], ["/index.html"]))
        if path == "/binary.png":
            return self._send(200, b"\x89PNG\r\n\x1a\n" + b"\x00" * 64, "image/png")
        if path == "/big.html":
            return self._send(200, _html("big", ["huge"] * 4000, []))
        if path == "/private/secret.html":
            return self._send(200, _html("secret", ["hidden"], []))
        if path == "/private/allowed.html":
            return self._send(200, _html("allowed", ["cycling", "permitted", "exception"], ["/index.html"]))
        if path == "/missing.html":
            return self._send(404, b"not here", "text/plain")
        if path == "/gone.html":
            return self._send(410, b"gone", "text/plain")
        if path == "/teapot.html":
            return self._send(418, b"teapot", "text/plain")
        if path == "/error.html":
            return self._send(500, b"boom", "text/plain")
        if path == "/flaky.html":
            if self.server.counts[path] == 1:
                return self._send(500, b"first hit fails", "text/plain")
            return self._send(200, _html("flaky", ["cycling", "recovered", "retry"], ["/index.html"]))
        return self._send(404)


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address):
        super().__init__(address, _Handler)
        self.counts = {}
        self._counts_lock = threading.Lock()

    def count(self, path: str) -> None:
        with self._counts_lock:
            self.counts[path] = self.counts.get(path, 0) + 1


class FixtureSite:
    """The fixture server as a context manager with request counters."""

    def __init__(self, port: int = 0) -> None:
        self._server = _Server(("127.0.0.1", port))
        self._thread = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def url(self, path: str) -> str:
        return f"{self.base_url}{path}"

    def request_count(self, path: str) -> int:
        return self._server.counts.get(path, 0)

    def start(self) -> "FixtureSite":
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "FixtureSite":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# -- crawl-over-the-fixture-site scaffolding --------------------------------

#: The committed replay corpus (regenerate with ``--record ... --port 8999``).
COMMITTED_CASSETTE = (
    Path(__file__).resolve().parents[2] / "tests" / "data" / "cassettes" / "fixture_site.jsonl"
)

#: Page budget of the standard fixture crawl (leaves slack under the
#: site's FETCHABLE_PAGES so the budget, not exhaustion, ends the crawl).
FIXTURE_MAX_PAGES = 14

#: HttpTransport options of the standard fixture crawl: tight timeouts,
#: a small body cap (gates /big.html), and a 3-hop redirect cap (refuses
#: the /redirect/deep chain while allowing hop1→hop2→target).
FIXTURE_TRANSPORT_OPTIONS = {
    "timeout_s": 10.0,
    "max_retries": 1,
    "retry_backoff_s": 0.01,
    "retry_jitter": 0.25,
    "max_content_bytes": 4096,
    "max_redirects": 3,
    "robots_ttl_s": 3600.0,
    "max_links": 64,
    "seed": 7,
}


def build_fixture_system(web=None):
    """The FocusSystem every fixture crawl (record or replay) runs under.

    Identical construction in the recording CLI and the replay tests is
    what makes a committed cassette replayable: same web seed, same
    taxonomy, same trained classifier, so the crawler requests the same
    ``(url, attempt)`` sequence the cassette holds.  Tests pass the
    session-scoped ``small_web`` fixture; the CLI builds the identical
    web from the same seeded config.
    """
    from repro import FocusConfig, FocusSystem
    from repro.webgraph.graph import SyntheticWebBuilder
    from tests.conftest import GOOD_TOPIC, small_web_config

    if web is None:
        web = SyntheticWebBuilder(small_web_config()).build()
    config = FocusConfig(good_topics=(GOOD_TOPIC,), examples_per_leaf=12, seed_count=8)
    system = FocusSystem.from_web(web, (GOOD_TOPIC,), config)
    system.train()
    return system


def fixture_crawler_config(
    cassette_path: str,
    cassette_mode: str = "auto",
    engine: str = "auto",
    batch_size: int = 1,
    max_pages: int = FIXTURE_MAX_PAGES,
    **overrides,
):
    """The standard CrawlerConfig of a fixture-site cassette crawl."""
    from repro import CrawlerConfig

    return CrawlerConfig(
        max_pages=max_pages,
        distill_every=6,
        batch_size=batch_size,
        engine=engine,
        transport="http",
        transport_options=dict(FIXTURE_TRANSPORT_OPTIONS),
        cassette_path=cassette_path,
        cassette_mode=cassette_mode,
        **overrides,
    )


def fixture_seeds(base_url: str) -> tuple:
    return (f"{base_url}/index.html",)


def write_cassette_header(path: str, meta: dict) -> None:
    """Start a cassette file with *meta* in its header (record appends)."""
    from repro.webgraph.cassette import CASSETTE_FORMAT, CASSETTE_VERSION

    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            json.dumps(
                {"format": CASSETTE_FORMAT, "version": CASSETTE_VERSION, "meta": meta},
                sort_keys=True,
            )
            + "\n"
        )


def record_fixture_cassette(
    path: str,
    port: int = 0,
    max_pages: int = FIXTURE_MAX_PAGES,
    system=None,
    **config_overrides,
):
    """Record the standard fixture crawl into *path*; returns (result, meta).

    *config_overrides* reach :func:`fixture_crawler_config` — e.g.
    ``engine="batched", batch_size=4`` records the batched engine's own
    visit sequence (batch checkout orders pages differently from the
    serial engine's per-page rescoring, so each engine shape replays
    against its own recording).
    """
    from repro import JobSpec

    with FixtureSite(port=port) as site:
        seeds = fixture_seeds(site.base_url)
        meta = {
            "site": "fixture_site",
            "seeds": list(seeds),
            "max_pages": max_pages,
            "transport_options": FIXTURE_TRANSPORT_OPTIONS,
        }
        write_cassette_header(path, meta)
        if system is None:
            system = build_fixture_system()
        handle = system.start(
            JobSpec(
                seeds=seeds,
                crawler=fixture_crawler_config(
                    path, cassette_mode="record", max_pages=max_pages, **config_overrides
                ),
            )
        )
        result = handle.run()
        handle.close()  # flushes the cassette, closes the HTTP session
        return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", metavar="PATH", help="record the standard fixture crawl into PATH")
    parser.add_argument("--port", type=int, default=0, help="fixture server port (0 = ephemeral; use a fixed port for committed cassettes)")
    parser.add_argument("--max-pages", type=int, default=FIXTURE_MAX_PAGES)
    parser.add_argument("--lint", nargs="+", metavar="PATH", help="schema-lint cassette files")
    parser.add_argument("--serve", action="store_true", help="serve the fixture site until interrupted")
    args = parser.parse_args(argv)

    if args.lint:
        from repro.webgraph.cassette import lint_cassette

        for path in args.lint:
            summary = lint_cassette(path)
            print(f"{path}: OK {json.dumps(summary, sort_keys=True)}")
        return 0
    if args.record:
        result, meta = record_fixture_cassette(args.record, port=args.port, max_pages=args.max_pages)
        print(
            f"recorded {args.record}: {result.pages_fetched()} pages, "
            f"harvest {result.harvest_rate():.4f}, seeds {meta['seeds']}"
        )
        return 0
    if args.serve:
        with FixtureSite(port=args.port) as site:
            print(f"fixture site at {site.base_url} (Ctrl-C to stop)")
            try:
                threading.Event().wait()
            except KeyboardInterrupt:
                pass
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
