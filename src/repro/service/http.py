"""Crawl-as-a-service HTTP API: a thin JSON facade over :class:`JobManager`.

Stdlib only (``http.server``), matching the repo's no-new-dependency
rule.  The server is a :class:`~http.server.ThreadingHTTPServer`: one
thread per connection, none of which ever crawls — the crawl work
happens on the manager's per-job stepper threads.  A ``/jobs/{id}/...``
endpoint is a read or state transition under *that job's* lock, so it
waits for at most the rest of that job's current round and never for
another tenant; ``/health`` and ``/jobs`` take no job lock at all, and
``POST /jobs`` arms the new job outside every lock a read takes.

A reply leaves as one segment: the handler's ``wfile`` is buffered and
flushed once per request, so status line, headers and body reach the
socket in a single write.  Written separately (the stdlib default),
the body of every reply on a kept-alive connection sat in Nagle's
buffer until the client's delayed ACK of the headers — about 40 ms a
request on Linux.

Routes (all JSON)::

    GET  /health                      liveness + job counts + pool counters
    GET  /jobs                        all jobs, submission order
    POST /jobs                        submit a JobSpec (JSON body) -> {"id": ...}
    GET  /jobs/{id}                   live progress for one job
    POST /jobs/{id}/pause             checkpoint (if durable) and pause
    POST /jobs/{id}/resume            resume a paused job
    POST /jobs/{id}/cancel            cancel; terminal state "cancelled"
    GET  /jobs/{id}/harvest?window=N  harvest curve [[tick, rate], ...]
    GET  /jobs/{id}/harvest?bucket=N  the same curve recomputed in the
                                      database (the paper's GROUP BY
                                      monitoring query), rows of
                                      {bucket, avg_relevance, pages}
    GET  /jobs/{id}/stats             io_snapshot + stage timings + pool
                                      stats + a SQL-derived crawl census
    GET  /jobs/{id}/query?sql=...     read-only SQL over the job's crawl
                                      store (SELECT/EXPLAIN only;
                                      ``limit=N`` caps rows, default 200)
    GET  /jobs/{id}/result            terminal summary incl. fetched_urls
                                      and relevance floats (determinism
                                      is checkable over the wire)

Errors: unknown job -> 404, bad spec/illegal transition/mutation or
failing SQL -> 400, any other failure of a request -> 500, all as
``{"error": ...}`` bodies: no request ends without a reply.
"""

from __future__ import annotations

import inspect
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.core.config import JobSpec
from repro.crawler.engine import CrawlerConfig
from repro.webgraph.transport import HttpTransport, LatencyTransport

from .jobs import JobManager


def _non_numbers(data) -> list:
    """Where a JSON job spec holds a non-number in place of a numeric default.

    Looks at the spec's own fields, its crawler's, and the options of its
    latency or http transport; names them as dotted paths.
    """
    if not isinstance(data, dict):
        return []
    sections = [("", JobSpec, data)]
    crawler = data.get("crawler")
    if isinstance(crawler, dict):
        sections.append(("crawler.", CrawlerConfig, crawler))
        options = crawler.get("transport_options")
        transport = {"latency": LatencyTransport, "http": HttpTransport}.get(crawler.get("transport"))
        if transport is not None and isinstance(options, dict):
            sections.append(("crawler.transport_options.", transport, options))
    return [
        prefix + name
        for prefix, target, values in sections
        for name, parameter in inspect.signature(target).parameters.items()
        if name in values
        and isinstance(parameter.default, (int, float))
        and not isinstance(values[name], (int, float))
    ]


class _CrawlRequestHandler(BaseHTTPRequestHandler):
    """Dispatches requests to the owning :class:`CrawlService`'s manager."""

    # Set by CrawlService when it builds the server class.
    manager: JobManager = None  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"
    #: Buffer the reply; ``handle_one_request`` flushes it once, after the
    #: verb method returns.  A body beyond the buffer goes out in further
    #: writes, which large segments do not stall on.
    wbufsize = 64 * 1024

    # -- plumbing -----------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep test/bench output clean

    def _send_json(self, payload, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self):
        length = int(self.headers.get("Content-Length", 0) or 0)
        if not length:
            return {}
        return json.loads(self.rfile.read(length).decode("utf-8"))

    def _route(self) -> Tuple[list, dict]:
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        query = {key: values[-1] for key, values in parse_qs(parsed.query).items()}
        return parts, query

    def _dispatch(self, handler) -> None:
        try:
            self._send_json(handler())
        except KeyError as exc:
            self._send_json({"error": str(exc.args[0] if exc.args else exc)}, 404)
        except (ValueError, RuntimeError) as exc:
            self._send_json({"error": str(exc)}, 400)
        except Exception as exc:  # the server's own fault: a reply all the same
            self.server.handle_error(self.request, self.client_address)  # the traceback
            self._send_json({"error": f"internal error: {type(exc).__name__}: {exc}"}, 500)

    # -- verbs --------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802
        parts, query = self._route()
        manager = self.manager
        if parts == ["health"]:
            jobs = manager.jobs()
            self._send_json(
                {
                    "status": "ok",
                    "jobs": len(jobs),
                    "active": sum(
                        1 for job in jobs if job["status"] in ("pending", "running")
                    ),
                    "pool": manager.pool.snapshot(),
                }
            )
        elif parts == ["jobs"]:
            self._send_json(manager.jobs())
        elif len(parts) == 2 and parts[0] == "jobs":
            self._dispatch(lambda: manager.progress(parts[1]))
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "harvest":
            if "bucket" in query:
                self._dispatch(lambda: manager.harvest_sql(parts[1], int(query["bucket"])))
            else:
                self._dispatch(
                    lambda: [
                        list(point)
                        for point in manager.harvest(parts[1], int(query.get("window", 100)))
                    ]
                )
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "query":

            def run_query():
                sql_text = query.get("sql")
                if not sql_text:
                    raise ValueError("missing required ?sql= parameter")
                return manager.query(
                    parts[1], sql_text, limit=int(query.get("limit", 200))
                )

            self._dispatch(run_query)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "stats":
            self._dispatch(lambda: manager.stats(parts[1]))
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            self._dispatch(lambda: manager.result_summary(parts[1]))
        else:
            self._send_json({"error": f"no such endpoint {self.path!r}"}, 404)

    def do_POST(self) -> None:  # noqa: N802
        parts, _ = self._route()
        manager = self.manager
        if parts == ["jobs"]:

            def submit():
                data = self._read_json()
                try:
                    return {"id": manager.submit(JobSpec.from_dict(data))}
                except TypeError as exc:
                    # A mistyped field or option fails while the job is
                    # armed, before it is registered: refuse the spec.
                    where = ", ".join(_non_numbers(data))
                    raise ValueError(
                        f"bad job spec{' at ' + where if where else ''}: {exc}"
                    ) from exc

            self._dispatch(submit)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] in (
            "pause",
            "resume",
            "cancel",
        ):
            job_id, action = parts[1], parts[2]

            def transition():
                getattr(manager, action)(job_id)
                return {"id": job_id, "status": manager.progress(job_id)["status"]}

            self._dispatch(transition)
        else:
            self._send_json({"error": f"no such endpoint {self.path!r}"}, 404)


class CrawlService:
    """The crawl service: a JobManager behind a threaded HTTP server.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`),
    which is what the tests use.  Use as a context manager::

        with CrawlService(JobManager(system)) as service:
            ...  # POST specs to http://127.0.0.1:{service.port}/jobs
    """

    def __init__(
        self, manager: JobManager, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.manager = manager
        handler = type(
            "BoundCrawlRequestHandler", (_CrawlRequestHandler,), {"manager": manager}
        )
        self.server = ThreadingHTTPServer((host, port), handler)
        self.host = host
        self.port = self.server.server_address[1]
        self._serving: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Start serving requests and stepping jobs (all on daemon threads)."""
        if self._serving is not None:
            return
        self.manager.start()
        self._serving = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="crawl-http",
            daemon=True,
        )
        self._serving.start()

    def stop(self) -> None:
        """Stop the HTTP server, join the job steppers, and close job databases."""
        if self._serving is not None:
            self.server.shutdown()
            self._serving.join()
            self._serving = None
        self.server.server_close()
        self.manager.close()

    def __enter__(self) -> "CrawlService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve(
    manager: JobManager, host: str = "127.0.0.1", port: int = 8765
) -> CrawlService:
    """Start a :class:`CrawlService` and return it (caller owns ``stop()``)."""
    service = CrawlService(manager, host=host, port=port)
    service.start()
    return service


__all__ = ["CrawlService", "serve"]
