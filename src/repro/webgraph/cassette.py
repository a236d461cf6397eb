"""Cassette record/replay: deterministic re-runs of real-network crawls.

The transport seam makes fetching pluggable; this module makes it
*loggable*.  A :class:`RecordingTransport` wraps any transport and
serialises every fetch outcome — plus robots / redirect / error
observability events when the inner transport reports them — into a
versioned JSONL cassette keyed by ``(url, attempt)``.  A
:class:`ReplayTransport` then plays the cassette back **without any
inner transport at all**: replay needs no network stack (no HTTP
session, no sockets), so a crawl recorded once against the live web (or
a fixture server) re-runs bit-identically in CI forever.

Why ``(url, attempt)`` and not sequence order: the engine may fetch one
URL several times (SERVER_ERROR pages are retried in later rounds), and
a drained round interleaves completions.  Keying by URL plus its
per-URL attempt ordinal makes replay independent of completion order, so
a cassette recorded through the drain replays inline (a replayed fetch
owes no wait) and produces identical pages and relevance floats.

Both wrappers participate in ``state_snapshot()`` / ``restore_state()``:
the recorder snapshots its byte offset (restore truncates post-checkpoint
events — this is what makes kill/resume work mid-cassette), and the
replayer snapshots its served counters.

File format (one JSON object per line)::

    {"format": "repro-fetch-cassette", "version": 1, "meta": {...}}
    {"kind": "fetch", "url": "...", "attempt": 1, "result": {...}}
    {"kind": "robots", ...}      # observability only; replay ignores
    {"kind": "redirect", ...}
    {"kind": "error", ...}

JSON floats round-trip exactly (``repr`` shortest round-trip), so
recorded latency and every token list replay bit-identically.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict
from typing import Callable, Dict, Optional, Tuple

from .fetch import FetchResult, FetchStats, FetchStatus
from .transport import FetchTransport, PendingFetch

#: Magic string in the cassette header line.
CASSETTE_FORMAT = "repro-fetch-cassette"
#: Current schema version; bump on incompatible event changes.
CASSETTE_VERSION = 1

#: Event kinds replay understands (others are rejected by the linter).
EVENT_KINDS = ("fetch", "robots", "redirect", "error")


class CassetteError(RuntimeError):
    """The cassette file is malformed, wrong-version, or inconsistent."""


class CassetteMismatch(CassetteError):
    """Strict replay was asked for a request the cassette does not hold."""


def result_to_dict(result: FetchResult) -> dict:
    data = asdict(result)
    data["status"] = result.status.value
    return data


def result_from_dict(data: dict) -> FetchResult:
    fields = dict(data)
    fields["status"] = FetchStatus(fields["status"])
    return FetchResult(**fields)


def read_header(path: str) -> dict:
    """Read and validate a cassette's header line."""
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
    if not first.strip():
        raise CassetteError(f"cassette {path} is empty (missing header)")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise CassetteError(f"cassette {path} header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != CASSETTE_FORMAT:
        raise CassetteError(
            f"cassette {path} is not a {CASSETTE_FORMAT} file (header {first.strip()[:80]!r})"
        )
    if header.get("version") != CASSETTE_VERSION:
        raise CassetteError(
            f"cassette {path} has schema version {header.get('version')!r}; "
            f"this build reads version {CASSETTE_VERSION}"
        )
    return header


class RecordingTransport:
    """Wrap any transport and log every fetch outcome to a JSONL cassette.

    The recorder is itself a sequential stream (the file).  When the
    inner transport resolves outcomes at ``prepare`` time (the
    deterministic transports), the event is written there, and the
    engine calls ``prepare`` in checkout order: the recording is in
    checkout order whether the round then runs inline or drains.  For a
    real HTTP inner the event is written at ``wait`` completion.
    """

    def __init__(self, inner: FetchTransport, path: str, meta: Optional[dict] = None) -> None:
        self.inner = inner
        self.path = path
        self._lock = threading.Lock()
        self._attempts: Dict[str, int] = {}
        existing = os.path.exists(path) and os.path.getsize(path) > 0
        if existing:
            read_header(path)  # refuse to append to a foreign/old file
            self._rebuild_attempts(path)
        self._file = open(path, "ab")
        if not existing:
            header = {"format": CASSETTE_FORMAT, "version": CASSETTE_VERSION, "meta": meta or {}}
            self._write_line(header)
        self._install_event_sink()

    def _rebuild_attempts(self, path: str) -> None:
        # Re-opening a recorded cassette in record mode must continue
        # each URL's attempt numbering where the file left off — a fresh
        # counter would append duplicate (url, attempt) keys that replay
        # and lint_cassette reject.  (A checkpoint resume then overwrites
        # both counters and offset via restore_state.)
        with open(path, "r", encoding="utf-8") as handle:
            next(handle)  # header, validated by read_header above
            for lineno, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CassetteError(f"{path}:{lineno}: bad JSON: {exc}") from exc
                if event.get("kind") != "fetch":
                    continue
                try:
                    url = event["url"]
                    attempt = int(event["attempt"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise CassetteError(f"{path}:{lineno}: malformed fetch event") from exc
                if attempt > self._attempts.get(url, 0):
                    self._attempts[url] = attempt

    def _install_event_sink(self) -> None:
        # Walk the wrapper chain looking for a transport with an
        # observability hook (HttpTransport.events) and point it here so
        # robots/redirect/error events ride along in the cassette.
        obj = self.inner
        seen = set()
        while obj is not None and id(obj) not in seen:
            seen.add(id(obj))
            if hasattr(obj, "events"):
                obj.events = self._on_event
                return
            obj = getattr(obj, "inner", None)

    def _on_event(self, event: dict) -> None:
        kind = event.get("kind")
        if kind in ("robots", "redirect", "error"):
            with self._lock:
                self._write_line(event)

    def _write_line(self, obj: dict) -> None:
        self._file.write((json.dumps(obj, sort_keys=True) + "\n").encode("utf-8"))
        self._file.flush()

    def _record(self, url: str, result: FetchResult) -> None:
        with self._lock:
            attempt = self._attempts.get(url, 0) + 1
            self._attempts[url] = attempt
            self._write_line(
                {"kind": "fetch", "url": url, "attempt": attempt, "result": result_to_dict(result)}
            )

    # -- FetchTransport ----------------------------------------------------
    @property
    def stats(self) -> FetchStats:
        return self.inner.stats

    def fetch(self, url: str) -> FetchResult:
        result = self.inner.fetch(url)
        self._record(url, result)
        return result

    def prepare(self, url: str) -> PendingFetch:
        pending = self.inner.prepare(url)
        if pending.result is not None:
            # Deterministic inner: the outcome exists now, so the event is
            # written now — in checkout order, before any snapshot that
            # could rewind past it.
            self._record(url, pending.result)
            pending.recorded = True
        return pending

    async def wait(self, pending: PendingFetch) -> FetchResult:
        result = await self.inner.wait(pending)
        if not getattr(pending, "recorded", False):
            self._record(pending.url, result)
        return result

    # -- checkpointing -----------------------------------------------------
    def state_snapshot(self) -> dict:
        with self._lock:
            self._file.flush()
            return {
                "inner": self.inner.state_snapshot(),
                "attempts": dict(self._attempts),
                "offset": self._file.tell(),
            }

    def restore_state(self, state: dict) -> None:
        with self._lock:
            self._attempts = dict(state["attempts"])
            # Drop events written after the snapshot (post-checkpoint work
            # lost to a crash): the cassette rewinds in lockstep with
            # every other draw stream.
            self._file.flush()
            self._file.truncate(state["offset"])
            self._file.seek(0, os.SEEK_END)
        self.inner.restore_state(state["inner"])

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()
        inner_close = getattr(self.inner, "close", None)
        if callable(inner_close):
            inner_close()


class ReplayTransport:
    """Serve fetches from a cassette — no inner transport, no network.

    ``strict=True`` (the default) raises :class:`CassetteMismatch` the
    moment a request has no recorded ``(url, attempt)`` event;
    ``strict=False`` degrades a miss to a NOT_FOUND result with detail
    ``"cassette-miss"``.  Leftover (recorded but never requested) events
    are reported by :meth:`leftover`, and :meth:`assert_exhausted` makes
    them loud.
    """

    def __init__(self, path: str, strict: bool = True) -> None:
        self.path = path
        self.strict = strict
        self.stats = FetchStats()
        self._lock = threading.Lock()
        self._served: Dict[str, int] = {}
        self.meta: dict = {}
        self._events: Dict[Tuple[str, int], dict] = {}
        self._load(path)

    def _load(self, path: str) -> None:
        self.meta = read_header(path).get("meta", {})
        with open(path, "r", encoding="utf-8") as handle:
            next(handle)  # header, already validated
            for lineno, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CassetteError(f"{path}:{lineno}: bad JSON: {exc}") from exc
                if event.get("kind") != "fetch":
                    continue  # observability events are record-side only
                try:
                    key = (event["url"], int(event["attempt"]))
                    record = event["result"]
                except (KeyError, TypeError, ValueError) as exc:
                    raise CassetteError(f"{path}:{lineno}: malformed fetch event") from exc
                if key in self._events:
                    raise CassetteError(f"{path}:{lineno}: duplicate fetch key {key}")
                self._events[key] = record

    # -- FetchTransport ----------------------------------------------------
    def fetch(self, url: str) -> FetchResult:
        with self._lock:
            attempt = self._served.get(url, 0) + 1
            record = self._events.get((url, attempt))
            if record is None:
                if self.strict:
                    raise CassetteMismatch(
                        f"cassette {self.path} has no event for ({url!r}, attempt {attempt}); "
                        f"the replayed crawl diverged from the recording"
                    )
                self._served[url] = attempt
                result = FetchResult(
                    url=url, status=FetchStatus.NOT_FOUND, detail="cassette-miss"
                )
                self.stats.record(result)
                return result
            self._served[url] = attempt
            result = result_from_dict(record)
            self.stats.record(result)
            return result

    def prepare(self, url: str) -> PendingFetch:
        # Resolved immediately, SimulatedTransport-style: the served
        # counters advance in checkout order, never at completion.
        result = self.fetch(url)
        return PendingFetch(url=url, result=result, delay_s=0.0)

    async def wait(self, pending: PendingFetch) -> FetchResult:
        assert pending.result is not None
        return pending.result

    # -- exhaustion --------------------------------------------------------
    def leftover(self) -> list:
        """Recorded ``(url, attempt)`` keys the replayed crawl never asked for."""
        with self._lock:
            return sorted(
                key for key in self._events if self._served.get(key[0], 0) < key[1]
            )

    def assert_exhausted(self) -> None:
        remaining = self.leftover()
        if remaining:
            sample = ", ".join(f"{u}#{a}" for u, a in remaining[:5])
            raise CassetteMismatch(
                f"cassette {self.path} has {len(remaining)} unconsumed fetch events "
                f"(first: {sample}); the replayed crawl diverged from the recording"
            )

    # -- checkpointing -----------------------------------------------------
    def state_snapshot(self) -> dict:
        with self._lock:
            return {"served": dict(self._served), "stats": asdict(self.stats)}

    def restore_state(self, state: dict) -> None:
        with self._lock:
            self._served = dict(state["served"])
            self.stats = FetchStats(**state["stats"])


def lint_cassette(path: str) -> dict:
    """Validate a cassette file end to end; returns a summary dict.

    Checks the header magic + schema version, per-line JSON
    well-formedness, known event kinds, fetch-event schema (result
    round-trips through :class:`FetchResult`, status is a known value),
    and duplicate ``(url, attempt)`` keys.  Raises :class:`CassetteError`
    on the first violation.  Used by the CI cassette lint step.
    """
    header = read_header(path)
    counts: Dict[str, int] = {kind: 0 for kind in EVENT_KINDS}
    seen: set = set()
    with open(path, "r", encoding="utf-8") as handle:
        next(handle)
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CassetteError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            kind = event.get("kind")
            if kind not in EVENT_KINDS:
                raise CassetteError(f"{path}:{lineno}: unknown event kind {kind!r}")
            counts[kind] += 1
            if kind != "fetch":
                continue
            try:
                key = (event["url"], int(event["attempt"]))
                result_from_dict(event["result"])
            except CassetteError:
                raise
            except Exception as exc:
                raise CassetteError(f"{path}:{lineno}: malformed fetch event: {exc}") from exc
            if key in seen:
                raise CassetteError(f"{path}:{lineno}: duplicate fetch key {key}")
            seen.add(key)
    return {"version": header["version"], "meta": header.get("meta", {}), "events": counts}


def transport_for_config(
    config, fetcher, build: Optional[Callable] = None
) -> FetchTransport:
    """Build the engine's transport from a ``CrawlerConfig``, cassette-aware.

    Without a ``cassette_path`` this is exactly ``build_transport``.
    With one, ``cassette_mode`` selects the wrapper: ``"record"`` wraps
    the configured transport in a :class:`RecordingTransport`,
    ``"replay"`` ignores the configured transport entirely and serves
    from the cassette, and ``"auto"`` resolves to replay when the file
    already exists, record otherwise.  The resolved mode is written back
    into ``config.cassette_mode`` so it rides inside checkpoints: a
    crawl killed while *recording* resumes recording (the half-written
    file exists, but "auto" must not flip it to replay).
    """
    from .transport import build_transport

    if build is None:
        build = build_transport
    path = getattr(config, "cassette_path", "") or ""
    if not path:
        return build(config.transport, fetcher, config.transport_options)
    mode = getattr(config, "cassette_mode", "auto") or "auto"
    if mode == "auto":
        mode = "replay" if os.path.exists(path) and os.path.getsize(path) > 0 else "record"
        try:
            config.cassette_mode = mode
        except AttributeError:  # pragma: no cover - frozen config
            pass
    if mode == "replay":
        return ReplayTransport(path, strict=getattr(config, "cassette_strict", True))
    if mode != "record":
        raise ValueError(
            f"unknown cassette_mode {mode!r}; expected 'auto', 'record', or 'replay'"
        )
    inner = build(config.transport, fetcher, config.transport_options)
    return RecordingTransport(inner, path)
