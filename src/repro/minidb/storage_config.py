"""StorageConfig: one object for every durability knob of a database.

Five PRs of storage work each added a keyword to :meth:`Database.open`
(and to every caller above it): WAL group commit, the fault-injection
file-operation seam, and two compaction knobs, all threaded positionally
through ``create_focus_database`` and ``CrawlerConfig``.  This module
collapses the sprawl into a single frozen :class:`StorageConfig` that
travels as one value — through ``Database.open(storage=...)``, through
``CrawlerConfig.storage``, and inside serialized
:class:`~repro.core.config.JobSpec` payloads submitted over the crawl
service's HTTP API.  Of the knobs ``CrawlerConfig`` once carried beside
it only ``wal_fsync_batch`` is left, because the benchmark suite still
sets it; ``CrawlerConfig.resolve_storage()`` folds it in.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Optional

from .wal import FileOps


@dataclass(frozen=True)
class StorageConfig:
    """Durability policy of a database: WAL, compaction, cache, file ops.

    ``buffer_pool_pages=None`` means "use the caller's default" (each
    entry point historically had its own: 256 for ``Database.open``,
    2048 for ``create_focus_database``), so a partially specified config
    composes with those defaults instead of silently overriding them.
    """

    #: Buffer-pool capacity in pages; None defers to the call site's default.
    buffer_pool_pages: Optional[int] = None
    #: WAL group commit: 0 fsyncs only at checkpoints, N >= 1 at least
    #: once per N logged records.
    wal_fsync_batch: int = 0
    #: Consider segment compaction at every Nth checkpoint (0 disables).
    compact_every: int = 1
    #: Compact only when at least this fraction of segment payload is dead.
    compact_min_garbage_ratio: float = 0.5
    #: File-operation layer override (fault-injection tests); not serializable.
    #: An ``ops`` instance is stateful (fault counters, crash points), so
    #: give each database its own: two opened against one share one event
    #: index.
    ops: Optional[FileOps] = None

    def __post_init__(self) -> None:
        if self.buffer_pool_pages is not None and self.buffer_pool_pages < 1:
            raise ValueError("buffer_pool_pages must be >= 1 (or None for the default)")
        if self.wal_fsync_batch < 0:
            raise ValueError("wal_fsync_batch must be >= 0")
        if self.compact_every < 0:
            raise ValueError("compact_every must be >= 0")
        if not 0.0 <= self.compact_min_garbage_ratio <= 1.0:
            raise ValueError("compact_min_garbage_ratio must be in [0, 1]")

    def replace(self, **overrides: Any) -> "StorageConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    def pool_pages(self, default: int) -> int:
        """The buffer-pool capacity, falling back to the call site's *default*."""
        return self.buffer_pool_pages if self.buffer_pool_pages is not None else default

    # -- serialization (job specs travel over HTTP as JSON) ------------------
    def to_dict(self) -> dict[str, Any]:
        """A plain-data form for JSON job specs; refuses a live ``ops`` object."""
        if self.ops is not None:
            raise ValueError("StorageConfig with a FileOps override is not serializable")
        return {
            "buffer_pool_pages": self.buffer_pool_pages,
            "wal_fsync_batch": self.wal_fsync_batch,
            "compact_every": self.compact_every,
            "compact_min_garbage_ratio": self.compact_min_garbage_ratio,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StorageConfig":
        known = {f.name for f in fields(cls)} - {"ops"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown StorageConfig fields {unknown}; expected {sorted(known)}")
        return cls(**{k: data[k] for k in data})
