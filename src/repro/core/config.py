"""Top-level configuration for the Focus system: FocusConfig and JobSpec."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence, Tuple

from repro.crawler.focused import CrawlerConfig
from repro.crawler.policies import CrawlOrdering
from repro.minidb import StorageConfig
from repro.webgraph.graph import WebConfig


@dataclass
class FocusConfig:
    """Everything needed to set up and run a focused-crawling experiment.

    The defaults reproduce the paper's canonical scenario: a
    cycling-flavoured good topic on a laptop-scale synthetic web.
    """

    #: Topics the user marks good (C*), as slash paths into the taxonomy.
    good_topics: Sequence[str] = ("recreation/cycling",)
    #: Training examples generated per leaf topic (the paper's D(c)).
    examples_per_leaf: int = 30
    #: Number of seed URLs handed to the crawler (keyword-search simulation).
    seed_count: int = 24
    #: Buffer-pool pages of the crawl database.
    buffer_pool_pages: int = 2048
    #: Random seed for example generation and seed selection.
    seed: int = 13
    #: Crawler behaviour (page budget, focus mode, distillation cadence, ...).
    crawler: CrawlerConfig = field(default_factory=CrawlerConfig)
    #: Synthetic web parameters (only used when the system builds its own web).
    web: Optional[WebConfig] = None

    def copy_with(self, **overrides) -> "FocusConfig":
        """A shallow-copied config with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **overrides)


def _crawler_to_dict(config: CrawlerConfig) -> dict[str, Any]:
    """Plain-data form of a CrawlerConfig (JSON-safe for HTTP job specs)."""
    data = dataclasses.asdict(config)
    ordering = config.ordering
    if ordering is not None:
        data["ordering"] = {
            "name": ordering.name,
            "keys": [list(pair) for pair in ordering.keys],
            "buckets": [list(pair) for pair in ordering.buckets],
        }
    data["storage"] = config.storage.to_dict() if config.storage is not None else None
    return data


def _crawler_from_dict(data: Mapping[str, Any]) -> CrawlerConfig:
    kwargs = dict(data)
    ordering = kwargs.get("ordering")
    if ordering is not None:
        kwargs["ordering"] = CrawlOrdering(
            name=ordering["name"],
            keys=tuple((column, bool(asc)) for column, asc in ordering["keys"]),
            buckets=tuple((column, int(size)) for column, size in ordering.get("buckets", [])),
        )
    storage = kwargs.get("storage")
    if storage is not None:
        kwargs["storage"] = StorageConfig.from_dict(storage)
    known = {f.name for f in dataclasses.fields(CrawlerConfig)}
    unknown = sorted(set(kwargs) - known)
    if unknown:
        raise ValueError(f"unknown CrawlerConfig fields {unknown}")
    return CrawlerConfig(**kwargs)


@dataclass(frozen=True)
class JobSpec:
    """One crawl job, as a frozen, serializable value.

    A JobSpec is the unit of work of the crawl service: everything
    :meth:`FocusSystem.start` needs to run one crawl — topics, seeds,
    budgets, crawler behaviour, and storage policy — in a single object
    that round-trips through JSON (:meth:`to_dict` / :meth:`from_dict`),
    so jobs can be submitted over the HTTP API, queued, and logged.
    ``None`` fields defer to the owning system's configuration.
    """

    #: Good topics of this job; None uses the system's configured topics.
    good_topics: Optional[Tuple[str, ...]] = None
    #: Seed URLs; None uses the system's simulated keyword-search seeds.
    seeds: Optional[Tuple[str, ...]] = None
    #: Page budget; None uses ``CrawlerConfig.max_pages``.
    max_pages: Optional[int] = None
    #: Focused (classifier-guided) or the unfocused baseline.
    focused: bool = True
    #: Seed of the job's transient-failure/latency streams.
    fetch_failure_seed: int = 0
    #: Durable checkpoint directory; None keeps the crawl in memory.
    checkpoint_dir: Optional[str] = None
    #: Crawler behaviour; None copies the system's configured crawler.
    crawler: Optional[CrawlerConfig] = None
    #: Storage policy override; None resolves from the crawler config.
    storage: Optional[StorageConfig] = None
    #: Cap on total fetch attempts (politeness/cost budget; 0 = unlimited).
    #: Checked at round boundaries by the job manager, so a job that
    #: burns its fetch budget on failures stops even though its page
    #: budget is unmet.
    fetch_budget: int = 0
    #: Fetch cassette (``webgraph.cassette``): empty disables; set, the
    #: job records its fetches into this file or replays it.
    cassette_path: str = ""
    #: "record", "replay", or "auto" (replay iff the file exists).
    cassette_mode: str = "auto"
    #: Optional display name (shows up in service listings).
    name: str = ""

    def __post_init__(self) -> None:
        # Tolerate lists/sequences at construction; store tuples so the
        # spec is hashable and safely shared.
        for attr in ("good_topics", "seeds"):
            value = getattr(self, attr)
            if value is not None and not isinstance(value, tuple):
                object.__setattr__(self, attr, tuple(value))
        if self.max_pages is not None and self.max_pages < 1:
            raise ValueError("max_pages must be >= 1 (or None for the config default)")
        if self.fetch_budget < 0:
            raise ValueError("fetch_budget must be >= 0 (0 = unlimited)")
        if self.cassette_mode not in ("auto", "record", "replay"):
            raise ValueError(
                f"cassette_mode must be 'auto', 'record', or 'replay', got {self.cassette_mode!r}"
            )

    def replace(self, **overrides: Any) -> "JobSpec":
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe form (refuses non-serializable storage overrides)."""
        return {
            "good_topics": list(self.good_topics) if self.good_topics is not None else None,
            "seeds": list(self.seeds) if self.seeds is not None else None,
            "max_pages": self.max_pages,
            "focused": self.focused,
            "fetch_failure_seed": self.fetch_failure_seed,
            "checkpoint_dir": self.checkpoint_dir,
            "crawler": _crawler_to_dict(self.crawler) if self.crawler is not None else None,
            "storage": self.storage.to_dict() if self.storage is not None else None,
            "fetch_budget": self.fetch_budget,
            "cassette_path": self.cassette_path,
            "cassette_mode": self.cassette_mode,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown JobSpec fields {unknown}; expected {sorted(known)}")
        kwargs = dict(data)
        if kwargs.get("crawler") is not None:
            kwargs["crawler"] = _crawler_from_dict(kwargs["crawler"])
        if kwargs.get("storage") is not None:
            kwargs["storage"] = StorageConfig.from_dict(kwargs["storage"])
        return cls(**kwargs)
