"""Top-level configuration for the Focus system: FocusConfig and JobSpec."""

from __future__ import annotations

import dataclasses
from dataclasses import InitVar, dataclass, field
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
        return dataclasses.replace(self, **overrides)


def _crawler_to_dict(config: CrawlerConfig) -> dict[str, Any]:
    """Plain-data form of a CrawlerConfig (JSON-safe for HTTP job specs).

    ``asdict`` renders an ordering as its name, keys and buckets; JSON
    writes their pairs as arrays, which :func:`_crawler_from_dict` reads.
    """
    data = dataclasses.asdict(config)
    data["storage"] = config.storage.to_dict() if config.storage is not None else None
    return data


def _crawler_from_dict(data: Mapping[str, Any]) -> CrawlerConfig:
    kwargs = dict(data)
    ordering = kwargs.get("ordering")
    if ordering is not None:
        try:
            kwargs["ordering"] = CrawlOrdering(
                name=ordering["name"],
                keys=tuple((column, bool(asc)) for column, asc in ordering["keys"]),
                buckets=tuple(
                    (column, int(size)) for column, size in ordering.get("buckets", [])
                ),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            missing = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ValueError(f"bad crawler.ordering {ordering!r}: {missing}") from exc
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
    budgets and crawler behaviour (its storage policy and fetch cassette
    included) — in a single object that round-trips through JSON
    (:meth:`to_dict` / :meth:`from_dict`), so jobs can be submitted over
    the HTTP API, queued, and logged.  ``None`` fields defer to the
    owning system's configuration; :meth:`FocusSystem.start` settles
    them, and a durable crawl's checkpoint holds the settled spec.
    """

    #: Good topics of this job; None uses the system's configured topics.
    good_topics: Optional[Tuple[str, ...]] = None
    #: Seed URLs; None uses the system's simulated keyword-search seeds.
    seeds: Optional[Tuple[str, ...]] = None
    #: Page budget; None uses ``CrawlerConfig.max_pages``.
    max_pages: Optional[int] = None
    #: Focused (classifier-guided) or the unfocused baseline, which crawls
    #: with ``focus_mode="none"`` and ``distill_every=0``.
    focused: bool = True
    #: Seed of the job's transient-failure/latency streams.
    fetch_failure_seed: int = 0
    #: Durable checkpoint directory; None keeps the crawl in memory.
    checkpoint_dir: Optional[str] = None
    #: Crawler behaviour; None copies the system's configured crawler.
    crawler: Optional[CrawlerConfig] = None
    #: Cap on total fetch attempts (politeness/cost budget; 0 = unlimited).
    #: Checked at round boundaries by the job manager, so a job that
    #: burns its fetch budget on failures stops even though its page
    #: budget is unmet.
    fetch_budget: int = 0
    #: Optional display name (shows up in service listings).
    name: str = ""
    #: Accepted and folded into ``crawler``, the one home of the cassette
    #: settings: not fields of the spec.  Kept only because
    #: ``benchmarks/suite`` passes them; ROADMAP item 1A unbinds the suite
    #: from them, and then they go.
    cassette_path: InitVar[str] = ""
    cassette_mode: InitVar[str] = "auto"

    def __post_init__(self, cassette_path: str, cassette_mode: str) -> None:
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
        if cassette_path:
            crawler = dataclasses.replace(
                self.crawler, cassette_path=cassette_path, cassette_mode=cassette_mode
            )
            object.__setattr__(self, "crawler", crawler)

    def replace(self, **overrides: Any) -> "JobSpec":
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe form (refuses non-serializable storage overrides)."""
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        for name in ("good_topics", "seeds"):
            if data[name] is not None:
                data[name] = list(data[name])
        if self.crawler is not None:
            data["crawler"] = _crawler_to_dict(self.crawler)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown JobSpec fields {unknown}; expected {sorted(known)}")
        kwargs = dict(data)
        if kwargs.get("crawler") is not None:
            kwargs["crawler"] = _crawler_from_dict(kwargs["crawler"])
        return cls(**kwargs)
