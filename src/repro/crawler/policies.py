"""Crawl orderings: how the frontier decides what to fetch next (paper §3.2).

The paper stresses that the ordering is just data: "New work is checked
out from the CRAWL table in the order (numtries ascending, relevance
descending, serverload ascending)" in aggressive discovery mode, and
other lexicographic orderings serve crawl maintenance — changing policy
is a one-line change, not a code rewrite.  A :class:`CrawlOrdering` is a
list of ``(column, ascending)`` pairs evaluated against the frontier
record for a URL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

#: The numeric ``FrontierEntry`` fields but ``rid`` and ``kcid`` (a class id, unset on
#: every frontier entry): the only columns an ordering may name.
ORDERING_COLUMNS = frozenset(
    "oid sid relevance numtries serverload discovered lastvisited hub_score authority_score".split()
)


@dataclass(frozen=True)
class CrawlOrdering:
    """A lexicographic ordering over CRAWL columns (smaller keys pop first).

    ``buckets`` optionally coarsens a column before comparison (integer
    division by the bucket size).  The paper describes ``serverload`` as "a
    crude and lazily updated estimate" whose only job is to stop the
    crawler "going depth-first into one or a few sites"; bucketing keeps it
    a politeness back-stop instead of a dominant signal, which matters at
    simulation scale where topic communities span far fewer servers than on
    the real web (see DESIGN.md).
    """

    name: str
    keys: tuple[tuple[str, bool], ...]
    buckets: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        # compile_entry_key writes the column names into source: only these get there.
        for column, _ in (*self.keys, *self.buckets):
            if not (isinstance(column, str) and column in ORDERING_COLUMNS):
                known = sorted(ORDERING_COLUMNS)
                raise ValueError(f"unknown ordering column {column!r}; available: {known}")

    def sort_key(self, record: Mapping[str, Any]) -> tuple:
        """Build the comparable key for one frontier record.

        Missing/None values sort as zero.  Descending columns are negated,
        which is valid because every ordering column is numeric.
        """
        bucket_map = dict(self.buckets)
        parts = []
        for column, ascending in self.keys:
            value = record.get(column)
            if value is None:
                value = 0
            bucket = bucket_map.get(column)
            if bucket:
                value = int(value) // bucket
            parts.append(value if ascending else -value)
        return tuple(parts)

    def columns(self) -> list[str]:
        return [column for column, _ in self.keys]

    def compile_entry_key(self):
        """A fast key function over :class:`~repro.crawler.frontier.FrontierEntry`.

        Equivalent to ``sort_key(record)`` on the entry's record form, but
        compiled once per ordering into a single tuple expression (no
        per-column loop, no record dict per heap push).  ``serverload``
        is passed in by the caller (it is the lazily shared per-server
        counter, not the entry's possibly stale copy).
        """
        bucket_map = dict(self.buckets)
        parts = []
        for column, ascending in self.keys:
            value = "serverload" if column == "serverload" else f"entry.{column}"
            value = f"(0 if {value} is None else {value})"
            if bucket_map.get(column):
                value = f"int({value}) // {int(bucket_map[column])}"
            parts.append((value if ascending else f"-({value})") + ", ")
        namespace: dict = {}
        exec(f"def entry_key(entry, serverload):\n    return ({''.join(parts)})", namespace)
        return namespace["entry_key"]


@dataclass(frozen=True)
class FetchPolicy:
    """Concurrency policy of a drained round's fetches (how hard to hit the network).

    The crawl *ordering* decides what to fetch next; the fetch policy
    decides how many of those fetches may be in flight at once, globally
    and per server.  The per-server cap is the async-era form of the
    paper's ``serverload`` politeness concern: with dozens of fetches
    outstanding, a popular host would otherwise absorb the whole window.
    Zero means "no explicit limit" for both knobs.
    """

    max_inflight: int = 0
    per_server_inflight: int = 0

    def __post_init__(self) -> None:
        if self.max_inflight < 0 or self.per_server_inflight < 0:
            raise ValueError("inflight limits must be >= 0 (0 = unlimited)")

    def effective_inflight(self, round_size: int) -> int:
        """The global in-flight window for a round of *round_size* URLs."""
        if self.max_inflight <= 0:
            return max(1, round_size)
        return max(1, min(self.max_inflight, round_size))


def aggressive_discovery(serverload_bucket: int = 16) -> CrawlOrdering:
    """The paper's default: seek out new resources as fast as possible.

    Checkout order is (numtries ascending, relevance descending,
    serverload ascending); ``serverload_bucket`` coarsens the politeness
    column (pass 1 for the strict lexicographic form).
    """
    return CrawlOrdering(
        name="aggressive_discovery",
        keys=(("numtries", True), ("relevance", False), ("serverload", True)),
        buckets=(("serverload", serverload_bucket),) if serverload_bucket > 1 else (),
    )


def relevance_only() -> CrawlOrdering:
    """Ablation: ignore numtries/serverload, order purely by relevance."""
    return CrawlOrdering(name="relevance_only", keys=(("relevance", False),))


def breadth_first() -> CrawlOrdering:
    """The unfocused baseline: first-come, first-served (by discovery order)."""
    return CrawlOrdering(name="breadth_first", keys=(("discovered", True),))


def crawl_maintenance() -> CrawlOrdering:
    """Revisit ordering suggested in §3.2: stalest pages with the best hubs first."""
    return CrawlOrdering(
        name="crawl_maintenance",
        keys=(("lastvisited", True), ("hub_score", False)),
    )


def recovery_ordering() -> CrawlOrdering:
    """The other §3.2 maintenance ordering: retry often-failed, high-authority pages."""
    return CrawlOrdering(
        name="recovery",
        keys=(("numtries", False), ("authority_score", False), ("relevance", False)),
    )


#: Registry used by configuration files / CLI arguments.
ORDERINGS: dict[str, CrawlOrdering] = {
    ordering().name: ordering()
    for ordering in (
        aggressive_discovery,
        relevance_only,
        breadth_first,
        crawl_maintenance,
        recovery_ordering,
    )
}


def ordering_by_name(name: str) -> CrawlOrdering:
    try:
        return ORDERINGS[name]
    except KeyError:
        raise KeyError(
            f"unknown crawl ordering {name!r}; available: {sorted(ORDERINGS)}"
        ) from None
