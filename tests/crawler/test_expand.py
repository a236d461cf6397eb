"""A visited page's expansion against the per-link reference it replaced.

The engine used to expand a page in three calls per out-link:
``link_targets`` (normalise, hash and dedupe), ``link_row`` (a frontier
probe for the forward weight) and ``Frontier.add_many`` (a second probe:
a new entry or a priority raise).  That composition lives on here as the
oracle for :meth:`Frontier.expand`, which takes a page's raw out-links
and resolves, dedupes, probes and enqueues them in one pass.  Both are
driven over out-link lists nobody chose: raw spellings (host case, the
default port, duplicate slashes, a fragment), duplicates, self-links
under another spelling, pages hard focus rejects (``priority=None``),
and targets that are visited, in flight or dead.  After every
expansion the two frontiers must hold the same heap tuples, the same
changed and pending entries, and have handed out the same ``wgt_fwd``
column.
"""

import dataclasses
from typing import List, Sequence, Tuple
from urllib.parse import urlsplit

from hypothesis import given, settings, strategies as st
import pytest

from repro.core.config import FocusConfig
from repro.core.schema import create_focus_database
from repro.core.system import FocusSystem
from repro.crawler.engine import BufferedLinkWriter, CrawlerConfig, resolve_links
from repro.crawler.frontier import Frontier, FrontierEntry
from repro.crawler.policies import ORDERING_COLUMNS, ORDERINGS, CrawlOrdering
from repro.webgraph.graph import SyntheticWebBuilder
from repro.webgraph.urls import normalize_url, server_sid, url_oid

from conftest import GOOD_TOPIC, small_web_config
from handoff_records import link_columns, link_row


def link_targets(source_oid: int, out_links: Sequence[str]) -> List[Tuple[str, int, int]]:
    """The engine's resolver before :func:`resolve_url`: a page's distinct non-self out-links."""
    targets: List[Tuple[str, int, int]] = []
    seen: set[int] = set()
    for target in out_links:
        normalized = normalize_url(target)
        target_oid = url_oid(normalized)
        if target_oid in seen or target_oid == source_oid:
            continue
        seen.add(target_oid)
        targets.append((normalized, target_oid, server_sid(normalized)))
    return targets


def reference_expand(frontier, writer, source, relevance, out_links, priority):
    """The per-link composition: rows first, then the frontier pushes."""
    targets = link_targets(source.oid, out_links)
    rows = [link_row(frontier, source.oid, source.sid, *target, relevance) for target in targets]
    if priority is not None:
        frontier.add_many(targets, priority)
    columns = link_columns(rows)
    writer.add_columns(*columns)
    return columns[4]


def engine_expand(frontier, writer, source, relevance, out_links, priority):
    columns = frontier.expand(source.oid, relevance, out_links, priority)
    writer.add_page(source.oid, source.sid, relevance, columns)
    return columns[2]


def page_url(number: int) -> str:
    return f"http://h{number % 3}.example/p{number}"


#: The spellings an out-link may take; each normalises to ``page_url``.
SPELLINGS = (
    lambda n: page_url(n),
    lambda n: f"HTTP://H{n % 3}.Example:80/p{n}#f",
    lambda n: page_url(n) + "\t",
    lambda n: f"http://h{n % 3}.example//p{n}",
)

#: One round: how many URLs to check out, the visited page's relevance,
#: whether hard focus rejects it, its out-links as (page, spelling), and
#: what becomes of the second URL checked out (kept in flight, retried, dead).
steps_strategy = st.lists(
    st.tuples(
        st.integers(1, 3),
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, len(SPELLINGS) - 1)), max_size=10),
        st.sampled_from(["in_flight", "retry", "dead"]),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


class Side:
    """One crawl's frontier and LINK writer, expanding through *expand*."""

    def __init__(self, expand) -> None:
        self.database = create_focus_database(buffer_pool_pages=64)
        self.frontier = Frontier(self.database)
        self.writer = BufferedLinkWriter(self.database.table("LINK"))
        self.expand = expand
        self.checkouts: List[List[str]] = []
        #: After each expansion: its wgt_fwd column, the heap, the changed
        #: and the pending entries, and the next discovery number.
        self.states: List[tuple] = []

    def round(self, tick, k, relevance, rejected, links, second, flush) -> None:
        frontier = self.frontier
        urls = frontier.pop_batch(k)
        self.checkouts.append(urls)
        if not urls:
            return
        page = frontier.record_visit(urls[0], relevance, tick, kcid=tick)
        out_links = [SPELLINGS[spelling](number) for number, spelling in links]
        priority = None if rejected else relevance
        forward = self.expand(frontier, self.writer, page, relevance, out_links, priority)
        self.states.append((
            list(forward),
            list(frontier._heap),
            [dataclasses.astuple(entry) for entry in frontier._changed.values()],
            [dataclasses.astuple(entry) for entry in frontier._pending_new],
            frontier._next_discovered,
        ))
        self.writer.refresh(page.oid, relevance)
        if len(urls) > 1 and second != "in_flight":
            frontier.record_failure(urls[1], max_retries=1, permanent=second == "dead")
        if flush:
            frontier.flush_batch()
            self.writer.flush()

    def finish(self):
        frontier = self.frontier
        frontier.flush_batch()
        self.writer.flush()
        return (
            list(self.database.table("LINK").rows()),
            list(self.database.table("CRAWL").rows()),
            [dataclasses.astuple(frontier.entry(url)) for url in frontier.known_urls()],
        )


class TestExpandMatchesThePerLinkReference:
    @given(steps=steps_strategy)
    @settings(max_examples=60, deadline=None)
    def test_rows_entries_and_checkouts_match(self, steps):
        sides = [Side(reference_expand), Side(engine_expand)]
        for side in sides:
            for number in (0, 1):
                side.frontier.add_seed(page_url(number))
            for tick, step in enumerate(steps, start=1):
                side.round(tick, *step)
        reference, engine = sides
        assert engine.checkouts == reference.checkouts
        assert engine.states == reference.states
        # LINK rows in insert order; CRAWL rows and entries (discovered included).
        assert engine.finish() == reference.finish()
        assert engine.frontier.pop_batch(100) == reference.frontier.pop_batch(100)

    def test_raw_spellings_duplicates_and_self_links_resolve_once(self):
        side = Side(engine_expand)
        source = side.frontier.add_seed(page_url(4))
        side.frontier.pop_batch(1)
        side.frontier.record_visit(source.url, 0.5, 1)
        links = [SPELLINGS[1](4), SPELLINGS[2](5), page_url(5), SPELLINGS[3](6), SPELLINGS[2](4)]
        oids, sids, forward = side.frontier.expand(source.oid, 0.5, links, 0.5)
        assert oids == [url_oid(page_url(5)), url_oid(page_url(6))]
        assert sids == [server_sid(page_url(5)), server_sid(page_url(6))]
        assert forward == [0.5, 0.5]
        assert [entry.url for entry in side.frontier._pending_new] == [
            page_url(4), page_url(5), page_url(6),
        ]

    def test_resolve_links_matches_the_per_link_resolver(self):
        # The sharded workers still resolve a page's links on their own.
        source = page_url(4)
        links = [SPELLINGS[1](4), SPELLINGS[2](5), page_url(5), SPELLINGS[3](6), SPELLINGS[2](4)]
        targets = resolve_links(url_oid(source), links)
        assert targets == link_targets(url_oid(source), links)
        assert [normalized for normalized, _oid, _sid in targets] == [page_url(5), page_url(6)]
        # Every spelling is cached now; resolving again gives the same triples.
        assert resolve_links(url_oid(source), links) == targets

    def test_a_rejected_page_records_its_links_and_enqueues_none(self):
        side = Side(engine_expand)
        side.frontier.add_seed(page_url(0))
        side.round(1, 1, 0.5, True, [(1, 0), (2, 1)], "in_flight", False)
        links, crawl, _entries = side.finish()
        assert [(row[2], row[4]) for row in links] == [
            (url_oid(page_url(1)), 0.5), (url_oid(page_url(2)), 0.5),
        ]
        assert [row[1] for row in crawl] == [page_url(0)]


def raw_spelling(link: str) -> str:
    """*link* as a page might spell it: shouting scheme and host, the
    default port, a doubled slash and a fragment."""
    parts = urlsplit(link)
    return f"HTTP://{parts.netloc.upper()}:80/{parts.path}#top"


def crawl_digest(result) -> tuple:
    database = result.database
    return (
        list(result.trace.fetched_urls),
        [repr(value) for value in result.trace.relevance_series()],
        list(result.trace.failed_urls),
        {name: list(database.table(name).rows()) for name in ("CRAWL", "LINK", "HUBS", "AUTH")},
    )


class TestRawLinksCrawlTheSame:
    """The engine resolves every out-link itself, so a web whose pages spell
    their links un-normalised is crawled exactly as the normalised one."""

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_same_digest(self, batch_size):
        web = SyntheticWebBuilder(small_web_config()).build()
        config = FocusConfig(good_topics=(GOOD_TOPIC,), examples_per_leaf=12, seed_count=8)
        system = FocusSystem.from_web(web, [GOOD_TOPIC], config)
        system.train()
        seeds = system.default_seeds()
        crawl = CrawlerConfig(max_pages=150, distill_every=20, batch_size=batch_size)
        normalised = crawl_digest(system.crawl(seeds=seeds, crawler_config=crawl))
        for page in web.pages.values():
            raw_links = [raw_spelling(link) for link in page.out_links]
            assert [normalize_url(link) for link in raw_links] == page.out_links
            assert not set(raw_links) & set(page.out_links)
            page.out_links = raw_links
        raw = crawl_digest(system.crawl(seeds=seeds, crawler_config=crawl))
        assert raw == normalised and len(raw[0]) == 150


class TestCompiledEntryKey:
    """The compiled key of every ordering is ``sort_key`` of the entry's record."""

    @pytest.mark.parametrize("name", sorted(ORDERINGS))
    def test_matches_sort_key(self, name):
        ordering = ORDERINGS[name]
        entry_key = ordering.compile_entry_key()
        entries = [
            FrontierEntry("http://a.example/", 1, 2, relevance=0.375, numtries=2, discovered=9,
                          lastvisited=None, hub_score=0.5, authority_score=0.25),
            FrontierEntry("http://b.example/", 3, 4, relevance=0.0, numtries=0, discovered=0,
                          lastvisited=17, status="visited"),
        ]
        for entry in entries:
            for serverload in (0, 15, 16, 33):
                record = {**dataclasses.asdict(entry), "serverload": serverload}
                key = entry_key(entry, serverload)
                assert key == ordering.sort_key(record)
                assert list(map(type, key)) == list(map(type, ordering.sort_key(record)))

    def test_ordering_columns_are_the_numeric_entry_fields(self):
        fields = {field.name: field.type for field in dataclasses.fields(FrontierEntry)}
        numeric = {name for name, kind in fields.items() if "str" not in kind}
        # rid: where the row is stored; kcid: a class id, and None on every unvisited entry.
        assert ORDERING_COLUMNS == numeric - {"rid", "kcid"}

    @pytest.mark.parametrize(
        "keys,buckets",
        [
            ((("relevance or __import__('os')", False),), ()),
            ((("numtries", True),), (("serverload) or (0", 16),)),
            ((("url", True),), ()),
            (((["relevance"], True),), ()),
        ],
        ids=["expression-key", "expression-bucket", "text-column", "not-a-name"],
    )
    def test_anything_but_an_ordering_column_is_refused(self, keys, buckets):
        with pytest.raises(ValueError, match="unknown ordering column"):
            CrawlOrdering("hostile", keys, buckets)
