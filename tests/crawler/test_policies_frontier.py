"""Tests for crawl orderings and the CRAWL-table-backed frontier."""

import dataclasses
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.schema import create_focus_database
from repro.crawler.frontier import Frontier
from repro.crawler.policies import (
    ORDERINGS,
    FetchPolicy,
    aggressive_discovery,
    breadth_first,
    crawl_maintenance,
    ordering_by_name,
    recovery_ordering,
    relevance_only,
)


class TestFetchPolicy:
    def test_zero_means_round_size(self):
        policy = FetchPolicy()
        assert policy.effective_inflight(16) == 16
        assert policy.effective_inflight(1) == 1

    def test_cap_is_clamped_to_round_size(self):
        policy = FetchPolicy(max_inflight=8)
        assert policy.effective_inflight(32) == 8
        assert policy.effective_inflight(4) == 4

    def test_window_is_at_least_one(self):
        assert FetchPolicy(max_inflight=3).effective_inflight(0) == 1

    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            FetchPolicy(max_inflight=-1)
        with pytest.raises(ValueError):
            FetchPolicy(per_server_inflight=-2)


class TestOrderings:
    def test_aggressive_discovery_key_order(self):
        ordering = aggressive_discovery(serverload_bucket=1)
        fresh_relevant = {"numtries": 0, "relevance": 0.9, "serverload": 3}
        fresh_irrelevant = {"numtries": 0, "relevance": 0.1, "serverload": 0}
        retried = {"numtries": 2, "relevance": 1.0, "serverload": 0}
        assert ordering.sort_key(fresh_relevant) < ordering.sort_key(fresh_irrelevant)
        assert ordering.sort_key(fresh_relevant) < ordering.sort_key(retried)

    def test_serverload_bucketing(self):
        ordering = aggressive_discovery(serverload_bucket=16)
        lightly_loaded = {"numtries": 0, "relevance": 0.9, "serverload": 3}
        moderately_loaded = {"numtries": 0, "relevance": 0.9, "serverload": 12}
        heavily_loaded = {"numtries": 0, "relevance": 0.9, "serverload": 40}
        assert ordering.sort_key(lightly_loaded) == ordering.sort_key(moderately_loaded)
        assert ordering.sort_key(lightly_loaded) < ordering.sort_key(heavily_loaded)

    def test_missing_values_sort_as_zero(self):
        ordering = relevance_only()
        assert ordering.sort_key({}) == (0,)

    def test_breadth_first_uses_discovery_order(self):
        ordering = breadth_first()
        assert ordering.sort_key({"discovered": 4}) < ordering.sort_key({"discovered": 9})

    def test_registry_and_lookup(self):
        assert "aggressive_discovery" in ORDERINGS
        assert ordering_by_name("breadth_first").name == "breadth_first"
        with pytest.raises(KeyError):
            ordering_by_name("nope")
        assert crawl_maintenance().columns() == ["lastvisited", "hub_score"]
        assert recovery_ordering().columns()[0] == "numtries"


class TestFrontier:
    def make_frontier(self, ordering=None):
        database = create_focus_database(buffer_pool_pages=64)
        return Frontier(database, ordering or aggressive_discovery()), database

    def test_add_seed_and_pop(self):
        frontier, db = self.make_frontier()
        frontier.add_seed("http://a.example/1")
        frontier.add_url("http://a.example/2", relevance=0.4)
        assert len(frontier) == 2
        assert frontier.pop_next() == "http://a.example/1"
        assert frontier.pop_next() == "http://a.example/2"
        assert frontier.pop_next() is None

    def test_crawl_table_mirrors_frontier(self):
        frontier, db = self.make_frontier()
        frontier.add_url("http://a.example/x", relevance=0.7)
        frontier.flush_batch()
        rows = db.sql("select url, relevance, status from CRAWL")
        assert rows == [{"url": "http://a.example/x", "relevance": 0.7, "status": "frontier"}]

    def test_duplicate_url_keeps_best_priority(self):
        frontier, _ = self.make_frontier()
        frontier.add_url("http://a.example/x", relevance=0.2)
        frontier.add_url("http://A.example/x", relevance=0.9)  # same page, higher priority
        assert len(frontier) == 1
        assert frontier.entry("http://a.example/x").relevance == 0.9

    def test_record_visit_updates_table_and_serverload(self):
        frontier, db = self.make_frontier()
        frontier.add_seed("http://s.example/1")
        frontier.add_url("http://s.example/2", relevance=0.5)
        url = frontier.pop_next()
        frontier.record_visit(url, relevance=0.8, tick=1, kcid=42)
        frontier.flush_batch()
        row = db.sql("select status, relevance, kcid, numtries from CRAWL where url = :u", {"u": url})[0]
        assert row == {"status": "visited", "relevance": 0.8, "kcid": 42, "numtries": 1}
        # second page on the same server sees the increased server load
        entry = frontier.entry("http://s.example/2")
        assert frontier._server_load[entry.sid] == 1

    def test_a_page_added_and_visited_in_one_round_keeps_its_kcid(self):
        """A new entry's buffered changes are folded into the row its flush
        inserts: the visit's kcid is known only there."""
        frontier, db = self.make_frontier()
        frontier.add_url("http://s.example/1", relevance=0.5)
        [url] = frontier.pop_batch(1)
        frontier.record_visit(url, relevance=0.8, tick=1, kcid=42)
        frontier.flush_batch()
        rows = db.sql("select url, status, relevance, kcid, numtries, lastvisited from CRAWL")
        assert rows == [
            {"url": url, "status": "visited", "relevance": 0.8, "kcid": 42, "numtries": 1,
             "lastvisited": 1},
        ]

    def test_record_failure_retries_then_gives_up(self):
        frontier, db = self.make_frontier()
        frontier.add_seed("http://s.example/1")
        url = frontier.pop_next()
        frontier.record_failure(url, max_retries=1)
        assert frontier.pop_next() == url  # retried once
        frontier.record_failure(url, max_retries=1)
        assert frontier.pop_next() is None
        frontier.flush_batch()
        assert db.sql("select status from CRAWL")[0]["status"] == "dead"

    def test_permanent_failure_kills_immediately(self):
        frontier, _ = self.make_frontier()
        frontier.add_seed("http://s.example/1")
        url = frontier.pop_next()
        frontier.record_failure(url, max_retries=5, permanent=True)
        assert frontier.pop_next() is None

    def test_boost_raises_priority_of_unvisited_only(self):
        frontier, _ = self.make_frontier()
        frontier.add_url("http://a.example/1", relevance=0.1)
        frontier.add_url("http://a.example/2", relevance=0.5)
        frontier.boost("http://a.example/1", relevance=0.9)
        assert frontier.pop_next() == "http://a.example/1"
        # boosting a visited page is a no-op
        frontier.record_visit("http://a.example/1", relevance=0.9, tick=1)
        frontier.boost("http://a.example/1", relevance=1.0)
        assert frontier.entry("http://a.example/1").status == "visited"

    def test_requeue_after_pop(self):
        frontier, _ = self.make_frontier()
        frontier.add_seed("http://a.example/1")
        url = frontier.pop_next()
        frontier.requeue(url)
        assert frontier.pop_next() == url

    def test_priority_change_reorders_frontier(self):
        frontier, _ = self.make_frontier(relevance_only())
        frontier.add_url("http://a.example/low", relevance=0.2)
        frontier.add_url("http://a.example/high", relevance=0.6)
        frontier.add_url("http://a.example/low", relevance=0.95)
        assert frontier.pop_next() == "http://a.example/low"

    def test_set_ordering_rebuilds_heap(self):
        frontier, _ = self.make_frontier(relevance_only())
        frontier.add_url("http://a.example/1", relevance=0.9)
        frontier.add_url("http://b.example/2", relevance=0.1)
        frontier.set_ordering(breadth_first())
        assert frontier.pop_next() == "http://a.example/1"

    def test_update_scores_for_maintenance_orderings(self):
        frontier, _ = self.make_frontier(crawl_maintenance())
        frontier.add_url("http://a.example/1", relevance=0.5)
        frontier.update_scores("http://a.example/1", hub_score=0.9, authority_score=0.1)
        assert frontier.entry("http://a.example/1").hub_score == 0.9


def rebuilt_from_table(frontier):
    """A fresh frontier over *frontier*'s database, rebuilt as a resume rebuilds it."""
    twin = Frontier(frontier.database, frontier.ordering)
    twin.restore_from_table(pickle.loads(pickle.dumps(frontier.attached_scores())))
    return twin


def assert_same_frontier(twin, frontier):
    """Every entry field for field (``rid`` and ``discovered`` included), the
    server loads and the discovery watermark."""
    assert twin.known_urls() == frontier.known_urls()
    for url in frontier.known_urls():
        assert dataclasses.astuple(twin.entry(url)) == dataclasses.astuple(frontier.entry(url)), url
    assert twin._server_load == frontier._server_load
    assert twin._next_discovered == frontier._next_discovered
    assert len(twin) == len(frontier)


class TestRestoreFromTable:
    """A resumed frontier is rebuilt from CRAWL plus the attached scores alone."""

    def make_frontier(self):
        database = create_focus_database(buffer_pool_pages=64)
        return Frontier(database, aggressive_discovery())

    @staticmethod
    def url(n):
        return f"http://s{n % 3}.example/{n}"

    def drive(self, frontier, first, count):
        """One round: visit a page, expand it, fail another, flush."""
        urls = frontier.pop_batch(2)
        frontier.record_visit(urls[0], relevance=0.6, tick=first, kcid=3)
        frontier.add_many(
            [(self.url(n), 1000 + n, 7 + n % 3) for n in range(first, first + count)],
            0.6,
        )
        if len(urls) > 1:
            frontier.record_failure(urls[1], max_retries=2)
        frontier.flush_batch()

    def test_rounds_boosts_and_scores_rebuild_to_the_live_frontier(self):
        frontier = self.make_frontier()
        for n in range(4):
            frontier.add_seed(f"http://seed.example/{n}")
        for interval in range(3):
            self.drive(frontier, first=10 * interval, count=5)
            # Mutations between rounds, flushed before the table is read.
            frontier.boost(self.url(10 * interval + 1), relevance=0.9)
            frontier.update_scores(self.url(10 * interval + 2), hub_score=0.5)
            assert frontier.entry(self.url(10 * interval + 1)).relevance == 0.9
            frontier.flush_batch()
            assert_same_frontier(rebuilt_from_table(frontier), frontier)
        frontier.update_scores(self.url(2), hub_score=0.0)  # detached again
        assert set(frontier.attached_scores()) == {
            frontier.entry(self.url(n)).oid for n in (12, 22)
        }
        twin = rebuilt_from_table(frontier)
        assert_same_frontier(twin, frontier)
        assert not hasattr(twin.entry(self.url(1)), "__dict__")  # slots
        assert twin.pop_batch(100) == frontier.pop_batch(100)

    @pytest.mark.parametrize("name", sorted(ORDERINGS))
    @given(start=st.lists(st.floats(0, 1, allow_nan=False), max_size=12), ops=st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.integers(0, 15), st.floats(0, 1, allow_nan=False)),
            st.tuples(st.just("boost"), st.integers(0, 15), st.floats(0, 1, allow_nan=False)),
            st.tuples(st.just("scores"), st.integers(0, 15),
                      st.sampled_from([0.0, 0.25, 1.0]), st.sampled_from([0.0, 0.5])),
            st.tuples(st.just("pop"), st.integers(1, 4)),
            st.tuples(st.just("visit"), st.floats(0, 1, allow_nan=False), st.integers(1, 50)),
            st.tuples(st.just("fail"), st.integers(0, 2)),
            st.tuples(st.just("flush")),
            st.tuples(st.just("save")),
        ),
        max_size=40,
    ))
    # Scores attached and then zeroed, a failure and a visit between two
    # flushes, and a save between them.
    @example(start=[0.5, 0.0, 0.25], ops=[
        ("scores", 1, 1.0, 0.5), ("flush",), ("fail", 2), ("visit", 0.75, 3),
        ("add", 9, 0.5), ("save",), ("scores", 1, 0.0, 0.0), ("pop", 2), ("save",),
    ])
    @settings(max_examples=40, deadline=None)
    def test_histories_rebuild_to_the_live_frontier(self, name, start, ops):
        """At every round boundary — no entry in flight, no write buffered —
        the frontier rebuilt from CRAWL and the attached scores equals the
        live one, and checks out in the same order."""
        frontier = Frontier(create_focus_database(buffer_pool_pages=64), ORDERINGS[name])
        for n, relevance in enumerate(start):
            frontier.add_url(TestCheckoutOrder.url(n), relevance=relevance)
        in_flight = []

        def round_boundary():
            for url in in_flight:
                frontier.requeue(url)
            in_flight.clear()
            frontier.flush_batch()

        for op in ops:
            if op[0] == "flush":
                frontier.flush_batch()
            elif op[0] == "save":
                round_boundary()
                assert_same_frontier(rebuilt_from_table(frontier), frontier)
            else:
                checked_out = TestCheckoutOrder.apply(frontier, op)
                if op[0] == "pop":
                    in_flight.extend(checked_out)
        round_boundary()
        twin = rebuilt_from_table(frontier)
        assert_same_frontier(twin, frontier)
        assert twin.pop_batch(10_000) == frontier.pop_batch(10_000)


class TestHeapHygiene:
    """The lazily-invalidated heap must not grow O(total priority churn).

    Every boost pushes a fresh tuple and strands the old one; without
    compaction a distillation-heavy crawl scans (and re-pops) an
    ever-growing graveyard.  The counters under test are the contract:
    heap size stays within 2x the live frontier after a compaction pass,
    and pop_batch's work is O(k + dead-since-last-compaction), not
    O(boost history).
    """

    def make_frontier(self, ordering=None):
        database = create_focus_database(buffer_pool_pages=64)
        return Frontier(database, ordering or relevance_only()), database

    def churn(self, frontier, urls, rounds):
        """A boost-heavy workload: every URL re-prioritised every round."""
        for round_no in range(rounds):
            for i, url in enumerate(urls):
                # Strictly increasing priorities so every boost re-pushes.
                frontier.boost(url, 0.001 * (round_no * len(urls) + i))

    def test_boost_churn_triggers_compaction(self):
        frontier, _ = self.make_frontier()
        urls = [f"http://h{i}.example/p" for i in range(100)]
        for url in urls:
            frontier.add_url(url, relevance=0.0)
        self.churn(frontier, urls, rounds=10)
        frontier.pop_batch(1)  # compaction runs at checkout time
        stats = frontier.heap_stats()
        assert stats["compactions"] >= 1
        assert stats["heap_size"] <= 2 * stats["frontier_size"] + 1

    def test_pop_batch_work_is_bounded(self):
        """The micro-bench assertion, counter-based: checking out the whole
        frontier after heavy churn scans a bounded number of tuples, far
        fewer than the dead-tuple history an uncompacted heap would walk."""
        frontier, _ = self.make_frontier()
        urls = [f"http://h{i}.example/p" for i in range(200)]
        for url in urls:
            frontier.add_url(url, relevance=0.0)
        self.churn(frontier, urls, rounds=20)  # ~4000 stranded tuples
        before = frontier.heap_stats()["tuples_scanned"]
        popped = frontier.pop_batch(len(urls))
        scanned = frontier.heap_stats()["tuples_scanned"] - before
        assert len(popped) == len(urls)
        # O(k + dead-since-compaction): well under the ~4200 tuples pushed.
        assert scanned <= 3 * len(urls)

    def test_compaction_preserves_checkout_order(self):
        frontier, _ = self.make_frontier()
        for i in range(100):
            frontier.add_url(f"http://h{i}.example/p", relevance=i / 100.0)
        expected = [f"http://h{i}.example/p" for i in reversed(range(100))]
        self.churn(frontier, [], rounds=0)
        # Strand tuples, then force a rebuild and drain fully.
        for i in range(100):
            frontier.boost(f"http://h{i}.example/p", relevance=(i + 200) / 1000.0)
        frontier._rebuild_heap()
        drained = frontier.pop_batch(100)
        by_priority = sorted(
            range(100), key=lambda i: ((i + 200) / 1000.0, ), reverse=True
        )
        assert drained == [f"http://h{i}.example/p" for i in by_priority]

    def test_small_heaps_never_compact(self):
        frontier, _ = self.make_frontier()
        urls = [f"http://h{i}.example/p" for i in range(8)]
        for url in urls:
            frontier.add_url(url, relevance=0.0)
        self.churn(frontier, urls, rounds=3)
        frontier.pop_batch(1)
        assert frontier.heap_stats()["compactions"] == 0


class TestCheckoutOrder:
    """Checkout order is its definition: ``(ordering.sort_key(record), oid)``.

    Randomised operation histories drive a frontier under every
    registered ordering.  Every checkout must return the live frontier
    entries in the order the ordering itself defines over their records,
    with ``serverload`` read from the shared per-server load (the lazily
    updated value a stale heap tuple may predate) and ties broken by oid.
    """

    @staticmethod
    def url(n):
        return f"http://s{n % 4}.example/p{n}"

    @staticmethod
    def defined_order(frontier):
        """The live frontier's URLs, sorted by the ordering's own definition."""
        ordering, server_load = frontier.ordering, frontier._server_load
        live = [frontier.entry(url) for url in frontier.known_urls()]
        live = [entry for entry in live if entry.status == "frontier"]

        def record(entry):
            return {
                "numtries": entry.numtries,
                "relevance": entry.relevance,
                "serverload": server_load.get(entry.sid, 0),
                "discovered": entry.discovered,
                "lastvisited": entry.lastvisited,
                "hub_score": entry.hub_score,
                "authority_score": entry.authority_score,
            }

        live.sort(key=lambda entry: (ordering.sort_key(record(entry)), entry.oid))
        return [entry.url for entry in live]

    @classmethod
    def apply(cls, frontier, op):
        """Apply one operation; return the URLs it checked out, in order."""
        kind = op[0]
        if kind == "add":
            frontier.add_url(cls.url(op[1]), relevance=op[2])
            return []
        if kind == "boost":
            frontier.boost(cls.url(op[1]), relevance=op[2])
            return []
        if kind == "scores":
            frontier.update_scores(cls.url(op[1]), hub_score=op[2], authority_score=op[3])
            return []
        if kind == "pop":
            return frontier.pop_batch(op[1])
        url = frontier.pop_next()
        if url is None:
            return []
        if kind == "visit":
            frontier.record_visit(url, relevance=op[1], tick=op[2])
        elif kind == "fail":
            frontier.record_failure(url, max_retries=op[1])
        else:
            raise AssertionError(op)
        return [url]

    @pytest.mark.parametrize("name", sorted(ORDERINGS))
    @given(start=st.lists(st.floats(0, 1, allow_nan=False), max_size=16), ops=st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.integers(0, 15), st.floats(0, 1, allow_nan=False)),
            st.tuples(st.just("boost"), st.integers(0, 15), st.floats(0, 1, allow_nan=False)),
            st.tuples(st.just("scores"), st.integers(0, 15),
                      st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
            st.tuples(st.just("pop"), st.integers(1, 4)),
            st.tuples(st.just("visit"), st.floats(0, 1, allow_nan=False), st.integers(1, 50)),
            st.tuples(st.just("fail"), st.integers(0, 2)),
        ),
        max_size=40,
    ))
    # A boosted entry that fails, then a score raised and lowered: each
    # leaves a stale tuple keyed better than its entry is now, where the
    # orderings over numtries, hub_score and authority_score can see it.
    @example(start=[0.0, 0.0, 0.0, 0.5], ops=[
        ("boost", 3, 0.9), ("fail", 2), ("pop", 1),
        ("scores", 1, 1.0, 1.0), ("scores", 2, 0.5, 0.5), ("scores", 1, 0.0, 0.0), ("pop", 1),
    ])
    @settings(max_examples=40, deadline=None)
    def test_histories_check_out_in_defined_order(self, name, start, ops):
        frontier = Frontier(create_focus_database(buffer_pool_pages=64), ORDERINGS[name])
        # A populated start, so that checkouts choose among many entries.
        for n, relevance in enumerate(start):
            frontier.add_url(self.url(n), relevance=relevance)
        for op in ops:
            expected = self.defined_order(frontier)
            checkout = op[1] if op[0] == "pop" else int(op[0] in ("visit", "fail"))
            assert self.apply(frontier, op) == expected[:checkout], op
        expected = self.defined_order(frontier)
        assert frontier.pop_batch(10_000) == expected
        assert len(frontier) == 0

    @given(
        relevances=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=30),
        k=st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_requeued_checkout_pops_again_in_order(self, relevances, k):
        """pop_batch(k) then requeue of each URL leaves the frontier as it
        was: the next pop_batch(k) checks out the same URLs in order."""
        database = create_focus_database(buffer_pool_pages=64)
        frontier = Frontier(database, relevance_only())
        for i, relevance in enumerate(relevances):
            frontier.add_url(f"http://s{i % 3}.example/p{i}", relevance=relevance)
        size = len(frontier)
        checkout = frontier.pop_batch(k)
        for url in checkout:
            frontier.requeue(url)
        assert len(frontier) == size
        assert frontier.pop_batch(k) == checkout
