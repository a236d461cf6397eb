"""Columns ≡ records: the column-batch round against the record route it replaced.

Random rounds — pages × out-links over N ∈ {1, 2, 3, 4} shards, failed
fetches, pages with no links, hard-focus pages whose links are recorded
but not enqueued, the same target cited by several pages and from
several source shards, targets visited in an earlier round — go down
both routes:

* the *column* route is the code under test: ``ShardedEngine._commit``
  and ``_fold_edges`` on the coordinator's side (the merged graph's
  edges and node order), ``ShardWorker.apply_round`` on each
  destination's, over a real frontier and real CRAWL/LINK tables;
* the *record* route is ``handoff_records.py``: one ``HandoffRecord`` per
  link, per-``(src, dst)`` queues, a sort on receipt, a record-at-a-time
  apply.

Per destination both must leave the same CRAWL rows, LINK rows (incl.
``wgt_fwd``) in the same heap order, the same frontier entries
(discovery numbers, priorities, the lazily-snapshotted ``serverload``)
and the same next checkout — under every order the record queues are
delivered in and every order the destinations are serviced in.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import seed as seed_hypothesis
from hypothesis import strategies as st

from handoff_records import HandoffRecord, Page, RecordCoordinator, apply_records, merge_handoffs
from repro.core.schema import create_focus_database
from repro.crawler.engine import BufferedLinkWriter, CrawlerConfig, CrawlTrace
from repro.crawler.frontier import Frontier
from repro.crawler.handoff import ApplyRound, FinishRound, HandoffOrderError, OutcomeBatch
from repro.crawler.sharded import ShardedEngine, ShardWorker

SEEDS = [int(seed) for seed in os.environ.get("REPRO_TORTURE_SEEDS", "0").split(",")]

#: Six hosts whose sids spread over every residue of 2, 3 and 4; five pages each.
HOSTS = [(f"h{host}.example.org", 7 * host + 3) for host in range(6)]
UNIVERSE = [
    (f"http://{name}/{page}.html", 100 * host + page + 1, sid)
    for host, (name, sid) in enumerate(HOSTS)
    for page in range(5)
]
SEED_PAGES = [target for target in UNIVERSE if target[0].endswith("/0.html")]
CONFIG = CrawlerConfig(focus_mode="hard", distill_every=0)


def bare_worker(shard: int, shards: int) -> ShardWorker:
    """A ShardWorker with only what ``apply_round`` touches: frontier, tables, config."""
    worker = ShardWorker.__new__(ShardWorker)
    worker.shard, worker.shards, worker.config = shard, shards, CONFIG
    worker.database = create_focus_database(buffer_pool_pages=64)
    worker.frontier = Frontier(worker.database)
    worker._link_writer = BufferedLinkWriter(worker.database.table("LINK"))
    worker.timings = {"write": 0.0}
    return worker


def shard_state(frontier: Frontier, database):
    state = (
        [tuple(row) for row in database.table("CRAWL").rows()],
        [tuple(row) for row in database.table("LINK").rows()],
        [
            (e.url, e.oid, e.sid, e.relevance, e.numtries, e.serverload,
             e.discovered, e.lastvisited, e.status)
            for e in frontier._entries.values()
        ],
        frontier.pop_batch(64),
    )
    # The checkout order is the probe; the next round draws from the frontier.
    for url in state[-1]:
        frontier.requeue(url)
    return state


def draw_round(data, candidates, first_pos=0):
    """A round's pages in checkout order, drawn from the checked-out *candidates*."""
    chosen = data.draw(
        st.lists(st.sampled_from(candidates), min_size=1, max_size=5, unique=True), label="pages"
    )
    pages = []
    for pos, (url, oid, sid) in enumerate(chosen, first_pos):
        failure = data.draw(st.sampled_from([None, None, None, False, True]), label="failure")
        if failure is not None:
            pages.append(Page(pos, url, oid, sid, failure=failure))
            continue
        others = [target for target in UNIVERSE if target[1] != oid]
        pages.append(
            Page(
                pos, url, oid, sid,
                relevance=data.draw(st.floats(0.0, 1.0), label="relevance"),
                best_leaf=data.draw(st.sampled_from([None, 4, 9]), label="leaf"),
                hard_accepts=data.draw(st.booleans(), label="hard_accepts"),
                targets=data.draw(
                    st.lists(st.sampled_from(others), max_size=5, unique=True), label="targets"
                ),
            )
        )
    return pages


def check_rounds(data) -> None:
    shards = data.draw(st.sampled_from([1, 2, 3, 4]), label="shards")
    # The column route: the real coordinator and one bare worker per shard.
    engine = ShardedEngine(None, CONFIG, CrawlTrace(), shards=shards)
    workers = [bare_worker(shard, shards) for shard in range(shards)]
    # The record route: the oracle's coordinator, a frontier + LINK writer per shard.
    oracle = RecordCoordinator(shards, CONFIG.focus_mode)
    stores = [create_focus_database(buffer_pool_pages=64) for _ in range(shards)]
    frontiers = [Frontier(store) for store in stores]
    writers = [BufferedLinkWriter(store.table("LINK")) for store in stores]
    for number, (url, oid, sid) in enumerate(SEED_PAGES):
        for owner in (workers[sid % shards].frontier, frontiers[sid % shards]):
            owner.add_many_discovered([(url, oid, sid, number)], 1.0)
    engine._next_discovered = oracle.next_discovered = len(SEED_PAGES)

    for round_no in range(1, data.draw(st.integers(1, 4), label="rounds") + 1):
        candidates = [
            (entry.url, entry.oid, entry.sid)
            for frontier in frontiers
            for entry in frontier._entries.values()
            if entry.status == "frontier"
        ]
        if not candidates:
            break
        pages = draw_round(data, candidates)

        # Records: commit, then each destination merges its queues in a drawn order.
        for shard, (failures, visits, by_source) in enumerate(oracle.commit(round_no, pages)):
            queues = data.draw(st.permutations(list(by_source.values())), label="queue order")
            apply_records(
                frontiers[shard], writers[shard], CONFIG.max_retries, failures, visits, queues
            )

        # Columns: outcome batches in, ApplyRounds out, destinations in a drawn order.
        outcomes = {}
        for page in pages:
            outcomes.setdefault(page.sid % shards, OutcomeBatch()).add(
                page.pos, page.sid, failure=page.failure, relevance=page.relevance,
                best_leaf=page.best_leaf, hard_accepts=page.hard_accepts, targets=page.targets,
            )
        selected = [(None, page.oid, page.url, page.sid % shards) for page in pages]
        applies, headers, links = engine._commit(round_no, selected, outcomes)
        engine._fold_edges(headers, links)
        for shard in data.draw(st.permutations(range(shards)), label="service order"):
            applies[shard].finish = FinishRound(round=round_no)
            workers[shard].apply_round(applies[shard])

        assert engine._tick == oracle.tick
        assert engine._next_discovered == oracle.next_discovered
        assert engine._relevance == oracle.relevance
        src, dst, oids = engine._graph.arrays()
        rows = oracle.scoring_rows()
        assert [(oids[s], oids[d]) for s, d in zip(src.tolist(), dst.tolist())] == [
            (row[0], row[2]) for row in rows
        ]
        assert oids == list(dict.fromkeys(oid for row in rows for oid in (row[0], row[2])))
        for shard in range(shards):
            assert shard_state(workers[shard].frontier, workers[shard].database) == shard_state(
                frontiers[shard], stores[shard]
            ), f"round {round_no}, shard {shard} of {shards}"


@pytest.mark.parametrize("seed", SEEDS)
def test_column_route_applies_what_the_record_route_applies(seed):
    run = settings(max_examples=60, deadline=None, database=None)(given(st.data())(check_rounds))
    seed_hypothesis(seed)(run)()


def test_merge_handoffs_is_schedule_invariant():
    """The oracle's own contract: any delivery order of the queues merges the same."""
    import random

    records = [
        HandoffRecord(
            round=r, pos=p, link_idx=i, src_oid=1, src_sid=1,
            dst_url=f"u{r}{p}{i}", dst_oid=10 * r + p, dst_sid=2,
            src_relevance=0.5, discovered=r * 100 + p * 10 + i,
        )
        for r in (1, 2)
        for p in (0, 1, 2)
        for i in (0, 1)
    ]
    rng = random.Random(7)
    reference = merge_handoffs([records])
    for _ in range(10):
        shuffled = records[:]
        rng.shuffle(shuffled)
        cut = rng.randrange(len(shuffled) + 1)
        queues = [
            sorted(shuffled[:cut], key=HandoffRecord.sort_key),
            sorted(shuffled[cut:], key=HandoffRecord.sort_key),
        ]
        assert merge_handoffs(queues) == reference


class TestVerifiedOnReceipt:
    """A batch out of canonical order, short, or with a gap is refused by name."""

    TARGETS = UNIVERSE[5:8]

    def batch(self) -> ApplyRound:
        """Two citing pages of three links each; the second's middle link lives elsewhere."""
        urls, oids, sids = (list(column) for column in zip(*self.TARGETS))
        return ApplyRound(
            round=7, pos=[2, 5], src_oid=[11, 12], src_sid=[3, 10], src_relevance=[0.5, 0.25],
            priority=[0.5, None], disc_base=[100, 103], links=[3, 3], count=[3, 2],
            link_idx=[0, 1, 2, 0, 2], dst_url=urls + urls[::2], dst_oid=oids + oids[::2],
            dst_sid=sids + sids[::2],
        )

    def test_a_canonical_batch_numbers_its_links(self):
        assert self.batch().discovery_numbers() == [100, 101, 102, 103, 105]

    def test_links_out_of_order_within_a_page(self):
        apply = self.batch()
        apply.link_idx[0:2] = [1, 0]
        with pytest.raises(HandoffOrderError, match="round 7, position 2"):
            apply.discovery_numbers()

    def test_pages_out_of_order(self):
        apply = self.batch()
        for column in (apply.pos, apply.disc_base):
            column.reverse()
        with pytest.raises(HandoffOrderError, match="round 7, position"):
            apply.discovery_numbers()

    def test_gap_in_a_page_whose_links_all_live_here(self):
        apply = self.batch()
        apply.link_idx[0:3] = [0, 1, 3]
        with pytest.raises(HandoffOrderError, match="round 7, position 2.*gap"):
            apply.discovery_numbers()

    def test_a_page_overlapping_the_one_before(self):
        apply = self.batch()
        apply.disc_base[1] = 101
        with pytest.raises(HandoffOrderError, match="round 7, position 5"):
            apply.discovery_numbers()

    def test_link_columns_short_of_the_headers(self):
        apply = self.batch()
        apply.dst_url.pop()
        with pytest.raises(HandoffOrderError, match="round 7.*count 5 links"):
            apply.discovery_numbers()

    def test_a_refused_batch_is_never_applied(self):
        worker = bare_worker(0, 1)
        apply = self.batch()
        apply.fail_url.append("http://h0.example.org/0.html")
        apply.fail_permanent.append(True)
        apply.link_idx[0:2] = [1, 0]
        with pytest.raises(HandoffOrderError):
            worker.apply_round(apply)
        assert not worker.frontier._pending_new and not worker.frontier._changed
        assert worker.frontier.known_urls() == []
        assert len(worker.database.table("LINK")) == 0

    def test_outcomes_not_in_selection_order_are_refused(self):
        engine = ShardedEngine(None, CONFIG, CrawlTrace(), shards=1)
        (url_a, oid_a, sid_a), (url_b, oid_b, sid_b) = UNIVERSE[0], UNIVERSE[1]
        batch = OutcomeBatch()
        batch.add(1, sid_b)
        batch.add(0, sid_a)
        selected = [(None, oid_a, url_a, 0), (None, oid_b, url_b, 0)]
        with pytest.raises(HandoffOrderError, match="round 3: shard 0"):
            engine._commit(3, selected, {0: batch})
