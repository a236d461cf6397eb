"""Cross-shard handoff: the column-batch messages of the sharded round.

The sharded engine (:mod:`repro.crawler.sharded`) partitions the crawl
by server: shard ``i`` owns every host whose ``sid % N == i``, and with
it that host's frontier entries, CRAWL rows, fetch draws, and — because
LINK rows are routed by *destination* — the incoming half of the link
graph.  Everything that crosses a shard boundary is one of the messages
below, and every message is *columns*: one list per field, never one
object per page or per link — the store's native shape (a page is a set
of column chunks), a handful of flat lists to pickle, and a commit that
is arithmetic on the columns.

The canonical order is the whole determinism story, so it is defined
here, once:

* a citing page is identified by ``pos`` — its *global* position in the
  round's merged checkout order — and a link by ``link_idx``, its index
  in that page's de-duplicated out-link list;
* the coordinator numbers every out-link from one running counter in
  ``(pos, link_idx)`` order (a page's links take ``disc_base ..
  disc_base + links - 1``), so discovery order — what breadth-first
  style orderings sort by — is shard-count invariant;
* a destination shard receives its links already in that order, as
  per-citing-page headers plus per-link columns (:class:`ApplyRound`),
  and *verifies* it on receipt (:meth:`ApplyRound.discovery_numbers`)
  rather than re-sorting: a batch that is out of order, short, or has a
  hole where it must be contiguous is refused by name, never applied.

The same objects cross a ``multiprocessing`` pipe to spawned workers
(pickled) or are handed over by reference within the in-process runner —
so a receiver never mutates or keeps a received column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, repeat
from operator import ge
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ApplyRound",
    "CheckoutRequest",
    "FinishRound",
    "HandoffOrderError",
    "OutcomeBatch",
    "SelectionMsg",
    "per_link",
    "route_links",
]


def per_link(column: Sequence, counts: Sequence[int]) -> list:
    """A citing-page column spread over the link columns: entry *i*, ``counts[i]`` times."""
    return list(chain.from_iterable(map(repeat, column, counts)))


def route_links(applies: Sequence["ApplyRound"], headers: Sequence[list], links: Sequence[list]):
    """Deal one round's links to their destination shards (``dst_sid % N``).

    *headers* are the citing pages' columns (:data:`ApplyRound.HEADERS`
    but ``count``), *links* the per-link columns (:data:`ApplyRound.LINKS`),
    both in canonical order; ``headers[-1]`` counts each page's links.
    Every destination takes its slice of each column — order kept, a
    header only where at least one of the page's links is its own.
    """
    shards = len(applies)
    owner = [sid % shards for sid in links[-1]]
    stops = list(accumulate(headers[-1]))
    for shard, apply in enumerate(applies):
        mine = [shard == other for other in owner]
        count = [sum(mine[start:stop]) for start, stop in zip([0] + stops, stops)]
        for name, column in zip(apply.HEADERS, (*headers, count)):
            setattr(apply, name, list(compress(column, count)))
        for name, column in zip(apply.LINKS, links):
            setattr(apply, name, list(compress(column, mine)))


class HandoffOrderError(ValueError):
    """A column batch arrived out of canonical order, short, or with a hole."""


@dataclass
class FinishRound:
    """Coordinator -> shard: the second half of a round's commit.

    Scores (when the round distilled; each table rewritten whole), then the §3.7
    hub boosts over the local LINK partition, then the frontier flush.
    Rides inside the :class:`ApplyRound` of a round that does not
    distil; a distilling round's follows in the next
    :class:`CheckoutRequest`, computed while the shards wrote the links.
    """

    round: int
    #: Table name -> (oid column, score column): this shard's slice of the result.
    scores: Dict[str, Tuple[List[int], List[float]]] = field(default_factory=dict)
    boost_hubs: List[int] = field(default_factory=list)
    boost_priority: float = 0.0


@dataclass
class CheckoutRequest:
    """Coordinator -> shard: close the last round if it is still open
    (*finish*), then reply with your best *k* frontier candidates."""

    k: int
    finish: Optional[FinishRound] = None


@dataclass
class SelectionMsg:
    """Coordinator -> shard: which of your candidates made the global top-K.

    ``selected`` is ``(pos, url)`` in global position order; ``rejected``
    URLs return to the shard's frontier untouched.
    """

    selected: List[Tuple[int, str]] = field(default_factory=list)
    rejected: List[str] = field(default_factory=list)


@dataclass
class OutcomeBatch:
    """Shard -> coordinator: the round's fetch/classify outcomes, as columns.

    One entry per selected page in every page column, in global position
    order (the coordinator knows each position's URL and oid from the
    checkout).  ``links[i]`` entries of the flat target columns belong
    to page *i*: its de-duplicated non-self out-links in page order,
    resolved once, on the fetching shard.
    """

    pos: List[int] = field(default_factory=list)
    sid: List[int] = field(default_factory=list)
    #: None: fetched.  Else the fetch failed — permanently (True) or not.
    failure: List[Optional[bool]] = field(default_factory=list)
    relevance: List[float] = field(default_factory=list)
    best_leaf: List[Optional[int]] = field(default_factory=list)
    hard_accepts: List[bool] = field(default_factory=list)
    links: List[int] = field(default_factory=list)
    dst_url: List[str] = field(default_factory=list)  # normalised
    dst_oid: List[int] = field(default_factory=list)
    dst_sid: List[int] = field(default_factory=list)
    #: FetchStats deltas for this round (attempts/successes/... floats/ints).
    fetch_stats: Dict[str, Any] = field(default_factory=dict)

    def add(
        self, pos, sid, failure=None, relevance=0.0, best_leaf=None, hard_accepts=True,
        targets=(),
    ) -> None:
        """One selected page: a failure, or a visit and its ``(url, oid, sid)`` targets."""
        for column, value in zip(
            (self.pos, self.sid, self.failure, self.relevance,
             self.best_leaf, self.hard_accepts, self.links),
            (pos, sid, failure, relevance, best_leaf, hard_accepts, len(targets)),
        ):
            column.append(value)
        if targets:
            urls, oids, sids = zip(*targets)
            self.dst_url.extend(urls)
            self.dst_oid.extend(oids)
            self.dst_sid.extend(sids)


@dataclass
class ApplyRound:
    """Coordinator -> shard: commit your slice of the round's pages and links.

    Sent the moment ticks and discovery numbers are assigned.  Applied in
    this order (the frontier's CRAWL writes wait for ``finish``'s flush):

    1. failures (checkout order) — retry/dead bookkeeping;
    2. a walk over the citing pages by global position: the visits this
       shard fetched (``visit_*``) interleaved with the frontier
       expansion of each citing page's links that hash here — a page's
       visit commits before its own out-links expand, before the next
       page's visit, exactly the in-process engine's per-page walk (the
       lazily-snapshotted ``serverload`` column is order-sensitive);
    3. LINK rows, built column-wise; this shard owns every destination,
       so ``wgt_fwd`` resolves locally (the destination's relevance when
       visited, else the citing page's);
    4. ``wgt_fwd`` refresh of edges into this round's locally visited
       pages (visit order) — 3 and 4 are one ``BufferedLinkWriter.flush``;
    5. ``finish`` when it rides along (see :class:`FinishRound`).

    The citing-page headers (``pos`` … ``count``) have one entry per page
    with at least one link owned here, and ``count[i]`` entries of the
    per-link columns belong to header *i*.  A link's discovery number is
    ``disc_base + link_idx``; ``links`` is the page's out-link count
    across all destinations.
    """

    round: int
    fail_url: List[str] = field(default_factory=list)
    fail_permanent: List[bool] = field(default_factory=list)
    visit_pos: List[int] = field(default_factory=list)
    visit_url: List[str] = field(default_factory=list)
    visit_tick: List[int] = field(default_factory=list)
    visit_relevance: List[float] = field(default_factory=list)
    visit_leaf: List[Optional[int]] = field(default_factory=list)
    pos: List[int] = field(default_factory=list)
    src_oid: List[int] = field(default_factory=list)
    src_sid: List[int] = field(default_factory=list)
    src_relevance: List[float] = field(default_factory=list)
    #: Frontier priority of the page's targets.  None when the hard focus
    #: rule rejected the citing page: its LINK rows are still written, its
    #: targets do not enter the frontier.
    priority: List[Optional[float]] = field(default_factory=list)
    disc_base: List[int] = field(default_factory=list)
    links: List[int] = field(default_factory=list)
    count: List[int] = field(default_factory=list)
    link_idx: List[int] = field(default_factory=list)
    dst_url: List[str] = field(default_factory=list)
    dst_oid: List[int] = field(default_factory=list)
    dst_sid: List[int] = field(default_factory=list)
    finish: Optional[FinishRound] = None

    #: The citing-page header columns and the per-link columns, by name.
    HEADERS = ("pos", "src_oid", "src_sid", "src_relevance", "priority", "disc_base", "links", "count")
    LINKS = ("link_idx", "dst_url", "dst_oid", "dst_sid")

    def discovery_numbers(self) -> List[int]:
        """Every link's discovery number, after verifying the batch's order.

        Discovery numbers are handed out in canonical ``(pos, link_idx)``
        order, so the numbers of a correctly ordered batch strictly
        increase — within a page and from one page to the next — and a
        page's numbers lie inside ``[disc_base, disc_base + links)``.
        Together that makes a page whose links all live here
        (``count == links``, always so at N=1) gap-free.
        """
        stops = list(accumulate(self.count))
        total = stops[-1] if stops else 0
        if {len(self.link_idx), len(self.dst_url), len(self.dst_oid), len(self.dst_sid)} != {total}:
            raise HandoffOrderError(
                f"round {self.round}: the headers count {total} links, the link columns hold "
                f"{len(self.link_idx)}/{len(self.dst_url)}/{len(self.dst_oid)}/{len(self.dst_sid)}"
            )
        numbers: List[int] = []
        start = 0
        last_number = last_pos = -1
        for pos, base, links, stop in zip(self.pos, self.disc_base, self.links, stops):
            page = [base + link_idx for link_idx in self.link_idx[start:stop]]
            if (
                pos <= last_pos
                or not page
                or page[0] < base
                or page[0] <= last_number
                or page[-1] >= base + links
                or any(map(ge, page, page[1:]))
            ):
                raise HandoffOrderError(
                    f"round {self.round}, position {pos}: links out of canonical order or "
                    f"with a gap (link_idx {self.link_idx[start:stop]} of {links} links)"
                )
            numbers.extend(page)
            start, last_number, last_pos = stop, page[-1], pos
        return numbers
