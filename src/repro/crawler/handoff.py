"""Cross-shard handoff: the message layer of the sharded crawl engine.

The sharded engine (:mod:`repro.crawler.sharded`) partitions the crawl
by server: shard ``i`` owns every host whose ``sid % N == i``, and with
it that host's frontier entries, CRAWL rows, fetch draws, and — because
LINK rows are routed by *destination* — the incoming half of the link
graph.  Out-links discovered on one shard that hash to another are not
applied directly; they are handed off as :class:`HandoffRecord` batches
through ordered per-``(src, dst)`` queues and applied at the round
barrier in one canonical order.

That canonical order is the whole determinism story, so it is defined
here, once:

* every record carries ``(round, pos, link_idx)`` — the round number,
  the *global* position of the citing page in the round's merged
  checkout order, and the index of the link within that page's
  de-duplicated out-link list;
* receivers merge the per-source queues by that key before applying
  (:func:`merge_handoffs`), so the apply order is a pure function of
  the crawl content — never of queue arrival timing;
* discovery numbers are assigned by the coordinator over the same
  canonical order, so breadth-first style orderings are shard-count
  invariant.

Messages are plain picklable dataclasses: the same objects cross a
``multiprocessing`` pipe to spawned workers or a :class:`MessagePipe`
within the in-process runner (whose delivery *schedule* tests permute
to prove timing independence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.webgraph.urls import server_sid

__all__ = [
    "ApplyLinks",
    "ApplyRound",
    "CandidateReply",
    "CheckoutRequest",
    "HandoffRecord",
    "MessagePipe",
    "OutcomeRecord",
    "OutcomeReply",
    "SelectionMsg",
    "merge_handoffs",
    "shard_of_host",
    "shard_of_sid",
]


def shard_of_sid(sid: int, shards: int) -> int:
    """The shard owning server id *sid* (blake2b-derived, process-stable)."""
    return sid % shards


def shard_of_host(host_or_url: str, shards: int) -> int:
    """The shard owning *host* (or the host of a URL)."""
    return server_sid(host_or_url) % shards


@dataclass
class HandoffRecord:
    """One out-link crossing (or staying within) a shard boundary.

    Carries everything the destination shard needs to apply the edge
    without a foreign lookup: the full LINK row identity (the source
    shard knows both sids — ``sid`` is a pure URL hash), the citing
    page's relevance (``wgt_rev``, and the ``wgt_fwd`` fallback when the
    destination is unvisited), and the coordinator-assigned discovery
    number for the frontier insert.  ``expand`` is False when the hard
    focus rule rejected the citing page: the LINK row is still written,
    but the target does not enter the frontier (``expansion_priority``
    returned None; ``link_row`` is written regardless).
    """

    round: int
    pos: int          # global position of the citing page within the round
    link_idx: int     # index within the citing page's deduped out-links
    src_oid: int
    src_sid: int
    dst_url: str      # normalised
    dst_oid: int
    dst_sid: int
    src_relevance: float
    discovered: int   # coordinator-assigned discovery number
    expand: bool = True
    priority: float = 0.0  # frontier priority when expanding

    def sort_key(self) -> Tuple[int, int, int]:
        return (self.round, self.pos, self.link_idx)


def merge_handoffs(
    queues: Sequence[Sequence[HandoffRecord]],
) -> List[HandoffRecord]:
    """Merge per-source handoff queues into the canonical apply order.

    Each queue is already internally ordered (FIFO per ``(src, dst)``
    pair); the merge by ``(round, pos, link_idx)`` makes the combined
    order independent of the order the queues were *delivered* in —
    the property the determinism tests drive schedules against.
    """
    merged: List[HandoffRecord] = []
    for queue in queues:
        merged.extend(queue)
    merged.sort(key=HandoffRecord.sort_key)
    return merged


# -- coordinator <-> shard round messages -------------------------------------------


@dataclass
class CheckoutRequest:
    """Coordinator -> shard: propose your best *k* frontier candidates."""

    round: int
    k: int


@dataclass
class CandidateReply:
    """Shard -> coordinator: locally checked-out candidates, best first.

    ``candidates`` are ``(key, oid, url)`` with *key* the frontier
    ordering key at checkout time — value tuples, so the coordinator's
    merge compares them exactly as the frontier heap would.
    """

    round: int
    shard: int
    candidates: List[Tuple[tuple, int, str]] = field(default_factory=list)


@dataclass
class SelectionMsg:
    """Coordinator -> shard: which of your candidates made the global top-K.

    ``selected`` is ``(pos, url)`` in global position order; ``rejected``
    URLs return to the shard's frontier untouched.
    """

    round: int
    selected: List[Tuple[int, str]] = field(default_factory=list)
    rejected: List[str] = field(default_factory=list)


@dataclass
class OutcomeRecord:
    """One fetch outcome, reported in global position order."""

    pos: int
    url: str
    oid: int
    sid: int
    ok: bool
    permanent: bool = False       # engine.permanent_failure(status)
    server: str = ""
    relevance: float = 0.0
    best_leaf: Optional[int] = None
    hard_accepts: bool = True
    out_degree: int = 0
    #: De-duplicated non-self out-link targets, in out-link order:
    #: ``(normalized_url, oid, sid)`` — resolved once, on the fetching shard.
    targets: List[Tuple[str, int, int]] = field(default_factory=list)


@dataclass
class OutcomeReply:
    """Shard -> coordinator: the round's fetch/classify outcomes plus stats."""

    round: int
    shard: int
    outcomes: List[OutcomeRecord] = field(default_factory=list)
    #: FetchStats deltas for this round (attempts/successes/... floats/ints).
    fetch_stats: Dict[str, Any] = field(default_factory=dict)
    #: Per-stage wall-clock seconds spent by this shard this round.
    timings: Dict[str, float] = field(default_factory=dict)


@dataclass
class ApplyLinks:
    """One per-``(src, dst)`` handoff queue batch inside an apply message."""

    src_shard: int
    records: List[HandoffRecord] = field(default_factory=list)


@dataclass
class ApplyRound:
    """Coordinator -> shard: commit your slice of the round.

    Applied inside one frontier round-buffer, in this order (which the
    receiver derives deterministically, not from field arrival):

    1. failures (checkout order) — retry/dead bookkeeping;
    2. visits ``(url, tick, relevance, best_leaf, pos)`` interleaved
       with the frontier expansions of the merged handoff records by
       global position — a page's visit commits before its own
       out-links expand, before the next page's visit, exactly the
       in-process engine's per-page walk (the lazily-snapshotted
       ``serverload`` column is order-sensitive);
    3. link inserts — the per-source queues merged canonically; the
       destination shard resolves ``wgt_fwd`` locally (destination's
       relevance when visited, else the citing page's);
    4. ``wgt_fwd`` refresh of edges into this round's locally visited
       pages (visit order) — 3 and 4 are one ``BufferedLinkWriter.flush``;
    5. when the round distilled: HUBS/AUTH sublist replacement and §3.7
       hub-neighbour boosts over the local LINK partition.
    """

    round: int
    failures: List[Tuple[str, bool]] = field(default_factory=list)  # (url, permanent)
    visits: List[Tuple[str, int, float, Optional[int], int]] = field(
        default_factory=list
    )
    links: List[ApplyLinks] = field(default_factory=list)
    #: When set, replace this shard's HUBS/AUTH slices: (hub_items, auth_items).
    scores: Optional[Tuple[List[Tuple[int, float]], List[Tuple[int, float]]]] = None
    #: §3.7: top-hub oids to scan the local LINK partition for, plus the floor.
    boost_hubs: List[int] = field(default_factory=list)
    boost_priority: float = 0.0
    #: Durable shards append a WAL cut marker for this round after applying.
    log_cut: bool = False


class MessagePipe:
    """An in-process FIFO standing in for a worker's message pipe.

    The in-process runner gives each shard one inbox pipe; ``send`` is
    fire-and-forget and messages are processed only when the runner
    *drains* the pipe — which a delivery schedule may delay arbitrarily
    relative to other shards.  Per-pipe FIFO is the only ordering
    guarantee, matching a ``multiprocessing`` pipe.
    """

    def __init__(self) -> None:
        self._queue: List[Any] = []

    def send(self, message: Any) -> None:
        self._queue.append(message)

    def pending(self) -> int:
        return len(self._queue)

    def drain(self) -> List[Any]:
        messages, self._queue = self._queue, []
        return messages
