"""The record route of the sharded round, kept as the column protocol's oracle.

Until the round's messages became column batches
(:mod:`repro.crawler.handoff`), every out-link crossed the pipes as one
:class:`HandoffRecord`, batched per ``(source shard, destination
shard)`` queue, and the destination *sorted* the union of its queues
into the canonical ``(round, pos, link_idx)`` order before applying it.
That route — the coordinator's per-link commit walk, the merge, the
shard's one-record-at-a-time apply and the coordinator's row-tuple
merged graph — lives on here, word for word where it can, so
``test_handoff_columns.py`` can hold the column route to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crawler.engine import expansion_priority


def link_row(
    frontier,
    source_oid: int,
    source_sid: int,
    target_url: str,
    target_oid: int,
    target_sid: int,
    relevance: float,
) -> tuple:
    """One LINK row, in schema order, for an edge out of a page of *relevance*.

    ``wgt_rev`` is the source's relevance (E_B); ``wgt_fwd`` (E_F) is the
    destination's own once it is visited, else the source's.  The
    engine's per-link form, before :meth:`Frontier.expand` took over:
    *target_url* is normalised, and *frontier* must own it.
    """
    entry = frontier.get_normalized(target_url)
    forward = entry.relevance if entry is not None and entry.status == "visited" else relevance
    return (source_oid, source_sid, target_oid, target_sid, forward, relevance)


def link_columns(rows) -> list:
    """LINK *rows* as the six columns a ``BufferedLinkWriter`` buffers."""
    return [list(column) for column in zip(*rows)] if rows else [[] for _ in range(6)]


@dataclass
class HandoffRecord:
    """One out-link crossing (or staying within) a shard boundary."""

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


def merge_handoffs(queues: Sequence[Sequence[HandoffRecord]]) -> List[HandoffRecord]:
    """Merge per-source handoff queues into the canonical apply order.

    Each queue is already internally ordered (FIFO per ``(src, dst)``
    pair); the merge by ``(round, pos, link_idx)`` makes the combined
    order independent of the order the queues were *delivered* in.
    """
    merged: List[HandoffRecord] = []
    for queue in queues:
        merged.extend(queue)
    merged.sort(key=HandoffRecord.sort_key)
    return merged


@dataclass
class Page:
    """One selected page of a round, as the fetching shard reported it."""

    pos: int
    url: str
    oid: int
    sid: int
    #: None: fetched.  Else the fetch failed — permanently (True) or not.
    failure: Optional[bool] = None
    relevance: float = 0.0
    best_leaf: Optional[int] = None
    hard_accepts: bool = True
    #: De-duplicated non-self out-links: ``(normalized_url, oid, sid)``.
    targets: Sequence[Tuple[str, int, int]] = ()


class RecordCoordinator:
    """The coordinator's commit walk, one :class:`HandoffRecord` per link."""

    def __init__(self, shards: int, focus_mode: str) -> None:
        self.shards = shards
        self.focus_mode = focus_mode
        self.tick = 0
        self.next_discovered = 0
        self.relevance: Dict[int, float] = {}
        #: Every LINK row of the crawl in canonical append order.
        self.rows: List[tuple] = []
        self.dst_positions: Dict[int, List[int]] = {}

    def commit(self, round_no: int, pages: Sequence[Page]):
        """Returns per-shard ``(failures, visits, {src shard: records})``."""
        shards = self.shards
        out = [([], [], {}) for _ in range(shards)]
        visited: List[Page] = []
        for page in pages:
            src_shard = page.sid % shards
            if page.failure is not None:
                out[src_shard][0].append((page.url, page.failure))
                continue
            visited.append(page)
            self.tick += 1
            out[src_shard][1].append(
                (page.url, self.tick, page.relevance, page.best_leaf, page.pos)
            )
            self.relevance[page.oid] = page.relevance
            priority = expansion_priority(self.focus_mode, page.relevance, page.hard_accepts)
            for link_idx, (dst_url, dst_oid, dst_sid) in enumerate(page.targets):
                record = HandoffRecord(
                    round=round_no,
                    pos=page.pos,
                    link_idx=link_idx,
                    src_oid=page.oid,
                    src_sid=page.sid,
                    dst_url=dst_url,
                    dst_oid=dst_oid,
                    dst_sid=dst_sid,
                    src_relevance=page.relevance,
                    discovered=self.next_discovered,
                    expand=priority is not None,
                    priority=priority or 0.0,
                )
                self.next_discovered += 1
                out[dst_sid % shards][2].setdefault(src_shard, []).append(record)
                self._append_edge(record)
        self._patch_forward(visited)
        return out

    def _append_edge(self, record: HandoffRecord) -> None:
        relevance = self.relevance.get(record.dst_oid)
        forward = relevance if relevance is not None else record.src_relevance
        self.dst_positions.setdefault(record.dst_oid, []).append(len(self.rows))
        self.rows.append(
            (record.src_oid, record.src_sid, record.dst_oid, record.dst_sid,
             forward, record.src_relevance)
        )

    def _patch_forward(self, visited: Sequence[Page]) -> None:
        for page in visited:
            for position in self.dst_positions.get(page.oid, ()):
                row = self.rows[position]
                self.rows[position] = row[:4] + (page.relevance, row[5])

    def scoring_rows(self) -> List[tuple]:
        """The rows distillation can see: the non-nepotistic ones."""
        return [row for row in self.rows if row[1] != row[3]]


def apply_records(frontier, link_writer, max_retries, failures, visits, queues) -> None:
    """The shard's apply of one round, a record at a time (then the frontier flush)."""
    for url, permanent in failures:
        frontier.record_failure(url, max_retries, permanent=permanent)
    records = merge_handoffs(queues)
    ops = [(visit[4], -1, visit) for visit in visits]
    ops.extend((record.pos, record.link_idx, record) for record in records)
    ops.sort(key=lambda op: (op[0], op[1]))
    for _pos, link_idx, op in ops:
        if link_idx < 0:
            url, tick, relevance, best_leaf, _pos = op
            frontier.record_visit(url, relevance, tick, kcid=best_leaf)
        elif op.expand:
            frontier.add_many_discovered(
                [(op.dst_url, op.dst_oid, op.dst_sid, op.discovered)], op.priority
            )
    rows = [
        link_row(
            frontier, record.src_oid, record.src_sid, record.dst_url,
            record.dst_oid, record.dst_sid, record.src_relevance,
        )
        for record in records
    ]
    link_writer.add_columns(*link_columns(rows))
    for url, _tick, relevance, _leaf, _pos in visits:
        link_writer.refresh(frontier.entry(url).oid, relevance)
    link_writer.flush()
    frontier.flush_batch()
