"""Delta persistence for the HUBS/AUTH distillation score tables.

The crawl engine historically stored each distillation's scores by
truncating the score table and re-inserting every row.  That is simple,
but on a durable database it is also the single biggest write
amplifier: every distillation rewrites every score page and journals a
truncate plus a full re-insert.

:class:`ScoreTableStore` keeps an ``oid -> record id`` map per table and
writes each distillation as three batches:

* every score of an oid that already has a row goes through
  :meth:`Table.update_column` (L1 re-normalisation moves nearly every
  score at every run, so no compare against the stored value is made):
  ``score`` is unindexed and non-key, so the batch is validated as one
  column, assigned into the pages' column chunks in place, and journaled
  as one column-shaped record;
* new oids are bulk-inserted;
* oids that vanished from the result are deleted (in sorted order, so
  a cache rebuilt after a checkpoint resume issues the identical
  mutation sequence an uninterrupted run would).

The crawl's distillation kernel hands its scores over as a dense vector
(:meth:`ScoreTableStore.store_dense`); the three sets are then computed
by vector compares instead of a dict walk, and the mutations issued are
the same ones, in the same order.

The cache is soft state: :meth:`invalidate` drops it and the next
:meth:`store` rebuilds it with one table scan — which is how a resumed
crawl re-synchronises with the replayed database.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

__all__ = ["ScoreTableStore"]


class _DenseState:
    """What a table holds, aligned to a graph's dense node index."""

    __slots__ = ("oids", "rids", "has_row")

    def __init__(self, oids: Sequence[int]) -> None:
        #: The (append-only) node list the alignment is against.
        self.oids = oids
        #: Dense index -> record id of that node's row (None: no row).
        self.rids: List[Optional[int]] = []
        self.has_row = np.zeros(0, dtype=np.bool_)

    def grow(self, nodes: int) -> None:
        extra = nodes - len(self.rids)
        if extra > 0:
            self.rids.extend([None] * extra)
            self.has_row = np.concatenate([self.has_row, np.zeros(extra, dtype=np.bool_)])


class ScoreTableStore:
    """Write distillation scores into their table as update, delete and insert batches.

    :meth:`store` takes the scores as a dict, :meth:`store_dense` as a
    vector over a graph's dense node list; both issue the same mutation
    sequence for the same scores.  A table is written through one form
    or the other: switching forms rebuilds the cache from a table scan.
    """

    def __init__(self, database) -> None:
        self.database = database
        #: table name -> oid -> record id of that oid's row.
        self._rids: Dict[str, Dict[int, int]] = {}
        #: table name -> the same map in dense form (store_dense).
        self._dense: Dict[str, _DenseState] = {}
        #: Rows touched (updated + inserted + deleted) since construction.
        self.rows_written = 0

    def invalidate(self) -> None:
        """Drop the caches (after a resume); the next store rescans."""
        self._rids.clear()
        self._dense.clear()

    def store(self, name: str, scores: Mapping[int, float]) -> None:
        """Make table *name* hold exactly *scores*."""
        table = self.database.table(name)
        self._dense.pop(name, None)
        rids = self._rids.get(name)
        if rids is None:
            rids = self._rids[name] = {row[0]: rid for rid, row in table.scan()}

        kept = {}
        inserts = []
        for oid, score in scores.items():
            rid = rids.get(oid)
            if rid is None:
                inserts.append((oid, score))
            else:
                kept[rid] = score
        removed = sorted(oid for oid in rids if oid not in scores)

        new_rids = self._write(table, kept, [rids.pop(oid) for oid in removed], inserts)
        for (oid, _score), rid in zip(inserts, new_rids):
            rids[oid] = rid

    def store_dense(self, name: str, oids: Sequence[int], scores: np.ndarray) -> None:
        """:meth:`store` of ``{oids[i]: scores[i]}`` over the non-zero scores.

        *oids* is a graph's append-only node list: an index means the
        same node on every call, so which nodes have a row is kept as a
        mask beside *scores* and the three batches are mask compares.
        """
        table = self.database.table(name)
        nodes = len(scores)
        state = self._dense.get(name)
        rebuild = state is None or state.oids is not oids
        if rebuild:
            self._rids.pop(name, None)
            state = self._dense[name] = _DenseState(oids)
        state.grow(nodes)
        rids = state.rids
        #: (oid, rid) of rows for oids outside the node list: to be deleted.
        foreign: List[tuple] = []
        if rebuild:
            index_of = {oid: index for index, oid in enumerate(oids[:nodes])}
            for rid, row in table.scan():
                index = index_of.get(row[0])
                if index is None:
                    foreign.append((row[0], rid))
                else:
                    rids[index] = rid
                    state.has_row[index] = True
        scored = scores != 0.0
        has_row = state.has_row
        kept_at = np.flatnonzero(has_row & scored)
        insert_at = np.flatnonzero(scored & ~has_row).tolist()
        removed_at = np.flatnonzero(has_row & ~scored).tolist()

        kept = dict(zip(map(rids.__getitem__, kept_at.tolist()), scores[kept_at].tolist()))
        inserts = [(oids[index], score) for index, score in zip(insert_at, scores[insert_at].tolist())]
        removed = sorted(
            [(oids[index], rids[index]) for index in removed_at] + foreign,
            key=lambda pair: pair[0],
        )
        new_rids = self._write(table, kept, [rid for _oid, rid in removed], inserts)
        for index in removed_at:
            rids[index] = None
        for index, rid in zip(insert_at, new_rids):
            rids[index] = rid
        state.has_row = scored

    def _write(self, table, kept: dict, removed_rids: list, inserts: list) -> list:
        """Update (rid -> score), delete, insert — in that order; returns the inserted rows' rids."""
        if kept:
            table.update_column("score", kept)
        for rid in removed_rids:
            table.delete_row(rid)
        self.rows_written += len(kept) + len(removed_rids) + len(inserts)
        return table.insert_many(inserts) if inserts else []
