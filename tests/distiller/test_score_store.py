"""ScoreTableStore: delta writes must be indistinguishable from rewrites.

The reference semantics are the engine's historical ``truncate() +
insert_many(scores.items())``.  The delta writer must produce the same
logical table contents after any sequence of distillation results —
including after its cache is invalidated mid-sequence (the resume
path) — while writing strictly less WAL on a durable database.
"""

import random

import pytest

from repro.core.schema import create_focus_database
from repro.distiller.score_store import ScoreTableStore


def score_sequence(seed, steps=6, universe=40):
    """A deterministic evolution of score dicts: drift + churn."""
    rng = random.Random(seed)
    scores = {oid: rng.random() for oid in rng.sample(range(universe), 25)}
    sequence = [dict(scores)]
    for _ in range(steps - 1):
        for oid in rng.sample(sorted(scores), len(scores) // 3):
            scores[oid] = rng.random()  # drift a third of them
        for oid in rng.sample(sorted(scores), 3):
            del scores[oid]  # churn: drop a few...
        for oid in rng.sample(range(universe), 4):
            scores.setdefault(oid, rng.random())  # ...and add a few
        sequence.append(dict(scores))
    return sequence


def reference_store(table, scores):
    table.truncate()
    table.insert_many(scores.items())


def table_rows(database, name):
    return sorted(database.table(name).rows())


class TestEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_truncate_rewrite_at_every_step(self, seed):
        delta_db = create_focus_database(buffer_pool_pages=64)
        reference_db = create_focus_database(buffer_pool_pages=64)
        store = ScoreTableStore(delta_db)
        for scores in score_sequence(seed):
            store.store("HUBS", scores)
            reference_store(reference_db.table("HUBS"), scores)
            assert table_rows(delta_db, "HUBS") == table_rows(reference_db, "HUBS")

    def test_invalidate_mid_sequence_is_equivalent(self):
        """The resume path: a rebuilt cache continues bit-identically."""
        steady = create_focus_database(buffer_pool_pages=64)
        resumed = create_focus_database(buffer_pool_pages=64)
        steady_store = ScoreTableStore(steady)
        resumed_store = ScoreTableStore(resumed)
        for step, scores in enumerate(score_sequence(7, steps=8)):
            steady_store.store("AUTH", scores)
            if step == 4:
                resumed_store.invalidate()
            resumed_store.store("AUTH", scores)
            assert table_rows(steady, "AUTH") == table_rows(resumed, "AUTH")

    def test_unchanged_scores_are_rewritten(self):
        """An identical result updates every kept row in place: no row is
        inserted or deleted, and the table holds the same scores."""
        db = create_focus_database(buffer_pool_pages=64)
        store = ScoreTableStore(db)
        scores = {oid: 0.5 for oid in range(20)}
        store.store("HUBS", scores)
        assert store.rows_written == 20
        rids = sorted(rid for rid, _row in db.table("HUBS").scan())
        store.store("HUBS", dict(scores))  # identical result
        assert store.rows_written == 40
        assert sorted(rid for rid, _row in db.table("HUBS").scan()) == rids
        assert table_rows(db, "HUBS") == sorted(scores.items())

    def test_writes_less_wal_than_truncate_rewrite(self, tmp_path):
        """Every kept row is rewritten, yet it journals less than a full
        rewrite: the kept scores go out as one column-shaped record
        (``update_column``), where the rewrite journals a truncate plus a
        whole-row insert of every score."""
        rng = random.Random(11)
        scores = {oid: rng.random() for oid in range(400)}
        sequence = []
        for _ in range(10):
            for oid in rng.sample(range(400), 12):  # a small moving tail
                scores[oid] = rng.random()
            sequence.append(dict(scores))

        delta_db = create_focus_database(path=str(tmp_path / "delta"))
        reference_db = create_focus_database(path=str(tmp_path / "ref"))
        store = ScoreTableStore(delta_db)
        for scores in sequence:
            store.store("HUBS", scores)
            reference_store(reference_db.table("HUBS"), scores)
        assert table_rows(delta_db, "HUBS") == table_rows(reference_db, "HUBS")
        assert (
            delta_db.backend.wal_bytes_written
            < reference_db.backend.wal_bytes_written
        )
        delta_db.close()
        reference_db.close()
