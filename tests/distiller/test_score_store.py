"""The score tables: ``write_scores`` must be a plain rewrite.

The reference semantics are ``truncate() + insert_many(scores.items())``
of the non-zero scores.  ``write_scores`` must produce the same logical
table contents — and the same rows in the same order — after any
sequence of distillation results, including across a database that is
closed and recovered mid-sequence (the resume path).
"""

import random

import pytest

from repro.core.schema import create_focus_database
from repro.crawler.engine import write_scores


def score_sequence(seed, steps=6, universe=40):
    """A deterministic evolution of score dicts: drift + churn + zeros."""
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
        for oid in rng.sample(sorted(scores), 2):
            scores[oid] = 0.0  # a node whose score vanished
        sequence.append(dict(scores))
    return sequence


def reference_store(table, scores):
    table.truncate()
    table.insert_many([(oid, score) for oid, score in scores.items() if score != 0.0])


def store(table, scores):
    write_scores(table, list(scores), list(scores.values()))


def table_rows(database, name):
    return list(database.table(name).rows())


class TestEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_truncate_rewrite_at_every_step(self, seed):
        written = create_focus_database(buffer_pool_pages=64)
        reference_db = create_focus_database(buffer_pool_pages=64)
        for scores in score_sequence(seed):
            store(written.table("HUBS"), scores)
            reference_store(reference_db.table("HUBS"), scores)
            assert table_rows(written, "HUBS") == table_rows(reference_db, "HUBS")
            assert dict(table_rows(written, "HUBS")) == {
                oid: score for oid, score in scores.items() if score != 0.0
            }

    def test_invalidate_mid_sequence_is_equivalent(self, tmp_path):
        """The resume path: a database recovered mid-sequence continues identically."""
        steady = create_focus_database(buffer_pool_pages=64)
        path = str(tmp_path / "resumed")
        resumed = create_focus_database(buffer_pool_pages=64, path=path)
        for step, scores in enumerate(score_sequence(7, steps=8)):
            store(steady.table("AUTH"), scores)
            if step == 4:
                resumed.close()
                resumed = create_focus_database(buffer_pool_pages=64, path=path)
            store(resumed.table("AUTH"), scores)
            assert table_rows(steady, "AUTH") == table_rows(resumed, "AUTH")
        resumed.close()

    def test_unchanged_scores_are_rewritten(self):
        """An identical result rewrites the table whole: one truncate and
        one insert of every score, and the table holds the same scores."""
        db = create_focus_database(buffer_pool_pages=64)
        journal = []
        db.table("HUBS").set_journal(journal.append)
        scores = {oid: 0.5 for oid in range(20)}
        store(db.table("HUBS"), scores)
        store(db.table("HUBS"), dict(scores))  # identical result
        rows = sorted(scores.items())
        assert journal == [("truncate", "HUBS"), ("insert", "HUBS", rows)] * 2
        assert table_rows(db, "HUBS") == rows
