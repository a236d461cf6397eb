"""What is left of WAL cut markers and ``StorageConfig.ops_factory``: refusals.

Durable sharded crawls once stamped a ``("__cut__", n)`` record into each
shard database's WAL per round and reopened rewound to one, and minted a
private ``FileOps`` per shard database from ``StorageConfig.ops_factory``.
Both went with sharded checkpoints (README, *Sharded checkpoints
(removed)*).  A WAL still holding a cut record is refused on open, the
factory is not a field, and the fault seam left is ``StorageConfig(ops=...)``,
one per database.
"""

import pytest

from repro.minidb import Database, INTEGER, TEXT, StorageConfig, make_schema
from repro.minidb.errors import StorageError
from repro.minidb.testing import FaultInjector, SimulatedCrash, hard_close


def make_db(path, storage=None) -> Database:
    database = Database.open(str(path), storage=storage)
    database.create_table(
        "T", make_schema(("id", INTEGER, False), ("val", TEXT), primary_key=["id"])
    )
    return database


def ids(database: Database) -> list:
    return sorted(row[0] for row in database.table("T").rows())


class TestRemovedCutMarkers:
    def test_a_parent_written_cut_record_is_refused_on_open(self, tmp_path):
        """The record a parent's shard database logged after each round: no
        replay knows it, so the open fails naming it rather than skipping it."""
        database = make_db(tmp_path)
        database.table("T").insert((1, "round one"))
        database.backend.log(("__cut__", 1))
        database.sync_wal()
        database.close()
        with pytest.raises(StorageError, match="__cut__"):
            Database.open(str(tmp_path))

    def test_a_refused_open_changes_no_byte(self, tmp_path):
        """The refusal comes from reading the log, not from repairing it: the
        snapshot, segments and WAL a parent left are as they were."""
        database = make_db(tmp_path)
        database.table("T").insert((1, "snapshotted"))
        database.checkpoint()
        database.table("T").insert((2, "round two"))
        database.backend.log(("__cut__", 2))
        database.sync_wal()
        database.close()
        before = {entry.name: entry.read_bytes() for entry in sorted(tmp_path.iterdir())}
        with pytest.raises(StorageError, match="__cut__"):
            Database.open(str(tmp_path))
        assert {entry.name: entry.read_bytes() for entry in sorted(tmp_path.iterdir())} == before

    def test_a_snapshot_pinned_open_discards_a_cut_record(self, tmp_path):
        """``replay_wal=False`` — how a crawl checkpoint reopens its database —
        never reads the tail, so a cut record there is dropped with it."""
        database = make_db(tmp_path)
        database.table("T").insert((1, "snapshotted"))
        database.checkpoint()
        database.table("T").insert((2, "after the snapshot"))
        database.backend.log(("__cut__", 1))
        database.sync_wal()
        database.close()
        with Database.open(str(tmp_path), replay_wal=False) as pinned:
            assert ids(pinned) == [1]
        with Database.open(str(tmp_path)) as reopened:
            assert ids(reopened) == [1]

    def test_the_cut_api_is_gone(self, tmp_path):
        with pytest.raises(TypeError, match="replay_upto_cut"):
            Database.open(str(tmp_path), replay_upto_cut=1)
        with make_db(tmp_path / "db") as database:
            assert not hasattr(database, "log_cut")
        assert not hasattr(Database(), "log_cut")

    def test_ops_factory_is_not_a_storage_field(self):
        with pytest.raises(TypeError, match="ops_factory"):
            StorageConfig(ops_factory=FaultInjector)


class TestFileOpsPerDatabase:
    def test_two_databases_fault_inject_independently(self, tmp_path):
        """Each database opened with its own ``StorageConfig(ops=...)``: a crash
        injected into one leaves the other's counter, state and writes alone."""
        ops_a, ops_b = FaultInjector(), FaultInjector()
        db_a = make_db(tmp_path / "a", StorageConfig(ops=ops_a))
        db_b = make_db(tmp_path / "b", StorageConfig(ops=ops_b))
        count_b = ops_b.op_count

        ops_a.crash_at = ops_a.op_count  # the very next I/O on A
        with pytest.raises(SimulatedCrash):
            db_a.table("T").insert((1, "boom"))
        hard_close(db_a)

        assert ops_a.crashed and not ops_b.crashed
        assert ops_b.op_count == count_b
        db_b.table("T").insert((1, "fine"))
        db_b.close()
        with Database.open(str(tmp_path / "b")) as reopened:
            assert ids(reopened) == [1]
        with Database.open(str(tmp_path / "a")) as reopened:
            assert ids(reopened) == []
