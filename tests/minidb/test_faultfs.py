"""The fault-injection I/O layer itself: counting, crashing, corrupting.

These are the unit tests of the instrument; the property suites in
``test_compaction.py`` are what the instrument is *for*.
"""

import os

import pytest

from repro.minidb import Database, FLOAT, INTEGER, StorageConfig, make_schema
from repro.minidb.backend import SEGMENT_FILE, WAL_FILE
from fault_injection import (
    FaultInjector,
    SimulatedCrash,
    flip_byte,
    hard_close,
    truncate_tail,
)
from repro.minidb.wal import WriteAheadLog


def simple_schema():
    return make_schema(("k", INTEGER, False), ("v", FLOAT), primary_key=["k"])


class TestCounting:
    def test_wal_appends_are_counted_writes(self, tmp_path):
        injector = FaultInjector()
        wal = WriteAheadLog(tmp_path / "wal.dat", ops=injector)
        created = injector.op_count  # header: truncate + magic + epoch
        assert [e.kind for e in injector.events[:3]] == ["truncate", "write", "write"]
        wal.append(("insert", "T", [(1,)]))
        # One frame is two writes: header then payload.
        assert injector.op_count == created + 2
        wal.sync()
        assert injector.events[-1].kind == "fsync"
        wal.close()

    def test_event_paths_name_the_files(self, tmp_path):
        injector = FaultInjector()
        db = Database.open(str(tmp_path / "db"), storage=StorageConfig(ops=injector))
        table = db.create_table("T", simple_schema())
        table.insert((1, 1.0))
        db.checkpoint()
        touched = {os.path.basename(event.path) for event in injector.events}
        assert WAL_FILE in touched
        assert SEGMENT_FILE in touched
        assert any(name.startswith("snapshot.dat") for name in touched)
        db.close()

    def test_replace_and_remove_are_counted(self, tmp_path):
        injector = FaultInjector()
        victim = tmp_path / "a"
        victim.write_bytes(b"x")
        injector.replace(victim, tmp_path / "b")
        injector.remove(tmp_path / "b")
        assert [e.kind for e in injector.events] == ["replace", "remove"]
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


class TestCrashing:
    def test_crash_at_write_tears_the_frame(self, tmp_path):
        injector = FaultInjector()
        wal = WriteAheadLog(tmp_path / "wal.dat", ops=injector)
        wal.append(("insert", "T", [(1,)]))
        size_before = os.path.getsize(tmp_path / "wal.dat")
        # Crash at the *payload* write of the next frame: the header and
        # half the payload reach the file — a torn tail.
        injector.crash_at = injector.op_count + 1
        with pytest.raises(SimulatedCrash):
            wal.append(("insert", "T", [(2,)]))
        torn_size = os.path.getsize(tmp_path / "wal.dat")
        assert size_before + 8 < torn_size  # header plus a partial payload
        wal._fh.close()

        reopened = WriteAheadLog(tmp_path / "wal.dat")
        assert reopened.replay() == [("insert", "T", [(1,)])]
        reopened.close()

    def test_partial_writes_can_be_disabled(self, tmp_path):
        injector = FaultInjector(partial_writes=False)
        wal = WriteAheadLog(tmp_path / "wal.dat", ops=injector)
        size_before = os.path.getsize(tmp_path / "wal.dat")
        injector.crash_at = injector.op_count  # the next header write
        with pytest.raises(SimulatedCrash):
            wal.append(("insert", "T", [(1,)]))
        assert os.path.getsize(tmp_path / "wal.dat") == size_before
        wal._fh.close()

    def test_dead_process_refuses_further_io(self, tmp_path):
        injector = FaultInjector()
        wal = WriteAheadLog(tmp_path / "wal.dat", ops=injector)
        injector.crash_at = injector.op_count
        with pytest.raises(SimulatedCrash):
            wal.append(("insert", "T", [(1,)]))
        assert injector.crashed
        # Anything after the crash is I/O a dead process cannot perform.
        with pytest.raises(SimulatedCrash):
            wal.sync()
        with pytest.raises(SimulatedCrash):
            wal.append(("insert", "T", [(2,)]))
        wal._fh.close()

    def test_crash_inside_checkpoint_then_hard_close(self, tmp_path):
        injector = FaultInjector()
        db = Database.open(str(tmp_path / "db"), storage=StorageConfig(ops=injector))
        table = db.create_table("T", simple_schema())
        table.insert_many([(k, float(k)) for k in range(10)])
        injector.crash_at = injector.op_count + 3
        with pytest.raises(SimulatedCrash):
            db.checkpoint()
        hard_close(db)
        assert db.backend._segments.closed
        assert db.backend.wal._fh.closed

        recovered = Database.open(str(tmp_path / "db"))
        assert sorted(row[0] for row in recovered.table("T").rows()) == list(range(10))
        recovered.close()


def pinned_state(db):
    """What a coordinator resuming from the snapshot sees: rows and ``app_state``."""
    return sorted(db.table("T").rows()), db.app_state()


class TestAppStateCrashWalk:
    """Crash at every I/O point of a checkpoint whose ``app_state`` changes.

    The ``app_state`` stands for a crawl checkpoint's record, written
    whole at every save.  Recovery pinned to the snapshot
    (``replay_wal=False``, how a crawl resumes) must find the previous
    checkpoint or the new one — rows and ``app_state`` — and never a mix
    of the two.  ``test_compaction.py::TestCrashWalk`` walks a
    compacting checkpoint the same way.
    """

    def run_workload(self, path, crash_offset=None):
        """Returns ``(database, before, after, points)``; on a crash *after* is None."""
        injector = FaultInjector()
        db = Database.open(
            str(path), page_size=512, storage=StorageConfig(ops=injector, compact_every=0)
        )
        table = db.create_table("T", simple_schema())
        table.insert_many([(k, float(k)) for k in range(60)])
        db.checkpoint(app_state={"saves": 1, "rows": 60})
        table.update_rows(
            [(rid, {"v": -1.0}) for rid, row in list(table.scan()) if row[0] % 3 == 0]
        )
        db.checkpoint(app_state={"saves": 2, "rows": 60})
        before = pinned_state(db)
        table.insert_many([(100 + k, 0.5) for k in range(20)])
        start = injector.op_count
        if crash_offset is not None:
            injector.crash_at = start + crash_offset
        try:
            db.checkpoint(app_state={"saves": 3, "rows": 80})
        except SimulatedCrash:
            return db, before, None, 0
        return db, before, pinned_state(db), injector.op_count - start

    def test_recovery_is_the_previous_or_the_new_checkpoint(self, tmp_path):
        db, before, after, points = self.run_workload(tmp_path / "dry")
        assert before != after and points > 8  # pages + snapshot + WAL
        db.close()

        seen = []
        for crash_offset in range(points):
            path = tmp_path / f"crash-{crash_offset}"
            crashed, _, _, _ = self.run_workload(path, crash_offset=crash_offset)
            hard_close(crashed)

            with Database.open(str(path), replay_wal=False) as recovered:
                rows, app_state = state = pinned_state(recovered)
                assert state in (before, after), f"a mix after I/O point {crash_offset}"
                assert app_state["rows"] == len(rows)
                seen.append(state == after)
                # The survivor saves on from whichever checkpoint it woke up with.
                recovered.table("T").insert((500, 5.0))
                survivor = {"saves": app_state["saves"] + 1, "rows": len(rows) + 1}
                recovered.checkpoint(app_state=survivor)
            with Database.open(str(path), replay_wal=False) as reopened:
                assert pinned_state(reopened) == (sorted(rows + [(500, 5.0)]), survivor)
        # The walk crossed the commit point, and never went back.
        assert seen[0] is False and seen[-1] is True
        assert seen == sorted(seen)


class TestConstructorCrash:
    def test_crash_during_wal_creation_is_survivable(self, tmp_path):
        """Even the very first header write is a legal kill point."""
        for index in range(3):  # truncate, magic write, epoch write
            target = tmp_path / f"wal-{index}.dat"
            injector = FaultInjector(crash_at=index)
            with pytest.raises(SimulatedCrash):
                WriteAheadLog(target, ops=injector)
            reopened = WriteAheadLog(target)
            assert reopened.epoch == 0
            assert reopened.replay() == []
            reopened.close()


class TestCorruptionHelpers:
    def test_truncate_tail(self, tmp_path):
        target = tmp_path / "f"
        target.write_bytes(b"0123456789")
        truncate_tail(target, 4)
        assert target.read_bytes() == b"012345"
        truncate_tail(target, 100)  # clamps at zero
        assert target.read_bytes() == b""

    def test_flip_byte(self, tmp_path):
        target = tmp_path / "f"
        target.write_bytes(b"\x00\x00\x00")
        flip_byte(target, 1)
        assert target.read_bytes() == b"\x00\xff\x00"
        flip_byte(target, 1)  # involutive: flipping back restores
        assert target.read_bytes() == b"\x00\x00\x00"
        with pytest.raises(ValueError, match="past the end"):
            flip_byte(target, 17)

    def test_hard_close_is_a_noop_for_memory_databases(self):
        hard_close(Database())
